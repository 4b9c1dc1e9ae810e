"""Project model: per-module facts, symbol table, call graph.

Extraction (:func:`extract_module_facts`) is purely intraprocedural —
one file in, one JSON-serializable fact dict out — which is what makes
facts cacheable by file content hash.  Everything cross-module (name
resolution, the call graph) lives in :class:`Program`, rebuilt from
facts on every pass; rules never touch an AST directly.

Dependency signatures (:func:`dependency_signatures`) digest a module's
transitive project imports, so cached per-module *findings* invalidate
exactly when the module or something it (transitively) imports changed.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re

from repro.lint.concurrency import facts as concurrency
from repro.lint.core import FileContext, dotted_name, import_aliases
from repro.lint.semantic.dataflow import FunctionDataflow

FACTS_VERSION = 7

# Environment-variable discipline (SIM304): a string constant that *is*
# a knob name, as opposed to prose mentioning one — hence fullmatch.
_ENV_VAR_RE = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative posix path."""
    name = rel_path[:-3] if rel_path.endswith(".py") else rel_path
    for prefix in ("src/",):
        if name.startswith(prefix):
            name = name[len(prefix):]
    parts = [part for part in name.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or rel_path


def _annotation_name(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.BinOp):  # "TCORConfig | None"
        left = _annotation_name(node.left)
        return left or _annotation_name(node.right)
    if isinstance(node, ast.Subscript):  # Optional[TCORConfig]
        return _annotation_name(node.slice)
    return dotted_name(node)


def _literal_value(node: ast.expr) -> tuple[bool, object]:
    """(ok, JSON-safe value) of a pure-literal expression.

    Tuples/sets become lists and dict keys become strings, so a value
    round-trips unchanged through the JSON fact cache — byte-stable
    warm reruns depend on that.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        if value is None or isinstance(value, (str, int, float, bool)):
            return True, value
        return False, None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        items = []
        for element in node.elts:
            ok, value = _literal_value(element)
            if not ok:
                return False, None
            items.append(value)
        return True, items
    if isinstance(node, ast.Dict):
        table = {}
        for key, value_node in zip(node.keys, node.values):
            if not isinstance(key, ast.Constant):
                return False, None
            ok, value = _literal_value(value_node)
            if not ok:
                return False, None
            table[str(key.value)] = value
        return True, table
    return False, None


class _FunctionExtractor:
    """Summarizes one function body with its dataflow solution."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 cls: dict | None, aliases: dict[str, str],
                 lock_attrs: dict[str, str],
                 module_locks: dict[str, str]) -> None:
        self.func = func
        self.cls = cls
        self.lock_attrs = lock_attrs
        self.module_locks = module_locks
        self.flow = FunctionDataflow(func, aliases)
        self._parents: dict[int, ast.AST] = {}
        for node in self._own_nodes():
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node

    # -- helpers -------------------------------------------------------
    def _own_nodes(self):
        """Nodes of this function's body, nested defs excluded.

        A nested def is yielded (so the parent sees the binding) but
        never entered: its body belongs to its own extractor, and
        counting it here too would double every fact inside it.
        """
        stack = list(self.func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                stack.append(child)

    def _enclosing_stmt(self, node: ast.AST) -> ast.stmt | None:
        # Origins only need *a* statement in the right block; the CFG
        # indexes statements by identity, so walk the block map.
        lineno = getattr(node, "lineno", None)
        if lineno is None:
            return None
        best = None
        for block in self.flow.cfg.blocks.values():
            for stmt in block.stmts:
                if getattr(stmt, "lineno", -1) <= lineno \
                        <= getattr(stmt, "end_lineno", -1):
                    best = stmt
        return best

    # -- the summary ---------------------------------------------------
    def summarize(self) -> dict:
        func = self.func
        param_annotations = {}
        for arg in (list(func.args.posonlyargs) + list(func.args.args)
                    + list(func.args.kwonlyargs)):
            annotation = _annotation_name(arg.annotation)
            if annotation:
                param_annotations[arg.arg] = annotation

        calls: list[dict] = []
        is_generator = False
        local_sym = self._local_symbolic_bindings()

        for node in self._own_nodes():
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                is_generator = True
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if raw is None:
                continue
            head, _, tail = raw.partition(".")
            recorded = raw
            if head in local_sym:
                # l2 = shared.l2; l2.stats.m() records as
                # shared.l2.stats.m so chains resolve.
                recorded = f"{local_sym[head]}.{tail}" if tail \
                    else local_sym[head]
            entry: dict = {"name": recorded, "lineno": node.lineno,
                           "col": node.col_offset}
            if isinstance(self._parents.get(id(node)), ast.Await):
                entry["awaited"] = True
            if raw.split(".")[-1] == "result" and "." in raw:
                # What the receiver of ``x.result()`` was bound to, so
                # SIM201 can tell an executor future from any other.
                entry["recv"] = sorted(self.flow.origin_of_expr(
                    node.func.value, self._enclosing_stmt(node)))
            calls.append(entry)

        summary = {
            "cls": self.cls["name"] if self.cls else None,
            "is_async": isinstance(func, ast.AsyncFunctionDef),
            "is_generator": is_generator,
            "param_annotations": param_annotations,
            "calls": calls,
        }
        if summary["is_async"]:
            summary["async"] = concurrency.async_summary(
                func, self.flow.cfg, self.lock_attrs, self.module_locks)
        return summary

    def _local_symbolic_bindings(self) -> dict[str, str]:
        """Single-assignment locals bound to a self/param attribute chain
        (``l2 = shared.l2``), as dotted chains for call resolution."""
        roots = set(self.flow.params) | {"self", "cls"}
        store_counts: dict[str, int] = {}
        candidates: dict[str, str] = {}
        for node in self._own_nodes():
            if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                         ast.Store):
                store_counts[node.id] = store_counts.get(node.id, 0) + 1
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Attribute):
                dotted = dotted_name(node.value)
                if dotted and dotted.split(".")[0] in roots:
                    candidates[node.targets[0].id] = dotted
        return {name: chain for name, chain in candidates.items()
                if store_counts.get(name) == 1 and name not in roots}


def _class_facts(node: ast.ClassDef) -> dict:
    methods: list[str] = []
    properties: list[str] = []
    counter_fields: dict[str, int] = {}
    attr_types: dict[str, str] = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = {dotted_name(d) for d in item.decorator_list}
            if "property" in decorators or "cached_property" in decorators:
                properties.append(item.name)
            else:
                methods.append(item.name)
            if item.name in ("__init__", "__post_init__"):
                init_params = {}
                for arg in (list(item.args.posonlyargs)
                            + list(item.args.args)
                            + list(item.args.kwonlyargs)):
                    annotation = _annotation_name(arg.annotation)
                    if annotation:
                        init_params[arg.arg] = annotation.split(".")[-1]
                for sub in ast.walk(item):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        targets = sub.targets \
                            if isinstance(sub, ast.Assign) else [sub.target]
                        value = sub.value
                        if isinstance(value, ast.IfExp):
                            # ``x if x is not None else Default()`` —
                            # either branch names the type; prefer the
                            # default-constructor branch.
                            value = (value.orelse
                                     if isinstance(value.orelse, ast.Call)
                                     else value.body)
                        typed = None
                        if isinstance(value, ast.Call):
                            called = dotted_name(value.func)
                            if called:
                                typed = called.split(".")[-1]
                        elif isinstance(value, ast.Name):
                            # self.l2 = l2   (annotated constructor param)
                            typed = init_params.get(value.id)
                        elif isinstance(value, (ast.Dict, ast.DictComp)):
                            typed = "dict"
                        elif isinstance(value, (ast.List, ast.ListComp)):
                            typed = "list"
                        elif isinstance(value, (ast.Set, ast.SetComp)):
                            typed = "set"
                        elif isinstance(value, ast.Constant):
                            # bool first: True is an int to isinstance.
                            if isinstance(value.value, bool):
                                typed = "bool"
                            elif isinstance(value.value, int):
                                typed = "int"
                            elif isinstance(value.value, float):
                                typed = "float"
                        if typed is None and isinstance(sub, ast.AnnAssign):
                            annotation = _annotation_name(sub.annotation)
                            if annotation:
                                typed = annotation.split(".")[-1]
                        if typed is None:
                            continue
                        for tgt in targets:
                            if isinstance(tgt, ast.Attribute) \
                                    and isinstance(tgt.value, ast.Name) \
                                    and tgt.value.id == "self":
                                attr_types[tgt.attr] = typed
        elif isinstance(item, ast.AnnAssign) \
                and isinstance(item.target, ast.Name):
            annotation = _annotation_name(item.annotation)
            if annotation in ("int", "float"):
                counter_fields[item.target.id] = item.lineno
            elif annotation:
                attr_types[item.target.id] = annotation.split(".")[-1]
    return {
        "name": node.name,
        "bases": [dotted_name(base) or "?" for base in node.bases],
        "methods": methods,
        "properties": properties,
        "counter_fields": counter_fields,
        "attr_types": attr_types,
    }


def extract_module_facts(ctx: FileContext) -> dict:
    """One file's semantic facts (JSON-serializable, sha-cacheable)."""
    tree = ctx.tree
    aliases = import_aliases(tree)
    module = module_name_for(ctx.path)

    relative_imports: list[str] = []
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package
            for _ in range(node.level - 1):
                base = base.rsplit(".", 1)[0] if "." in base else ""
            stem = f"{base}.{node.module}" if node.module else base
            for item in node.names:
                relative_imports.append(f"{stem}.{item.name}")

    module_aliases: dict[str, str] = {}
    const_tables: dict[str, object] = {}
    for node in tree.body:
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Name):
                module_aliases[target.id] = value.id
            if value is not None:
                ok, literal = _literal_value(value)
                if ok:
                    const_tables[target.id] = literal

    env_literals: list[dict] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _ENV_VAR_RE.fullmatch(node.value):
            env_literals.append({"name": node.value,
                                 "lineno": getattr(node, "lineno", 1)})

    classes: dict[str, dict] = {}
    functions: dict[str, dict] = {}
    module_locks = concurrency.lock_globals(tree, aliases)

    def visit_function(func, cls: dict | None, lock_attrs: dict[str, str],
                       prefix: str) -> None:
        qual = f"{prefix}{func.name}"
        functions[qual] = _FunctionExtractor(
            func, cls, aliases, lock_attrs, module_locks).summarize()
        for child in ast.walk(func):
            if child is func:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_qual = f"{qual}.<locals>.{child.name}"
                if inner_qual not in functions:
                    functions[inner_qual] = _FunctionExtractor(
                        child, cls, aliases, lock_attrs,
                        module_locks).summarize()

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_function(node, None, {}, "")
        elif isinstance(node, ast.ClassDef):
            cls = _class_facts(node)
            classes[node.name] = cls
            lock_attrs = concurrency.lock_attrs_of_class(node, aliases)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit_function(item, cls, lock_attrs, f"{node.name}.")

    return {
        "version": FACTS_VERSION,
        "module": module,
        "path": ctx.path,
        "imports": aliases,
        "relative_imports": relative_imports,
        "module_aliases": module_aliases,
        "const_tables": const_tables,
        "env_literals": env_literals,
        "classes": classes,
        "functions": functions,
    }


# ----------------------------------------------------------------------
# Whole-program model
# ----------------------------------------------------------------------
class Program:
    """Facts of every scanned module, indexed for call resolution."""

    def __init__(self, facts_by_path: dict[str, dict]) -> None:
        self.modules: dict[str, dict] = {
            facts["module"]: facts for facts in facts_by_path.values()}
        self._class_index: dict[str, list[tuple[str, dict]]] = {}
        for name, facts in self.modules.items():
            for cls_name, cls in facts["classes"].items():
                self._class_index.setdefault(cls_name, []).append(
                    (name, cls))

    # -- lookups -------------------------------------------------------
    def function(self, fq: str) -> dict | None:
        module, _, qual = fq.partition(":")
        facts = self.modules.get(module)
        return facts["functions"].get(qual) if facts else None

    def module_of_target(self, canonical: str) -> str | None:
        """Longest scanned module that prefixes a canonical dotted name."""
        best = None
        for module in self.modules:
            if canonical == module or canonical.startswith(module + "."):
                if best is None or len(module) > len(best):
                    best = module
        return best

    def classes_named(self, name: str) -> list[tuple[str, dict]]:
        return self._class_index.get(name, [])

    def attr_type_of(self, module: str, cls_name: str,
                     attr: str) -> str | None:
        """Inferred type name of ``cls.attr`` (base classes included)."""
        return self._attr_type_of(module, cls_name, attr)

    # -- call resolution -----------------------------------------------
    def _resolve_method(self, module: str, cls_name: str,
                        method: str, seen: set[str] | None = None) -> str | None:
        seen = seen or set()
        key = f"{module}.{cls_name}"
        if key in seen:
            return None
        seen.add(key)
        facts = self.modules.get(module)
        if facts is None:
            return None
        cls = facts["classes"].get(cls_name)
        if cls is None:
            return None
        if method in cls["methods"] or method in cls["properties"]:
            return f"{module}:{cls_name}.{method}"
        for base in cls["bases"]:
            base_leaf = base.split(".")[-1]
            canonical = self._canonical_in(facts, base)
            base_module = self.module_of_target(canonical) if canonical \
                else None
            if base_module and base_leaf in \
                    self.modules[base_module]["classes"]:
                found = self._resolve_method(base_module, base_leaf,
                                             method, seen)
                if found:
                    return found
            else:
                for cand_module, _cls in self.classes_named(base_leaf):
                    found = self._resolve_method(cand_module, base_leaf,
                                                 method, seen)
                    if found:
                        return found
        return None

    def _class_candidates(self, module: str,
                          cls_name: str) -> list[tuple[str, dict]]:
        """(module, class facts) pairs, the caller's module first."""
        out: list[tuple[str, dict]] = []
        facts = self.modules.get(module)
        if facts and cls_name in facts["classes"]:
            out.append((module, facts["classes"][cls_name]))
        for candidate in self.classes_named(cls_name):
            if candidate not in out:
                out.append(candidate)
        return out

    def _attr_type_of(self, module: str, cls_name: str, attr: str,
                      seen: set | None = None) -> str | None:
        """Class name of ``cls_name.<attr>``, searching base classes."""
        seen = seen if seen is not None else set()
        if (module, cls_name) in seen:
            return None
        seen.add((module, cls_name))
        candidates = self._class_candidates(module, cls_name)
        for cand_module, cls in candidates:
            typed = cls["attr_types"].get(attr)
            if typed:
                return typed
        for cand_module, cls in candidates:
            for base in cls["bases"]:
                typed = self._attr_type_of(cand_module,
                                           base.split(".")[-1], attr, seen)
                if typed:
                    return typed
        return None

    def _walk_attr_chain(self, module: str, cls_name: str,
                         attrs: list[str], method: str) -> str | None:
        """Resolve ``<cls>.attr...attr.method`` through attr_types."""
        cur_module, cur_cls = module, cls_name
        for attr in attrs:
            typed = self._attr_type_of(cur_module, cur_cls, attr)
            if typed is None:
                return None
            homes = self.classes_named(typed)
            cur_module = homes[0][0] if homes else cur_module
            cur_cls = typed
        return self._resolve_method_anywhere(cur_module, cur_cls, method)

    def _resolve_method_anywhere(self, home_module: str, cls_name: str,
                                 method: str) -> str | None:
        """Resolve ``cls_name.method`` preferring the caller's module,
        else any scanned module defining a class of that name."""
        found = self._resolve_method(home_module, cls_name, method)
        if found:
            return found
        for cand_module, _cls in self.classes_named(cls_name):
            found = self._resolve_method(cand_module, cls_name, method)
            if found:
                return found
        return None

    @staticmethod
    def _canonical_in(facts: dict, dotted: str) -> str | None:
        head, _, rest = dotted.partition(".")
        canonical = facts["imports"].get(head)
        if canonical is None:
            return None
        return f"{canonical}.{rest}" if rest else canonical

    def resolve_call(self, module: str, caller_qual: str,
                     raw: str) -> str | None:
        """Fully-qualified callee of a raw dotted call target, if it
        resolves to a scanned project function/method."""
        facts = self.modules.get(module)
        if facts is None:
            return None
        head, _, rest = raw.partition(".")

        func = facts["functions"].get(caller_qual)

        if head in ("self", "cls") and rest:
            cls_name = func.get("cls") if func else None
            if cls_name is None:
                return None
            parts = rest.split(".")
            if len(parts) == 1:
                return self._resolve_method(module, cls_name, parts[0])
            # self.<attr>...<method>() — type each hop through the
            # classes' attr_types (self.stats = CacheStats(); self.l2
            # from an annotated constructor param).
            return self._walk_attr_chain(module, cls_name, parts[:-1],
                                         parts[-1])

        # Annotated-parameter receivers: shared.l2.stats.m() where
        # ``shared: SharedL2``.  A parameter shadows any module alias.
        if func and rest and head in func.get("param_annotations", {}):
            root_cls = func["param_annotations"][head].split(".")[-1]
            parts = rest.split(".")
            if len(parts) == 1:
                return self._resolve_method_anywhere(module, root_cls,
                                                     parts[0])
            return self._walk_attr_chain(module, root_cls, parts[:-1],
                                         parts[-1])

        # Module-level alias chains: runner = main; runner()
        alias_target = facts["module_aliases"].get(head)
        hops = 0
        while alias_target and hops < 5:
            raw = f"{alias_target}.{rest}" if rest else alias_target
            head, _, rest = raw.partition(".")
            alias_target = facts["module_aliases"].get(head)
            hops += 1

        if not rest:
            if head in facts["functions"]:
                return f"{module}:{head}"
            if head in facts["classes"]:
                init = self._resolve_method(module, head, "__init__")
                return init or f"{module}:{head}"
            canonical = facts["imports"].get(head)
            if canonical:
                return self._resolve_canonical(canonical)
            return None

        canonical = self._canonical_in(facts, raw)
        if canonical:
            return self._resolve_canonical(canonical)
        if head in facts["classes"]:  # ClassName.method(...)
            return self._resolve_method(module, head, rest.split(".")[0])
        return None

    def _resolve_canonical(self, canonical: str) -> str | None:
        target_module = self.module_of_target(canonical)
        if target_module is None:
            return None
        remainder = canonical[len(target_module):].lstrip(".")
        target_facts = self.modules[target_module]
        if not remainder:
            return None
        parts = remainder.split(".")
        if parts[0] in target_facts["functions"]:
            return f"{target_module}:{parts[0]}"
        if parts[0] in target_facts["classes"]:
            if len(parts) > 1:
                return self._resolve_method(target_module, parts[0],
                                            parts[1])
            init = self._resolve_method(target_module, parts[0], "__init__")
            return init or f"{target_module}:{parts[0]}"
        alias = target_facts["module_aliases"].get(parts[0])
        if alias and alias in target_facts["functions"]:
            return f"{target_module}:{alias}"
        return None


def project_imports(facts: dict, known_modules: set[str]) -> set[str]:
    """Scanned modules this module's imports point into."""
    deps: set[str] = set()
    candidates = list(facts["imports"].values()) \
        + list(facts.get("relative_imports", ()))
    for canonical in candidates:
        best = None
        for module in known_modules:
            if canonical == module or canonical.startswith(module + "."):
                if best is None or len(module) > len(best):
                    best = module
        if best and best != facts["module"]:
            deps.add(best)
    return deps


def dependency_signatures(shas: dict[str, str],
                          deps: dict[str, set[str]]) -> dict[str, str]:
    """Per-module digest over (module, transitive deps) content hashes.

    ``shas`` maps module name -> content sha; ``deps`` maps module name
    -> direct project dependencies.  Cycles are handled by the closure
    construction (a cycle's members simply share their closure).
    """
    closures: dict[str, set[str]] = {}
    for module in shas:
        closure: set[str] = set()
        frontier = [module]
        while frontier:
            current = frontier.pop()
            if current in closure:
                continue
            closure.add(current)
            frontier.extend(deps.get(current, ()))
        closures[module] = closure
    signatures: dict[str, str] = {}
    for module, closure in closures.items():
        digest = hashlib.sha256()
        payload = sorted((name, shas.get(name, "")) for name in closure)
        digest.update(json.dumps(payload).encode())
        signatures[module] = digest.hexdigest()
    return signatures
