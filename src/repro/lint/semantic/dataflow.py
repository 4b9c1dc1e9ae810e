"""Reaching definitions and value-origin tracking over the CFG.

:class:`ReachingDefinitions` is the classic forward may-analysis on the
powerset-of-definitions lattice: ``IN[b] = ∪ OUT[p]``,
``OUT[b] = GEN[b] ∪ (IN[b] − KILL[b])``, iterated to fixpoint with a
worklist.  Definitions are (name, site) pairs harvested from every
binding construct: assignments (including unpacking), augmented and
annotated assignments, ``for`` targets, ``with ... as``, ``except ...
as``, imports, nested ``def``/``class`` statements, walrus operators
and comprehension generators (whose targets, under PEP 572 scoping, do
*not* leak — they are tracked only so reads inside the comprehension
resolve).

:class:`FunctionDataflow` layers *origins* on top: a compact string
describing where a value came from (``lit:int``, ``param:x``,
``attr:opt_number``, ``call:TCORConfig``, ``const:NO_NEXT_USE_RANK``),
resolved flow-sensitively through the reaching definitions at the
statement where the value is used.  SIM201 consumes them to tell an
executor future's ``.result()`` from any other.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.semantic.cfg import CFG, build_cfg

# Origin descriptors are plain strings so function facts stay
# JSON-serializable.  An origin *set* renders sorted and "|"-joined.
UNKNOWN = "?"
_MAX_DEPTH = 6


@dataclass(frozen=True)
class Definition:
    """One binding site of one name."""

    name: str
    def_id: int          # unique within the function
    kind: str            # "assign" | "aug" | "iter" | "with" | ...
    lineno: int


class ReachingDefinitions:
    """Fixpoint solution; exposes per-block IN sets of definitions."""

    def __init__(self, cfg: CFG, defs_by_block: dict[int, list[tuple]],
                 entry_defs: list["Definition"]) -> None:
        self.cfg = cfg
        # defs_by_block: bid -> [(Definition, value expr | None)] in
        # statement order; kills are by name.
        self._defs_by_block = defs_by_block
        self._entry_defs = entry_defs
        self.block_in: dict[int, frozenset[int]] = {}
        self._defs: dict[int, Definition] = {
            d.def_id: d for d, _ in self._iter_all_defs()}
        self._solve()

    def _iter_all_defs(self):
        for defs in self._defs_by_block.values():
            yield from defs
        for definition in self._entry_defs:
            yield definition, None

    def _gen_kill(self, bid: int) -> tuple[frozenset[int], frozenset[str]]:
        gen: dict[str, int] = {}
        killed: set[str] = set()
        for definition, _value in self._defs_by_block.get(bid, ()):
            gen[definition.name] = definition.def_id
            killed.add(definition.name)
        return frozenset(gen.values()), frozenset(killed)

    def _solve(self) -> None:
        cfg = self.cfg
        gen_kill = {bid: self._gen_kill(bid) for bid in cfg.blocks}
        preds: dict[int, list[int]] = {bid: [] for bid in cfg.blocks}
        for block in cfg.blocks.values():
            for succ in block.succs:
                preds[succ].append(block.bid)
        out: dict[int, frozenset[int]] = {bid: frozenset()
                                          for bid in cfg.blocks}
        entry_out = frozenset(d.def_id for d in self._entry_defs)
        out[cfg.entry] = entry_out
        self.block_in = {bid: frozenset() for bid in cfg.blocks}
        worklist = list(cfg.blocks)
        while worklist:
            bid = worklist.pop()
            incoming: set[int] = set()
            for pred in preds[bid]:
                incoming |= out[pred]
            if bid == cfg.entry:
                incoming |= entry_out
            self.block_in[bid] = frozenset(incoming)
            gen, kill = gen_kill[bid]
            new_out = gen | frozenset(
                def_id for def_id in incoming
                if self._defs[def_id].name not in kill)
            if new_out != out[bid]:
                out[bid] = new_out
                worklist.extend(self.cfg.blocks[bid].succs)

    # -- queries -------------------------------------------------------
    def defs_reaching_block(self, bid: int) -> set[Definition]:
        return {self._defs[def_id] for def_id in self.block_in.get(bid, ())}

    def names_reaching_block(self, bid: int) -> set[str]:
        return {d.name for d in self.defs_reaching_block(bid)}


def _binding_targets(target: ast.expr, value_known: bool,
                     out: list[tuple[str, str]]) -> None:
    """(name, kind) pairs bound by an assignment target."""
    if isinstance(target, ast.Name):
        out.append((target.id, "assign" if value_known else "unpack"))
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _binding_targets(element, False, out)
    elif isinstance(target, ast.Starred):
        _binding_targets(target.value, False, out)
    # Attribute / Subscript targets bind no local name.


def definitions_of_stmt(stmt: ast.stmt) -> list[tuple[str, str, ast.expr | None]]:
    """(name, kind, value-expr-or-None) bound directly by ``stmt``.

    Nested statements are handled by their own CFG placement; walrus
    assignments anywhere inside the statement's expressions also bind
    in the enclosing scope and are harvested here.
    """
    bound: list[tuple[str, str, ast.expr | None]] = []
    if isinstance(stmt, ast.Assign):
        pairs: list[tuple[str, str]] = []
        for target in stmt.targets:
            _binding_targets(target, isinstance(target, ast.Name), pairs)
        bound.extend((name, kind,
                      stmt.value if kind == "assign" else None)
                     for name, kind in pairs)
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            bound.append((stmt.target.id, "aug", None))
    elif isinstance(stmt, ast.AnnAssign):
        if isinstance(stmt.target, ast.Name):
            bound.append((stmt.target.id, "assign" if stmt.value else "ann",
                          stmt.value))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        pairs = []
        _binding_targets(stmt.target, False, pairs)
        bound.extend((name, "iter", None) for name, _ in pairs)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                pairs = []
                _binding_targets(item.optional_vars,
                                 isinstance(item.optional_vars, ast.Name),
                                 pairs)
                bound.extend((name, "with", item.context_expr
                              if kind == "assign" else None)
                             for name, kind in pairs)
    elif isinstance(stmt, ast.ExceptHandler):
        if stmt.name:
            bound.append((stmt.name, "except", None))
    elif isinstance(stmt, ast.Import):
        for alias in stmt.names:
            bound.append((alias.asname or alias.name.split(".")[0],
                          "import", None))
    elif isinstance(stmt, ast.ImportFrom):
        for alias in stmt.names:
            bound.append((alias.asname or alias.name, "import", None))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        bound.append((stmt.name, "def", None))

    # Walrus / comprehension bindings hide inside expressions.  Only a
    # statement's *header* expressions belong to it — nested statement
    # bodies are placed in their own blocks and harvested there.
    for header in _header_exprs(stmt):
        for node in ast.walk(header):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scopes keep their bindings
            if isinstance(node, ast.NamedExpr) \
                    and isinstance(node.target, ast.Name):
                bound.append((node.target.id, "assign", node.value))
            elif isinstance(node, ast.comprehension):
                pairs = []
                _binding_targets(node.target, False, pairs)
                bound.extend((name, "comp", None) for name, _ in pairs)
    return bound


def _header_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions evaluated *by* the statement itself (not by the
    statements nested under it)."""
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [node for node in ast.iter_child_nodes(stmt)
            if isinstance(node, ast.expr)]


class FunctionDataflow:
    """CFG + reaching definitions + origin resolution for one function.

    ``aliases`` maps import aliases to canonical dotted names (see
    :func:`repro.lint.core.import_aliases`) so origins report canonical
    targets (``call:concurrent.futures.ProcessPoolExecutor``).
    """

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 aliases: dict[str, str] | None = None) -> None:
        self.func = func
        self.aliases = dict(aliases or {})
        self.cfg = build_cfg(func)
        self.params = [arg.arg for arg in (
            list(func.args.posonlyargs) + list(func.args.args)
            + list(func.args.kwonlyargs)
            + ([func.args.vararg] if func.args.vararg else [])
            + ([func.args.kwarg] if func.args.kwarg else []))]
        self._globals = {
            name for node in ast.walk(func)
            for name in getattr(node, "names", ())
            if isinstance(node, (ast.Global, ast.Nonlocal))}

        next_id = 0
        entry_defs = []
        for param in self.params:
            entry_defs.append(Definition(param, next_id, "param",
                                         func.lineno))
            next_id += 1
        defs_by_block: dict[int, list[tuple[Definition, ast.expr | None]]] = {}
        # (name, def) value expressions, flow-insensitive fallback map.
        self._values: dict[int, ast.expr | None] = {}
        self._defs_of_name: dict[str, list[Definition]] = {}
        for param_def in entry_defs:
            self._defs_of_name.setdefault(param_def.name, []).append(param_def)
        for bid, block in self.cfg.blocks.items():
            for stmt in block.stmts:
                for name, kind, value in definitions_of_stmt(stmt):
                    definition = Definition(name, next_id, kind,
                                            getattr(stmt, "lineno", 0))
                    next_id += 1
                    defs_by_block.setdefault(bid, []).append(
                        (definition, value))
                    self._values[definition.def_id] = value
                    self._defs_of_name.setdefault(name, []).append(definition)
        self.reaching = ReachingDefinitions(self.cfg, defs_by_block,
                                            entry_defs)

    # -- origin resolution ---------------------------------------------
    def _canonical(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head

    def origins_of_name(self, name: str, at_stmt: ast.stmt | None = None,
                        depth: int = 0) -> set[str]:
        if name in self._globals:
            return {f"global:{name}"}
        if name in self.aliases:
            return {f"const:{self.aliases[name]}"}
        candidates = self._defs_of_name.get(name)
        if candidates is None:
            return {f"const:{name}"} if name.isupper() \
                else {f"free:{name}"}
        if at_stmt is not None:
            bid = self.cfg.block_of_stmt.get(id(at_stmt))
            if bid is not None:
                reaching_ids = {d.def_id for d in
                                self.reaching.defs_reaching_block(bid)}
                # Defs earlier in the same block also reach, and later
                # same-block defs of the name kill the incoming ones.
                env: dict[str, int] = {}
                for block_stmt in self.cfg.blocks[bid].stmts:
                    if block_stmt is at_stmt:
                        break
                    for def_ in self._defs_of_name.get(name, ()):
                        if def_.lineno == getattr(block_stmt, "lineno", -1):
                            env[name] = def_.def_id
                if name in env:
                    reaching_ids = {env[name]}
                narrowed = [d for d in candidates
                            if d.def_id in reaching_ids]
                if narrowed:
                    candidates = narrowed
        result: set[str] = set()
        for definition in candidates:
            if definition.kind == "param":
                result.add(f"param:{definition.name}")
                continue
            value = self._values.get(definition.def_id)
            if value is None:
                result.add(f"bind:{definition.kind}")
            else:
                result |= self.origin_of_expr(value, None, depth + 1)
        return result or {UNKNOWN}

    def origin_of_expr(self, expr: ast.expr, at_stmt: ast.stmt | None = None,
                       depth: int = 0) -> set[str]:
        """Flow-sensitive origin set of one expression."""
        if depth > _MAX_DEPTH:
            return {UNKNOWN}
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return {"none"}
            return {f"lit:{type(expr.value).__name__}"}
        if isinstance(expr, ast.Name):
            return self.origins_of_name(expr.id, at_stmt, depth)
        if isinstance(expr, ast.Attribute):
            dotted = _dotted(expr)
            if dotted is not None:
                head = dotted.split(".")[0]
                if head in self.aliases:
                    return {f"const:{self._canonical(dotted)}"}
            return {f"attr:{expr.attr}"}
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted is not None:
                return {f"call:{self._canonical(dotted)}"}
            return {"call:?"}
        if isinstance(expr, ast.IfExp):
            return (self.origin_of_expr(expr.body, at_stmt, depth + 1)
                    | self.origin_of_expr(expr.orelse, at_stmt, depth + 1))
        if isinstance(expr, ast.BoolOp):
            merged: set[str] = set()
            for value in expr.values:
                merged |= self.origin_of_expr(value, at_stmt, depth + 1)
            return merged
        if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.Compare)):
            return {"expr"}
        if isinstance(expr, ast.Subscript):
            return {"sub"}
        if isinstance(expr, (ast.Lambda,)):
            return {"lambda"}
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            return {"comp"}
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            return {"container"}
        return {UNKNOWN}


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
