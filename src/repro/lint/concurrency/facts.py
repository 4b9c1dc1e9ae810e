"""Async fact extraction: the atomicity summary of one coroutine.

Layered into :func:`repro.lint.semantic.model.extract_module_facts` so
SIM202 rides the same two-tier cache as the other semantic rules:
everything returned here is JSON-serializable and derived from one
file alone.

Per *coroutine* (``async def``) the summary records ``gaps`` —
read→write pairs on ``self.<attr>`` state where some CFG path between
the read and the write crosses a suspension point (see
:mod:`repro.lint.concurrency.suspension`) and no ``async with <lock>``
span covers both ends.  SIM202 filters them by the attribute's
inferred type.

Lock spans exonerate a gap only when the lock is an asyncio one:
``lock_attrs_of_class`` / ``lock_globals`` resolve lock constructor
calls through the import aliases so ``threading.Lock`` and
``asyncio.Lock`` stay distinguishable after the leaf name collides.
"""

from __future__ import annotations

import ast

# Module (not name) import: ``suspension`` itself imports the semantic
# CFG, whose package __init__ pulls in the model, which pulls in this
# module — binding the module object keeps that cycle lazy.
from repro.lint.concurrency import suspension
from repro.lint.core import dotted_name
from repro.lint.semantic.cfg import CFG

# Canonical constructors whose instances gate critical sections.
THREADING_LOCKS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Condition",
    "multiprocessing.Lock", "multiprocessing.RLock",
})
ASYNC_LOCKS = frozenset({
    "asyncio.Lock", "asyncio.Semaphore", "asyncio.BoundedSemaphore",
    "asyncio.Condition",
})
LOCK_TYPES = THREADING_LOCKS | ASYNC_LOCKS

# Method leaves that mutate their receiver in place (dict / list / set /
# deque / OrderedDict vocabulary used across the scheduler and registry).
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "add", "insert",
    "remove", "discard", "pop", "popleft", "popitem", "clear",
    "update", "setdefault", "move_to_end", "rotate",
})

_MAX_GAP_PAIRS = 256  # defensive bound on the read x write product


def canonical_dotted(dotted: str, aliases: dict[str, str]) -> str:
    """Rewrite a dotted chain's head through the import aliases."""
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def _constructed_lock(value: ast.expr,
                      aliases: dict[str, str]) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    dotted = dotted_name(value.func)
    if dotted is None:
        return None
    canonical = canonical_dotted(dotted, aliases)
    return canonical if canonical in LOCK_TYPES else None


def lock_attrs_of_class(node: ast.ClassDef,
                        aliases: dict[str, str]) -> dict[str, str]:
    """``{attr: canonical lock type}`` for ``self.X = <Lock>()`` inits."""
    locks: dict[str, str] = {}
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or item.name not in ("__init__", "__post_init__"):
            continue
        for sub in ast.walk(item):
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            targets = sub.targets if isinstance(sub, ast.Assign) \
                else [sub.target]
            canonical = _constructed_lock(sub.value, aliases) \
                if sub.value is not None else None
            if canonical is None:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    locks[target.attr] = canonical
    return locks


def lock_globals(tree: ast.Module,
                 aliases: dict[str, str]) -> dict[str, str]:
    """Module-level ``NAME = threading.Lock()`` style bindings."""
    locks: dict[str, str] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        canonical = _constructed_lock(value, aliases) \
            if value is not None else None
        if canonical is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                locks[target.id] = canonical
    return locks


def _lockish_chain(chain: str, lock_attrs: dict[str, str],
                   module_locks: dict[str, str]) -> str | None:
    """The canonical (or guessed) lock type a context chain points at."""
    parts = chain.split(".")
    if parts[0] == "self" and len(parts) == 2:
        known = lock_attrs.get(parts[1])
        if known:
            return known
    elif len(parts) == 1:
        known = module_locks.get(parts[0])
        if known:
            return known
    if "lock" in parts[-1].lower() or "sem" in parts[-1].lower():
        return "guess"
    return None


# ----------------------------------------------------------------------
# The coroutine summary (shared-state gaps)
# ----------------------------------------------------------------------

def _self_chain(node: ast.expr) -> str | None:
    """``self.<attr>`` for a direct self attribute, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return f"self.{node.attr}"
    return None


def _stmt_accesses(stmt: ast.stmt) -> list[tuple[str, str]]:
    """(chain, "read"|"write") events for one statement's own exprs."""
    events: list[tuple[str, str]] = []
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not stmt:
            continue  # nested scopes summarize separately
        if node is not stmt and isinstance(node, ast.stmt):
            continue  # nested statements live in their own blocks
        if isinstance(node, ast.Attribute):
            chain = _self_chain(node)
            if chain is not None:
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    events.append((chain, "write"))
                else:
                    events.append((chain, "read"))
        elif isinstance(node, ast.Subscript):
            chain = _self_chain(node.value)
            if chain is not None \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                events.append((chain, "write"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in MUTATOR_METHODS:
                receiver = func.value
                if isinstance(receiver, ast.Subscript):
                    receiver = receiver.value  # self._queues[p].append
                chain = _self_chain(receiver)
                if chain is not None:
                    events.append((chain, "write"))
        stack.extend(ast.iter_child_nodes(node))
    return events


def _lock_spans(stmts: list[ast.stmt], lock_attrs: dict[str, str],
                module_locks: dict[str, str]) -> list[dict]:
    spans: list[dict] = []
    for stmt in stmts:
        if not isinstance(stmt, (ast.With, ast.AsyncWith)):
            continue
        for item in stmt.items:
            context = item.context_expr
            if isinstance(context, ast.Call):
                context = context.func  # with self._lock.acquire_ctx()
            dotted = dotted_name(context)
            if dotted is None:
                continue
            lock_type = _lockish_chain(dotted, lock_attrs, module_locks)
            if lock_type is None:
                continue
            spans.append({
                "chain": dotted,
                "lock_type": lock_type,
                "kind": "async_with" if isinstance(stmt, ast.AsyncWith)
                        else "with",
                "start": stmt.lineno,
                "end": getattr(stmt, "end_lineno", stmt.lineno),
            })
    return spans


def _async_lock_covers(spans: list[dict], first: int, last: int) -> bool:
    for span in spans:
        if span["kind"] != "async_with":
            continue
        if span["lock_type"] != "guess" \
                and span["lock_type"] not in ASYNC_LOCKS:
            continue
        if span["start"] <= first and last <= span["end"]:
            return True
    return False


def async_summary(func: ast.AsyncFunctionDef, cfg: CFG,
                  lock_attrs: dict[str, str],
                  module_locks: dict[str, str]) -> dict:
    """The coroutine-only fact blob: its atomicity gaps."""
    scfg = suspension.SuspensionCFG(func, cfg)
    placed: list[ast.stmt] = [stmt for block in cfg.blocks.values()
                              for stmt in block.stmts]
    spans = _lock_spans(placed, lock_attrs, module_locks)

    reads: dict[str, list[ast.stmt]] = {}
    writes: dict[str, list[ast.stmt]] = {}
    for stmt in placed:
        events = _stmt_accesses(stmt)
        written = {chain for chain, mode in events if mode == "write"}
        for chain, mode in events:
            if mode == "read" and chain in written:
                # The statement both reads and writes the chain
                # (``self.x += 1``, ``self.d[k] = v``): it commits in
                # one step on the loop, so it is not a gap *source*.
                continue
            bucket = reads if mode == "read" else writes
            sites = bucket.setdefault(chain, [])
            if stmt not in sites:
                sites.append(stmt)

    gaps: list[dict] = []
    for chain, write_sites in sorted(writes.items()):
        read_sites = reads.get(chain, [])
        seen_writes: set[int] = set()
        pairs = 0
        for write_stmt in write_sites:
            if id(write_stmt) in seen_writes:
                continue
            for read_stmt in read_sites:
                if pairs >= _MAX_GAP_PAIRS:
                    break
                pairs += 1
                if read_stmt is write_stmt:
                    continue
                witness = scfg.suspension_between(read_stmt, write_stmt)
                if witness is None:
                    continue
                read_line = getattr(read_stmt, "lineno", 0)
                write_line = getattr(write_stmt, "lineno", 0)
                if _async_lock_covers(spans, min(read_line, write_line),
                                      max(read_line, write_line)):
                    continue
                seen_writes.add(id(write_stmt))
                gaps.append({
                    "chain": chain,
                    "attr": chain.split(".", 1)[1],
                    "read_line": read_line,
                    "write_line": write_line,
                    "susp_line": getattr(witness, "lineno", 0),
                    "susp_kind": scfg.kind_of_stmt.get(id(witness), "?"),
                })
                break

    gaps.sort(key=lambda gap: (gap["chain"], gap["write_line"]))
    return {"gaps": gaps}
