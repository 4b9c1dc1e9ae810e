"""SIM201 — blocking call reachable inside a coroutine.

A coroutine that performs synchronous I/O (file reads, ``time.sleep``,
``Future.result()``, a direct disk-cache probe) stalls the *entire*
event loop — every other task, the watchdog and the server's accept
loop included.  The blocking call is often hidden one or more
synchronous call-graph hops below the ``async def`` (the summary chain
is printed in the message), which is why this is a semantic rule.

The escape hatches the rule recognises:

- the call is awaited (``await asyncio.sleep`` / ``await to_thread``);
- the callable is *handed to* an executor rather than called — an
  argument to ``run_in_executor``/``to_thread`` is not a call site, so
  dispatched work never trips the rule;
- descent stops at async callees (they are analysed as their own
  roots) and at generators (their bodies run at iteration time).
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.core import Violation
from repro.lint.semantic.rules import SemanticRule, register_semantic

# Canonical (import-alias-resolved) names that block the calling thread.
BLOCKING_CANONICAL = frozenset({
    "time.sleep",
    "os.system", "os.popen",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen",
    "shutil.copy", "shutil.copytree", "shutil.rmtree",
})
BLOCKING_PREFIXES = ("requests.",)
# Method leaves that are synchronous file I/O wherever they appear
# (pathlib's read/write family).
FILE_IO_LEAVES = frozenset({"read_text", "write_text", "read_bytes",
                            "write_bytes"})
# The store's synchronous entry points and the serve layer's bridges to
# them: correct inside an executor, wrong on the loop.
DISK_CACHE_LEAVES = frozenset({"get_result", "put_result",
                               "probe_disk_batch", "store_disk_batch"})

_MAX_DEPTH = 4


def _blocking_reason(call: dict, facts: dict) -> str | None:
    """Why one recorded call blocks, or None."""
    raw = call["name"]
    leaf = raw.split(".")[-1]
    head, _, rest = raw.partition(".")
    canonical = facts["imports"].get(head)
    canonical = (f"{canonical}.{rest}" if canonical and rest
                 else canonical or raw)
    if raw == "open":
        return "blocking builtin `open()`"
    if canonical in BLOCKING_CANONICAL:
        return f"blocking call `{canonical}()`"
    if canonical.startswith(BLOCKING_PREFIXES):
        return f"blocking network call `{canonical}()`"
    if "." in raw and leaf in FILE_IO_LEAVES:
        return f"synchronous file I/O `{raw}()`"
    if leaf in DISK_CACHE_LEAVES:
        return f"synchronous disk-cache access `{raw}()`"
    if "." in raw and leaf == "result":
        recv = call.get("recv", ())
        if any(origin.startswith("call:")
               and (origin.endswith(".submit")
                    or "run_in_executor" in origin
                    or origin.endswith("futures.Future"))
               for origin in recv):
            return f"blocking `{raw}()` on an executor future"
    return None


@register_semantic
class BlockingCallRule(SemanticRule):
    code = "SIM201"
    name = "blocking-call-in-coroutine"
    description = ("synchronous I/O or sleep reachable inside a "
                   "coroutine without executor dispatch")
    scope = "module"

    def check_module(self, program, module: str) -> Iterable[Violation]:
        facts = program.modules[module]
        path = facts["path"]
        for qual, func in facts["functions"].items():
            if not func.get("is_async"):
                continue
            for call in func["calls"]:
                if call.get("awaited"):
                    continue
                reason = _blocking_reason(call, facts)
                if reason is not None:
                    yield self.violation(
                        path, call["lineno"], call["col"],
                        f"{reason} runs on the event loop in coroutine "
                        f"`{qual}`; dispatch it with `await loop."
                        "run_in_executor(...)` or `asyncio.to_thread"
                        "(...)`")
                    continue
                resolved = program.resolve_call(module, qual,
                                                call["name"])
                if resolved is None:
                    continue
                found = self._transitive(program, resolved)
                if found is None:
                    continue
                chain, reason = found
                via = " -> ".join(
                    fq.partition(":")[2] for fq in chain)
                yield self.violation(
                    path, call["lineno"], call["col"],
                    f"coroutine `{qual}` reaches {reason} through "
                    f"synchronous call(s) `{via}`; move the blocking "
                    "step behind `await loop.run_in_executor(...)` or "
                    "`asyncio.to_thread(...)`")

    def _transitive(self, program,
                    entry: str) -> tuple[list[str], str] | None:
        """(call chain, reason) for the first blocking call reachable
        through synchronous project callees, or None."""
        seen: set[str] = set()
        frontier: list[tuple[str, list[str]]] = [(entry, [entry])]
        while frontier:
            fq, chain = frontier.pop(0)
            if fq in seen or len(chain) > _MAX_DEPTH:
                continue
            seen.add(fq)
            func = program.function(fq)
            if func is None or func.get("is_async") \
                    or func.get("is_generator"):
                continue
            callee_module = fq.partition(":")[0]
            callee_facts = program.modules[callee_module]
            for call in func["calls"]:
                reason = _blocking_reason(call, callee_facts)
                if reason is not None:
                    return chain, reason
            for call in func["calls"]:
                resolved = program.resolve_call(
                    callee_module, fq.partition(":")[2], call["name"])
                if resolved is not None and resolved not in seen:
                    frontier.append((resolved, chain + [resolved]))
        return None
