"""Async concurrency analysis (the SIM2xx rule family).

The semantic engine models *space* (call graph, per-function CFG,
dataflow origins); this package adds *time on the event loop*:

- :mod:`repro.lint.concurrency.suspension` — augments the CFG with
  suspension points (``await`` / ``async for`` / ``async with``) and
  answers path queries across them;
- :mod:`repro.lint.concurrency.facts` — the JSON-serializable async
  summary extracted per coroutine (atomicity gaps), layered into the
  same two-tier fact cache as the other semantic facts;
- rule modules — :mod:`~repro.lint.concurrency.blocking` (SIM201) and
  :mod:`~repro.lint.concurrency.atomicity` (SIM202), registered in the
  shared semantic-rule registry so SARIF, suppression comments and
  ``repro-lint --semantic`` treat every family as one analysis stack.
"""

from repro.lint.concurrency.suspension import (SuspensionCFG,
                                               stmt_suspension_kind)

__all__ = ["SuspensionCFG", "stmt_suspension_kind"]
