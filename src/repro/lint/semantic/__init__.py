"""repro.lint.semantic — whole-program analysis under the lint pass.

The single-file rules (SIM0xx) judge one AST at a time; this package
builds the structures they cannot: a project symbol table, a call
graph resolving ``self.``-method and cross-module calls, and a
per-function control-flow graph with a reaching-definitions dataflow
solution.  The SIM2xx (async concurrency) and SIM3xx (contract) rules
run on top; see ``repro.lint.semantic.rules`` for the registry and
DESIGN.md §9 for the caching story.

Per-module *facts* (symbols, function summaries, dataflow-derived
origins) cache by file content hash; per-module *findings* cache by the
module's dependency signature — a digest over its transitive project
imports — so an edit invalidates only downstream analyses.
"""

from repro.lint.semantic.cfg import CFG, build_cfg
from repro.lint.semantic.dataflow import FunctionDataflow, ReachingDefinitions
from repro.lint.semantic.engine import SemanticResult, semantic_pass
from repro.lint.semantic.model import Program, dependency_signatures
from repro.lint.semantic.rules import semantic_rules

__all__ = [
    "CFG",
    "FunctionDataflow",
    "Program",
    "ReachingDefinitions",
    "SemanticResult",
    "build_cfg",
    "dependency_signatures",
    "semantic_pass",
    "semantic_rules",
]
