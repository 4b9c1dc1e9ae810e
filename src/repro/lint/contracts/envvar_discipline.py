"""SIM304 — environment-variable discipline.

Every ``REPRO_*`` knob is declared once, in :mod:`repro.envvars`,
with its semantics documented next to it.  A raw string literal like
``os.environ.get("REPRO_NO_REPLAY")`` elsewhere re-derives the
contract by hand: a typo silently reads an unset variable (the knob
just never takes effect), and the central table stops being a
complete inventory of the runtime surface.

This rule flags any constant string matching the ``REPRO_[A-Z0-9_]*``
shape outside the declaring module, and — when the table itself is in
the scanned set — names the constant to use instead.  Literals that
merely *mention* a variable inside prose (docstrings, error messages)
do not match: only an exact, whole-string variable name does, and the
approved pattern ``f"{envvars.NO_REPLAY} is set"`` interpolates the
constant rather than spelling the name.

Fix by importing the constant (``os.environ.get(envvars.NO_REPLAY)``)
or, for a genuinely new knob, declaring it in ``repro/envvars.py``
first.  Suppression is not expected to be needed.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.core import Violation
from repro.lint.semantic.rules import SemanticRule, register_semantic

#: The one module allowed to spell ``REPRO_*`` literals; everything
#: else must read the constants it exports.
ENVVARS_MODULE = "repro.envvars"


@register_semantic
class EnvVarDisciplineRule(SemanticRule):
    code = "SIM304"
    name = "envvar-discipline"
    description = ("raw REPRO_* environment-variable literal outside "
                   "the central repro.envvars table")
    scope = "program"

    def check_program(self, program) -> Iterable[Violation]:
        declared: dict[str, str] = {}
        table = program.modules.get(ENVVARS_MODULE)
        if table is not None:
            for const, value in table["const_tables"].items():
                if isinstance(value, str) and value.startswith("REPRO_"):
                    declared[value] = const
        for module, facts in sorted(program.modules.items()):
            if module == ENVVARS_MODULE:
                continue
            for literal in facts["env_literals"]:
                known = declared.get(literal["name"])
                hint = f"repro.envvars.{known}" if known else \
                    f"a constant declared in {ENVVARS_MODULE}"
                yield self.violation(
                    facts["path"], literal["lineno"], 0,
                    f"raw environment-variable literal "
                    f"`{literal['name']}`; read it through {hint} so "
                    "the knob table stays the complete inventory")
