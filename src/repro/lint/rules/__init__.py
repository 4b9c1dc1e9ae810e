"""Rule catalogue.  Importing this package registers every rule."""

from repro.lint.rules import (  # noqa: F401  (registration side effect)
    determinism,
    exceptions,
    magic_literals,
    private_access,
    stats_conservation,
)
