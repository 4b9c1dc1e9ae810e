"""Contract analysis: the SIM3xx family (see DESIGN.md §14).

A contract is an invariant kept in two places at once, with nothing
but convention tying the copies together.  The one rule here, SIM304,
checks that every ``REPRO_*`` environment variable is read through the
central :mod:`repro.envvars` table, from the same cached per-module
facts the SIM2xx pass uses.
"""
