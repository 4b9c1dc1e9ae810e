"""figures-cold's traced op: the experiment driver with layer spans on.

    python3 traced_child.py <spans_dir> <tcor-experiments arguments...>

Installs the wrappers from ``spans.py`` before the driver runs, so the
pool workers it forks inherit them, and writes this process's spans to
``<spans_dir>/<pid>.jsonl`` when the driver returns.
"""

from __future__ import annotations

import sys

import spans


def main() -> int:
    spans.install(sys.argv[1])
    from repro.experiments import driver

    try:
        return driver.main(sys.argv[2:])
    finally:
        spans.flush()


if __name__ == "__main__":
    sys.exit(main())
