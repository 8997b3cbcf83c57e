"""Regenerate the metrics table of a metrics reference page in place::

    python -m repro.obs docs/metrics_reference.md

The rendering lives in :mod:`repro.obs.reference`; this module is only
its command line, kept out of the package's imports so ``python -m``
executes it once.
"""

from __future__ import annotations

import sys

from .reference import update_generated_section


_USAGE = "usage: python -m repro.obs docs/metrics_reference.md"


def main(argv=None) -> int:
    """Rewrite the generated section of the given page in place."""
    args = sys.argv[1:] if argv is None else argv
    if args in (["-h"], ["--help"]):
        print(_USAGE)
        return 0
    if len(args) != 1:
        print(_USAGE, file=sys.stderr)
        return 2
    path = args[0]
    with open(path) as fh:
        text = fh.read()
    updated = update_generated_section(text)
    with open(path, "w") as fh:
        fh.write(updated)
    print(f"regenerated metrics table in {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
