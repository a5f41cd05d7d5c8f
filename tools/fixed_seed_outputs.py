"""Write the fixed-seed outputs that two checkouts are compared by.

    python3 tools/fixed_seed_outputs.py OUT

runs, in-process through ``multamp.cli.main``, with the package imported
from the ``src/`` beside this directory:

- ``sample --seed 23 --shots 5000 --beta-j 0.35`` on 2x2, 2x3 and 3x3, for
  each variant and each ``--keep`` mode, with and without ``--enforce-zero``
  (24 runs);
- ``table1 --sizes 2,3,4 --allow-large``;
- ``sample --seed 23 --beta-j 0.35`` on 4x4, direct and controlled.

Each run writes its files into ``OUT/<run>/`` and its standard output to
``OUT/<run>/stdout.txt``, with ``OUT/<run>`` written as ``<out>`` and the
exit code on a last line.  ``diff -r`` of two such directories then
shows every output that differs between the checkouts.  Needs numpy and
the package only.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from multamp import cli  # noqa: E402

SMALL = ("--seed", "23", "--shots", "5000", "--beta-j", "0.35")
LARGE = ("--seed", "23", "--beta-j", "0.35")


def runs():
    """(name, argv without --out) of every run, in the order they are made."""
    out = []
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        for variant in ("direct", "controlled"):
            for keep in ("postselect", "conditional"):
                for zero in (False, True):
                    name = f"sample_{rows}x{cols}_{variant}_{keep}" + ("_zero" if zero else "")
                    argv = ["sample", "--rows", str(rows), "--cols", str(cols), "--variant", variant,
                            "--keep", keep, *SMALL] + (["--enforce-zero"] if zero else [])
                    out.append((name, argv))
    out.append(("table1", ["table1", "--sizes", "2,3,4", "--allow-large"]))
    out.append(("sample_4x4_direct", ["sample", "--rows", "4", "--cols", "4", *LARGE]))
    out.append(("sample_4x4_controlled", ["sample", "--rows", "4", "--cols", "4", "--variant",
                                          "controlled", "--allow-large", *LARGE]))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/fixed_seed_outputs.py OUT", file=sys.stderr)
        return 2
    root = argv[0]
    for name, args in runs():
        outdir = os.path.join(root, name)
        os.makedirs(outdir, exist_ok=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(args + ["--out", outdir])
        with open(os.path.join(outdir, "stdout.txt"), "w") as fh:
            fh.write(printed.getvalue().replace(outdir, "<out>"))
            fh.write(f"exit {code}\n")
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
