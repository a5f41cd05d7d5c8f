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
exit code on a last line.  The runs above take the CLI's float64 states.
``OUT/state_hashes.txt`` then holds the sha256 of the bytes of four
amplified states ``amplify.run_amplified`` returns, one line each, in
complex128, complex64, float64 and float32: a seeded 2**13-entry
log-uniform table (gamma 1.6, d 4, eps 1e-3, with the exact-zero flag)
and the 4x4 lattice at beta J = 0.35, both variants each, so the
comparison covers what U and the rescale write, not only what is sampled
from it, in the complex specification's dtypes and in the real ones the
pipeline runs, and the single-precision rounding that no run above takes.
After each complex128 and each float64 table state comes a
``<name>_counts`` line: the sha256 of the sorted (index, count) pairs of
``sample(state, 2**17, 23)`` over the whole state (4 and 64 blocks), the
call the bench's table job makes, so the comparison covers sampling across
many blocks of a whole state.  ``diff -r`` of two such directories then
shows every output that differs between the checkouts.
Needs numpy and the package only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from multamp import amplify, analysis, cli, ising, simcore, transduce  # noqa: E402

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


DTYPES = ((np.complex128, ""), (np.complex64, "_complex64"),  # (dtype, suffix of the state's name)
          (np.float64, "_float64"), (np.float32, "_float32"))
COUNTED = ("table_8192_direct", "table_8192_controlled",  # the states sampled for a _counts line
           "table_8192_direct_float64", "table_8192_controlled_float64")


def amplified_states():
    """(name, nu, state) of every state ``state_hashes.txt`` covers, nu by the paper rule, in turn.

    Each state is dropped before the next is made: the 4x4 controlled complex128 one is 1 GiB."""
    alphas = np.exp(np.random.default_rng(23).uniform(math.log(1e-3 / 4), 0.0, 1 << 13))
    table = transduce.build_lambda_table(alphas, 1.6, 4, 1e-3)
    norms = analysis.exact_norms(table.lambdas, table.gamma, table.d)
    for variant, u, kept in (("direct", norms.u_direct, "D"), ("controlled", norms.u_controlled, "E")):
        circuit = transduce.build_synthesis(table, transduce.make_plan(variant, 1.6, 4), enforce_zero=True)
        spec = amplify.AmplificationSpec(circuit, {kept: 0}, amplify.select_nu(u, "paper"))
        for dtype, suffix in DTYPES:
            yield f"table_8192_{variant}{suffix}", spec.nu, amplify.run_amplified(spec, dtype)[0]
    for variant in ("direct", "controlled"):  # the states of the 4x4 sample runs
        for dtype, suffix in DTYPES:
            state, diagnostics = ising.synthesize_boltzmann(ising.IsingLattice(4, 4, 0.35), variant,
                                                            dtype=dtype)
            yield f"ising_4x4_{variant}{suffix}", diagnostics.nu, state
            del state


def state_hashes() -> str:
    """One line per amplified state: its name, nu and the sha256 of its amplitudes' bytes;
    after each complex128 and float64 table state, one line with the sha256 of its sampled counts."""
    lines = []
    for name, nu, state in amplified_states():
        lines.append(f"{name} nu={nu} {hashlib.sha256(state.amplitudes.data).hexdigest()}\n")
        if name in COUNTED:
            counts = np.array(sorted(simcore.sample(state, 1 << 17, 23).items()), dtype=np.int64)
            lines.append(f"{name}_counts shots=131072 {hashlib.sha256(counts.data).hexdigest()}\n")
        del state  # before the next state is made
    return "".join(lines)


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
    with open(os.path.join(root, "state_hashes.txt"), "w") as fh:
        fh.write(state_hashes())
    print("state_hashes.txt written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
