"""Command-line front end.

Subcommands: plan (precision planning), synth (one Boltzmann synthesis
with diagnostics), sample (synthesis plus sampling, histogram files),
table1 (the six benchmark rows with pass/fail comparison), baselines
(norm comparison on an amplitude table).

Exit codes: 0 success, 2 configuration or usage error, 3 exponent
overflow (d too small), 4 memory refusal (state too large without
--allow-large) or a failed allocation, 5 benchmark comparison failure.

A config file (--config, ``key = value`` lines, ``#`` comments) supplies
defaults; explicit flags win.  Its keys are flag names (``beta_j`` or
``beta-j`` for --beta-j), and its values are checked like the flags: the
flag's type and choices, and yes/no/true/false/on/off/1/0 for on/off
flags.  Keys of other subcommands are ignored; unknown keys exit 2.  All
file outputs are deterministic for a fixed seed: no timestamps, sorted
JSON keys, repr-round-trip floats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import analysis, baselines, ising, transduce
from .simcore import collapse, filter_counts, sample, sample_overhead
from .transduce import OverflowLambdaError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_MEMORY = 4
EXIT_MISMATCH = 5

# refuse dense states beyond this many qubits unless --allow-large
DEFAULT_QUBIT_BUDGET = 24

TABLE1_BETA_J = 0.1
TABLE1_EXPECTED = {
    ("direct", 2): {"qubits": 8, "d": 3, "nu": 2, "u_sq": 0.167, "postamp": 0.738},
    ("direct", 3): {"qubits": 13, "d": 3, "nu": 3, "u_sq": 0.063, "postamp": 0.960},
    ("direct", 4): {"qubits": 22, "d": 5, "nu": 6, "u_sq": 0.016, "postamp": 0.996},
    ("controlled", 2): {"qubits": 11, "d": 3, "nu": 1, "u_sq": 0.487, "postamp": 0.539},
    ("controlled", 3): {"qubits": 16, "d": 3, "nu": 2, "u_sq": 0.182, "postamp": 0.650},
    ("controlled", 4): {"qubits": 27, "d": 5, "nu": 4, "u_sq": 0.048, "postamp": 0.837},
}
U_SQ_TOL = 0.0005
POSTAMP_TOL = 0.002


class ConfigError(ValueError):
    pass


class MemoryRefusal(RuntimeError):
    pass


def _load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _config_value(key: str, raw: str, action: argparse.Action):
    """One config value, converted and checked as its flag would be."""
    if action.const is True:  # an on/off (store_true) flag
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    typ = action.type or str
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: expected a {typ.__name__}, got {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key}: {raw!r} is not one of {', '.join(action.choices)}")
    return value


def _config_namespace(command: str, path) -> argparse.Namespace:
    """A config file's values for ``command``'s flags, as the namespace its parse starts from."""
    config = _load_config(path)
    flags = {name: {a.dest: a for a in p._actions if a.dest not in ("help", "config")}
             for name, p in _SUBPARSERS.items()}
    # tolerate keys that belong to other subcommands, reject real typos
    unknown = set(config).difference(*flags.values())
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    own = flags[command]
    return argparse.Namespace(
        command=command,
        **{key: _config_value(key, raw, own[key]) for key, raw in config.items() if key in own})


def _outdir(args) -> str | None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(outdir, stem, rows, columns, fmt):
    path = os.path.join(outdir, f"{stem}.{fmt}")
    if fmt == "json":
        _write_json(path, rows)
    else:
        analysis.write_csv(path, rows, columns)
    return path


def _lattice_from_args(args) -> ising.IsingLattice:
    if args.beta_j is not None and args.beta_rel_critical is not None:
        raise ConfigError("--beta-j and --beta-rel-critical are mutually exclusive")
    if args.beta_j is not None:
        return ising.IsingLattice(args.rows, args.cols, args.beta_j)
    if args.beta_rel_critical is not None:
        return ising.IsingLattice.from_relative_beta(args.rows, args.cols, args.beta_rel_critical)
    raise ConfigError("one of --beta-j or --beta-rel-critical is required")


def _gib(nbytes: int, places: int) -> str:
    """nbytes in GiB to ``places`` decimals; nbytes / 2**30 is exact up to 2**53 bytes (8 PiB)."""
    return f"{nbytes / 2**30:.{places}f} GiB" if nbytes <= 1 << 53 else "more than 8 PiB"


def _check_memory(total_qubits: int, allow_large: bool, dtype, shots: int) -> None:
    if allow_large:
        return
    if total_qubits > DEFAULT_QUBIT_BUDGET:
        # kernels add cache-sized scratch only; sampling adds one cumsum block and the shots
        nbytes = (1 << total_qubits) * np.dtype(dtype).itemsize
        need = f"{total_qubits} qubits need a {_gib(nbytes, 1)} amplitude buffer"
        if shots:
            peak = nbytes + sample_overhead(1 << total_qubits, shots)
            need += f" and peak at {_gib(peak, 2)} while sampling {shots} shots"
        raise MemoryRefusal(f"{need}; rerun with --allow-large")


def _dtype(args):
    return np.complex64 if args.single_precision else np.complex128


def _layout_qubits(lattice, variant, d=None, enforce_zero=False) -> int:
    """Qubits the simulated state allocates (no idle ancilla), at the d it really gets."""
    target = ising.BoltzmannTarget.from_lattice(lattice, d)
    return transduce.standard_layout(1 << lattice.num_sites, target.d, variant,
                                     enforce_zero).total_qubits


def _synthesize(args, shots=0):
    lattice = _lattice_from_args(args)
    variant = args.variant
    _check_memory(_layout_qubits(lattice, variant, args.d, args.enforce_zero),
                  args.allow_large, _dtype(args), shots)
    state, diag = ising.synthesize_boltzmann(
        lattice, variant=variant, d=args.d, nu=args.nu, nu_rule=args.nu_rule,
        enforce_zero=args.enforce_zero, dtype=_dtype(args),
    )
    return lattice, state, diag


def cmd_synth(args) -> int:
    lattice, state, diag = _synthesize(args)
    payload = asdict(diag)
    payload["version"] = __version__
    for key in ("u_sq", "u_sq_oracle", "predicted_postamp", "measured_postamp"):
        print(f"{key} = {payload[key]:.6f}")
    print(f"nu = {payload['nu']}  d = {payload['d']}  qubits = {payload['total_qubits']}")
    outdir = _outdir(args)
    if outdir:
        _write_json(os.path.join(outdir, "run.json"), payload)
        print(f"wrote {outdir}/run.json")
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.shots < 1:
        raise ConfigError("--shots must be >= 1")
    lattice, state, diag = _synthesize(args, args.shots)
    conditions = {diag.target_register: 0}

    if args.keep == "conditional":
        # sample the renormalized target slice: every shot is a kept shot,
        # equivalent to discarding-and-rerunning until the readout is 0
        reduced = collapse(state, conditions)
        kept_counts = sample(reduced, args.shots, args.seed)
        kept_layout = reduced.layout
        kept = args.shots
        efficiency = None
    else:
        counts = sample(state, args.shots, args.seed)
        kept_counts = filter_counts(counts, state.layout, conditions)
        kept_layout = state.layout
        kept = sum(kept_counts.values())
        efficiency = kept / args.shots

    reference = analysis.boltzmann_reference(lattice)
    sigma_counts, mag_counts = analysis.histograms(kept_counts, kept_layout, reference)

    fit = None
    if kept:
        tests = analysis.distribution_tests(sigma_counts, reference.sigma_probability)
        fit = {"chi2_stat": tests.chi2_stat, "dof": tests.dof,
               "p_value": tests.p_value, "tvd": tests.tvd}

    payload = asdict(diag)
    payload.update({
        "version": __version__,
        "shots": args.shots,
        "seed": args.seed,
        "keep": args.keep,
        "kept_shots": kept,
        "efficiency": efficiency,
        "sigma_fit": fit,
    })
    eff_note = "n/a (conditional)" if efficiency is None else f"{efficiency:.6f}"
    print(f"kept {kept}/{args.shots} shots; efficiency = {eff_note}")
    if fit:
        print(f"sigma fit: chi2 p = {fit['p_value']:.4f}, tvd = {fit['tvd']:.4f}")

    outdir = _outdir(args)
    if outdir:
        _write_json(os.path.join(outdir, "run.json"), payload)
        if kept:
            srows = analysis.sigma_histogram_rows(sigma_counts, reference, kept)
            _write_rows(outdir, "sigma_hist", srows,
                        ["sigma", "observed", "observed_per_state", "theory"], args.format)
            mrows = analysis.magnetization_rows(mag_counts, reference)
            _write_rows(outdir, "magnetization_hist", mrows, ["m", "probability"], args.format)
        print(f"wrote outputs under {outdir}/")
    return EXIT_OK


def cmd_plan(args) -> int:
    if args.eps is None or args.delta is None:
        raise ConfigError("plan needs --eps and --delta")
    d = transduce.plan_precision(args.eps, args.delta)
    # smallest comp with 2**-comp <= eps, read off eps's binary exponent (1 / eps can overflow)
    comp = 1 - math.frexp(args.eps)[1]
    payload = {
        "cutoff_eps": args.eps,
        "rel_prec_delta": args.delta,
        "d": d,
        "direct_exponent_qubits": d,
        "controlled_exponent_qubits": 2 * d,
        "comparator_bits_per_register": comp,
        "comparator_registers": 3,
        "comparator_ancilla_qubits": 3 * comp + 1,
    }
    print(f"d = {d} (direct {d} exponent qubits, controlled {2 * d})")
    print(f"comparator alternative: {comp} bits per register x 3 registers "
          f"(+1 flag = {3 * comp + 1} ancillas)")
    outdir = _outdir(args)
    if outdir:
        _write_json(os.path.join(outdir, "plan.json"), payload)
        print(f"wrote {outdir}/plan.json")
    return EXIT_OK


def cmd_table1(args) -> int:
    try:
        sizes = sorted({int(tok) for tok in args.sizes.replace("x", ",").split(",") if tok})
    except ValueError:
        raise ConfigError(f"bad --sizes value: {args.sizes!r}") from None
    if not sizes:
        raise ConfigError("--sizes names no lattice size")
    if not set(sizes) <= {2, 3, 4}:
        raise ConfigError("--sizes entries must be lattice sizes 2, 3, or 4")

    # one lattice per size, so both variants read the same Sigma enumeration
    lattices = {size: ising.IsingLattice(size, size, TABLE1_BETA_J) for size in sizes}
    rows = []
    failures = []
    for variant in ("direct", "controlled"):
        for size, lattice in lattices.items():
            expect = TABLE1_EXPECTED[(variant, size)]
            try:
                _check_memory(_layout_qubits(lattice, variant), args.allow_large,
                              _dtype(args), args.shots)
            except MemoryRefusal as exc:
                print(f"{size}x{size} {variant}: skipped ({exc})")
                continue
            state, diag = ising.synthesize_boltzmann(
                lattice, variant=variant, nu_rule="paper", dtype=_dtype(args))
            counts = sample(state, args.shots, args.seed)
            kept = sum(filter_counts(counts, state.layout,
                                     {diag.target_register: 0}).values())
            eff = kept / args.shots
            sigma_eff = math.sqrt(max(diag.predicted_postamp * (1 - diag.predicted_postamp), 1e-12)
                                  / args.shots)
            row = {
                "lattice": f"{size}x{size}", "variant": variant,
                "qubits": diag.total_qubits, "d": diag.d, "nu": diag.nu,
                "u_sq": diag.u_sq, "postamp": diag.measured_postamp,
                "efficiency": eff,
            }
            rows.append(row)
            checks = [
                ("qubits", diag.total_qubits == expect["qubits"]),
                ("d", diag.d == expect["d"]),
                ("nu", diag.nu == expect["nu"]),
                ("u_sq", abs(diag.u_sq - expect["u_sq"]) <= U_SQ_TOL),
                ("postamp", abs(diag.measured_postamp - expect["postamp"]) <= POSTAMP_TOL),
                ("efficiency", abs(eff - diag.predicted_postamp) <= 5 * sigma_eff),
            ]
            bad = [name for name, ok in checks if not ok]
            status = "ok" if not bad else f"MISMATCH ({', '.join(bad)})"
            print(f"{size}x{size} {variant}: qubits={diag.total_qubits} d={diag.d} "
                  f"nu={diag.nu} u_sq={diag.u_sq:.4f} postamp={diag.measured_postamp:.4f} "
                  f"efficiency={eff:.4f} [{status}]")
            if bad:
                failures.append((f"{size}x{size} {variant}", bad))

    outdir = _outdir(args)
    if outdir:
        _write_rows(outdir, "table1", rows,
                    ["lattice", "variant", "qubits", "d", "nu", "u_sq", "postamp", "efficiency"],
                    args.format)
        print(f"wrote outputs under {outdir}/")
    if failures:
        print(f"{len(failures)} row(s) off the benchmark values", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_baselines(args) -> int:
    if args.table is None or args.d is None:
        raise ConfigError("baselines needs --table and --d")
    if not os.path.exists(args.table):
        raise ConfigError(f"amplitude table not found: {args.table}")
    alphas = transduce.load_alphas(args.table)
    rows = baselines.compare_norms(alphas, args.d, gamma=args.gamma, cutoff_eps=args.eps)
    for row in rows:
        print(f"{row['method']:28s} d={row['d']:2d} norm={row['norm']:.6f} "
              f"qubits={row['qubits']}")
    outdir = _outdir(args)
    if outdir:
        _write_rows(outdir, "baselines", rows, ["method", "d", "norm", "qubits"], args.format)
        print(f"wrote outputs under {outdir}/")
    return EXIT_OK


def _add_common(p, tabular=True):
    p.add_argument("--config", help="key = value defaults file; flags override")
    p.add_argument("--out", help="output directory (created if missing)")
    if tabular:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="tabular output format")


def _add_budget(p):
    p.add_argument("--allow-large", action="store_true",
                   help=f"permit states beyond {DEFAULT_QUBIT_BUDGET} qubits")
    p.add_argument("--single-precision", action="store_true", help="complex64 amplitudes")


def _add_sampling(p):
    p.add_argument("--shots", type=int, default=1 << 17)
    p.add_argument("--seed", type=int, default=11)


def _add_lattice(p):
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--beta-j", type=float, help="dimensionless coupling beta*J")
    p.add_argument("--beta-rel-critical", type=float,
                   help="beta as a multiple of the critical 2.269/J")
    p.add_argument("--variant", choices=("direct", "controlled"), default="direct")
    p.add_argument("--d", type=int, help="exponent register width (default: minimal)")
    p.add_argument("--nu", type=int, help="amplification iterates (default: rule)")
    p.add_argument("--nu-rule", choices=("paper", "optimal"), default="paper")
    p.add_argument("--enforce-zero", action="store_true",
                   help="exact-zero handling of saturated exponents (extra ancilla)")
    _add_budget(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multamp",
        description="Boltzmann state preparation by multiplicative amplitude transduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="precision planning: exponent widths from (eps, delta)")
    p.add_argument("--eps", type=float, help="amplitude cutoff")
    p.add_argument("--delta", type=float, help="relative precision (gamma = e**delta)")
    _add_common(p, tabular=False)

    p = sub.add_parser("synth", help="one Boltzmann synthesis with diagnostics")
    _add_lattice(p)
    _add_common(p, tabular=False)

    p = sub.add_parser("sample", help="synthesis plus sampling and histogram files")
    _add_lattice(p)
    _add_sampling(p)
    p.add_argument("--keep", choices=("postselect", "conditional"), default="postselect",
                   help="postselect: discard nonzero readouts; conditional: "
                        "sample the renormalized target slice")
    _add_common(p)

    p = sub.add_parser("table1", help="recompute the benchmark table and compare")
    _add_sampling(p)
    p.add_argument("--sizes", default="2,3,4", help="comma-separated lattice sizes, e.g. 2,3")
    _add_budget(p)
    _add_common(p)

    p = sub.add_parser("baselines", help="norm comparison on an amplitude table")
    p.add_argument("--table", help="amplitude table (.csv index,alpha or .json array)")
    p.add_argument("--d", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eps", type=float, help="amplitude cutoff for the exponent table")
    _add_common(p)

    return parser


_PARSER = build_parser()
_SUBPARSERS = next(a for a in _PARSER._actions if a.dest == "command").choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _PARSER.parse_args(argv)
    try:
        if args.config:
            # argparse fills a default only where the file set nothing; argv flags still win
            args = _SUBPARSERS[args.command].parse_args(
                argv[1:], namespace=_config_namespace(args.command, args.config))
        # looked up at call time, so a wrapped cmd_* module attribute is the one called
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowLambdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (MemoryRefusal, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
