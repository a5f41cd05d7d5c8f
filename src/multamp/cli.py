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
JSON keys, repr-round-trip floats.  Each is rewritten in place by
``analysis.write_text``, so a rerun into the same --out leaves the bytes
of a fresh write.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from . import amplify, analysis, baselines, ising, transduce
from .simcore import sample, sample_overhead
from .transduce import KEPT_REGISTER, OverflowLambdaError

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
    analysis.write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


def _check_memory(layout, variant: str, allow_large: bool, dtype, shots: int) -> None:
    if allow_large:
        return
    total_qubits = layout.total_qubits
    if total_qubits > DEFAULT_QUBIT_BUDGET:
        # kernels add cache-sized scratch only; sampling the kept slice adds
        # block-sized scratch and its outcomes, at most one per slice amplitude
        nbytes = (1 << total_qubits) * np.dtype(dtype).itemsize
        need = f"{total_qubits} qubits need a {_gib(nbytes, 2)} amplitude buffer"
        if shots:
            kept = layout.without([KEPT_REGISTER[variant]])
            peak = nbytes + sample_overhead(1 << kept.total_qubits, shots)
            need += f" and peak at {_gib(peak, 2)} while sampling {shots} shots"
        raise MemoryRefusal(f"{need}; rerun with --allow-large")


def _dtype(args):
    return np.float32 if args.single_precision else np.float64


def _state_layout(target, variant, enforce_zero=False):
    """Layout of the simulated state (no idle ancilla): that of the circuit the run
    builds for ``target``, with no gate built."""
    return transduce.standard_layout(target.num_entries, target.d, variant, enforce_zero)


def _synthesize(args, shots=0):
    lattice = _lattice_from_args(args)
    variant = args.variant
    target = ising.boltzmann_target(lattice, args.d, args.enforce_zero)
    _check_memory(_state_layout(target, variant, args.enforce_zero), variant,
                  args.allow_large, _dtype(args), shots)
    state, diag = ising.synthesize_boltzmann(
        lattice, variant=variant, d=args.d, nu=args.nu, nu_rule=args.nu_rule,
        enforce_zero=args.enforce_zero, dtype=_dtype(args), target=target,
    )
    return lattice, state, diag


def _payload(diag) -> dict:
    """The diagnostics' fields as run.json keys; every value is an int, float or str."""
    return {f.name: getattr(diag, f.name) for f in fields(diag)}


def cmd_synth(args) -> int:
    lattice, state, diag = _synthesize(args)
    payload = _payload(diag)
    payload["version"] = __version__
    for key in ("u_sq", "u_sq_oracle", "predicted_postamp", "measured_postamp"):
        print(f"{key} = {payload[key]:.6f}")
    print(f"nu = {payload['nu']}  d = {payload['d']}  qubits = {payload['total_qubits']}")
    outdir = _outdir(args)
    if outdir:
        _write_json(os.path.join(outdir, "run.json"), payload)
        print(f"wrote {outdir}/run.json")
    return EXIT_OK


def _kept_count(shots: int, postamp: float, rng) -> int:
    # Binomial(shots, P): the whole-state shots that read the slice, P clamped into [0, 1]
    return int(rng.binomial(shots, min(max(postamp, 0.0), 1.0)))


def _kept_draws(state, diag, keep: str, shots: int, seed: int):
    """(kept shots, their counts on the slice's layout), drawn from one ``default_rng(seed)``.

    ``postselect`` draws the kept count, then that many shots from the
    slice: the law of drawing every shot from the whole state and keeping
    those that read the target register at 0.  ``conditional`` keeps every shot.
    """
    rng = np.random.default_rng(seed)
    kept = shots if keep == "conditional" else _kept_count(shots, diag.measured_postamp, rng)
    return kept, sample(state, kept, rng, {diag.target_register: 0}) if kept else {}


def _check_sampling(args) -> None:
    """Refuse a --shots outside 1..2**63 - 1 or a negative --seed, before any synthesis."""
    if args.shots < 1:
        raise ConfigError(f"--shots must be >= 1, got {args.shots}")
    if args.shots > 2**63 - 1:
        raise ConfigError(f"--shots must be at most 2**63 - 1, got {args.shots}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def cmd_sample(args) -> int:
    _check_sampling(args)
    lattice, state, diag = _synthesize(args, args.shots)
    kept, kept_counts = _kept_draws(state, diag, args.keep, args.shots, args.seed)
    kept_layout = state.layout.without([diag.target_register])
    efficiency = None if args.keep == "conditional" else kept / args.shots

    reference = analysis.boltzmann_reference(lattice)
    sigma_counts, mag_counts = analysis.histograms(kept_counts, kept_layout, reference)

    fit = None
    if kept:
        tests = analysis.distribution_tests(sigma_counts, reference.sigma_probability)
        fit = {"chi2_stat": tests.chi2_stat, "dof": tests.dof,
               "p_value": tests.p_value, "tvd": tests.tvd}

    payload = _payload(diag)
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
        p_note = "n/a (one pooled bin: no chi2 test)" if fit["p_value"] is None else f"{fit['p_value']:.4f}"
        print(f"sigma fit: chi2 p = {p_note}, tvd = {fit['tvd']:.4f}")

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
    _check_sampling(args)
    try:
        sizes = sorted({int(tok) for tok in args.sizes.split(",") if tok})
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
    for variant in transduce.VARIANTS:
        for size, lattice in lattices.items():
            expect = TABLE1_EXPECTED[(variant, size)]
            target = ising.boltzmann_target(lattice)
            try:
                # the row draws its kept count alone, so no sampling memory
                _check_memory(_state_layout(target, variant), variant, args.allow_large,
                              _dtype(args), 0)
            except MemoryRefusal as exc:
                print(f"{size}x{size} {variant}: skipped ({exc})")
                continue
            state, diag = ising.synthesize_boltzmann(
                lattice, variant=variant, nu_rule="paper", dtype=_dtype(args), target=target)
            kept = _kept_count(args.shots, diag.measured_postamp, np.random.default_rng(args.seed))
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
    p.add_argument("--single-precision", action="store_true", help="float32 amplitudes (default float64)")


def _add_sampling(p):
    p.add_argument("--shots", type=int, default=1 << 17)
    p.add_argument("--seed", type=int, default=11)


def _add_lattice(p):
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--beta-j", type=float, help="dimensionless coupling beta*J")
    p.add_argument("--beta-rel-critical", type=float,
                   help="beta as a multiple of the critical 2.269/J")
    p.add_argument("--variant", choices=transduce.VARIANTS, default="direct")
    p.add_argument("--d", type=int, help="exponent register width (default: minimal)")
    p.add_argument("--nu", type=int, help="amplification iterates (default: rule)")
    p.add_argument("--nu-rule", choices=amplify.NU_RULES, default="paper")
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
