"""Benchmark workloads: seeded inputs, jobs and output checks.

BENCHMARK.json lists sampler_sweep and table_transduce.  table1 and
magnetization_4x4 run the same way but are not listed (see README.md).

A job is one call into the package, made the way a user makes it: the
CLI commands run in-process through ``cli.main``, the amplitude-table
pipeline through the public API.  ``run`` is the timed part; ``check`` is
untimed, returns the job's post-selected (kept) shot count and raises
CheckFailed when an output is wrong.  Every expected value the checks use
is computed here, by brute force in numpy, never by the package.

Module attributes are looked up at call time (``cli.main``, not a
captured ``main``) so that the traced run sees wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats

from multamp import amplify, analysis, cli, simcore, transduce

SHOTS = 1 << 17
CRITICAL_BETA_TIMES_J = 2.269
POSTAMP_ABS_TOL = 1e-9       # measured / predicted amplification, u**2
SLICE_ABS_TOL = 1e-12        # post-selected amplitudes of the table pipeline
EFFICIENCY_SIGMAS = 5.0
CHI2_P_FLOOR = 1e-6
CHI2_MIN_EXPECTED = 5.0

# The published Table-1 rows that fit a 24-qubit budget, with their
# tolerances (u**2 within 5e-4, post-amplification probability within 2e-3).
TABLE1_ROWS = {
    ("2x2", "direct"): {"qubits": 8, "d": 3, "nu": 2, "u_sq": 0.167, "postamp": 0.738},
    ("3x3", "direct"): {"qubits": 13, "d": 3, "nu": 3, "u_sq": 0.063, "postamp": 0.960},
    ("4x4", "direct"): {"qubits": 22, "d": 5, "nu": 6, "u_sq": 0.016, "postamp": 0.996},
    ("2x2", "controlled"): {"qubits": 11, "d": 3, "nu": 1, "u_sq": 0.487, "postamp": 0.539},
    ("3x3", "controlled"): {"qubits": 16, "d": 3, "nu": 2, "u_sq": 0.182, "postamp": 0.650},
}
TABLE1_U_SQ_TOL = 5e-4
TABLE1_POSTAMP_TOL = 2e-3


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[str], object]
    check: Callable[[object, str], int]
    shots: int = SHOTS


@dataclass
class Workload:
    jobs: list
    warmup: Job
    # (rows, cols, beta_j, variant) of every distinct Ising synthesis, for
    # the traced run's per-stage split
    ising_configs: list = field(default_factory=list)


def run_cli(argv) -> int:
    """``multamp <argv>`` in-process with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main([str(a) for a in argv])


# --- brute-force Ising reference ------------------------------------------------------

def _pairs(rows: int, cols: int):
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            yield s, r * cols + (c + 1) % cols
            yield s, ((r + 1) % rows) * cols + c


@dataclass
class IsingExpectation:
    """What a correct Boltzmann synthesis must report for one configuration."""

    d: int
    u_sq: float
    nu: int
    postamp: float
    sigma_probability: dict
    magnetization_probability: dict


def ising_expectation(rows: int, cols: int, beta_j: float, variant: str,
                      nu: int | None = None) -> IsingExpectation:
    n = rows * cols
    idx = np.arange(1 << n, dtype=np.int64)
    sigma = np.zeros(1 << n, dtype=np.int64)
    for i, j in _pairs(rows, cols):
        sigma += ((idx >> i) ^ (idx >> j)) & 1
    d = int(sigma.max() // 2).bit_length()
    weights = np.exp(-2.0 * beta_j * sigma)
    u_sq = float(weights.sum()) / (1 << n)
    if variant == "direct":
        y = math.exp(-4.0 * beta_j)  # gamma**-2 with gamma = exp(2 beta_j)
        u_sq *= (1.0 - y) / (1.0 - y ** (1 << d))
    u = math.sqrt(u_sq)
    if nu is None:
        nu = int(math.floor(math.pi / (4.0 * u) + 0.5))
    probs = weights / weights.sum()
    mag = 2 * np.bitwise_count(idx).astype(np.int64) - n
    return IsingExpectation(
        d=d, u_sq=u_sq, nu=nu,
        postamp=math.sin((2 * nu + 1) * math.asin(u)) ** 2,
        sigma_probability={int(s): float(probs[sigma == s].sum()) for s in np.unique(sigma)},
        magnetization_probability={int(m): float(probs[mag == m].sum())
                                   for m in range(-n, n + 1, 2)},
    )


def chi2_p_value(observed: dict, probability: dict) -> float:
    """Pearson chi-square p-value, pooling bins below 5 expected counts."""
    total = sum(observed.values())
    require(set(observed) <= set(probability), f"outcomes outside the support: {sorted(observed)}")
    pooled, acc_o, acc_e = [], 0.0, 0.0
    for key in sorted(probability):
        acc_o += observed.get(key, 0)
        acc_e += probability[key] * total
        if acc_e >= CHI2_MIN_EXPECTED:
            pooled.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if pooled:
            o, e = pooled.pop()
            pooled.append((o + acc_o, e + acc_e))
        else:
            pooled.append((acc_o, acc_e))
    if len(pooled) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in pooled)
    return float(stats.chi2.sf(stat, len(pooled) - 1))


def efficiency_ok(kept: int, shots: int, p: float) -> bool:
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / shots)
    return abs(kept / shots - p) <= EFFICIENCY_SIGMAS * sigma


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- sample jobs ----------------------------------------------------------------------

def sample_job(rows: int, cols: int, variant: str, keep: str, seed: int,
               beta_j: float | None = None, beta_rel: float | None = None,
               nu: int | None = None, check_modes: bool = False) -> Job:
    """``multamp sample`` with every output checked against the reference.

    ``check_modes`` (magnetization workload): the magnetization histogram
    must fit the exact distribution, and its exact modes ([0] at 0.1x
    critical coupling, [-16, 16] at 2x on 4x4, as in criterion 5) must be
    observed modes to within 5 sigma.  At 0.1x, m = 0 leads m = +-2 by
    only 0.0017 in probability, about 1.4 sigma at 2**17 shots, so a strict
    argmax test would fail one seed in several on correct output.
    """
    if beta_rel is not None:
        beta_j = CRITICAL_BETA_TIMES_J * beta_rel
        coupling = ["--beta-rel-critical", beta_rel]
    else:
        coupling = ["--beta-j", repr(beta_j)]
    expect = ising_expectation(rows, cols, beta_j, variant, nu)
    argv = ["sample", "--rows", rows, "--cols", cols, *coupling, "--variant", variant,
            "--keep", keep, "--shots", SHOTS, "--seed", seed]
    if nu is not None:
        argv += ["--nu", nu]

    def run(out):
        return run_cli(argv + ["--out", out])

    def check(code, out) -> int:
        require(code == 0, f"exit code {code}")
        with open(os.path.join(out, "run.json")) as fh:
            res = json.load(fh)
        require(res["nu"] == expect.nu, f"nu {res['nu']} != {expect.nu}")
        require(res["d"] == expect.d, f"d {res['d']} != {expect.d}")
        for key in ("u_sq", "u_sq_oracle"):
            require(abs(res[key] - expect.u_sq) <= POSTAMP_ABS_TOL,
                    f"{key} {res[key]!r} != {expect.u_sq!r}")
        for key in ("measured_postamp", "predicted_postamp"):
            require(abs(res[key] - expect.postamp) <= POSTAMP_ABS_TOL,
                    f"{key} {res[key]!r} != {expect.postamp!r}")
        kept = res["kept_shots"]
        if keep == "postselect":
            require(efficiency_ok(kept, SHOTS, expect.postamp),
                    f"efficiency {kept / SHOTS} vs {expect.postamp}")
        else:
            require(kept == SHOTS, "conditional sampling must keep every shot")
        sigma_rows = _read_csv(os.path.join(out, "sigma_hist.csv"))
        observed = {int(r["sigma"]): int(r["observed"]) for r in sigma_rows}
        require(sum(observed.values()) == kept, "sigma histogram does not sum to the kept shots")
        p = chi2_p_value(observed, expect.sigma_probability)
        require(p > CHI2_P_FLOOR, f"sigma histogram chi2 p = {p:.3g}")
        if check_modes:
            ref = expect.magnetization_probability
            freq = {int(r["m"]): float(r["probability"])
                    for r in _read_csv(os.path.join(out, "magnetization_hist.csv"))}
            p = chi2_p_value({m: round(f * kept) for m, f in freq.items() if f}, ref)
            require(p > CHI2_P_FLOOR, f"magnetization histogram chi2 p = {p:.3g}")
            top = max(freq.values())
            slack = EFFICIENCY_SIGMAS * math.sqrt(2.0 * top / kept)
            modes = [m for m, q in ref.items() if q >= max(ref.values()) * (1 - 1e-9)]
            require(all(freq[m] >= top - slack for m in modes),
                    f"exact modes {modes} are not observed modes: {freq}")
        return kept

    tag = f"{rows}x{cols}-{variant}-{keep}-{beta_j:.4f}"
    return Job(tag, run, check)


# --- table1 ---------------------------------------------------------------------------

def table1_job(seed: int, sizes: str = "2,3,4") -> Job:
    argv = ["table1", "--shots", SHOTS, "--seed", seed, "--sizes", sizes]
    wanted = {key for key in TABLE1_ROWS if key[0][0] in sizes}

    def run(out):
        return run_cli(argv + ["--out", out])

    def check(code, out) -> int:
        require(code == 0, f"exit code {code}")
        rows = _read_csv(os.path.join(out, "table1.csv"))
        got = {(r["lattice"], r["variant"]): r for r in rows}
        require(set(got) == wanted, f"rows {sorted(got)} != {sorted(wanted)}")
        kept = 0
        for key, row in got.items():
            ref = TABLE1_ROWS[key]
            for name in ("qubits", "d", "nu"):
                require(int(row[name]) == ref[name], f"{key} {name} {row[name]} != {ref[name]}")
            require(abs(float(row["u_sq"]) - ref["u_sq"]) <= TABLE1_U_SQ_TOL, f"{key} u_sq {row['u_sq']}")
            require(abs(float(row["postamp"]) - ref["postamp"]) <= TABLE1_POSTAMP_TOL,
                    f"{key} postamp {row['postamp']}")
            row_kept = round(float(row["efficiency"]) * SHOTS)
            require(efficiency_ok(row_kept, SHOTS, float(row["postamp"])), f"{key} efficiency {row['efficiency']}")
            kept += row_kept
        return kept

    return Job(f"table1-{sizes}", run, check, shots=SHOTS * len(wanted))


# --- amplitude-table pipeline -----------------------------------------------------------

TABLE_EPS = 1e-3
TABLE_GAMMA = 1.6   # every alpha >= eps then needs an exponent below 2**4
TABLE_D = 4
TABLE_QUBITS = 13  # index register: 2**13 entries


def table_alphas(rng: np.random.Generator, entries: int) -> np.ndarray:
    """Log-uniform over [eps/4, 1]: about a sixth of the entries saturate."""
    return np.exp(rng.uniform(math.log(TABLE_EPS / 4.0), 0.0, size=entries))


def table_expectation(alphas: np.ndarray, variant: str):
    """(nu, u, slice) a correct amplified synthesis must produce.

    ``slice`` is the post-selected block (target register == 0) as an
    array over (z, D, C) for direct and (z, E=0 dropped, D, C) for
    controlled, before the amplification gain
    sin((2 nu + 1) theta) / sin(theta).  nu follows the paper rule on the
    exact-norms u, which counts saturated entries at gamma**-(2**d - 1);
    the state itself carries zero weight on them (enforce_zero).
    """
    entries = alphas.shape[0]
    saturated = alphas < TABLE_EPS
    raw = -np.log(alphas) / math.log(TABLE_GAMMA)
    nearest = np.rint(raw)
    lam = np.floor(np.where(np.abs(raw - nearest) < 1e-9, nearest, raw)).astype(np.int64)
    lam[saturated] = (1 << TABLE_D) - 1
    amp = TABLE_GAMMA ** (-lam.astype(float)) / math.sqrt(entries)
    if variant == "direct":
        y = TABLE_GAMMA ** -2.0
        amp *= math.sqrt((1.0 - y) / (1.0 - y ** (1 << TABLE_D)))
    u_rule = math.sqrt(float(np.sum(amp ** 2)))
    nu = int(math.floor(math.pi / (4.0 * u_rule) + 0.5))
    amp[saturated] = 0.0
    u = math.sqrt(float(np.sum(amp ** 2)))
    c = np.arange(entries)
    if variant == "direct":
        block = np.zeros((2, 1, entries))
        block[1, 0, :] = amp
    else:
        block = np.zeros((2, 1 << TABLE_D, entries))
        block[1, lam, c] = amp
    return nu, u, block


def post_selected_block(state, variant: str, entries: int) -> np.ndarray:
    """View of the target-register == 0 amplitudes, shaped like the expectation."""
    d = 1 << TABLE_D
    if variant == "direct":  # qubits: C, D, z
        return state.amplitudes.reshape(2, d, entries)[:, :1, :]
    return state.amplitudes.reshape(2, d, d, entries)[:, 0, :, :]  # C, D, E, z


def table_job(alphas: np.ndarray, variant: str, seed: int) -> Job:
    """build_lambda_table -> build_synthesis(enforce_zero) -> run_amplified -> sample."""
    entries = alphas.shape[0]
    nu, u, block = table_expectation(alphas, variant)
    theta = math.asin(u)
    gain = math.sin((2 * nu + 1) * theta) / math.sin(theta)
    postamp = math.sin((2 * nu + 1) * theta) ** 2

    def run(out):
        table = transduce.build_lambda_table(alphas, TABLE_GAMMA, TABLE_D, TABLE_EPS)
        plan = transduce.make_plan(variant, TABLE_GAMMA, TABLE_D)
        circ = transduce.build_synthesis(table, plan, enforce_zero=True)
        norms = analysis.exact_norms(table.lambdas, table.gamma, table.d)
        u_rule = norms.u_direct if variant == "direct" else norms.u_controlled
        spec = amplify.AmplificationSpec(circ, {"D" if variant == "direct" else "E": 0},
                                         amplify.select_nu(u_rule, "paper"))
        state, _ = amplify.run_amplified(spec)
        counts = simcore.sample(state, SHOTS, seed)
        kept = simcore.filter_counts(counts, state.layout, spec.target)
        return state, spec.nu, sum(kept.values())

    def check(result, out) -> int:
        state, got_nu, kept = result
        require(got_nu == nu, f"nu {got_nu} != {nu}")
        err = float(np.max(np.abs(post_selected_block(state, variant, entries) - gain * block)))
        require(err <= SLICE_ABS_TOL, f"post-selected slice off by {err:.3g}")
        require(efficiency_ok(kept, SHOTS, postamp), f"efficiency {kept / SHOTS} vs {postamp}")
        return kept

    return Job(f"table-{variant}-{entries}", run, check)


# --- the workloads ----------------------------------------------------------------------

SWEEP_LATTICES = ((2, 2), (2, 3), (3, 3))
SWEEP_JOBS_PER_VARIANT = 18   # per lattice and variant: 9 per --keep mode
SWEEP_BETA_RANGE = (0.05, 0.4)


def _stratum_beta(rng, rows, cols, variant, lo, hi) -> float:
    """A coupling drawn from [lo, hi) with the same nu as the stratum's centre.

    nu, which sets a job's size, grows with beta_j (1 to 11 here); holding it
    to the centre's value keeps the mix of job sizes the same at every seed.
    """
    nu = ising_expectation(rows, cols, (lo + hi) / 2, variant).nu
    while True:
        beta = float(rng.uniform(lo, hi))
        if ising_expectation(rows, cols, beta, variant).nu == nu:
            return beta


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The named workload's jobs from ``seed``; ``quick`` shrinks it to 2x2 sizes."""
    rng = np.random.default_rng(seed)
    if name == "table1":
        return Workload([table1_job(_seeds(rng, 1)[0], "2" if quick else "2,3,4")],
                        table1_job(_seeds(rng, 1)[0], "2"),
                        [(s, s, 0.1, v) for v in ("direct", "controlled")
                         for s in ((2,) if quick else (2, 3, 4)) if (s, v) != (4, "controlled")])
    if name == "magnetization_4x4":
        side = 2 if quick else 4
        seeds = _seeds(rng, 3)
        jobs = [sample_job(side, side, "direct", "conditional", s, beta_rel=rel, nu=0,
                           check_modes=True)
                for rel, s in zip((0.1, 2.0), seeds)]
        warm = sample_job(2, 2, "direct", "conditional", seeds[2], beta_rel=0.1, nu=0)
        return Workload(jobs, warm,
                        [(side, side, CRITICAL_BETA_TIMES_J * 0.1, "direct")])
    if name == "sampler_sweep":
        lattices = SWEEP_LATTICES[:1] if quick else SWEEP_LATTICES
        k = 4 if quick else SWEEP_JOBS_PER_VARIANT
        lo, hi = SWEEP_BETA_RANGE
        jobs = []
        for rows, cols in lattices:
            for variant in ("direct", "controlled"):
                betas = [_stratum_beta(rng, rows, cols, variant, lo + (hi - lo) * i / k,
                                       lo + (hi - lo) * (i + 1) / k) for i in range(k)]
                keeps = rng.permutation(["postselect", "conditional"] * (k // 2))
                for beta, keep, s in zip(betas, keeps, _seeds(rng, k)):
                    jobs.append(sample_job(rows, cols, variant, str(keep), s, beta_j=beta))
        warm = sample_job(2, 2, "direct", "postselect", _seeds(rng, 1)[0], beta_j=0.1)
        return Workload(jobs, warm,
                        [(r, c, 0.1, v) for r, c in lattices for v in ("direct", "controlled")])
    if name == "table_transduce":
        entries = 1 << (6 if quick else TABLE_QUBITS)
        alphas = table_alphas(rng, entries)
        seeds = _seeds(rng, 3)
        jobs = [table_job(alphas, v, s) for v, s in zip(("direct", "controlled"), seeds)]
        warm = table_job(table_alphas(rng, 1 << 6), "controlled", seeds[2])
        return Workload(jobs, warm)
    raise KeyError(f"unknown workload {name!r}; have {WORKLOADS}")


WORKLOADS = ("table1", "magnetization_4x4", "sampler_sweep", "table_transduce")
