"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``multamp`` from the
``src/`` directory next to ``bench/`` and exits non-zero, printing no
result, when that is missing.  Every job runs in this one
single-threaded process; output files go under ``.bench_out/`` and are
removed at exit.

With ``--trace 0`` the run reports the end-to-end metrics.  Set-up
(imports, input generation from ``--seed`` and one untimed warm-up job)
is timed in this process and again in a fresh interpreter after every
pass; ``setup_s`` is the median.  The timed section runs at least
MIN_PASSES whole passes over the workload's jobs, and more while the next
is expected to end within ``--seconds``.  A pass is one solution of the
workload.  Each job's time is its mean over the passes, and ``wall_s`` is
the sum of those means.  The machine this was tuned on flips between two
speeds about 40% apart, often several times within a few seconds.  The
mean moves in proportion to the share of time spent at each speed; a
job's fastest or median time jumps from one speed to the other.
Every job's output is checked, outside the timer.

``--trace 1`` runs exactly one untraced pass and then one pass with every
public function of the package wrapped (see spans.py), and reports the
per-layer metrics of the traced pass, so that its counts repeat exactly
for a seed.  See README.md for what each metric is meant to move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
MIN_PASSES = 3               # each job's time is its mean over at least this many passes
COPY_BYTES = 512 * 2**20     # roofline probe array, about 5x the 105 MiB L3


def load_workloads():
    """Import the workload module, and with it multamp from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "multamp", "__init__.py")):
        sys.exit(f"error: no multamp package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def run_job(job, out_root):
    """(seconds, kept shots, failure or None) for one job; only ``run`` is timed."""
    out = os.path.join(out_root, job.name)
    t0 = time.perf_counter()
    try:
        result = job.run(out)
    except Exception as exc:  # a raising job is a failed job, the run goes on
        return time.perf_counter() - t0, 0, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        return seconds, job.check(result, out), None
    except Exception as exc:
        return seconds, 0, f"check: {type(exc).__name__}: {exc}"


class Tally:
    """Per-pass job seconds, kept shots and failures of the passes run so far."""

    def __init__(self):
        self.passes, self.kept, self.shots, self.failures = [], 0, 0, []

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def run_pass(self, workload, out):
        times = []
        for job in workload.jobs:
            seconds, kept, failure = run_job(job, out)
            times.append(seconds)
            self.kept += kept
            self.shots += job.shots
            if failure:
                self.failures.append(f"{job.name}: {failure}")
        self.passes.append(times)

    def run_for(self, workload, seconds, out, between):
        """At least MIN_PASSES whole passes, more while the next is expected
        to end within ``seconds``; ``between()`` runs, unmeasured, after
        each of the first MIN_PASSES."""
        measured = 0.0
        while True:
            t0 = time.perf_counter()
            self.run_pass(workload, out)
            last = time.perf_counter() - t0
            measured += last
            if len(self.passes) <= MIN_PASSES:
                between()
            if len(self.passes) >= MIN_PASSES and measured + last > seconds:
                return self

    def mean_job_seconds(self) -> list:
        """Each job's mean time over the passes."""
        return [statistics.fmean(ts) for ts in zip(*self.passes)]


def setup_seconds(name, seed, out):
    """(workloads module, workload, seconds): imports, inputs and warm-up job."""
    t0 = time.perf_counter()
    workloads = load_workloads()
    workload = workloads.build(name, seed)
    _, _, failure = run_job(workload.warmup, out)
    if failure:
        sys.exit(f"error: warm-up job {workload.warmup.name} failed: {failure}")
    return workloads, workload, time.perf_counter() - t0


def fresh_setup_seconds(name, seed) -> float:
    """Set-up seconds measured in a fresh interpreter, as every run first pays them."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: set-up in a fresh process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def end_to_end(tally, setups):
    jobs = tally.mean_job_seconds()
    wall = sum(jobs)
    return {
        "wall_s": (wall, "s"),
        "job_s_p50": (statistics.median(jobs), "s"),
        "job_s_p90": (quantile(jobs, 0.9), "s"),
        "kept_shots_per_s": (tally.kept / len(tally.passes) / wall, "1/s"),
        "peak_rss_mib": (peak_rss_bytes() / 2**20, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def stage_seconds(configs):
    """One application each of H on C, the oracle L and the ladder T, per Ising configuration.

    The three stage circuits come from the public builders and are applied
    one after another to a fresh state, untraced.
    """
    from multamp import ising, simcore, transduce

    totals = {"H_C": 0.0, "L": 0.0, "T": 0.0}
    for rows, cols, beta_j, variant in configs:
        lattice = ising.IsingLattice(rows, cols, beta_j)
        target = ising.BoltzmannTarget.from_lattice(lattice)
        layout = ising.boltzmann_layout(lattice, target.d, variant)
        plan = transduce.make_plan(variant, target.gamma, target.d)
        ladder = transduce.build_T1 if variant == "direct" else transduce.build_T2
        stages = {
            "H_C": simcore.Circuit(layout, [simcore.h(q) for q in layout.qubits("C")]),
            "L": ising.build_ising_L(lattice, target.d, layout),
            "T": ladder(plan, layout),
        }
        state = simcore.StateVector.zero_state(layout)
        for stage, circuit in stages.items():
            t0 = time.perf_counter()
            simcore.apply_circuit(state, circuit, validate=False)
            totals[stage] += time.perf_counter() - t0
    return totals


def copy_gbps(repeats=5) -> float:
    """Median bandwidth of copying one half of a 512 MiB array onto the other."""
    import numpy as np

    buf = np.ones(COPY_BYTES // 8)
    half = buf.size // 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(buf[:half], buf[half:])
        times.append(time.perf_counter() - t0)
    return 2 * half * buf.itemsize / statistics.median(times) / 1e9


def complex64_probe(workloads) -> int:
    """Failed runs of ``sample --single-precision`` at 2x2 and 3x3 (untimed)."""
    return sum(workloads.run_cli(["sample", "--rows", s, "--cols", s, "--beta-j", "0.1",
                                  "--single-precision"]) != 0 for s in (2, 3))


def per_layer(workloads, workload, untraced, out):
    import spans

    tracer = spans.Tracer().install()
    traced = Tally()
    try:
        traced.run_pass(workload, out)
    finally:
        tracer.uninstall()
    stages = stage_seconds(workload.ising_configs)
    rss_over_state = peak_rss_bytes() / tracer.max_state_bytes
    s = tracer.seconds
    metrics = tracer.gate_metrics()
    metrics.update({
        "machine.copy_gbps": (copy_gbps(), "GB/s"),
        "simcore.peak_rss_over_state": (rss_over_state, "ratio"),
        **{f"simcore.{f}.s": (s(f"simcore.{f}"), "s")
           for f in ("sample", "collapse", "filter_counts", "counts_by_register")},
        "ising.build.s": (s("ising.build_boltzmann_synthesis"), "s"),
        "ising.U.s": (tracer.ising_u[1], "s"),
        "ising.U.calls": (tracer.ising_u[0], "count"),
        **{f"ising.stage.{k}.s": (v, "s") for k, v in stages.items()},
        "amplify.iterate.s": (s("amplify.grover_iterate"), "s"),
        "amplify.iterate.calls": (tracer.calls("amplify.grover_iterate"), "count"),
        "amplify.u_applications": (tracer.u_applications, "count"),
        "amplify.postselect_probability.s": (s("amplify.postselect_probability"), "s"),
        "amplify.run_amplified.s": (s("amplify.run_amplified"), "s"),
        "transduce.build_lambda_table.s": (s("transduce.build_lambda_table"), "s"),
        "transduce.build_synthesis.s": (s("transduce.build_synthesis"), "s"),
        **{f"analysis.{f}.s": (s(f"analysis.{f}"), "s")
           for f in ("boltzmann_reference", "distribution_tests", "exact_norms")},
        "cli.sample.self_s": (tracer.self_seconds("cli.cmd_sample"), "s"),
        "cli.sample.kept_frac": (traced.kept / traced.shots, "ratio"),
        "trace.overhead_s": (sum(traced.passes[0]) - sum(untraced.passes[0]), "s"),
        "cli.complex64_probe.failed": (complex64_probe(workloads), "count"),
    })
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh process, print the seconds and exit")
    args = parser.parse_args(argv)

    out = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        workloads, workload, first_setup = setup_seconds(args.workload, args.seed, out)
        if args.setup_only:
            print(repr(first_setup))
            return 0
        untraced = Tally()
        if args.trace:
            untraced.run_pass(workload, out)
            traced, metrics = per_layer(workloads, workload, untraced, out)
            tallies = [untraced, traced]
        else:
            # fresh set-ups between the passes sample the machine at other moments
            setups = [first_setup]
            untraced.run_for(workload, args.seconds, out, between=lambda: setups.append(
                fresh_setup_seconds(args.workload, args.seed)))
            metrics = end_to_end(untraced, setups)
            tallies = [untraced]
            print(f"complex64 probe: {complex64_probe(workloads)} of 2 single-precision "
                  "sample runs failed")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass

    failures = [f for tally in tallies for f in tally.failures]
    attempted = sum(tally.attempted for tally in tallies)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{args.workload}: {len(untraced.passes)} untraced pass(es) of {len(workload.jobs)} "
          f"job(s), failed_frac = {len(failures)}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
