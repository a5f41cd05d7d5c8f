"""The benchmark's traced pass calls the public builders by name; keep them callable."""

import importlib.util
import pathlib

BENCH_RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_seconds_runs_every_stage():
    # BoltzmannTarget.from_lattice, boltzmann_layout, make_plan, build_T1,
    # build_T2 and build_ising_L, as the traced pass calls them
    totals = load_bench_run().stage_seconds([(2, 2, 0.1, "direct"), (2, 2, 0.1, "controlled")])
    assert sorted(totals) == ["H_C", "L", "T"]
    assert all(seconds > 0.0 for seconds in totals.values())
