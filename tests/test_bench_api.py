"""The benchmark's traced pass calls the public builders by name; keep them callable."""

import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_seconds_runs_every_stage():
    # BoltzmannTarget.from_lattice, boltzmann_layout, make_plan, build_T1,
    # build_T2 and build_ising_L, as the traced pass calls them
    totals = load_bench("run").stage_seconds([(2, 2, 0.1, "direct"), (2, 2, 0.1, "controlled")])
    assert sorted(totals) == ["H_C", "L", "T"]
    assert all(seconds > 0.0 for seconds in totals.values())


def test_tracer_sees_the_sample_handler_and_its_reference(tmp_path, capsys):
    # the wrapped cli.cmd_* attribute must be the handler main calls, not one
    # captured when the parser was built
    from multamp import cli
    tracer = load_bench("spans").Tracer().install()
    try:
        code = cli.main(["sample", "--rows", "2", "--cols", "2", "--beta-j", "0.1",
                         "--shots", "500", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == cli.EXIT_OK
    assert tracer.calls("cli.cmd_sample") == 1
    assert tracer.calls("analysis.boltzmann_reference") == 1
