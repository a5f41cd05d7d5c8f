"""The benchmark's traced pass calls the public builders by name; keep them callable."""

import importlib.util
import pathlib
from collections import Counter

import pytest

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


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_tracer_sees_every_gate_of_one_sample_run(variant, tmp_path, capsys, monkeypatch):
    # the per-gate metrics hold only if apply_circuit runs each gate through
    # the public simcore.apply_gate, on the compact state too, on which
    # run_amplified runs every Ising U and writes what the Hadamards on C and
    # the oracle leave instead of applying them
    from multamp import amplify, cli, ising
    keyed = []
    keyed_plan = amplify._keyed_plan
    monkeypatch.setattr(amplify, "_keyed_plan", lambda *args: keyed.append(keyed_plan(*args)) or keyed[-1])
    spans = load_bench("spans")
    tracer = spans.Tracer().install()
    try:
        code = cli.main(["sample", "--rows", "2", "--cols", "3", "--beta-j", "0.1", "--variant", variant,
                         "--enforce-zero", "--shots", "500", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == cli.EXIT_OK
    circ, _, _ = ising.build_boltzmann_synthesis(ising.IsingLattice(2, 3, 0.1), variant,
                                                 enforce_zero=True)
    want = Counter(map(spans.gate_class, circ.gates))
    want["h"] -= circ.layout.width("C")
    want["register_xor"] -= 1
    assert {g: rec[0] for g, rec in tracer.gates.items()} == +want
    assert tracer.u_applications == 1
    assert tracer.ising_u[0] == 1
    assert [plan is not None for plan in keyed] == [True]


def test_tracer_times_the_u_squared_pass_of_a_keyed_run(monkeypatch):
    # run_amplified reads u**2 through the public postselect_probability, also
    # when U ran on its compact state, so the traced span covers that pass
    import numpy as np

    from multamp import amplify, simcore, transduce
    keyed = []
    keyed_plan = amplify._keyed_plan
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", 1 << 4)
    monkeypatch.setattr(amplify, "_keyed_plan", lambda *args: keyed.append(keyed_plan(*args)) or keyed[-1])
    table = transduce.build_lambda_table(np.linspace(0.05, 1.0, 1 << 6), 2.0, 4, 1e-3)
    circuit = transduce.build_synthesis(table, transduce.make_plan("controlled", 2.0, 4), enforce_zero=True)
    tracer = load_bench("spans").Tracer().install()
    try:
        amplify.run_amplified(amplify.AmplificationSpec(circuit, {"E": 0}, 1))
    finally:
        tracer.uninstall()
    assert tracer.calls("amplify.run_amplified") == 1
    assert tracer.u_applications == 1
    assert tracer.calls("amplify.postselect_probability") == 1
    assert len(keyed) == 1 and keyed[0] is not None
