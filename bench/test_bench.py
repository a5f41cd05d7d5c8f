"""Tests of the benchmark itself, on the quick 2x2-sized workloads.

    python3 -m pytest -q bench
"""

import json
import os
from collections import Counter

import numpy as np
import pytest

import run

workloads = run.load_workloads()  # puts this checkout's src/ on the path first

import spans  # noqa: E402
from multamp import amplify, ising, simcore, transduce  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def ising_jobs():
    return [(2, 2, "direct", 0.1), (2, 2, "controlled", 0.3), (2, 3, "direct", 0.05)]


def test_traced_gate_counts_equal_the_built_circuits(tmp_path):
    table_load = workloads.build("table_transduce", seed=3, quick=True)
    original = simcore.apply_circuit
    tracer = spans.Tracer().install()
    try:
        outs = []
        for rows, cols, variant, beta in ising_jobs():
            job = workloads.sample_job(rows, cols, variant, "postselect", 7, beta_j=beta)
            out = str(tmp_path / job.name)
            job.check(job.run(out), out)
            outs.append(out)
        table_results = [job.run(str(tmp_path)) for job in table_load.jobs]
    finally:
        tracer.uninstall()
    assert simcore.apply_circuit is original and ising.apply_circuit is original

    expected, u_ising, iterates = Counter(), 0, 0
    for (rows, cols, variant, beta), out in zip(ising_jobs(), outs):
        with open(os.path.join(out, "run.json")) as fh:
            nu = json.load(fh)["nu"]
        circ, _, _ = ising.build_boltzmann_synthesis(ising.IsingLattice(rows, cols, beta), variant)
        for op in circ.gates:
            expected[spans.gate_class(op)] += 1 + 2 * nu
        u_ising += 1 + 2 * nu
        iterates += nu
    u_total = u_ising
    alphas = workloads.table_alphas(np.random.default_rng(3), 1 << 6)
    for (_, nu, _), variant in zip(table_results, ("direct", "controlled")):
        table = transduce.build_lambda_table(alphas, workloads.TABLE_GAMMA, workloads.TABLE_D,
                                             workloads.TABLE_EPS)
        circ = transduce.build_synthesis(table, transduce.make_plan(variant, table.gamma, table.d),
                                         enforce_zero=True)
        for op in circ.gates:
            expected[spans.gate_class(op)] += 1 + 2 * nu
        u_total += 1 + 2 * nu
        iterates += nu

    assert {g: rec[0] for g, rec in tracer.gates.items()} == dict(expected)
    assert expected["register_xor"] > 0 and expected["cphase"] > 0
    assert tracer.ising_u[0] == u_ising
    assert tracer.u_applications == u_total
    assert tracer.calls("amplify.grover_iterate") == iterates
    assert tracer.calls("cli.cmd_sample") == len(ising_jobs())


def test_table_check_flags_a_negated_amplitude_and_nu_off_by_one(tmp_path):
    alphas = workloads.table_alphas(np.random.default_rng(5), 1 << 6)
    for variant in ("direct", "controlled"):
        job = workloads.table_job(alphas, variant, seed=9)
        state, nu, kept = job.run(str(tmp_path))
        assert job.check((state, nu, kept), str(tmp_path)) == kept

        bad = state.copy()
        block = workloads.post_selected_block(bad, variant, alphas.shape[0])
        hit = np.argwhere(np.abs(block) > 1e-3)[0]
        block[tuple(hit)] *= -1.0
        with pytest.raises(CheckFailed, match="slice"):
            job.check((bad, nu, kept), str(tmp_path))

        table = transduce.build_lambda_table(alphas, workloads.TABLE_GAMMA, workloads.TABLE_D,
                                             workloads.TABLE_EPS)
        circ = transduce.build_synthesis(table, transduce.make_plan(variant, table.gamma, table.d),
                                         enforce_zero=True)
        target = {"D" if variant == "direct" else "E": 0}
        over, _ = amplify.run_amplified(amplify.AmplificationSpec(circ, target, nu + 1))
        with pytest.raises(CheckFailed, match="slice"):
            job.check((over, nu, kept), str(tmp_path))


def test_sample_check_flags_nu_off_by_one(tmp_path):
    good = workloads.sample_job(2, 3, "direct", "postselect", 11, beta_j=0.2)
    out = str(tmp_path / "good")
    assert good.check(good.run(out), out) > 0
    nu = workloads.ising_expectation(2, 3, 0.2, "direct").nu
    wrong = workloads.sample_job(2, 3, "direct", "postselect", 11, beta_j=0.2, nu=nu + 1)
    out = str(tmp_path / "wrong")
    code = wrong.run(out)
    with pytest.raises(CheckFailed, match="nu"):
        good.check(code, out)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_quick_workloads_pass_their_checks(name, tmp_path):
    load = workloads.build(name, seed=1, quick=True)
    tally = run.Tally()
    tally.run_pass(load, str(tmp_path))
    assert tally.failures == []
    assert 0 < tally.kept <= tally.shots
