"""Rotation-oracle and comparator baselines."""

import math

import numpy as np
import pytest

import oracles
from multamp.analysis import exact_norms
from multamp.amplify import postselect_probability
from multamp.baselines import (
    build_comparator_synthesis,
    comparator_flag_gates,
    comparator_layout,
    comparator_synthesis,
    compare_norms,
    rotation_oracle_synthesis,
)
from multamp.simcore import StateVector, apply_circuit
from multamp.transduce import build_lambda_table


# --- rotation oracle ---------------------------------------------------------

def test_rotation_oracle_encodes_amplitudes_exactly():
    alphas = np.array([1.0, 0.8, 0.55, 0.3])
    state, layout = rotation_oracle_synthesis(alphas)
    assert layout.total_qubits == 3  # two index qubits plus one ancilla
    for i, alpha in enumerate(alphas):
        keep = state.amplitudes[layout.pack("C", i)]
        drop = state.amplitudes[layout.pack("C", i) | layout.pack("a", 1)]
        assert math.isclose(keep.real, alpha / 2.0, rel_tol=1e-15)
        assert math.isclose(abs(drop) ** 2, (1 - alpha ** 2) / 4.0,
                            rel_tol=1e-12, abs_tol=1e-15)
    want = float(np.mean(alphas ** 2))
    assert math.isclose(postselect_probability(state, {"a": 0}), want, rel_tol=1e-12)


# --- comparator truth table ------------------------------------------------------

@pytest.mark.parametrize("d", range(1, 7))
def test_comparator_truth_table_is_exhaustive(d):
    # classical tracking covers every (value, probe) pair without statevectors
    layout = comparator_layout(2, d)
    gates = comparator_flag_gates(layout)
    for value in range(1 << d):
        for probe in range(1 << d):
            index = layout.pack("D", value) | layout.pack("E", probe)
            out = oracles.apply_permutation_to_index(gates, index, layout)
            assert layout.value(out, "g") == (1 if probe >= value else 0)
            assert layout.value(out, "w") == 0  # borrow chain uncomputed
            assert layout.value(out, "D") == value
            assert layout.value(out, "E") == probe
            assert layout.value(out, "C") == 0


def test_comparator_gate_budget():
    # 2 * (3d - 2) three-qubit gates around 2 flag writes
    for d in range(1, 8):
        gates = comparator_flag_gates(comparator_layout(2, d))
        assert len(gates) == 2 * (3 * d - 2) + 2


def test_comparator_synthesis_matches_dense_matrices():
    alphas = [0.9, 0.51, 0.27, 0.125]
    circuit, conditions = build_comparator_synthesis(alphas, d=2)
    rng = np.random.default_rng(21)
    dim = 1 << circuit.layout.total_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    state = StateVector(circuit.layout, amps.astype(np.complex128))
    expected = oracles.circuit_matrix(circuit) @ state.amplitudes
    apply_circuit(state, circuit)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_comparator_synthesis_prepares_truncated_amplitudes():
    alphas = np.array([0.9, 0.51, 0.27, 0.125, 1.0, 0.75, 0.5, 0.33])
    d = 4
    state, circuit, conditions = comparator_synthesis(alphas, d)
    layout = state.layout
    scaled = np.floor(alphas * (1 << d)) / (1 << d)
    for i in range(8):
        # D keeps the stored threshold (0 at the boundary); E, g, w read 0
        stored = int(scaled[i] * (1 << d)) % (1 << d)
        index = layout.pack("C", i) | layout.pack("D", stored)
        got = state.amplitudes[index].real
        assert math.isclose(got, scaled[i] / math.sqrt(8), rel_tol=0, abs_tol=1e-12)
    # work and probe registers fully restored outside the kept slice too
    assert math.isclose(postselect_probability(state, {"w": 0}), 1.0, rel_tol=1e-12)


def test_comparator_boundary_amplitude_is_exact():
    # alpha = 1 scales to 2**d, one past the top of the register; the
    # keyed flag correction keeps it representable and exact
    alphas = np.array([1.0, 0.5])
    state, circuit, conditions = comparator_synthesis(alphas, d=3)
    layout = state.layout
    got = state.amplitudes[layout.pack("C", 0)].real
    assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    # D register holds 0 for the boundary entry, so width never grows
    assert layout.width("D") == 3


def test_comparator_truncation_error_is_one_ulp_of_the_register():
    rng = np.random.default_rng(23)
    for d in range(4, 9):
        alphas = rng.uniform(0.0, 1.0, size=16)
        rotation = math.sqrt(float(np.mean(alphas ** 2)))
        scaled = np.floor(alphas * (1 << d)) / (1 << d)
        comparator = math.sqrt(float(np.mean(scaled ** 2)))
        assert abs(rotation - comparator) <= 2.0 ** -d


# --- norm comparison table ---------------------------------------------------------

def test_compare_norms_rows_and_tallies():
    alphas = np.array([0.9, 0.51, 0.27, 0.125])
    d = 5
    rows = compare_norms(alphas, d)
    by_method = {row["method"]: row for row in rows}
    assert list(by_method) == ["rotation", "comparator",
                               "multiplicative-direct", "multiplicative-controlled"]
    n = 2  # index qubits
    assert by_method["rotation"]["qubits"] == n + 1
    assert by_method["comparator"]["qubits"] == n + 3 * d + 1
    assert by_method["multiplicative-direct"]["qubits"] == n + d
    assert by_method["multiplicative-controlled"]["qubits"] == n + 2 * d
    assert math.isclose(by_method["rotation"]["norm"],
                        math.sqrt(float(np.mean(alphas ** 2))), rel_tol=1e-12)
    scaled = np.floor(alphas * (1 << d)) / (1 << d)
    assert math.isclose(by_method["comparator"]["norm"],
                        math.sqrt(float(np.mean(scaled ** 2))), rel_tol=1e-12)
    for row in rows:
        assert 0.0 < row["norm"] <= 1.0 + 1e-12
        assert row["d"] == d


def test_compare_norms_multiplicative_rows_match_exact_norms():
    alphas = np.array([0.9, 0.51, 0.27, 0.125])
    d, gamma, eps = 4, math.exp(0.35), 0.01
    rows = compare_norms(alphas, d, gamma=gamma, cutoff_eps=eps)
    by_method = {row["method"]: row for row in rows}
    table = build_lambda_table(alphas, gamma, d, eps)
    norms = exact_norms(table.lambdas, gamma, d)
    assert math.isclose(by_method["multiplicative-direct"]["norm"],
                        norms.u_direct, rel_tol=1e-12)
    assert math.isclose(by_method["multiplicative-controlled"]["norm"],
                        norms.u_controlled, rel_tol=1e-12)


def test_compare_norms_default_gamma_spends_the_whole_register():
    # default: gamma**(2**d - 1) = 1/eps with eps = 2**-d
    alphas = np.array([1.0, 0.5, 0.25, 0.125])
    d = 4
    rows = compare_norms(alphas, d)
    eps = 2.0 ** -d
    gamma = math.exp(-math.log(eps) / ((1 << d) - 1))
    table = build_lambda_table(alphas, gamma, d, eps)
    norms = exact_norms(table.lambdas, gamma, d)
    by_method = {row["method"]: row for row in rows}
    assert math.isclose(by_method["multiplicative-direct"]["norm"],
                        norms.u_direct, rel_tol=1e-12)
