"""Statevector engine vs dense-matrix oracles."""

import math

import numpy as np
import pytest

import oracles
from multamp import simcore
from multamp.amplify import postselect_probability
from multamp.simcore import (
    Circuit,
    RegisterLayout,
    RegisterXor,
    StateVector,
    apply_circuit,
    apply_gate,
    apply_permutation_to_index,
    collapse,
    counts_by_register,
    filter_counts,
    h,
    phase,
    roty,
    sample,
    swap,
    x,
    z,
)

GATE_KINDS = ("h", "x", "z", "phase", "ry", "swap")


def random_state(layout, rng):
    dim = 1 << layout.total_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return StateVector(layout, amps.astype(np.complex128))


def random_gate(n, rng, kinds=GATE_KINDS, max_controls=2):
    kind = kinds[rng.integers(len(kinds))]
    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    qubits = list(rng.permutation(n))
    target = int(qubits.pop())
    target2 = int(qubits.pop()) if kind == "swap" else None
    n_ctrl = int(rng.integers(0, min(max_controls, len(qubits)) + 1))
    controls = tuple((int(qubits.pop()), int(rng.integers(2))) for _ in range(n_ctrl))
    return simcore.Gate(kind=kind, target=target, angle=angle,
                        target2=target2, controls=controls)


# --- layouts -------------------------------------------------------------

def test_layout_spans_and_values():
    layout = RegisterLayout([("C", 3), ("D", 2), ("g", 1)])
    assert layout.total_qubits == 6
    assert layout.offset("C") == 0 and layout.width("C") == 3
    assert layout.offset("D") == 3 and layout.offset("g") == 5
    assert list(layout.qubits("D")) == [3, 4]
    index = layout.pack("C", 5) | layout.pack("D", 2) | layout.pack("g", 1)
    assert index == 5 | (2 << 3) | (1 << 5)
    assert layout.value(index, "C") == 5
    assert layout.value(index, "D") == 2
    assert layout.value(index, "g") == 1


def test_layout_values_vectorized_matches_scalar():
    layout = RegisterLayout([("A", 2), ("B", 3)])
    idx = np.arange(1 << 5)
    vec = layout.values(idx, "B")
    assert [layout.value(int(i), "B") for i in idx] == list(vec)


def test_layout_rejects_bad_registers():
    with pytest.raises(ValueError):
        RegisterLayout([("C", 0)])
    with pytest.raises(ValueError):
        RegisterLayout([("C", 2), ("C", 1)])
    layout = RegisterLayout([("C", 2)])
    with pytest.raises(KeyError):
        layout.width("missing")


# --- single gates vs dense matrices --------------------------------------

@pytest.mark.parametrize("kind", GATE_KINDS)
def test_each_gate_kind_matches_dense_matrix(kind):
    rng = np.random.default_rng(101)
    layout = RegisterLayout([("R", 4)])
    for trial in range(25):
        gate = random_gate(4, rng, kinds=(kind,))
        state = random_state(layout, rng)
        expected = oracles.dense_unitary(4, gate) @ state.amplitudes
        apply_gate(state, gate)
        assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_random_circuits_match_matrix_products():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        layout = RegisterLayout([("R", n)])
        for trial in range(8):
            circuit = Circuit(layout, [random_gate(n, rng) for _ in range(20)])
            state = random_state(layout, rng)
            expected = oracles.circuit_matrix(circuit) @ state.amplitudes
            apply_circuit(state, circuit)
            assert np.allclose(state.amplitudes, expected, atol=1e-11)


def test_register_xor_matches_permutation_matrix():
    rng = np.random.default_rng(11)
    layout = RegisterLayout([("C", 3), ("D", 3)])
    values = rng.integers(0, 8, size=8)
    op = RegisterXor("C", "D", values)
    op.validate(layout)
    state = random_state(layout, rng)
    expected = oracles.xor_permutation_matrix(layout, op) @ state.amplitudes
    op.apply(state)
    assert np.allclose(state.amplitudes, expected, atol=0)


def test_register_xor_is_an_involution():
    rng = np.random.default_rng(13)
    layout = RegisterLayout([("C", 2), ("D", 4)])
    op = RegisterXor("C", "D", rng.integers(0, 16, size=4))
    state = random_state(layout, rng)
    before = state.amplitudes.copy()
    op.apply(state)
    op.inverse().apply(state)
    assert np.array_equal(state.amplitudes, before)


def test_register_xor_validates_value_range():
    layout = RegisterLayout([("C", 2), ("D", 2)])
    with pytest.raises(ValueError):
        RegisterXor("C", "D", [0, 1, 2, 4]).validate(layout)
    with pytest.raises(ValueError):
        RegisterXor("C", "D", [0, 1, 2]).validate(layout)  # wrong key count


# --- norm preservation and inversion -------------------------------------

def test_norm_preserved_over_ten_thousand_gates():
    rng = np.random.default_rng(17)
    n = 8
    layout = RegisterLayout([("R", n)])
    state = random_state(layout, rng)
    circuit = Circuit(layout, [random_gate(n, rng) for _ in range(10_000)])
    apply_circuit(state, circuit, validate=False)
    assert abs(state.norm() - 1.0) < 1e-9


def test_circuit_inverse_restores_state():
    rng = np.random.default_rng(19)
    layout = RegisterLayout([("C", 2), ("D", 3)])
    gates = [random_gate(5, rng) for _ in range(60)]
    gates.insert(10, RegisterXor("C", "D", rng.integers(0, 8, size=4)))
    circuit = Circuit(layout, gates)
    state = random_state(layout, rng)
    before = state.amplitudes.copy()
    apply_circuit(state, circuit)
    apply_circuit(state, circuit.inverse())
    assert np.allclose(state.amplitudes, before, atol=1e-9)


def test_gate_inverse_matches_conjugate_transpose():
    rng = np.random.default_rng(23)
    for _ in range(40):
        gate = random_gate(3, rng)
        mat = oracles.dense_unitary(3, gate)
        inv = oracles.dense_unitary(3, gate.inverse())
        assert np.allclose(inv, mat.conj().T, atol=1e-12)


# --- validation errors ----------------------------------------------------

def test_gate_validation_rejects_bad_wiring():
    layout = RegisterLayout([("R", 3)])
    state = StateVector.zero_state(layout)
    with pytest.raises(ValueError):
        apply_gate(state, x(3))
    with pytest.raises(ValueError):
        apply_gate(state, x(0, controls=((0, 1),)))
    with pytest.raises(ValueError):
        apply_gate(state, x(0, controls=((1, 2),)))
    with pytest.raises(ValueError):
        apply_gate(state, swap(1, 1))
    with pytest.raises(ValueError):
        apply_gate(state, simcore.Gate(kind="x", target=0, target2=1))
    with pytest.raises(ValueError):
        apply_gate(state, x(0, controls=((1, 1), (1, 0))))


def test_apply_circuit_requires_matching_layout():
    a = RegisterLayout([("R", 2)])
    b = RegisterLayout([("S", 2)])
    state = StateVector.zero_state(a)
    with pytest.raises(ValueError):
        apply_circuit(state, Circuit(b, [x(0)]))


# --- projection, collapse, sampling ---------------------------------------

def test_project_probability_sums_register_marginal():
    rng = np.random.default_rng(29)
    layout = RegisterLayout([("A", 2), ("B", 3)])
    state = random_state(layout, rng)
    probs = np.abs(state.amplitudes) ** 2
    for value in range(8):
        want = probs[[i for i in range(32) if (i >> 2) == value]].sum()
        assert math.isclose(postselect_probability(state, {"B": value}), want, rel_tol=1e-12)
    total = sum(postselect_probability(state, {"A": v}) for v in range(4))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_collapse_renormalizes_the_kept_slice():
    rng = np.random.default_rng(31)
    layout = RegisterLayout([("A", 3), ("B", 2)])
    state = random_state(layout, rng)
    before = state.amplitudes.copy()
    reduced = collapse(state, {"B": 2})
    assert reduced.layout == RegisterLayout([("A", 3)])
    assert reduced.amplitudes.shape == (1 << 3,)
    assert math.isclose(reduced.norm(), 1.0, rel_tol=1e-12)
    # conditional ratios and relative phases survive the renormalization
    kept = state.amplitudes[[layout.pack("B", 2) | a for a in range(8)]]
    assert np.allclose(reduced.amplitudes, kept / np.linalg.norm(kept), atol=1e-12)
    # B is the top register, so its slice is a contiguous view: still copied
    assert np.array_equal(state.amplitudes, before)


@pytest.mark.parametrize("conditions,rest", [
    ({"A": 1, "C": 1}, [("B", 3)]),
    ({"B": 5}, [("A", 2), ("C", 1)]),
    ({"A": 3, "B": 0}, [("C", 1)]),
])
def test_collapse_drops_the_conditioned_registers(conditions, rest):
    rng = np.random.default_rng(33)
    layout = RegisterLayout([("A", 2), ("B", 3), ("C", 1)])
    state = random_state(layout, rng)
    reduced = collapse(state, conditions)
    assert reduced.layout == RegisterLayout(rest)
    width = sum(layout.width(name) for name in conditions)
    assert reduced.amplitudes.shape == (1 << (layout.total_qubits - width),)
    # reduced index i is the full index with the conditioned bits put back
    fixed = sum(layout.pack(name, value) for name, value in conditions.items())
    full = [fixed | sum(layout.pack(name, reduced.layout.value(i, name)) for name, _ in rest)
            for i in range(reduced.amplitudes.shape[0])]
    kept = state.amplitudes[full]
    assert np.allclose(reduced.amplitudes, kept / np.linalg.norm(kept), atol=1e-12)


def test_collapse_on_zero_probability_slice_raises():
    layout = RegisterLayout([("A", 1), ("B", 1)])
    state = StateVector.basis_state(layout, 0)
    with pytest.raises(ValueError):
        collapse(state, {"B": 1})
    with pytest.raises(ValueError):
        collapse(state, {"A": 0, "B": 1})


def test_sampling_the_slice_draws_what_the_zero_filled_state_draws():
    # exact zeros add nothing to the cumulative sum, so a seeded draw on
    # the reduced state lands on the same configuration as on the
    # full-size state with everything outside the slice zeroed
    rng = np.random.default_rng(35)
    layout = RegisterLayout([("B", 2), ("A", 3)])
    state = random_state(layout, rng)
    reduced = collapse(state, {"B": 2})
    full = np.zeros_like(state.amplitudes)
    full[[layout.pack("B", 2) | layout.pack("A", a) for a in range(8)]] = reduced.amplitudes
    want = sample(StateVector(layout, full), 5000, seed=3)
    assert sample(reduced, 5000, seed=3) == {layout.value(i, "A"): c for i, c in want.items()}


def test_sample_is_deterministic_per_seed():
    rng = np.random.default_rng(37)
    layout = RegisterLayout([("R", 3)])
    state = random_state(layout, rng)
    first = sample(state, 5000, seed=123)
    second = sample(state, 5000, seed=123)
    other = sample(state, 5000, seed=124)
    assert first == second
    assert first != other
    assert sum(first.values()) == 5000


def test_sample_frequencies_match_probabilities():
    # chi-square on a fixed 16-outcome state at 2**17 shots
    rng = np.random.default_rng(41)
    layout = RegisterLayout([("R", 4)])
    state = random_state(layout, rng)
    shots = 1 << 17
    counts = sample(state, shots, seed=7)
    probs = np.abs(state.amplitudes) ** 2
    observed = np.array([counts.get(i, 0) for i in range(16)], dtype=float)
    expected = probs * shots
    stat = ((observed - expected) ** 2 / expected).sum()
    from scipy.stats import chi2
    assert chi2.sf(stat, df=15) > 0.001


def test_sample_excludes_zero_probability_outcomes():
    layout = RegisterLayout([("R", 2)])
    amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    counts = sample(StateVector(layout, amps), 20000, seed=5)
    assert set(counts) <= {0, 3}


# --- counts helpers --------------------------------------------------------

def test_counts_by_register_and_filter():
    layout = RegisterLayout([("C", 2), ("D", 2)])
    counts = {0b0000: 3, 0b0110: 5, 0b1110: 7, 0b0001: 2}
    by_c = counts_by_register(counts, layout, "C")
    assert by_c == {0: 3, 2: 12, 1: 2}
    kept = filter_counts(counts, layout, {"D": 1})
    assert kept == {0b0110: 5}
    kept2 = filter_counts(counts, layout, {"D": 0, "C": 1})
    assert kept2 == {0b0001: 2}


# --- classical permutation tracking ----------------------------------------

def test_permutation_tracker_matches_statevector():
    rng = np.random.default_rng(43)
    layout = RegisterLayout([("C", 2), ("D", 4)])
    n = layout.total_qubits
    ops = []
    for _ in range(30):
        pick = rng.integers(3)
        if pick == 0:
            ops.append(random_gate(n, rng, kinds=("x",)))
        elif pick == 1:
            ops.append(random_gate(n, rng, kinds=("swap",)))
        else:
            ops.append(RegisterXor("C", "D", rng.integers(0, 16, size=4)))
    circuit = Circuit(layout, ops)
    for index in range(1 << n):
        state = StateVector.basis_state(layout, index)
        apply_circuit(state, circuit)
        landed = int(np.flatnonzero(np.abs(state.amplitudes) > 0.5)[0])
        assert apply_permutation_to_index(ops, index, layout) == landed


def test_permutation_tracker_rejects_non_permutation_gates():
    with pytest.raises(ValueError):
        apply_permutation_to_index([h(0)], 0, RegisterLayout([("R", 1)]))
