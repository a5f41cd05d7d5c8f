"""Statevector engine vs dense-matrix oracles."""

import dataclasses
import hashlib
import math
import multiprocessing
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from multamp import ising, simcore, transduce
from multamp.amplify import _amplification_factors, postselect_probability
from multamp.simcore import (
    Circuit,
    RegisterLayout,
    RegisterXor,
    StateVector,
    apply_circuit,
    apply_gate,
    filter_counts,
    h,
    phase,
    register_selector,
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


# --- chunked kernels ---------------------------------------------------------

def whole_slice_reference(state, gate):
    """The x/swap/h/ry butterflies as whole-slice numpy expressions, out of place."""
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n)
    s0 = [slice(None)] * n
    for q, pol in gate.controls:
        s0[n - 1 - q] = pol
    s1 = list(s0)
    s0[n - 1 - gate.target], s1[n - 1 - gate.target] = 0, 1
    if gate.kind == "swap":
        s0[n - 1 - gate.target2], s1[n - 1 - gate.target2] = 1, 0
    s0, s1 = tuple(s0), tuple(s1)
    v0, v1 = psi[s0], psi[s1]
    if gate.kind in ("x", "swap"):
        new0, new1 = v1, v0
    elif gate.kind == "h":
        new0, new1 = (v0 + v1) * simcore._SQRT1_2, (v0 - v1) * simcore._SQRT1_2
    else:
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        new0, new1 = v0 * c - v1 * s, v0 * s + v1 * c
    out = psi.copy()
    out[s0], out[s1] = new0, new1
    return out.reshape(-1)


def edge_gates(kind, n):
    """The top qubit as target, controls above the target, and a gate fixing every axis."""
    two = kind == "swap"
    return [
        simcore.Gate(kind, n - 1, 0.7, 0 if two else None),
        simcore.Gate(kind, 1, -1.9, 2 if two else None, ((n - 1, 1), (n - 2, 0))),
        simcore.Gate(kind, 0, 2.3, 1 if two else None, tuple((q, q % 2) for q in range(1 + two, n))),
    ]


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_chunked_gates_match_dense_matrix(kind, monkeypatch):
    monkeypatch.setattr(simcore, "_PIECE_QUBITS", 2)
    rng = np.random.default_rng(211)
    for n in (6, 7):
        layout = RegisterLayout([("R", n)])
        gates = edge_gates(kind, n) + [random_gate(n, rng, kinds=(kind,)) for _ in range(6)]
        for gate in gates:
            state = random_state(layout, rng)
            expected = oracles.dense_unitary(n, gate) @ state.amplitudes
            apply_gate(state, gate)
            assert np.allclose(state.amplitudes, expected, atol=1e-12), gate


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("kind", ("h", "ry", "x", "swap"))
def test_chunked_gates_equal_the_whole_slice_expressions(kind, dtype, monkeypatch):
    monkeypatch.setattr(simcore, "_PIECE_QUBITS", 2)
    rng = np.random.default_rng(227)
    n = 7
    layout = RegisterLayout([("R", n)])
    for gate in edge_gates(kind, n) + [random_gate(n, rng, kinds=(kind,)) for _ in range(6)]:
        state = StateVector(layout, random_state(layout, rng).amplitudes.astype(dtype))
        expected = whole_slice_reference(state, gate)
        apply_gate(state, gate, validate=False)
        assert np.array_equal(state.amplitudes, expected), gate


def test_piece_size_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(223)
    layout = RegisterLayout([("R", 12)])
    circuit = Circuit(layout, [random_gate(12, rng, max_controls=3) for _ in range(80)])
    start = random_state(layout, rng)
    default = apply_circuit(start.copy(), circuit).amplitudes
    monkeypatch.setattr(simcore, "_PIECE_QUBITS", 2)
    small = apply_circuit(start.copy(), circuit).amplitudes
    assert np.array_equal(small, default)


@pytest.mark.parametrize("registers", [
    [("K", 3), ("T", 2)],                                  # key below the target
    [("T", 2), ("K", 3)],                                  # key above the target
    [("lo", 1), ("K", 2), ("M", 1), ("T", 2), ("hi", 1)],  # a register between them
    [("T", 2), ("M", 2), ("K", 2), ("hi", 1)],             # and with the key above
])
def test_register_xor_spans_match_permutation_matrix(registers):
    rng = np.random.default_rng(229)
    layout = RegisterLayout(registers)
    op = RegisterXor("K", "T", rng.integers(0, 1 << layout.width("T"), size=1 << layout.width("K")))
    state = random_state(layout, rng)
    expected = oracles.xor_permutation_matrix(layout, op) @ state.amplitudes
    op.apply(state)
    assert np.array_equal(state.amplitudes, expected)


def test_kernels_allocate_only_cache_sized_scratch():
    layout = RegisterLayout([("lo", 2), ("K", 6), ("M", 2), ("T", 4), ("hi", 4)])
    state = random_state(layout, np.random.default_rng(233))  # 2**18 amplitudes, 4 MiB
    ops = [h(0), h(9), h(17), roty(0.4, 9), roty(-1.1, 17), swap(0, 17), swap(5, 12),
           RegisterXor("K", "T", np.arange(64) % 16)]
    for op in ops:
        tracemalloc.start()
        try:
            apply_circuit(state, Circuit(layout, [op]), validate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, (op, peak)


def test_register_xor_validates_value_range():
    layout = RegisterLayout([("C", 2), ("D", 2)])
    with pytest.raises(ValueError):
        RegisterXor("C", "D", [0, 1, 2, 4]).validate(layout)
    with pytest.raises(ValueError):
        RegisterXor("C", "D", [0, 1, 2]).validate(layout)  # wrong key count


@pytest.mark.parametrize("key,values", [
    ("D", [1, 0]),        # keyed on its own target: no permutation
    ("C", [0.7, 1.9]),    # not integers
    ("C", [0, -1]),       # negative
    ("C", [[0, 1]]),      # not flat
], ids=["self-keyed", "floats", "negative", "not-flat"])
def test_register_xor_refuses_a_malformed_permutation_when_built(key, values):
    with pytest.raises(ValueError):
        RegisterXor(key, "D", values)


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


@pytest.mark.parametrize("build", [
    lambda: x(0, controls=((1, 2),)),                # polarity 2
    lambda: x(0, controls=((0, 1),)),                # a control on the target
    lambda: swap(1, 1),
    lambda: simcore.Gate(kind="x", target=0, target2=1),
    lambda: simcore.Gate(kind="swap", target=0),
    lambda: x(0, controls=((1, 1), (1, 0))),         # one qubit twice among the controls
    lambda: x(-1),
    lambda: roty(0.3, 0, controls=((-2, 1),)),
    lambda: simcore.Gate(kind="y", target=0),
    lambda: dataclasses.replace(x(0), target2=1),
], ids=["polarity-2", "control-on-target", "swap-1-1", "x-with-target2", "swap-without-target2",
        "control-twice", "negative-target", "negative-control", "unknown-kind", "replace-adds-target2"])
def test_a_malformed_gate_raises_when_built(build):
    with pytest.raises(ValueError):
        build()


def test_apply_gate_checks_the_qubit_count():
    state = StateVector.zero_state(RegisterLayout([("R", 3)]))
    for gate in (x(3), swap(0, 3), x(0, controls=((5, 1),))):
        with pytest.raises(ValueError):
            apply_gate(state, gate)


def test_apply_circuit_requires_matching_layout():
    a = RegisterLayout([("R", 2)])
    b = RegisterLayout([("S", 2)])
    state = StateVector.zero_state(a)
    with pytest.raises(ValueError):
        apply_circuit(state, Circuit(b, [x(0)]))


# --- projection, slices, sampling ---------------------------------------

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


PREDICATES = [  # conditions on RegisterLayout([("A", 2), ("B", 3), ("C", 1)]), and what is left
    ({"A": 1, "C": 1}, [("B", 3)]),
    ({"B": 5}, [("A", 2), ("C", 1)]),  # the middle register
    ({"A": 3, "B": 0}, [("C", 1)]),
]
ABC = RegisterLayout([("A", 2), ("B", 3), ("C", 1)])


@pytest.mark.parametrize("conditions,rest", PREDICATES)
def test_select_is_a_writable_view_of_the_selector_slice(conditions, rest):
    rng = np.random.default_rng(33)
    state = random_state(ABC, rng)
    view = state.select(conditions)
    psi = state.amplitudes.reshape((2,) * ABC.total_qubits)
    assert view.shape == (2,) * sum(width for _, width in rest)
    assert np.array_equal(view, psi[register_selector(ABC, conditions)])
    assert np.shares_memory(view, state.amplitudes)
    want = state.amplitudes.copy()
    want[[i for i in range(1 << ABC.total_qubits)
          if all(ABC.value(i, reg) == val for reg, val in conditions.items())]] = 0
    view[...] = 0  # writes through to the state
    assert np.array_equal(state.amplitudes, want)


def test_select_with_every_qubit_fixed_is_a_0d_view():
    layout = RegisterLayout([("A", 1), ("B", 2)])
    state = StateVector.basis_state(layout, 0)
    view = state.select({"A": 1, "B": 2})
    assert isinstance(view, np.ndarray) and view.ndim == 0
    view[...] = 0.5
    assert state.amplitudes[layout.pack("A", 1) | layout.pack("B", 2)] == 0.5


def test_select_rejects_unknown_registers_and_out_of_range_values():
    state = StateVector.zero_state(ABC)
    with pytest.raises(KeyError):
        state.select({"Z": 0})
    with pytest.raises(ValueError):
        state.select({"B": 8})


@pytest.mark.parametrize("conditions,rest", PREDICATES)
def test_sample_keys_index_the_layout_without_the_conditioned_registers(conditions, rest):
    rng = np.random.default_rng(33)
    state = random_state(ABC, rng)
    kept = ABC.without(conditions)
    assert kept == RegisterLayout(rest)
    # kept index i is the full index with the conditioned bits put back
    fixed = sum(ABC.pack(name, value) for name, value in conditions.items())
    full = [fixed | sum(ABC.pack(name, kept.value(i, name)) for name, _ in rest)
            for i in range(1 << kept.total_qubits)]
    for shots in (3, 5000):
        want = oracles.reference_sample(state.amplitudes[full], shots, 7)
        assert list(sample(state, shots, 7, conditions).items()) == list(want.items())


def test_sample_on_a_zero_probability_slice_raises():
    layout = RegisterLayout([("A", 1), ("B", 1)])
    state = StateVector.basis_state(layout, 0)
    with pytest.raises(ValueError):
        sample(state, 10, 0, {"B": 1})
    with pytest.raises(ValueError):
        sample(state, 10, 0, {"A": 0, "B": 1})


@pytest.mark.parametrize("conditions", [None, {}], ids=["none", "empty"])
def test_sample_without_a_predicate_refuses_an_unnormalized_state(conditions):
    # an empty predicate selects the whole state; it once came back
    # renormalized as {0: 6, 1: 4} instead of raising
    state = StateVector(RegisterLayout([("A", 2)]), np.array([1, 1, 0, 0], dtype=np.complex128))
    with pytest.raises(ValueError, match="not normalized"):
        sample(state, 10, 0, conditions)


def test_sampling_the_slice_draws_what_the_zero_filled_state_draws():
    # exact zeros add nothing to the cumulative sum, so a seeded draw on
    # the slice lands on the same configuration as on the full-size state
    # holding the renormalized slice and zeros everywhere else
    rng = np.random.default_rng(35)
    layout = RegisterLayout([("B", 2), ("A", 3)])
    state = random_state(layout, rng)
    slice_index = [layout.pack("B", 2) | layout.pack("A", a) for a in range(8)]
    kept = state.amplitudes[slice_index]
    full = np.zeros_like(state.amplitudes)
    full[slice_index] = kept / np.linalg.norm(kept)
    want = sample(StateVector(layout, full), 5000, seed=3)
    got = sample(state, 5000, 3, conditions={"B": 2})
    assert got == {layout.value(i, "A"): c for i, c in want.items()}


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


def test_sample_draws_a_dense_multi_block_state_by_its_law():
    # 2**17 amplitudes, two blocks of the real size holding about 3/4 and
    # 1/4 of the mass: the first dense (a sorted search), the second with
    # 64 non-zero weights (a multinomial).  Binned in 64 runs of 2048 indices,
    # each seed's chi-square p-value is uniform on [0, 1] under the Born law.
    rng = np.random.default_rng(97)
    half = 1 << 16
    amps = np.zeros(2 * half, dtype=np.complex128)
    amps[:half] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    sparse = half + 1024 * np.arange(64)
    amps[sparse] = np.exp(2j * np.pi * rng.random(64)) * rng.uniform(0.5, 1.5, 64) * 26
    amps /= np.linalg.norm(amps)
    state = StateVector(RegisterLayout([("R", 17)]), amps)
    expected = (np.abs(amps) ** 2).reshape(64, -1).sum(axis=1) * 4096
    assert 0.2 < expected[32:].sum() / 4096 < 0.3
    pvalues = []
    for seed in range(100):
        counts = sample(state, 4096, seed)
        observed = np.bincount(np.fromiter(counts, dtype=np.int64) // 2048,
                               np.fromiter(counts.values(), dtype=float), minlength=64)
        pvalues.append(stats.chisquare(observed, expected).pvalue)
    assert stats.kstest(pvalues, "uniform").pvalue > 1e-3


def zero_runs_state(qubits, rng):
    """Random state with exact-zero runs at the start, in the middle and at the end."""
    dim = 1 << qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps[:dim // 8] = 0
    amps[dim // 2:dim // 2 + dim // 8 + 3] = 0
    amps[-dim // 8 - 5:] = 0
    amps /= np.linalg.norm(amps)
    return StateVector(RegisterLayout([("R", qubits)]), amps)


def weights_state(nonzero, dtype, rng, tiny=()):
    """Random amplitudes where ``nonzero`` holds, 0 elsewhere, and a subnormal at each ``tiny`` index."""
    amps = np.where(nonzero, rng.standard_normal(nonzero.size) + 1j * rng.standard_normal(nonzero.size), 0)
    amps /= np.linalg.norm(amps)
    amps = amps.astype(dtype)
    real = np.finfo(amps.real.dtype)
    amps[list(tiny)] = real.smallest_normal / 4  # |a|^2: 0 for complex128, ~1e-77 for complex64
    return StateVector(RegisterLayout([("R", nonzero.size.bit_length() - 1)]), amps)


def assert_sample_is_the_reference(state, shots, seed):
    got = sample(state, shots, seed)
    want = oracles.reference_sample(state.amplitudes, shots, seed)
    assert list(got.items()) == list(want.items())  # the same counts, keyed in the same order


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_blockwise_sample_draws_what_the_whole_buffer_sampler_draws(dtype, monkeypatch):
    # 2**10 amplitudes in blocks of 8: whole zero blocks at both ends and in
    # the middle, shots below and above a block's 8 entries, and shots that
    # put many draws in some blocks and none in others; then 2**7 amplitudes
    # with zeros inside the blocks, so that some blocks take a multinomial
    # over their weights, and the others search a running sum over every
    # weight or over the packed non-zero ones (at most 4 of 8 non-zero)
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", 1 << 3)
    rng = np.random.default_rng(61)
    index = np.arange(1 << 7)
    patterns = (index % 3 == 0, index % 3 != 0,  # interleaved zeros: packed, then in place
                index % 8 == (index // 8) % 8,  # one non-zero weight per block
                ((index // 8) % 2 == 0) | (index % 8 == 2),  # full blocks beside sparse ones
                index % 8 == 7)  # only the last entry of each block
    states = [zero_runs_state(10, rng), random_state(RegisterLayout([("R", 10)]), rng)]
    states += [weights_state(nonzero, np.complex128, rng) for nonzero in patterns]
    for state in states:
        state = StateVector(state.layout, state.amplitudes.astype(dtype))
        for shots in (1, 5, 8, 9, 700, 1 << 14):
            for seed in (0, 1, 2):
                assert_sample_is_the_reference(state, shots, seed)


def test_blockwise_sample_draws_what_the_whole_buffer_sampler_draws_at_full_size():
    # 2**17 amplitudes: two blocks of the real size, with zero runs in both
    rng = np.random.default_rng(67)
    state = zero_runs_state(17, rng)
    for shots in (1, 1000, 1 << 17, 1 << 19):
        assert_sample_is_the_reference(state, shots, 5)


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_ising_sample_draws_what_the_whole_buffer_sampler_draws(variant):
    # the target slice is drawn through a strided view of the buffer, with
    # no copy: it must draw what the reference draws on a flat copy of it
    lattice = ising.IsingLattice(3, 3, 0.35)
    state, diag = ising.synthesize_boltzmann(lattice, variant=variant)
    conditions = {diag.target_register: 0}
    kept = state.select(conditions).flatten()
    for shots in (1, 4096, 1 << 17):
        assert_sample_is_the_reference(state, shots, 23)
        got = sample(state, shots, 23, conditions)
        assert list(got.items()) == list(oracles.reference_sample(kept, shots, 23).items())


class TopHeavy:
    """Uniforms alternating between the largest below 1 and 1/2; multinomials from seed 0."""

    def __init__(self, make=np.random.default_rng):  # the real generator, bound before any patch
        self._rng = make(0)

    def random(self, n):
        return np.where(np.arange(n) % 2 == 0, np.nextafter(1.0, 0.0), 0.5)

    def multinomial(self, n, pvals):
        return self._rng.multinomial(n, pvals)


@pytest.mark.parametrize("shots", [3, 40])
def test_draws_at_the_total_count_on_the_last_index(shots, monkeypatch):
    # r * total stays below the total for every uniform r < 1, so the
    # draws nearest the total land on the last non-zero weight (index 50
    # here), never on the zero weights after it, which a clip onto the
    # last index would draw
    state = zero_runs_state(6, np.random.default_rng(71))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopHeavy())
    assert np.all(state.amplitudes[51:] == 0) and state.amplitudes[50] != 0
    got = sample(state, shots, 0)
    assert max(got) == 50 and got[50] >= (shots + 1) // 2
    assert list(got.items()) == list(oracles.reference_sample(state.amplitudes, shots, 0).items())


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_sample_never_draws_a_weight_that_underflows(dtype, monkeypatch):
    # subnormal amplitudes inside a dense block, as a whole block, and last
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", 1 << 3)
    tiny = [3, 12, 40, 41, 42, 43, 44, 45, 46, 47, 127]
    nonzero = np.ones(1 << 7, dtype=bool)
    nonzero[tiny] = False
    state = weights_state(nonzero, dtype, np.random.default_rng(83), tiny)
    assert np.all(state.amplitudes[tiny] != 0)
    for shots in (1, 9, 700, 1 << 14):
        got = sample(state, shots, 4)
        assert not set(tiny) & set(got)
        assert list(got.items()) == list(oracles.reference_sample(state.amplitudes, shots, 4).items())


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("zeros,shots", [
    (range(56, 63), 40),          # one weight: a multinomial
    ((56, 57, 58, 60, 61), 2),    # packed running sum, fewer draws than sums
    ((57, 59), 3),                # running sum over every weight, fewer draws than sums
    (range(56, 62), 5),           # packed running sum, more draws than sums
])
def test_draws_at_the_total_join_a_non_zero_last_index(zeros, shots, dtype, monkeypatch):
    # only the last block holds weight, with zeros and a heavy last
    # amplitude: the draws at half the total land on it, and those nearest
    # the total join them
    nonzero = np.arange(1 << 6) >= 56
    nonzero[list(zeros)] = False
    state = weights_state(nonzero, dtype, np.random.default_rng(89))
    state.amplitudes[-1] = 4.0
    state.amplitudes /= float(np.linalg.norm(state.amplitudes))
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", 1 << 3)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopHeavy())
    got = sample(state, shots, 0)
    assert got == {63: shots}
    assert list(got.items()) == list(oracles.reference_sample(state.amplitudes, shots, 0).items())


def test_block_mass_of_signed_zeros_is_exactly_zero():
    block = np.zeros(1 << 10, dtype=np.complex128)
    block.real[::3] = -0.0
    block.imag[1::2] = -0.0
    assert simcore._block_mass(block) == 0.0


def test_block_mass_accumulates_complex64_in_float64():
    # 2**16 float32 squares summed in float32 lose ~1e-4 of the total; in float64 they keep ~1e-16
    rng = np.random.default_rng(97)
    block = (rng.uniform(0.5, 1.0, 1 << 16) + 1j * rng.uniform(0.5, 1.0, 1 << 16)).astype(np.complex64)
    wide = block.astype(np.complex128)
    want = math.fsum(np.concatenate([wide.real ** 2, wide.imag ** 2]))
    float32_sum = float(np.cumsum((np.abs(block) ** 2).astype(np.float32))[-1])
    assert abs(float32_sum - want) > 1e-6 * want  # the precision a float32 accumulator would lose
    assert abs(simcore._block_mass(block) - want) <= 1e-13 * want


def test_block_mass_reads_strided_and_0d_views():
    state = random_state(RegisterLayout([("q", 1), ("R", 9)]), np.random.default_rng(101))
    strided = state.select({"q": 0})  # every other amplitude
    assert not strided.flags.c_contiguous
    want = np.sum(np.abs(state.amplitudes[::2]) ** 2)
    assert abs(simcore._block_mass(strided) - want) <= 1e-14
    point = state.select({"q": 1, "R": 5})  # basis index 1 + (5 << 1)
    assert point.ndim == 0
    a = complex(state.amplitudes[11])
    want = a.real ** 2 + a.imag ** 2
    assert abs(simcore._block_mass(point) - want) <= 2 * np.finfo(np.float64).eps * want


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_block_mass_agrees_with_the_sum_of_abs_squared(dtype):
    rng = np.random.default_rng(103)
    for size in (1, 7, 1 << 10, 1 << 16):
        block = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(dtype)
        want = float(np.sum(np.abs(block.astype(np.complex128)) ** 2))
        assert abs(simcore._block_mass(block) - want) <= 4 * size * np.finfo(np.float64).eps * want


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_postselect_probability_is_the_total_sample_draws_by(dtype, monkeypatch):
    # 2**10 amplitudes in blocks of 8: a strided slice over many blocks, a
    # slice inside one block, and the whole state; u**2 must be, to the bit,
    # the sum of the block masses that sample's pass 1 normalizes by
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", 1 << 3)
    layout = RegisterLayout([("A", 3), ("B", 2), ("R", 5)])
    state = random_state(layout, np.random.default_rng(131))
    state = StateVector(layout, state.amplitudes.astype(dtype))
    block_mass = simcore._block_mass
    masses = {}  # by the block's address: workers may take the blocks in any order

    def recorded(block):
        masses[block.ctypes.data] = block_mass(block)
        return masses[block.ctypes.data]

    monkeypatch.setattr(simcore, "_block_mass", recorded)
    for conditions in ({"B": 1}, {"A": 5}, {"B": 2, "R": 17}, {}):
        masses.clear()
        sample(state, 100, 7, conditions)
        total = np.array([masses[at] for at in sorted(masses)]).sum()  # the blocks lie in block order
        assert len(masses) > 1 or conditions == {"B": 2, "R": 17}
        assert postselect_probability(state, conditions) == total, conditions


def test_sample_memory_stays_block_sized():
    # 16 MiB of complex128; the whole-buffer sampler peaked at 16.4 MiB above it
    state = random_state(RegisterLayout([("R", 20)]), np.random.default_rng(73))
    tracemalloc.start()
    try:
        sample(state, 4096, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak
    assert peak <= simcore.sample_overhead(1 << 20, 4096)


def block_walk_outputs(circ, dtype):
    """What each split block walk returns on a 22-qubit table state and a random 2**20 state."""
    state = apply_circuit(StateVector.zero_state(circ.layout, dtype), circ, validate=False,
                          from_zero=True)
    u_bytes = hashlib.sha256(state.amplitudes).digest()
    u_sq = state.mass({"E": 0})
    state.scale({"E": 0}, *_amplification_factors(u_sq, 2))
    scaled = hashlib.sha256(state.amplitudes).digest()
    counts = sample(state, 1 << 17, 7), sample(state, 1 << 17, 7, {"E": 0})
    noise = random_state(RegisterLayout([("R", 20)]), np.random.default_rng(3))
    norm = StateVector(noise.layout, noise.amplitudes.astype(dtype)).norm()
    return u_bytes, u_sq, scaled, counts, norm


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_block_walks_give_the_same_bytes_at_any_worker_count(dtype, monkeypatch):
    # the 2**13-entry controlled table with the flag (22 qubits, 64 blocks): U, u**2, the
    # rescale, sample with and without a predicate, and the norm, at 1, 2 and 3 workers (3
    # splits 64 blocks unevenly), with a short switch interval to interleave the threads
    rng = np.random.default_rng(601)
    alphas = np.exp(rng.uniform(math.log(2.5e-4), 0.0, size=1 << 13))
    table = transduce.build_lambda_table(alphas, 1.6, 4, 1e-3)
    circ = transduce.build_synthesis(table, transduce.make_plan("controlled", 1.6, 4), True)
    assert circ.layout.total_qubits == 22
    monkeypatch.setattr(simcore, "_pool", None)  # a pool of this test's own, two threads
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(simcore, "_workers", lambda: workers)
            outputs.append(block_walk_outputs(circ, dtype))
    finally:
        sys.setswitchinterval(interval)
        if simcore._pool is not None:
            simcore._pool.shutdown()
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_a_worker_keeps_the_callers_errstate(monkeypatch):
    # two blocks, the second the pool's: its overflow raises as the caller's block would
    monkeypatch.setattr(simcore, "_workers", lambda: 2)
    state = StateVector.basis_state(RegisterLayout([("R", 17)]), 0)
    state.amplitudes[-1] = 1e200
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        state.scale({}, 1e200, 1.0)


def test_a_gate_runs_on_the_calling_thread(monkeypatch):
    # 2**18 amplitudes: eight pieces per half, more than a walk runs inline, yet no gate splits
    monkeypatch.setattr(simcore, "_workers", lambda: 2)
    monkeypatch.setattr(simcore, "_submit", lambda *args: pytest.fail("a gate submitted work to the pool"))
    state = random_state(RegisterLayout([("R", 18)]), np.random.default_rng(9))
    for gate in (h(17), roty(0.3, 0), x(5, ((17, 1),)), phase(0.2, 3), swap(1, 2)):
        apply_gate(state, gate, validate=False)


def mass_in_child(state, want):
    if state.mass({}) != want:
        raise SystemExit(1)


def test_a_forked_child_starts_its_own_pool(monkeypatch):
    # the child holds none of the parent's pool threads: work sent to that pool would never run
    monkeypatch.setattr(simcore, "_workers", lambda: 2)
    state = random_state(RegisterLayout([("R", 18)]), np.random.default_rng(5))  # four blocks
    want = state.mass({})
    assert simcore._pool is not None
    child = multiprocessing.get_context("fork").Process(target=mass_in_child, args=(state, want))
    child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0, child.exitcode


def test_nan_states_are_not_normalized():
    # abs(nan - 1) > tol is False, so the checks must be written to fail on NaN
    layout = RegisterLayout([("R", 2)])
    state = StateVector(layout, np.array([np.nan, 0.5, 0.5, 0.5], dtype=np.complex128))
    with pytest.raises(ValueError, match="not normalized"):
        sample(state, 1000, seed=0)
    with pytest.raises(ValueError, match="not normalized"):
        apply_gate(state, h(0))
    with pytest.raises(ValueError, match="not normalized"):
        apply_circuit(state, Circuit(layout, [h(0)]))
    assert np.isnan(state.amplitudes[0]) and np.all(state.amplitudes[1:] == 0.5)  # untouched


@pytest.mark.parametrize("excess,accepted", [(1.5e-6, False), (0.5e-6, True)])
def test_gates_and_the_sampler_read_one_normalization(excess, accepted):
    # a mass of 1 + 1.5e-6 has a norm within 1e-6 of 1; the gates once checked that
    # norm and ran on a state the sampler then refused
    layout = RegisterLayout([("R", 2)])
    amps = np.full(4, math.sqrt((1.0 + excess) / 4.0), dtype=np.complex128)
    calls = (lambda s: sample(s, 10, 0), lambda s: apply_gate(s, h(0)),
             lambda s: apply_circuit(s, Circuit(layout, [h(0)])))
    for call in calls:
        state = StateVector(layout, amps.copy())
        if accepted:
            call(state)
        else:
            with pytest.raises(ValueError, match="not normalized"):
                call(state)


# --- counts helpers --------------------------------------------------------

def test_filter_counts_keeps_the_matching_keys():
    layout = RegisterLayout([("C", 2), ("D", 2)])
    counts = {0b0000: 3, 0b0110: 5, 0b1110: 7, 0b0001: 2}
    kept = filter_counts(counts, layout, {"D": 1})
    assert kept == {0b0110: 5}
    kept2 = filter_counts(counts, layout, {"D": 0, "C": 1})
    assert kept2 == {0b0001: 2}


def test_filter_counts_matches_the_per_key_loop():
    rng = np.random.default_rng(239)
    layout = RegisterLayout([("C", 4), ("D", 3), ("z", 1)])
    keys = rng.permutation(1 << 8)[:150]
    counts = {int(k): int(c) for k, c in zip(keys, rng.integers(1, 50, size=150))}
    for conditions in ({"z": 0}, {"D": 5, "z": 1}, {"C": 3, "D": 0}, {"D": 8}, {}):
        expected = {k: c for k, c in counts.items()
                    if all(layout.value(k, reg) == val for reg, val in conditions.items())}
        kept = filter_counts(counts, layout, conditions)
        assert list(kept.items()) == list(expected.items())  # same entries, same order


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
        assert oracles.apply_permutation_to_index(ops, index, layout) == landed


def test_permutation_tracker_rejects_non_permutation_gates():
    with pytest.raises(ValueError):
        oracles.apply_permutation_to_index([h(0)], 0, RegisterLayout([("R", 1)]))
