"""Statevector engine vs dense-matrix oracles."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from multamp import ising, simcore
from multamp.amplify import postselect_probability
from multamp.simcore import (
    Circuit,
    RegisterLayout,
    RegisterXor,
    StateVector,
    apply_circuit,
    apply_gate,
    collapse,
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
    amps[list(tiny)] = real.smallest_normal / 4  # |a|^2 underflows to 0
    return StateVector(RegisterLayout([("R", nonzero.size.bit_length() - 1)]), amps)


def assert_sample_is_the_reference(state, shots, seed):
    got = sample(state, shots, seed)
    want = oracles.reference_sample(state, shots, seed)
    assert list(got.items()) == list(want.items())  # the same counts, keyed in the same order


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_blockwise_sample_draws_what_the_whole_buffer_sampler_draws(dtype, monkeypatch):
    # 2**10 amplitudes in blocks of 8: whole zero blocks at both ends and in
    # the middle, shots below and above a block's 8 entries, and shots that
    # put many draws in some blocks and none in others; then 2**7 amplitudes
    # with zeros inside the blocks, so that some blocks sum in place and some
    # are packed (at most 4 of 8 weights non-zero, the last always counted)
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
    for shots in (1, 1000, 1 << 17):
        assert_sample_is_the_reference(state, shots, 5)


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_ising_sample_draws_what_the_whole_buffer_sampler_draws(variant):
    lattice = ising.IsingLattice(3, 3, 0.35)
    state, diag = ising.synthesize_boltzmann(lattice, variant=variant)
    reduced = collapse(state, {diag.target_register: 0})
    for shots in (1, 4096, 1 << 17):
        assert_sample_is_the_reference(state, shots, 23)
        assert_sample_is_the_reference(reduced, shots, 23)


@pytest.mark.parametrize("shots", [3, 40])
def test_draws_at_the_total_count_on_the_last_index(shots, monkeypatch):
    # r * total can round up to the total; such a draw lands on the last
    # index even when its probability is zero, as the clipped search does
    class TopHeavy:
        def random(self, n):
            return np.where(np.arange(n) % 2 == 0, 1.0, 0.5)

    state = zero_runs_state(6, np.random.default_rng(71))
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", 1 << 3)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopHeavy())
    assert state.amplitudes[-1] == 0
    got = sample(state, shots, 0)
    assert got[63] == (shots + 1) // 2
    assert list(got.items()) == list(oracles.reference_sample(state, shots, 0).items())


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
        assert not set(tiny[:-1]) & set(got)
        assert list(got.items()) == list(oracles.reference_sample(state, shots, 4).items())


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("zeros,shots", [
    (range(56, 63), 40),          # packed block, more draws than sums
    ((56, 57, 58, 60, 61), 2),    # packed block, fewer draws than sums
    ((57, 59), 3),                # block summed in place, fewer draws than sums
])
def test_draws_at_the_total_join_a_non_zero_last_index(zeros, shots, dtype, monkeypatch):
    # the last block holds zeros and a heavy last amplitude: the draws at
    # half the total land on it, and the clipped ones at the total join them
    class TopHeavy:
        def random(self, n):
            return np.where(np.arange(n) % 2 == 0, 1.0, 0.5)

    nonzero = np.ones(1 << 6, dtype=bool)
    nonzero[list(zeros)] = False
    state = weights_state(nonzero, dtype, np.random.default_rng(89))
    state.amplitudes[-1] = 4.0
    state.amplitudes /= float(np.linalg.norm(state.amplitudes))
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", 1 << 3)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopHeavy())
    got = sample(state, shots, 0)
    assert got == {63: shots}
    assert list(got.items()) == list(oracles.reference_sample(state, shots, 0).items())


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
