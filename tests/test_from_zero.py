"""Tracked application from |0> (``apply_circuit(..., from_zero=True)``) against the dense path.

The dense, whole-state application is the specification: every circuit
the suite builds must give the same bytes both ways, and random circuits
the same values (off the live prefix the dense butterflies may write -0.0
where the tracked call leaves the zero state's +0.0).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multamp import ising, simcore, transduce
from multamp.baselines import build_comparator_synthesis
from multamp.simcore import (Circuit, Gate, RegisterLayout, RegisterXor, StateVector, apply_circuit, h,
                             phase, roty, swap, x)

DTYPES = (np.complex128, np.complex64)


def both_ways(circuit, dtype):
    dense = apply_circuit(StateVector.zero_state(circuit.layout, dtype), circuit)
    tracked = apply_circuit(StateVector.zero_state(circuit.layout, dtype), circuit, from_zero=True)
    return tracked.amplitudes, dense.amplitudes


def table_synthesis(variant, enforce_zero):
    # 2**6 log-uniform amplitudes, some below the cutoff so they saturate
    alphas = np.exp(np.random.default_rng(17).uniform(math.log(2.5e-4), 0.0, 1 << 6))
    table = transduce.build_lambda_table(alphas, 2.0, 4, 1e-3)
    return transduce.build_synthesis(table, transduce.make_plan(variant, 2.0, 4), enforce_zero)


def ising_synthesis(rows, cols, variant, enforce_zero):
    lattice = ising.IsingLattice(rows, cols, 0.35)
    return ising.build_boltzmann_synthesis(lattice, variant, enforce_zero=enforce_zero)[0]


BUILT = (
    [pytest.param(table_synthesis, (v, z), id=f"table-{v}-{'zero' if z else 'plain'}")
     for v in transduce.VARIANTS for z in (False, True)]
    + [pytest.param(ising_synthesis, (r, c, v, z), id=f"ising-{r}x{c}-{v}-{'zero' if z else 'plain'}")
       for r, c in ((2, 2), (2, 3), (3, 3)) for v in transduce.VARIANTS for z in (False, True)]
    + [pytest.param(lambda: build_comparator_synthesis([0.9, 1.0, 0.27, 0.125, 1.0, 0.5, 0.0, 0.33], 3)[0],
                    (), id="comparator")]
)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build,args", BUILT)
def test_built_circuits_give_the_dense_bytes(build, args, dtype):
    tracked, dense = both_ways(build(*args), dtype)
    assert tracked.tobytes() == dense.tobytes()


def with_the_flag_x_last(circuit):
    """The synthesis with X(E_0 | z = 0) after the whole controlled ladder, where it once stood."""
    layout = circuit.layout
    flip = x(layout.offset("E"), controls=((layout.offset("z"), 0),))
    gates = list(circuit.gates)
    assert gates[-1] != flip
    gates.remove(flip)
    return Circuit(layout, gates + [flip])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build,args", [p for p in BUILT if p.id.endswith("controlled-zero")])
def test_moving_the_flag_x_before_the_ladder_keeps_u(build, args, dtype):
    # every rotation of the ladder fires on z = 1 and the X on z = 0: they
    # touch disjoint amplitudes, so U is the same bit for bit on any state
    circuit = build(*args)
    rng = np.random.default_rng(41)
    amps = np.array([1, 1j]) @ rng.standard_normal((2, 1 << circuit.layout.total_qubits))
    amps = (amps / np.linalg.norm(amps)).astype(dtype)
    moved = apply_circuit(StateVector(circuit.layout, amps.copy()), circuit, validate=False)
    last = apply_circuit(StateVector(circuit.layout, amps), with_the_flag_x_last(circuit), validate=False)
    assert moved.amplitudes.tobytes() == last.amplitudes.tobytes()


@st.composite
def circuits_from_zero(draw):
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    layout = RegisterLayout((f"r{i}", w) for i, w in enumerate(widths))
    n = layout.total_qubits
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 3)) == 0:
            key, target = draw(st.permutations(layout.names()))[:2]
            values = draw(st.lists(st.integers(0, (1 << layout.width(target)) - 1),
                                   min_size=1 << layout.width(key), max_size=1 << layout.width(key)))
            ops.append(RegisterXor(key, target, values))
            continue
        kind = draw(st.sampled_from(simcore.GATE_KINDS))
        qubits = draw(st.permutations(range(n)))
        two = kind == "swap"
        controls = tuple((q, draw(st.integers(0, 1)))
                         for q in qubits[1 + two:1 + two + draw(st.integers(0, min(2, n - 1 - two)))])
        ops.append(Gate(kind, qubits[0], draw(st.floats(-2 * math.pi, 2 * math.pi)),
                        qubits[1] if two else None, controls))
    return Circuit(layout, ops)


# a phase on a 1-entry prefix once rounded like Python's complex product, and
# on the whole state like numpy's vector loop: 5.6e-17 apart in amplitude 1
ONE_ENTRY_PHASE = Circuit(RegisterLayout([("r0", 1), ("r1", 2)]), [h(0), phase(1.0, 0), phase(1.0, 0)])


@settings(max_examples=200, deadline=None)
@given(circuit=circuits_from_zero(), dtype=st.sampled_from(DTYPES))
@example(circuit=ONE_ENTRY_PHASE, dtype=np.complex128)
@example(circuit=ONE_ENTRY_PHASE, dtype=np.complex64)
def test_random_circuits_from_zero_agree_with_the_dense_path(circuit, dtype):
    tracked, dense = both_ways(circuit, dtype)
    assert np.array_equal(tracked, dense)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("registers,top", [
    ([("K", 3), ("M", 1), ("T", 2)], 3),  # key below the top, target above it: scatter
    ([("K", 3), ("T", 2)], 1),            # key straddling the top: scatter
    ([("M", 1), ("T", 2), ("K", 3)], 1),  # key above the top too: scatter of values[0]
    ([("T", 2), ("K", 3)], 2),            # target below the top, key above it: scatter
    ([("K", 2), ("T", 3)], 3),            # target straddling the top: scatter
    ([("K", 1), ("T", 2), ("M", 2)], 4),  # span below the top: both blocks of 2**3 below 2**4
])
def test_keyed_xor_from_a_live_prefix(registers, top, dtype):
    layout = RegisterLayout(registers)
    values = np.random.default_rng(239).integers(0, 1 << layout.width("T"), size=1 << layout.width("K"))
    circuit = Circuit(layout, [h(q) for q in range(top)] + [RegisterXor("K", "T", values)])
    tracked, dense = both_ways(circuit, dtype)
    assert tracked.tobytes() == dense.tobytes()


def test_a_tracked_xor_leaves_the_blocks_from_two_to_the_top_alone():
    # span [0, 3), top 4: the blocks of 2**3 at 16 and 24 are past the live prefix
    layout = RegisterLayout([("K", 1), ("T", 2), ("M", 2)])
    op = RegisterXor("K", "T", [3, 1])
    rng = np.random.default_rng(241)
    live = rng.normal(size=16) + 1j * rng.normal(size=16)
    sentinel = np.arange(16, 32) - 1j
    state = StateVector(layout, np.concatenate([live, sentinel]))
    dense = StateVector(layout, np.concatenate([live, np.zeros(16, complex)]))
    op.apply(state, 4)
    op.apply(dense)
    assert state.amplitudes[:16].tobytes() == dense.amplitudes[:16].tobytes()
    assert state.amplitudes[16:].tobytes() == sentinel.tobytes()


KNOWN_LAYOUT = RegisterLayout([("C", 2), ("D", 2), ("z", 1)])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ops", [
    # x writes the flag, then gates controlled on it run on their control's slice
    [h(0), h(1), x(4), roty(0.7, 2, ((4, 0),)), roty(0.9, 3, ((4, 1),)), h(2, ((4, 1), (0, 1)))],
    # a swap of two written qubits, then gates controlled on them
    [h(0), x(3), swap(0, 3), roty(0.4, 1, ((3, 1),)), roty(1.1, 2, ((0, 0),)), h(1, ((3, 0),))],
    # a keyed XOR after x writes the flag: its span lies below the top
    [h(0), h(1), x(4), RegisterXor("C", "D", [3, 0, 2, 1]), roty(0.5, 4, ((2, 1),))],
    # the XOR writes its target register, whose qubit 3 an x wrote before it
    [h(0), x(3), RegisterXor("C", "D", [1, 2, 0, 3]), roty(0.8, 4, ((3, 1),)), roty(0.3, 4, ((3, 0),))],
    # x gates controlled on qubits that an x or an h wrote: each writes its target
    [h(0), x(2), x(3, ((2, 1),)), x(4, ((2, 0),)), x(2, ((0, 1),)),
     roty(0.3, 1, ((2, 1),)), roty(0.5, 1, ((3, 1),)), roty(0.6, 1, ((4, 0),)), h(0, ((4, 1),))],
    # gates controlled on the untouched flag: polarity 1 is skipped, 0 runs on the slice
    [h(0), h(1), roty(0.7, 2, ((4, 1),)), roty(0.9, 3, ((4, 0),)), h(2, ((4, 0), (3, 1)))],
    # a keyed XOR after them: the skipped ry wrote qubit 3, so the top is 4, its span's top
    [h(0), roty(0.7, 3, ((4, 1),)), roty(0.9, 1, ((4, 0),)), RegisterXor("C", "D", [2, 3, 1, 0]),
     roty(0.5, 4, ((3, 1),))],
], ids=["flag-controls", "swap-known-free", "xor-span-below-top", "xor-forgets-target", "x-rules",
        "untouched-flag-controls", "xor-after-untouched-flag"])
def test_known_values_give_the_dense_bytes(ops, dtype):
    tracked, dense = both_ways(Circuit(KNOWN_LAYOUT, ops), dtype)
    assert tracked.tobytes() == dense.tobytes()


def butterfly_calls(monkeypatch, run, *args, **kwargs):
    """(kind, amplitudes, fresh) of every ``_butterfly`` call that ``run(*args, **kwargs)`` makes."""
    seen = []
    butterfly = simcore._butterfly

    def recording(kind, a, b, c, s, fresh=False, *rest):
        seen.append((kind, a.size + b.size, fresh))
        return butterfly(kind, a, b, c, s, fresh, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(simcore, "_butterfly", recording)
        run(*args, **kwargs)
    return seen


def butterfly_sizes(circuit, monkeypatch):
    """(kind, amplitudes) of every ``_butterfly`` call of the tracked circuit."""
    calls = butterfly_calls(monkeypatch, apply_circuit, StateVector.zero_state(circuit.layout), circuit,
                            from_zero=True)
    return [(kind, size) for kind, size, _ in calls]


def test_known_values_skip_the_amplitudes_known_to_be_zero(monkeypatch):
    # the enforce-zero controlled U sets the flag z, its top qubit, first in the
    # ladder; with the top alone every later gate ran on the whole state
    total = sum(size for _, size in butterfly_sizes(table_synthesis("controlled", True), monkeypatch))
    assert total < 84_094 // 2, total  # 84,094 with the top alone


# amplitudes sent through ``_butterfly`` from |0>, and the ``top`` each
# ``RegisterXor.apply`` receives: |C| for the one exponent oracle.  The
# controlled circuits with the flag run their X(E_0 | z = 0) before the
# ladder, on a fresh E_0: 2**|C+D| pairs where the whole z = 0 half was
# 2**(n - 2) when it came last (table 34,046, Ising 2,238, 8,958, 71,678)
BUILT_WORK = {
    "table-direct-plain": (4_222, [6]),
    "table-direct-zero": (6_398, [6]),
    "table-controlled-plain": (15_486, [6]),
    "table-controlled-zero": (19_710, [6]),
    "ising-2x2-direct-plain": (414, [4]),
    "ising-2x2-direct-zero": (702, [4]),
    "ising-2x2-controlled-plain": (926, [4]),
    "ising-2x2-controlled-zero": (1_470, [4]),
    "ising-2x3-direct-plain": (1_662, [6]),
    "ising-2x3-direct-zero": (2_814, [6]),
    "ising-2x3-controlled-plain": (3_710, [6]),
    "ising-2x3-controlled-zero": (5_886, [6]),
    "ising-3x3-direct-plain": (13_310, [9]),
    "ising-3x3-direct-zero": (22_526, [9]),
    "ising-3x3-controlled-plain": (29_694, [9]),
    "ising-3x3-controlled-zero": (47_102, [9]),
    "comparator": (56_974, [3, 13]),
}


@pytest.mark.parametrize("build,args,total,tops", [pytest.param(*p.values, *BUILT_WORK[p.id], id=p.id)
                                                   for p in BUILT])
def test_built_circuits_do_the_pinned_tracked_work(build, args, total, tops, monkeypatch):
    seen = []
    xor_apply = RegisterXor.apply

    def recording(op, state, top=None):
        seen.append(top)
        return xor_apply(op, state, top)

    monkeypatch.setattr(RegisterXor, "apply", recording)
    assert sum(size for _, size in butterfly_sizes(build(*args), monkeypatch)) == total
    assert seen == tops


@pytest.mark.parametrize("ops,sizes", [
    # no ry on z = 1 while the flag is untouched; the skipped ry writes qubit 2
    ([h(0), roty(0.7, 2, ((4, 1),)), roty(0.9, 3, ((4, 0),))], [("h", 2), ("ry", 8)]),
], ids=["flag-untouched"])
def test_a_control_that_contradicts_a_known_value_skips_the_gate(ops, sizes, monkeypatch):
    assert butterfly_sizes(Circuit(KNOWN_LAYOUT, ops), monkeypatch) == sizes


@pytest.mark.parametrize("width,gate,zeros", [
    (3, h(1), (3,)),
    (3, h(1), (-1,)),
], ids=["qubit-3-of-3", "negative-qubit"])
def test_zero_qubits_outside_the_state_raise(width, gate, zeros):
    state = StateVector.zero_state(RegisterLayout([("R", width)]))
    with pytest.raises(ValueError, match="zero qubit"):
        simcore.apply_gate(state, gate, zeros=zeros)


def state_with_a_zero_half(n, zero_qubit, dtype, seed=43):
    """A normalized random state over n qubits whose ``zero_qubit`` reads 0 on every amplitude."""
    layout = RegisterLayout([("R", n)])
    amps = np.array([1, 1j]) @ np.random.default_rng(seed).standard_normal((2, 1 << n))
    amps[(np.arange(1 << n) >> zero_qubit) & 1 == 1] = 0
    return StateVector(layout, (amps / np.linalg.norm(amps)).astype(dtype))


def test_a_target_among_the_zeros_is_fresh(monkeypatch):
    state = state_with_a_zero_half(2, 1, np.complex128)
    dense = state.copy()
    assert butterfly_calls(monkeypatch, simcore.apply_gate, state, h(1), zeros=(1,)) == [("h", 4, True)]
    simcore.apply_gate(dense, h(1))
    assert state.amplitudes.tobytes() == dense.amplitudes.tobytes()


CONTROLS = [(), ((0, 0),), ((0, 1),), ((0, 0), (3, 0)), ((0, 0), (3, 1)), ((0, 1), (3, 0)),
            ((0, 1), (3, 1))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [4, 17])
@pytest.mark.parametrize("controls", CONTROLS, ids=lambda c: "".join(str(p) for _, p in c) or "none")
@pytest.mark.parametrize("kind,angle", [("h", 0.0), ("x", 0.0), ("ry", 4.1), ("ry", -0.6),
                                        ("z", 0.0), ("phase", 2.5)])
def test_a_fresh_target_gives_the_dense_result(kind, angle, controls, n, dtype):
    # qubit 1 reads 0: a fresh write reads its |0> half alone
    state = state_with_a_zero_half(n, 1, dtype)
    gate = Gate(kind, 1, angle, controls=controls)
    dense = simcore.apply_gate(state.copy(), gate)
    fresh = simcore.apply_gate(state.copy(), gate, zeros=(1,))
    if kind in ("z", "phase"):
        # they act on the |1> half alone, so the fresh call returns at once;
        # the dense z writes -0.0 on it, so the values agree, not the bytes
        assert fresh.amplitudes.tobytes() == state.amplitudes.tobytes()
        assert np.array_equal(fresh.amplitudes, dense.amplitudes)
    else:
        assert fresh.amplitudes.tobytes() == dense.amplitudes.tobytes()


def test_a_fresh_write_leaves_the_pieces_that_hold_only_zeros(monkeypatch):
    # 17 qubits: the fresh target's |0> half comes in four pieces of 2**14,
    # one per value of qubits 16 and 15, and qubit 16 reads 0 too, so two of
    # them hold only zeros; a ry with cos < 0 writes -0.0 there on the dense path
    state = state_with_a_zero_half(17, 1, np.complex128)
    state.amplitudes[1 << 16:] = 0
    state.amplitudes /= np.linalg.norm(state.amplitudes)
    gate = roty(4.1, 1)
    dense = simcore.apply_gate(state.copy(), gate)
    calls = butterfly_calls(monkeypatch, simcore.apply_gate, state, gate, zeros=(1,))
    assert calls == [("ry", 1 << 15, True)] * 2
    assert state.amplitudes[:1 << 16].tobytes() == dense.amplitudes[:1 << 16].tobytes()
    assert not state.amplitudes[1 << 16:].view(np.uint64).any()  # +0.0, never written
    assert np.array_equal(state.amplitudes, dense.amplitudes)


@pytest.mark.parametrize("zeros", [(1,), (2,), (1, 2)])
def test_a_swap_of_an_unwritten_target_takes_the_dense_path(zeros, monkeypatch):
    state = state_with_a_zero_half(17, 1, np.complex128)
    if 2 in zeros:
        state.amplitudes[(np.arange(1 << 17) >> 2) & 1 == 1] = 0
        state.amplitudes /= np.linalg.norm(state.amplitudes)
    dense = state.copy()
    want = butterfly_calls(monkeypatch, simcore.apply_gate, dense, swap(1, 2))
    assert all(not fresh for _, _, fresh in want)
    assert butterfly_calls(monkeypatch, simcore.apply_gate, state, swap(1, 2), zeros=zeros) == want
    assert state.amplitudes.tobytes() == dense.amplitudes.tobytes()


def test_gate_qubits_lists_targets_then_controls():
    assert Gate("swap", 3, target2=1, controls=((0, 1), (5, 0))).qubits == (3, 1, 0, 5)
    assert Gate("swap", 3, target2=1, controls=((0, 1),)).targets == (3, 1)
    assert Gate("ry", 2, 0.5).qubits == (2,)


def test_from_zero_refuses_a_state_that_is_not_zero():
    layout = RegisterLayout([("R", 2)])
    with pytest.raises(ValueError, match="from_zero"):
        apply_circuit(StateVector.basis_state(layout, 1), Circuit(layout, [h(0)]), from_zero=True)


def test_ising_u_from_zero_holds_only_prefix_sized_scratch():
    # the 4x4 direct U covers 21 qubits with C and D alone: a dense XOR holds a
    # 32 MiB copy of that span and a 16 MiB index above the buffer
    circuit = ising_synthesis(4, 4, "direct", False)
    assert circuit.layout.total_qubits == 21
    tracemalloc.start()
    try:
        state = StateVector.zero_state(circuit.layout)
        apply_circuit(state, circuit, validate=False, from_zero=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - state.amplitudes.nbytes <= 4 << 20, peak
