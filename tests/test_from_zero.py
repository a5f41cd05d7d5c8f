"""Application from |0> (``apply_circuit(..., from_zero=True)``) against the dense path.

The dense, whole-state application is the specification: every circuit
the suite builds must give the same bytes both ways, and random circuits
the same values (in a row the keyed path leaves, the dense butterflies may
write -0.0 where it keeps the zero state's +0.0).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multamp import ising, simcore, transduce
from multamp.amplify import postselect_probability
from multamp.baselines import build_comparator_synthesis
from multamp.simcore import (Circuit, Gate, RegisterLayout, RegisterXor, StateVector, apply_circuit, h,
                             phase, roty, swap, x, z)

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


def draw_gate(draw, qubits):
    """A random gate of any kind on the given qubits, with up to two controls among them."""
    qubits = draw(st.permutations(qubits))
    kind = draw(st.sampled_from([g for g in simcore.GATE_KINDS if g != "swap" or len(qubits) > 1]))
    two = kind == "swap"
    controls = tuple((q, draw(st.integers(0, 1)))
                     for q in qubits[1 + two:1 + two + draw(st.integers(0, min(2, len(qubits) - 1 - two)))])
    return Gate(kind, qubits[0], draw(st.floats(-2 * math.pi, 2 * math.pi)), qubits[1] if two else None, controls)


@st.composite
def keyed_circuits(draw):
    """Circuits of the keyed path's form: H on each qubit of r0 (k = 2 or 3) in a random order, an
    XOR keyed on r0 whose values take at most 2**(k-1) distinct entries, then gates on the rest."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    widths[0] = draw(st.integers(2, 3))
    layout = RegisterLayout((f"r{i}", w) for i, w in enumerate(widths))
    k = widths[0]
    target = draw(st.sampled_from(layout.names()[1:]))
    pool = draw(st.lists(st.integers(0, (1 << layout.width(target)) - 1), min_size=1, max_size=1 << (k - 1)))
    values = draw(st.lists(st.sampled_from(pool), min_size=1 << k, max_size=1 << k))
    ops = [h(q) for q in draw(st.permutations(range(k)))] + [RegisterXor("r0", target, values)]
    ops += [draw_gate(draw, range(k, layout.total_qubits)) for _ in range(draw(st.integers(0, 8)))]
    return Circuit(layout, ops)


@st.composite
def circuits_from_zero(draw):
    if draw(st.booleans()):
        return draw(keyed_circuits())
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    layout = RegisterLayout((f"r{i}", w) for i, w in enumerate(widths))
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 3)) == 0:
            key, target = draw(st.permutations(layout.names()))[:2]
            values = draw(st.lists(st.integers(0, (1 << layout.width(target)) - 1),
                                   min_size=1 << layout.width(key), max_size=1 << layout.width(key)))
            ops.append(RegisterXor(key, target, values))
            continue
        ops.append(draw_gate(draw, range(layout.total_qubits)))
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


@settings(max_examples=50, deadline=None)
@given(circuit=keyed_circuits())
def test_keyed_form_circuits_take_the_keyed_path(circuit):
    assert simcore._keyed_plan(circuit) is not None


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
    # ``apply(state, top)`` on a state that holds non-zeros only in its first 2**top amplitudes
    layout = RegisterLayout(registers)
    rng = np.random.default_rng(239)
    values = rng.integers(0, 1 << layout.width("T"), size=1 << layout.width("K"))
    amps = np.zeros(1 << layout.total_qubits, dtype)
    amps[:1 << top] = rng.normal(size=1 << top) + 1j * rng.normal(size=1 << top)
    op = RegisterXor("K", "T", values)
    tracked = op.apply(StateVector(layout, amps.copy()), top)
    dense = op.apply(StateVector(layout, amps))
    assert tracked.amplitudes.tobytes() == dense.amplitudes.tobytes()


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


SEQUENCE_LAYOUT = RegisterLayout([("C", 2), ("D", 2), ("z", 1)])
SEQUENCE_XOR = RegisterXor("C", "D", [3, 1, 1, 3])  # 2 distinct values: a compact key of 1 qubit


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ops", [
    # x writes the flag, then gates controlled on it
    [x(4), roty(0.7, 2, ((4, 0),)), roty(0.9, 3, ((4, 1),)), h(2, ((4, 1), (3, 1)))],
    # a swap of the flag with a qubit the XOR wrote, then gates controlled on both
    [x(4), swap(2, 4), roty(0.4, 3, ((4, 1),)), roty(1.1, 2, ((3, 0),)), h(3, ((4, 0),))],
    # x gates controlled on qubits that the XOR or an x wrote
    [x(4, ((2, 1),)), x(3, ((4, 0),)), x(2, ((3, 1),)),
     roty(0.3, 4, ((2, 1),)), roty(0.5, 3, ((4, 1),)), roty(0.6, 2, ((4, 0),)), h(3, ((2, 1),))],
    # gates controlled on the untouched flag: polarity 1 never fires, 0 always does
    [roty(0.7, 2, ((4, 1),)), roty(0.9, 3, ((4, 0),)), h(2, ((4, 0), (3, 1))), phase(0.3, 4), z(2, ((3, 0),))],
], ids=["flag-controls", "swap-flag", "x-rules", "untouched-flag-controls"])
def test_gate_sequences_on_the_compact_state_give_the_dense_bytes(ops, dtype, keyed_calls):
    tracked, dense = both_ways(Circuit(SEQUENCE_LAYOUT, [h(1), h(0), SEQUENCE_XOR] + ops), dtype)
    assert len(keyed_calls) == 1
    # the dense bytes in each row (2**2 amplitudes) that holds a non-zero; the dense z may write
    # -0.0 in a row the keyed path leaves at +0.0
    assert np.array_equal(tracked, dense)
    rows, dense_rows = tracked.reshape(-1, 4), dense.reshape(-1, 4)
    held = rows.any(axis=1)
    assert rows[held].tobytes() == dense_rows[held].tobytes()


def butterfly_calls(monkeypatch, run, *args, **kwargs):
    """(kind, amplitudes) of every ``_butterfly`` call that ``run(*args, **kwargs)`` makes."""
    seen = []
    butterfly = simcore._butterfly

    def recording(kind, a, b, *rest):
        seen.append((kind, a.size + b.size))
        return butterfly(kind, a, b, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(simcore, "_butterfly", recording)
        run(*args, **kwargs)
    return seen


def butterfly_sizes(circuit, monkeypatch):
    """(kind, amplitudes) of every ``_butterfly`` call of the circuit from |0>."""
    return butterfly_calls(monkeypatch, apply_circuit, StateVector.zero_state(circuit.layout), circuit,
                           from_zero=True)


KEYED_BLOCK = 1 << 4  # below the 2**7 amplitudes of the smallest built state


@pytest.fixture
def keyed_calls(monkeypatch):
    """The list of the supports of the runs ``_run_keyed`` takes, in order."""
    runs = []
    run_keyed = simcore._run_keyed

    def recording(*args):
        support = run_keyed(*args)
        if support is not None:
            runs.append(support)
        return support

    monkeypatch.setattr(simcore, "_run_keyed", recording)
    return runs


@pytest.fixture
def keyed_runs(keyed_calls, monkeypatch):
    """``keyed_calls`` with ``simcore._SAMPLE_BLOCK`` patched to ``KEYED_BLOCK``: the support's
    segments are then smaller than a row of C."""
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", KEYED_BLOCK)
    return keyed_calls


def kept_register(layout):
    return "E" if "E" in layout else "D"


def check_support(state, support, target):
    """``support`` marks exactly the segments of ``state`` that hold a non-zero, and u**2 and
    the rescale read off it are the bits of ``mass`` and ``scale`` without it."""
    held = state.amplitudes.reshape(support.size, -1).any(axis=1)
    assert np.array_equal(support.reshape(-1), held)
    assert postselect_probability(state, target, _support=support).hex() == state.mass(target).hex()
    # a negative factor writes -0.0 on each zero of a block it multiplies
    want = state.copy().scale(target, 1.75, -2.5).amplitudes
    assert state.scale(target, 1.75, -2.5, _support=support).amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build,args", BUILT)
def test_built_circuits_give_the_dense_bytes_on_the_keyed_path(build, args, dtype, keyed_runs, request):
    # the comparator's second XOR reads the key, so it takes the gate path
    circuit = build(*args)
    tracked, dense = both_ways(circuit, dtype)
    assert tracked.tobytes() == dense.tobytes()
    if "comparator" in request.node.callspec.id:
        assert keyed_runs == []
        return
    assert len(keyed_runs) == 1
    check_support(StateVector(circuit.layout, tracked), keyed_runs[0], {kept_register(circuit.layout): 0})


# amplitudes sent through ``_butterfly`` on the keyed path: no Hadamard (v is computed), then
# each later gate but z, dense on the compact state (n' qubits, its key one value per distinct
# exponent), 2**(n' - controls) amplitudes
KEYED_WORK = {
    "table-direct-plain": 1_024,
    "table-direct-zero": 1_568,
    "table-controlled-plain": 8_192,
    "table-controlled-zero": 20_992,
    "ising-2x2-direct-plain": 96,
    "ising-2x2-direct-zero": 168,
    "ising-2x2-controlled-plain": 384,
    "ising-2x2-controlled-zero": 1_216,
    "ising-2x3-direct-plain": 192,
    "ising-2x3-direct-zero": 336,
    "ising-2x3-controlled-plain": 768,
    "ising-2x3-controlled-zero": 2_432,
    "ising-3x3-direct-plain": 192,
    "ising-3x3-direct-zero": 336,
    "ising-3x3-controlled-plain": 768,
    "ising-3x3-controlled-zero": 2_432,
}


@pytest.mark.parametrize("build,args,total", [pytest.param(*p.values, KEYED_WORK[p.id], id=p.id)
                                              for p in BUILT if p.id in KEYED_WORK])
def test_built_circuits_do_the_pinned_keyed_work(build, args, total, keyed_calls, monkeypatch):
    assert sum(size for _, size in butterfly_sizes(build(*args), monkeypatch)) == total
    assert len(keyed_calls) == 1


@pytest.mark.parametrize("build,args", [p for p in BUILT if p.id in KEYED_WORK])
def test_the_keyed_path_runs_each_later_gate_once_on_the_compact_state(build, args, monkeypatch):
    # dense, each gate but z runs on 2**(n - controls) amplitudes; keyed, the k Hadamards on C are
    # computed and each later gate runs on 2**(n - (k - m) - controls), m the compact key's width
    circuit = build(*args)
    k = circuit.layout.width(circuit.layout.names()[0])
    m = max(1, (len(set(circuit.gates[k].values.tolist())) - 1).bit_length())
    dense = sum(size for _, size in butterfly_calls(monkeypatch, apply_circuit,
                                                    StateVector.zero_state(circuit.layout), circuit))
    keyed = sum(size for _, size in butterfly_sizes(circuit, monkeypatch))
    assert keyed << (k - m) == dense - k * (1 << circuit.layout.total_qubits)


def xor_qubit_counts(circuit, monkeypatch):
    """The qubit count of each state ``RegisterXor.apply`` gets while ``circuit`` runs from |0>."""
    seen = []
    xor_apply = RegisterXor.apply

    def recording(op, state, top=None):
        seen.append(state.num_qubits)
        return xor_apply(op, state, top)

    monkeypatch.setattr(RegisterXor, "apply", recording)
    apply_circuit(StateVector.zero_state(circuit.layout), circuit, from_zero=True)
    return seen


@pytest.mark.parametrize("build,args", [p for p in BUILT if p.id in KEYED_WORK] + [
    # 7 distinct values of 8 keys, as in values-fill-the-key below: the keyed path refuses
    pytest.param(lambda: build_comparator_synthesis([0.9, 0.8, 0.27, 0.125, 0.7, 0.5, 0.0, 0.33], 3)[0], (),
                 id="values-fill-the-key")])
def test_the_oracle_runs_once_on_the_compact_state_or_else_on_the_state(build, args, keyed_calls, monkeypatch):
    # the compact key holds m = ceil(log2(distinct values)) >= 1 qubits in place of C's k;
    # with m = k the keyed path refuses and the one XOR runs on the whole state
    circuit = build(*args)
    xor = next(op for op in circuit if isinstance(op, RegisterXor))
    k = circuit.layout.width(xor.key_register)
    m = max(1, math.ceil(math.log2(len(set(xor.values.tolist())))))
    assert xor_qubit_counts(circuit, monkeypatch) == [circuit.layout.total_qubits - (k - m)]
    assert len(keyed_calls) == (m < k)


FALLBACK_LAYOUT = [("C", 3), ("D", 2), ("E", 2)]
FALLBACK_VALUES = [3, 0, 1, 3, 2, 0, 1, 1]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("circuit", [
    # an ry on a key qubit: the key values carry different amplitudes
    Circuit(RegisterLayout(FALLBACK_LAYOUT), [roty(0.7, 0), h(1), h(2), RegisterXor("C", "D", FALLBACK_VALUES),
                                              roty(0.4, 3), roty(1.1, 5, ((3, 1),))]),
    # a gate after the XOR controlled on a key qubit
    Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(0), h(1), h(2), RegisterXor("C", "D", FALLBACK_VALUES),
                                              roty(0.4, 3), roty(1.1, 5, ((0, 1),))]),
    # the key above the target register
    Circuit(RegisterLayout([("D", 2), ("C", 3), ("E", 2)]),
            [h(2), h(3), h(4), RegisterXor("C", "D", FALLBACK_VALUES), roty(0.4, 0), roty(1.1, 5, ((0, 1),))]),
    # 7 distinct values of 8 keys: the compact key would be as wide as C, so nothing is saved
    # (a comparator with no alpha of 1, so no second XOR reads the key)
    build_comparator_synthesis([0.9, 0.8, 0.27, 0.125, 0.7, 0.5, 0.0, 0.33], 3)[0],
    # an H applied twice to one key qubit, and none to another
    Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(0), h(1), h(1), RegisterXor("C", "D", FALLBACK_VALUES),
                                              roty(0.4, 3), roty(1.1, 5, ((3, 1),))]),
    # a controlled H on a key qubit
    Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(0), h(1), h(2, ((0, 1),)), RegisterXor("C", "D", FALLBACK_VALUES),
                                              roty(0.4, 3), roty(1.1, 5, ((3, 1),))]),
    # the XOR after only k - 1 Hadamards
    Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(0), h(1), RegisterXor("C", "D", FALLBACK_VALUES),
                                              roty(0.4, 3), roty(1.1, 5, ((3, 1),))]),
    # a gate between the Hadamards and the XOR
    Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(0), h(1), h(2), x(6), RegisterXor("C", "D", FALLBACK_VALUES),
                                              roty(0.4, 3), roty(1.1, 5, ((6, 1),))]),
    # a second XOR after the one keyed on C, keyed on the register the first wrote
    Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(0), h(1), h(2), RegisterXor("C", "D", FALLBACK_VALUES),
                                              roty(0.4, 3), RegisterXor("D", "E", [1, 3, 0, 2])]),
], ids=["key-not-uniform", "key-controls-later", "key-not-lowest", "values-fill-the-key", "key-h-twice",
        "key-h-controlled", "xor-after-k-1-hadamards", "gate-before-xor", "second-xor"])
def test_circuits_the_keyed_path_cannot_run_take_the_gate_path(circuit, dtype, keyed_calls):
    tracked, dense = both_ways(circuit, dtype)
    assert tracked.tobytes() == dense.tobytes()
    assert keyed_calls == []


def test_the_twin_of_each_refused_circuit_takes_the_keyed_path(keyed_calls):
    # the refusal cases above with the defect taken out: H on each key qubit, then the XOR
    circuit = Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(2), h(0), h(1), RegisterXor("C", "D", FALLBACK_VALUES),
                                                        roty(0.4, 3), roty(1.1, 5, ((3, 1),))])
    tracked, dense = both_ways(circuit, np.complex128)
    assert tracked.tobytes() == dense.tobytes()
    assert len(keyed_calls) == 1


def big_table_synthesis(variant):
    """The 2**13-entry log-uniform table with the flag, gamma 1.6, d 4, eps 1e-3: 18 and 22 qubits."""
    alphas = np.exp(np.random.default_rng(5).uniform(math.log(2.5e-4), 0.0, 1 << 13))
    table = transduce.build_lambda_table(alphas, 1.6, 4, 1e-3)
    return transduce.build_synthesis(table, transduce.make_plan(variant, 1.6, 4), enforce_zero=True)


@pytest.mark.parametrize("variant", transduce.VARIANTS)
def test_the_keyed_support_of_a_large_table_marks_its_non_zeros(variant):
    # no patch: both states hold more than _SAMPLE_BLOCK amplitudes
    circuit = big_table_synthesis(variant)
    written = []
    state = apply_circuit(StateVector.zero_state(circuit.layout), circuit, validate=False, from_zero=True,
                          _written=written)
    assert len(written) == 1
    check_support(state, written[0], {kept_register(circuit.layout): 0})


LARGE = [pytest.param(big_table_synthesis, (v,), id=f"table-8192-{v}") for v in transduce.VARIANTS] + [
    pytest.param(ising_synthesis, (4, 4, "direct", z), id=f"ising-4x4-direct-{'zero' if z else 'plain'}")
    for z in (False, True)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build,args", [p for p in BUILT if p.id != "comparator"] + LARGE)
def test_built_circuits_take_the_keyed_path_at_their_own_size(build, args, dtype, keyed_calls):
    # no patch of _SAMPLE_BLOCK: the keyed path is chosen from the circuit alone, whatever the
    # state's size; the 4x4 controlled U (two 1 GiB states) is left to the fixed-seed state hashes
    tracked, dense = both_ways(build(*args), dtype)
    assert tracked.tobytes() == dense.tobytes()
    assert len(keyed_calls) == 1


# polarities on qubit 3 (D_0, which the XOR writes) and qubit 6 (E_1, which a gate before writes)
LATER_CONTROLS = [(), ((3, 0),), ((3, 1),), ((3, 0), (6, 0)), ((3, 0), (6, 1)), ((3, 1), (6, 0)),
                  ((3, 1), (6, 1))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [3, 12])
@pytest.mark.parametrize("controls", LATER_CONTROLS, ids=lambda c: "".join(str(p) for _, p in c) or "none")
@pytest.mark.parametrize("kind,angle", [("h", 0.0), ("x", 0.0), ("ry", 4.1), ("ry", -0.6), ("z", 0.0),
                                        ("phase", 2.5), ("swap", 0.0)])
def test_a_later_gate_runs_on_the_compact_state_with_the_dense_bytes(kind, angle, controls, width, dtype,
                                                                     keyed_calls):
    # after H on C (3 qubits) and the XOR of FALLBACK_VALUES (4 distinct, m = 2), one gate of each
    # kind on E_0, which reads 0 until then (swap: with E's top qubit), its controls shifted down
    # with it; E of 3 qubits makes a state of 2**8 amplitudes, gathered inline, and E of 12 one of
    # 2**17, above _SAMPLE_BLOCK, whose rows split among the workers
    layout = RegisterLayout([("C", 3), ("D", 2), ("E", width)])
    top = layout.total_qubits - 1
    gate = Gate(kind, 5, angle, top if kind == "swap" else None, controls)
    circuit = Circuit(layout, [h(0), h(1), h(2), RegisterXor("C", "D", FALLBACK_VALUES),
                               roty(0.4, 6, ((3, 1),)), roty(0.9, top, ((4, 0),)), gate])
    tracked, dense = both_ways(circuit, dtype)
    assert len(keyed_calls) == 1
    # each row (2**3 amplitudes: one value of D and E) that holds a non-zero has the dense bytes;
    # the rest keep the zero state's +0.0, where the dense ry with cos < 0 and z write -0.0
    assert np.array_equal(tracked, dense)
    rows, dense_rows = tracked.reshape(-1, 8), dense.reshape(-1, 8)
    held = rows.any(axis=1)
    assert rows[held].tobytes() == dense_rows[held].tobytes()
    assert not rows[~held].view(np.uint64).any()
    check_support(StateVector(layout, tracked), keyed_calls[0], {"E": 0})


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
