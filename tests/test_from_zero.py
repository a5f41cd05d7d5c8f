"""``amplify.run_amplified`` on U's compact state against the dense path.

The dense U|0> (``apply_circuit`` on the whole state) followed by the
whole-buffer rescale is the specification: every circuit the suite builds
must give u**2 bit for bit, the same values, and the same bytes in each row
(2**|C| amplitudes) that holds a non-zero, and random circuits u**2 and the
same values.  A row the compact path does not write keeps the zeroed
state's +0.0, where the dense butterflies or the rescale may write -0.0.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multamp import amplify, ising, simcore, transduce
from multamp.amplify import AmplificationSpec, _amplification_factors, postselect_probability, run_amplified
from multamp.baselines import build_comparator_synthesis
from multamp.simcore import (Circuit, Gate, RegisterLayout, RegisterXor, StateVector, apply_circuit, h,
                             phase, roty, swap, x, z)

DTYPES = (np.complex128, np.complex64)
KEYED_PLAN = amplify._keyed_plan  # the plan itself, where a test's ``keyed_plans`` records its calls


def dense_u(circuit, dtype):
    return apply_circuit(StateVector.zero_state(circuit.layout, dtype), circuit)


def both_ways(circuit, target, nu, dtype):
    """(``run_amplified``'s state, its u**2, the specification's state, its u**2): the dense U|0>
    and the whole-buffer rescale."""
    state, u_sq = run_amplified(AmplificationSpec(circuit, target, nu), dtype)
    want = dense_u(circuit, dtype)
    want_u = postselect_probability(want, target)
    if nu:
        inside, outside = _amplification_factors(want_u, nu)
        view = want.select(target)
        block = view * inside
        want.amplitudes *= outside
        view[...] = block
    return state, u_sq, want, want_u


def takes_the_keyed_path(circuit, target):
    """Whether ``run_amplified`` runs U on its compact state: the target leaves C free and the plan accepts U."""
    return circuit.layout.names()[0] not in target and KEYED_PLAN(circuit) is not None


def check_both_ways(circuit, target, nu, dtype):
    """u**2 bit for bit, the same values, the specification's bytes in each row (2**|C| amplitudes,
    C the first register) that holds a non-zero and, when U ran on its compact state, +0.0 bits
    in every other row.  Returns u**2."""
    state, u_sq, want, want_u = both_ways(circuit, target, nu, dtype)
    assert u_sq.hex() == want_u.hex()
    assert np.array_equal(state.amplitudes, want.amplitudes)
    width = 1 << circuit.layout.width(circuit.layout.names()[0])
    rows, want_rows = state.amplitudes.reshape(-1, width), want.amplitudes.reshape(-1, width)
    held = rows.any(axis=1)
    assert rows[held].tobytes() == want_rows[held].tobytes()
    if takes_the_keyed_path(circuit, target):
        assert not rows[~held].view(np.uint64).any()
    return u_sq


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


def big_table_synthesis(variant):
    """The 2**13-entry log-uniform table with the flag, gamma 1.6, d 4, eps 1e-3: 18 and 22 qubits."""
    alphas = np.exp(np.random.default_rng(5).uniform(math.log(2.5e-4), 0.0, 1 << 13))
    table = transduce.build_lambda_table(alphas, 1.6, 4, 1e-3)
    return transduce.build_synthesis(table, transduce.make_plan(variant, 1.6, 4), enforce_zero=True)


LARGE = [pytest.param(big_table_synthesis, (v,), id=f"table-8192-{v}") for v in transduce.VARIANTS] + [
    pytest.param(ising_synthesis, (4, 4, "direct", z), id=f"ising-4x4-direct-{'zero' if z else 'plain'}")
    for z in (False, True)]


def kept_register(layout):
    return "E" if "E" in layout else "D"


@pytest.fixture
def keyed_plans(monkeypatch):
    """The plans of the runs ``run_amplified`` takes on the compact state, in order."""
    plans = []
    keyed_plan = amplify._keyed_plan

    def recording(circuit):
        plan = keyed_plan(circuit)
        if plan is not None:
            plans.append(plan)
        return plan

    monkeypatch.setattr(amplify, "_keyed_plan", recording)
    return plans


@pytest.mark.parametrize("nu", [0, 3])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build,args", BUILT + LARGE)
def test_built_circuits_amplify_to_the_dense_bytes(build, args, dtype, nu, keyed_plans, request):
    # the comparator's second XOR reads the key, so it runs dense; every other built U runs on
    # its compact state at its own size; the 4x4 controlled U (two 1 GiB states) is left to the
    # fixed-seed state hashes
    circuit = build(*args)
    check_both_ways(circuit, {kept_register(circuit.layout): 0}, nu, dtype)
    assert len(keyed_plans) == ("comparator" not in request.node.callspec.id)


KEYED_BLOCK = 1 << 4  # below the 2**7 amplitudes of the smallest built state


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build,args", BUILT)
def test_built_circuits_give_the_dense_bytes_on_the_keyed_path(build, args, dtype, keyed_plans, monkeypatch,
                                                               request):
    # ``_SAMPLE_BLOCK`` at KEYED_BLOCK: the gathers split among the workers and the masses and the
    # rescale run in blocks smaller than a row of C; nu is the least at which the rest's factor
    # cos(k t)/cos(t) is negative, so the dense rescale writes -0.0 on each zero it multiplies
    monkeypatch.setattr(simcore, "_SAMPLE_BLOCK", KEYED_BLOCK)
    circuit = build(*args)
    target = {kept_register(circuit.layout): 0}
    u_sq = postselect_probability(dense_u(circuit, dtype), target)
    nu = next(nu for nu in itertools.count(1) if _amplification_factors(u_sq, nu)[1] < 0)
    check_both_ways(circuit, target, nu, dtype)
    assert len(keyed_plans) == ("comparator" not in request.node.callspec.id)


def test_a_target_that_fixes_c_runs_dense(keyed_plans):
    # a kept slice with C fixed cuts across the compact rows, so U runs on the whole state
    circuit = ising_synthesis(2, 2, "direct", False)
    assert check_both_ways(circuit, {"C": 3, "D": 0}, 1, np.complex128) == 0.002863444518098027
    assert keyed_plans == []


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


@st.composite
def amplified_from_zero(draw):
    """A circuit and a target of one or two of its registers, the first (C) among them or not."""
    circuit = draw(circuits_from_zero())
    layout = circuit.layout
    names = draw(st.lists(st.sampled_from(layout.names()), min_size=1, max_size=2, unique=True))
    return circuit, {name: draw(st.integers(0, (1 << layout.width(name)) - 1)) for name in names}


# a phase on a 1-entry prefix once rounded like Python's complex product, and
# on the whole state like numpy's vector loop: 5.6e-17 apart in amplitude 1
ONE_ENTRY_PHASE = Circuit(RegisterLayout([("r0", 1), ("r1", 2)]), [h(0), phase(1.0, 0), phase(1.0, 0)])


@settings(max_examples=200, deadline=None)
@given(case=amplified_from_zero(), nu=st.integers(0, 2), dtype=st.sampled_from(DTYPES))
@example(case=(ONE_ENTRY_PHASE, {"r1": 0}), nu=1, dtype=np.complex128)
@example(case=(ONE_ENTRY_PHASE, {"r1": 0}), nu=1, dtype=np.complex64)
def test_random_circuits_amplify_to_the_dense_values(case, nu, dtype):
    circuit, target = case
    if takes_the_keyed_path(circuit, target):
        # on the compact state also each row's bytes: a random layout puts the XOR's target
        # anywhere above C, so the oracle's output lands at an offset of its own
        check_both_ways(circuit, target, nu, dtype)
        return
    state, u_sq, want, want_u = both_ways(circuit, target, nu, dtype)
    assert u_sq.hex() == want_u.hex()
    assert np.array_equal(state.amplitudes, want.amplitudes)


@settings(max_examples=50, deadline=None)
@given(circuit=keyed_circuits())
def test_keyed_form_circuits_take_the_keyed_path(circuit):
    assert amplify._keyed_plan(circuit) is not None


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("registers,top", [
    ([("K", 3), ("M", 1), ("T", 2)], 3),  # key below the top, target above it
    ([("K", 3), ("T", 2)], 1),            # key straddling the top
    ([("M", 1), ("T", 2), ("K", 3)], 1),  # key above the top too: values[0] moves the prefix
    ([("T", 2), ("K", 3)], 2),            # target below the top, key above it
    ([("K", 2), ("T", 3)], 3),            # target straddling the top
    ([("K", 1), ("T", 2), ("M", 2)], 4),  # span below the top: both blocks of 2**3 below 2**4
])
def test_keyed_xor_from_a_live_prefix(registers, top, dtype):
    # ``apply(state)`` on a state that holds non-zeros only in its first 2**top amplitudes, as the
    # Hadamards on the key leave it, moves each amplitude to i ^ (values[key of i] << target's
    # offset) and every +0.0 with it, bit for bit
    layout = RegisterLayout(registers)
    rng = np.random.default_rng(239)
    values = rng.integers(0, 1 << layout.width("T"), size=1 << layout.width("K"))
    amps = np.zeros(1 << layout.total_qubits, dtype)
    amps[:1 << top] = rng.normal(size=1 << top) + 1j * rng.normal(size=1 << top)
    index = np.arange(amps.size)
    key = (index >> layout.offset("K")) & ((1 << layout.width("K")) - 1)
    want = np.empty_like(amps)
    want[index ^ (values[key] << layout.offset("T"))] = amps
    got = RegisterXor("K", "T", values).apply(StateVector(layout, amps))
    assert got.amplitudes.tobytes() == want.tobytes()


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
def test_gate_sequences_on_the_compact_state_give_the_dense_bytes(ops, dtype, keyed_plans):
    # rows of 2**2 amplitudes; the dense z may write -0.0 in a row the compact path leaves at +0.0
    check_both_ways(Circuit(SEQUENCE_LAYOUT, [h(1), h(0), SEQUENCE_XOR] + ops), {"z": 0}, 1, dtype)
    assert len(keyed_plans) == 1


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
    """(kind, amplitudes) of every ``_butterfly`` call of ``run_amplified`` at nu = 0."""
    return butterfly_calls(monkeypatch, run_amplified,
                           AmplificationSpec(circuit, {kept_register(circuit.layout): 0}, 0))


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
def test_built_circuits_do_the_pinned_keyed_work(build, args, total, keyed_plans, monkeypatch):
    assert sum(size for _, size in butterfly_sizes(build(*args), monkeypatch)) == total
    assert len(keyed_plans) == 1


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build,args", [p for p in BUILT if p.id in KEYED_WORK])
def test_the_compact_oracle_write_is_the_xor_of_its_live_prefix(build, args, dtype):
    # the compact state before any later gate: the dense Hadamards' v on the first len(values)
    # entries of the key, then the oracle of the distinct values (padded with 0 to 2**m) run on it
    circuit = build(*args)
    op, _, values, _, m = KEYED_PLAN(circuit)
    k = circuit.layout.width(op.key_register)
    v = dense_u(Circuit(RegisterLayout([(op.key_register, k)]), circuit.gates[:k]), dtype).amplitudes[0]
    got = amplify._compact_u(circuit.layout, op, [], values, m, dtype)
    want = StateVector(got.layout, np.zeros_like(got.amplitudes))
    want.amplitudes[:len(values)] = v
    padded = np.zeros(1 << m, np.int64)
    padded[:len(values)] = values
    RegisterXor(op.key_register, op.target_register, padded).apply(want)
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


@pytest.mark.parametrize("build,args", [p for p in BUILT if p.id in KEYED_WORK])
def test_the_keyed_path_runs_each_later_gate_once_on_the_compact_state(build, args, monkeypatch):
    # dense, each gate but z runs on 2**(n - controls) amplitudes; keyed, the k Hadamards on C are
    # computed and each later gate runs on 2**(n - (k - m) - controls), m the compact key's width
    circuit = build(*args)
    k = circuit.layout.width(circuit.layout.names()[0])
    m = max(1, (len(set(circuit.gates[k].values.tolist())) - 1).bit_length())
    dense = sum(size for _, size in butterfly_calls(monkeypatch, dense_u, circuit, np.complex128))
    keyed = sum(size for _, size in butterfly_sizes(circuit, monkeypatch))
    assert keyed << (k - m) == dense - k * (1 << circuit.layout.total_qubits)


def xor_qubit_counts(circuit, monkeypatch):
    """The qubit count of each state ``RegisterXor.apply`` gets while ``run_amplified`` runs ``circuit``."""
    seen = []
    xor_apply = RegisterXor.apply

    def recording(op, state):
        seen.append(state.num_qubits)
        return xor_apply(op, state)

    monkeypatch.setattr(RegisterXor, "apply", recording)
    run_amplified(AmplificationSpec(circuit, {kept_register(circuit.layout): 0}, 0))
    return seen


@pytest.mark.parametrize("build,args", [p for p in BUILT if p.id in KEYED_WORK] + [
    # 7 distinct values of 8 keys, as in values-fill-the-key below: the keyed path refuses
    pytest.param(lambda: build_comparator_synthesis([0.9, 0.8, 0.27, 0.125, 0.7, 0.5, 0.0, 0.33], 3)[0], (),
                 id="values-fill-the-key")])
def test_the_oracle_runs_on_the_state_only_where_the_keyed_path_refuses(build, args, keyed_plans, monkeypatch,
                                                                       request):
    # on the compact state the oracle's output is written, not run; where the distinct values need
    # every qubit of C the keyed path refuses and the one XOR runs on the whole state
    circuit = build(*args)
    keyed = request.node.callspec.id != "values-fill-the-key"
    assert xor_qubit_counts(circuit, monkeypatch) == ([] if keyed else [circuit.layout.total_qubits])
    assert len(keyed_plans) == keyed


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
def test_circuits_the_keyed_path_cannot_run_take_the_gate_path(circuit, dtype, keyed_plans):
    assert amplify._keyed_plan(circuit) is None
    check_both_ways(circuit, {"E": 0}, 1, dtype)
    assert keyed_plans == []


def test_the_twin_of_each_refused_circuit_takes_the_keyed_path(keyed_plans):
    # the refusal cases above with the defect taken out: H on each key qubit, then the XOR
    circuit = Circuit(RegisterLayout(FALLBACK_LAYOUT), [h(2), h(0), h(1), RegisterXor("C", "D", FALLBACK_VALUES),
                                                        roty(0.4, 3), roty(1.1, 5, ((3, 1),))])
    check_both_ways(circuit, {"E": 0}, 1, np.complex128)
    assert len(keyed_plans) == 1


# polarities on qubit 3 (D_0, which the XOR writes) and qubit 6 (E_1, which a gate before writes)
LATER_CONTROLS = [(), ((3, 0),), ((3, 1),), ((3, 0), (6, 0)), ((3, 0), (6, 1)), ((3, 1), (6, 0)),
                  ((3, 1), (6, 1))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [3, 12])
@pytest.mark.parametrize("controls", LATER_CONTROLS, ids=lambda c: "".join(str(p) for _, p in c) or "none")
@pytest.mark.parametrize("kind,angle", [("h", 0.0), ("x", 0.0), ("ry", 4.1), ("ry", -0.6), ("z", 0.0),
                                        ("phase", 2.5), ("swap", 0.0)])
def test_a_later_gate_runs_on_the_compact_state_with_the_dense_bytes(kind, angle, controls, width, dtype,
                                                                     keyed_plans):
    # after H on C (3 qubits) and the XOR of FALLBACK_VALUES (4 distinct, m = 2), one gate of each
    # kind on E_0, which reads 0 until then (swap: with E's top qubit), its controls shifted down
    # with it; E of 3 qubits makes a state of 2**8 amplitudes, gathered inline, and E of 12 one of
    # 2**17, above _SAMPLE_BLOCK, whose rows split among the workers; each row (2**3 amplitudes)
    # that holds a non-zero has the dense bytes, and the rest keep the zeroed state's +0.0, where
    # the dense ry with cos < 0 and z write -0.0
    layout = RegisterLayout([("C", 3), ("D", 2), ("E", width)])
    top = layout.total_qubits - 1
    gate = Gate(kind, 5, angle, top if kind == "swap" else None, controls)
    circuit = Circuit(layout, [h(0), h(1), h(2), RegisterXor("C", "D", FALLBACK_VALUES),
                               roty(0.4, 6, ((3, 1),)), roty(0.9, top, ((4, 0),)), gate])
    check_both_ways(circuit, {"E": 0}, 1, dtype)
    assert len(keyed_plans) == 1


def test_gate_qubits_lists_targets_then_controls():
    assert Gate("swap", 3, target2=1, controls=((0, 1), (5, 0))).qubits == (3, 1, 0, 5)
    assert Gate("swap", 3, target2=1, controls=((0, 1),)).targets == (3, 1)
    assert Gate("ry", 2, 0.5).qubits == (2,)


def test_ising_u_from_zero_holds_only_prefix_sized_scratch():
    # the 4x4 direct U covers 21 qubits with C and D alone: a dense XOR holds a
    # 32 MiB copy of that span and a 16 MiB index above the buffer
    circuit = ising_synthesis(4, 4, "direct", False)
    assert circuit.layout.total_qubits == 21
    tracemalloc.start()
    try:
        state, _ = run_amplified(AmplificationSpec(circuit, {"D": 0}, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - state.amplitudes.nbytes <= 4 << 20, peak
