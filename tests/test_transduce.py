"""Exponent tables, rotation ladders, and the synthesis circuit."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from multamp import transduce
from multamp.amplify import postselect_probability
from multamp.simcore import StateVector, apply_circuit, roty, x
from multamp.transduce import (
    OverflowLambdaError,
    build_L_oracle,
    build_lambda_table,
    build_synthesis,
    build_T1,
    build_T2,
    load_alphas,
    load_alphas_csv,
    load_alphas_json,
    make_plan,
    num_index_qubits,
    phi_product,
    plan_precision,
    standard_layout,
)


# --- precision planning -----------------------------------------------------

@pytest.mark.parametrize("eps,delta,want", [
    (0.001, 0.001, 13),
    (math.exp(-1.0), 1.0, 1),
    (0.01, 0.005, 10),
    (0.5, 1.0, 0),
    (math.exp(-1.0), 0.125, 4),                      # ratio exactly 8.0
    (math.exp(-1.0), math.nextafter(0.125, 1.0), 3),  # ratio a hair below 8
    (0.99, 0.5, 0),                                  # ratio < 1
])
def test_plan_precision_examples(eps, delta, want):
    # smallest d with 2**d > -ln(eps)/delta, checked against direct evaluation
    assert plan_precision(eps, delta) == want
    ratio = -math.log(eps) / delta
    d = plan_precision(eps, delta)
    assert (1 << d) > ratio
    assert d == 0 or (1 << (d - 1)) <= ratio


def test_plan_precision_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_precision(0.0, 0.1)
    with pytest.raises(ValueError):
        plan_precision(1.5, 0.1)
    with pytest.raises(ValueError):
        plan_precision(0.1, 0.0)
    for delta in (math.nan, math.inf, 1e-320):  # 1e-320: -ln(eps) / delta overflows
        with pytest.raises(ValueError, match="rel_prec_delta"):
            plan_precision(0.1, delta)


# --- exponent tables ---------------------------------------------------------

def test_lambda_values_floor_the_log():
    table = build_lambda_table([0.3], gamma=2.0, d=3, cutoff_eps=1e-6)
    assert table.lambdas.tolist() == [1]  # -log2(0.3) = 1.737
    table = build_lambda_table([0.9, 0.5, 0.26, 0.125], gamma=2.0, d=3, cutoff_eps=1e-6)
    assert table.lambdas.tolist() == [0, 1, 1, 3]


def test_exact_powers_snap_before_flooring():
    gamma = math.exp(0.3)
    # a hair under gamma**-3 would floor to 2 without the snap
    alpha = math.exp(-0.9) * (1.0 - 1e-13)
    table = build_lambda_table([alpha], gamma=gamma, d=3, cutoff_eps=1e-9)
    assert table.lambdas.tolist() == [3]


def test_saturation_is_strictly_below_cutoff():
    gamma, d, eps = 2.0, 3, 0.25
    at_cutoff = build_lambda_table([0.25], gamma, d, eps)
    assert at_cutoff.lambdas.tolist() == [2]  # not saturated: alpha == eps
    below = build_lambda_table([0.2499], gamma, d, eps)
    assert below.lambdas.tolist() == [(1 << d) - 1]


def test_overflow_is_a_hard_error():
    # -log2(0.05) = 4.32 needs 3 bits but d=2 only holds exponents < 4
    with pytest.raises(OverflowLambdaError):
        build_lambda_table([0.05], gamma=2.0, d=2, cutoff_eps=0.01)


def test_zero_amplitude_saturates_under_any_cutoff():
    table = build_lambda_table([0.0, 1.0], gamma=2.0, d=2, cutoff_eps=0.1)
    assert table.lambdas.tolist() == [3, 0]


def test_table_input_validation():
    with pytest.raises(ValueError):
        build_lambda_table([1.2], 2.0, 2, 0.1)
    with pytest.raises(ValueError):
        build_lambda_table([-0.1], 2.0, 2, 0.1)
    with pytest.raises(ValueError):
        build_lambda_table([0.5], 1.0, 2, 0.1)
    with pytest.raises(ValueError):
        build_lambda_table([0.5], 2.0, 0, 0.1)
    with pytest.raises(ValueError):
        build_lambda_table([[0.5]], 2.0, 2, 0.1)
    with pytest.raises(ValueError):
        build_lambda_table([0.5, math.nan], 2.0, 2, 0.1)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            build_lambda_table([0.5], gamma, 2, 0.1)


def test_num_index_qubits_requires_power_of_two():
    assert num_index_qubits(8) == 3
    for bad in (0, 1, 3, 6):
        with pytest.raises(ValueError):
            num_index_qubits(bad)


# --- plans -------------------------------------------------------------------

def test_plan_angles_match_their_definitions():
    gamma, d = math.exp(0.25), 4
    direct = make_plan("direct", gamma, d)
    controlled = make_plan("controlled", gamma, d)
    for k in range(d):
        factor = gamma ** -(2 ** k)
        assert math.isclose(direct.angles[k], math.atan(factor), rel_tol=1e-14)
        assert math.isclose(controlled.angles[k], math.acos(factor), rel_tol=1e-14)


def test_make_plan_validates_arguments():
    with pytest.raises(ValueError):
        make_plan("sideways", 2.0, 3)
    with pytest.raises(ValueError):
        make_plan("direct", 0.9, 3)
    with pytest.raises(ValueError):
        make_plan("direct", 2.0, 0)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            make_plan("direct", gamma, 3)


# --- normalization prefactor ---------------------------------------------------

def test_phi_product_matches_cos_product_and_closed_form():
    for gamma in (math.exp(0.1), math.exp(0.2), 2.0):
        for d in range(1, 12):
            phi = phi_product(gamma, d)
            assert math.isclose(phi, oracles.phi_normalization(gamma, d), rel_tol=1e-12)
            y = gamma ** -2.0
            closed = math.sqrt((1 - y) / (1 - y ** (1 << d)))
            assert math.isclose(phi, closed, rel_tol=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 0.5, math.nan, math.inf])
def test_phi_product_refuses_a_base_outside_one_to_infinity(gamma):
    with pytest.raises(ValueError, match="gamma"):
        phi_product(gamma, 3)


def test_phi_product_large_d_asymptote():
    gamma = math.exp(0.2)
    assert math.isclose(phi_product(gamma, 40) ** 2, 1 - gamma ** -2, rel_tol=1e-9)


def test_phi_squared_published_value():
    # gamma = e**0.2, d = 3 normalization constant
    assert abs(phi_product(math.exp(0.2), 3) ** 2 - 0.34372) < 1e-4


# --- rotation ladders vs closed forms ------------------------------------------

@pytest.mark.parametrize("d", range(1, 9))
def test_direct_ladder_zero_component(d):
    gamma = math.exp(0.3)
    plan = make_plan("direct", gamma, d)
    layout = standard_layout(2, d, "direct")
    circuit = build_T1(plan, layout)
    phi = phi_product(gamma, d)
    for lam in range(1 << d):
        state = StateVector.basis_state(layout, layout.pack("D", lam))
        apply_circuit(state, circuit)
        amp = state.amplitudes[0].real  # C = 0 slice, D = 0
        want = phi * gamma ** -lam
        assert abs(amp - want) < 1e-10
        assert abs(amp - oracles.direct_zero_amplitude(gamma, d, lam)) < 1e-12


@pytest.mark.parametrize("d", range(1, 9))
def test_controlled_ladder_zero_component(d):
    gamma = math.exp(0.3)
    plan = make_plan("controlled", gamma, d)
    layout = standard_layout(2, d, "controlled")
    circuit = build_T2(plan, layout)
    for lam in range(1 << d):
        index = layout.pack("D", lam)
        state = StateVector.basis_state(layout, index)
        apply_circuit(state, circuit)
        amp = state.amplitudes[index].real  # D stays lam, E = 0
        want = gamma ** -lam
        assert abs(amp - want) < 1e-10
        assert abs(amp - oracles.controlled_zero_amplitude(gamma, d, lam)) < 1e-12


def test_ladders_match_dense_matrix_product():
    gamma, d = math.exp(0.4), 3
    for variant, builder in (("direct", build_T1), ("controlled", build_T2)):
        plan = make_plan(variant, gamma, d)
        layout = standard_layout(2, d, variant)
        circuit = builder(plan, layout)
        mat = oracles.circuit_matrix(circuit)
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(1 << layout.total_qubits) * 1j
        amps += rng.standard_normal(1 << layout.total_qubits)
        amps /= np.linalg.norm(amps)
        state = StateVector(layout, amps.astype(np.complex128))
        expected = mat @ state.amplitudes
        apply_circuit(state, circuit)
        assert np.allclose(state.amplitudes, expected, atol=1e-12)


# --- exponent oracle -------------------------------------------------------------

def test_oracle_requires_zeroed_exponent_register():
    table = build_lambda_table([0.5, 0.25, 0.125, 0.8], gamma=2.0, d=3, cutoff_eps=1e-6)
    layout = standard_layout(4, 3, "direct")
    oracle = build_L_oracle(table, layout)
    lam = int(table.lambdas[0])
    state = oracle.apply(StateVector.zero_state(layout))
    assert abs(state.amplitudes[layout.pack("D", lam)]) == 1.0  # D = |0> reads lambda~
    # on a nonzero D the oracle XORs, so D no longer holds the exponent
    bad = oracle.apply(StateVector.basis_state(layout, layout.pack("D", 1)))
    assert abs(bad.amplitudes[layout.pack("D", lam ^ 1)]) == 1.0
    assert abs(bad.amplitudes[layout.pack("D", lam)]) == 0.0
    oracle.apply(bad)  # its own inverse: back to |D = 1>
    assert abs(bad.amplitudes[layout.pack("D", 1)]) == 1.0


def test_oracle_writes_exponents_for_every_index():
    alphas = [0.9, 0.5, 0.26, 0.125]
    table = build_lambda_table(alphas, gamma=2.0, d=3, cutoff_eps=1e-6)
    layout = standard_layout(4, 3, "direct")
    oracle = build_L_oracle(table, layout)
    for i, lam in enumerate(table.lambdas):
        state = oracle.apply(StateVector.basis_state(layout, layout.pack("C", i)))
        want = layout.pack("C", i) | layout.pack("D", int(lam))
        assert abs(state.amplitudes[want]) == 1.0


# --- full synthesis ----------------------------------------------------------------

def run_synthesis(table, plan, enforce_zero=False):
    circuit = build_synthesis(table, plan, enforce_zero)
    return apply_circuit(StateVector.zero_state(circuit.layout), circuit)


def synthesis_zero_slice(alphas, gamma, d, variant, eps=1e-9, enforce_zero=False):
    table = build_lambda_table(alphas, gamma, d, eps)
    plan = make_plan(variant, gamma, d)
    state = run_synthesis(table, plan, enforce_zero=enforce_zero)
    layout = state.layout
    post = "D" if variant == "direct" else "E"
    amps = []
    for i in range(len(alphas)):
        index = layout.pack("C", i)
        if variant == "controlled":
            index |= layout.pack("D", int(table.lambdas[i]))
        if enforce_zero:
            # inside the post-selected slice the flag reads 1 on every
            # surviving branch
            index |= layout.pack("z", 1)
        amps.append(state.amplitudes[index])
    return np.array(amps), table, state


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_synthesis_prepares_truncated_amplitudes(variant):
    gamma, d = math.exp(0.2), 4
    alphas = [1.0, 0.8, 0.55, 0.31, 0.2, 0.11, 0.5, 0.9]
    amps, table, state = synthesis_zero_slice(alphas, gamma, d, variant)
    phi = phi_product(gamma, d) if variant == "direct" else 1.0
    want = phi * gamma ** -table.lambdas.astype(float) / math.sqrt(8)
    assert np.allclose(amps.real, want, atol=1e-12)
    assert np.allclose(amps.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_enforce_zero_empties_saturated_entries(variant):
    gamma, d = math.exp(0.5), 3
    alphas = [0.9, 0.0005, 0.7, 0.4]  # entry 1 sits below the cutoff
    eps = 0.01
    plain, table, _ = synthesis_zero_slice(alphas, gamma, d, variant, eps=eps)
    assert table.lambdas[1] == (1 << d) - 1
    assert abs(plain[1]) > 0.0  # plain synthesis leaks a little weight
    forced, _, state = synthesis_zero_slice(alphas, gamma, d, variant, eps=eps,
                                            enforce_zero=True)
    assert forced[1] == 0.0  # exactly, not approximately
    keep = [0, 2, 3]
    assert np.allclose(forced[keep], plain[keep], atol=1e-12)
    # the saturated branch moved entirely outside the post-selected slice
    post = "D" if variant == "direct" else "E"
    layout = state.layout
    prob_in_slice = 0.0
    for idx in np.flatnonzero(np.abs(state.amplitudes) > 0):
        if layout.value(int(idx), "C") == 1 and layout.value(int(idx), post) == 0:
            prob_in_slice += abs(state.amplitudes[idx]) ** 2
    assert prob_in_slice == 0.0


@pytest.mark.parametrize("variant", ["direct", "controlled"])
@pytest.mark.parametrize("d", range(1, 6))
def test_ladder_gate_lists_are_pinned(variant, d):
    # the ladders written out gate by gate: the plain form and, with the
    # width-1 flag z, the exact-zero form (flag NAND of D, z as one more
    # control on every rotation, and for controlled a final X E_0 on z == 0)
    table = build_lambda_table([1.0, 0.5, 0.0, 1.0], 2.0, d, 0.1)
    plan = make_plan(variant, 2.0, d)
    for enforce_zero in (False, True):
        circuit = build_synthesis(table, plan, enforce_zero)
        layout = circuit.layout
        dq = list(layout.qubits("D"))
        eq = list(layout.qubits("E")) if variant == "controlled" else []
        flag = ((layout.offset("z"), 1),) if enforce_zero else ()
        want = []
        if enforce_zero:
            zq = layout.offset("z")
            want += [x(zq), x(zq, controls=tuple((q, 1) for q in dq))]
        for k, angle in enumerate(plan.angles):
            if variant == "direct":
                want.append(roty(-2.0 * angle, dq[k], controls=flag))
            else:
                want.append(roty(2.0 * angle, eq[k], controls=((dq[k], 1),) + flag))
        if enforce_zero and variant == "controlled":
            want.append(x(eq[0], controls=((zq, 0),)))
        assert circuit.gates[layout.width("C") + 1:] == want


def test_synthesis_post_selection_probability_is_u_squared():
    gamma, d = math.exp(0.2), 3
    alphas = [0.9, 0.6, 0.45, 0.3]
    for variant in ("direct", "controlled"):
        table = build_lambda_table(alphas, gamma, d, 1e-9)
        plan = make_plan(variant, gamma, d)
        state = run_synthesis(table, plan)
        post = "D" if variant == "direct" else "E"
        got = postselect_probability(state, {post: 0})
        weights = (gamma ** (-2.0 * table.lambdas.astype(float))).mean()
        phi_sq = phi_product(gamma, d) ** 2 if variant == "direct" else 1.0
        assert math.isclose(got, phi_sq * weights, rel_tol=1e-12)


# --- the precision claim ----------------------------------------------------------

@st.composite
def precision_cases(draw):
    """A 2**k-entry table (k <= 5), a cutoff eps >= 1e-4 and a precision delta
    with d = plan_precision(eps, delta) in [2, 6] and -ln(eps) / delta below
    2**d - 1 by more than build_lambda_table's 1e-9 snap.

    Outside that range lie the three known failures pinned as examples below:
    a non-saturated exponent of 2**d - 1 or 2**d, and amplitudes the
    controlled ladder cannot round to within the precision.
    """
    eps = draw(st.floats(1e-4, 0.99))
    d = draw(st.integers(2, 6))
    delta = -math.log(eps) / draw(st.floats(2.0 ** (d - 1), 2.0 ** d - 1 - 1e-6))
    assume(plan_precision(eps, delta) == d)
    entry = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.5).map(lambda u: eps ** u))
    size = 1 << draw(st.integers(1, 5))
    return np.array(draw(st.lists(entry, min_size=size, max_size=size))), eps, delta


@settings(max_examples=50, deadline=None)
@given(case=precision_cases())
# -ln(eps) / delta within 1e-9 below 2**d: build_lambda_table snaps eps's exponent up to 2**d
@example(case=(np.array([0.029938271202863825, 1.0]), 0.029938271202863825, 1.7543088218689953)
         ).xfail(raises=OverflowLambdaError, reason="the planned d overflows at the snap")
# eps = e**-3 at delta = 1 gives d = 2 and eps the exponent 3, the saturation value the flag zeroes
@example(case=(np.array([math.exp(-3.0), 0.5]), math.exp(-3.0), 1.0)
         ).xfail(raises=AssertionError, reason="enforce_zero empties a non-saturated entry")
# cos(arccos(e**-64)) reads ~6e-17: the controlled ladder has no relative precision there
@example(case=(np.array([math.exp(-80.0), 1.0]), math.exp(-80.0), 2.0)
         ).xfail(raises=AssertionError, reason="the controlled ladder's rounding floor")
def test_post_selected_amplitudes_meet_the_planned_precision(case):
    # gamma = e**delta and d = plan_precision(eps, delta): each amplitude at or
    # above the cutoff comes out in [alpha, alpha * e**delta), less the 1e-9
    # snap of build_lambda_table, and each one below it under eps * e**delta
    alphas, eps, delta = case
    d = plan_precision(eps, delta)
    gamma = math.exp(delta)
    table = build_lambda_table(alphas, gamma, d, eps)
    saturated = alphas < eps
    kept = alphas[~saturated]
    for variant in transduce.VARIANTS:
        for enforce_zero in (False, True):
            circuit = build_synthesis(table, make_plan(variant, gamma, d), enforce_zero)
            layout = circuit.layout
            state = apply_circuit(StateVector.zero_state(layout), circuit, from_zero=True)
            index = np.arange(alphas.shape[0])
            if variant == "controlled":
                index |= table.lambdas << layout.offset("D")
            if enforce_zero:
                index |= layout.pack("z", 1)
            amps = state.amplitudes[index].real * math.sqrt(alphas.shape[0])
            if variant == "direct":
                amps /= phi_product(gamma, d)
            assert np.all(amps[~saturated] >= kept * gamma ** -1e-9)
            assert np.all(amps[~saturated] < kept * math.exp(delta))
            if enforce_zero:
                assert np.all(amps[saturated] == 0.0)
            else:
                assert np.all(amps[saturated] < eps * math.exp(delta))


# --- approximation quality ------------------------------------------------------

def test_truncation_fidelity_bound():
    # |<approx|exact>| >= 1 - 2 * ln(gamma) * 2**-d when gamma spends the
    # exponent range on [eps, 1], i.e. gamma**(2**d - 1) = 1/eps
    rng = np.random.default_rng(71)
    eps = 1e-3
    for d in range(4, 11):
        gamma = math.exp(-math.log(eps) / ((1 << d) - 1))
        for _ in range(5):
            alphas = rng.uniform(eps, 1.0, size=64)
            table = build_lambda_table(alphas, gamma, d, eps)
            approx = gamma ** -table.lambdas.astype(float)
            fidelity = (alphas * approx).sum() / (
                np.linalg.norm(alphas) * np.linalg.norm(approx))
            assert fidelity >= 1.0 - 2.0 * math.log(gamma) * 2.0 ** -d


# --- amplitude-table files --------------------------------------------------------

def test_load_alphas_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("index,alpha\n1,0.5\n0,0.9\n3,0.1\n2,0.25\n")
    alphas = load_alphas_csv(path)
    assert alphas.tolist() == [0.9, 0.5, 0.25, 0.1]
    assert load_alphas(path).tolist() == alphas.tolist()


def test_load_alphas_csv_rejects_bad_tables(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("0,0.5\n0,0.6\n")
    with pytest.raises(ValueError):
        load_alphas_csv(dup)
    gap = tmp_path / "gap.csv"
    gap.write_text("0,0.5\n2,0.6\n")
    with pytest.raises(ValueError):
        load_alphas_csv(gap)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_alphas_csv(empty)


def test_load_alphas_json(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([0.9, 0.5, 0.25, 0.1]))
    assert load_alphas_json(path).tolist() == [0.9, 0.5, 0.25, 0.1]
    assert load_alphas(path).tolist() == [0.9, 0.5, 0.25, 0.1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": 0.5}))
    with pytest.raises(ValueError):
        load_alphas_json(bad)
    with pytest.raises(ValueError):
        load_alphas(tmp_path / "table.txt")
