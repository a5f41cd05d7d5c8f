"""Amplitude amplification: rotation law, reflections, iterate counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multamp import ising, transduce
from multamp.amplify import (
    AmplificationSpec,
    grover_iterate,
    phase_flip,
    postselect_probability,
    predicate_flip_circuit,
    predicted_postamp,
    run_amplified,
    select_nu,
    source_flip_circuit,
)
from multamp.simcore import (
    Circuit,
    RegisterLayout,
    StateVector,
    apply_circuit,
    h,
    project_probability,
    roty,
    x,
)


def toy_synthesis(theta):
    """One-qubit preparation with target amplitude sin(theta) on |1>."""
    layout = RegisterLayout([("t", 1)])
    return Circuit(layout, [roty(2.0 * theta, 0)])


# --- reflections ------------------------------------------------------------

def test_phase_flip_negates_the_selected_slice():
    rng = np.random.default_rng(3)
    layout = RegisterLayout([("A", 2), ("B", 2)])
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    state = StateVector(layout, amps.astype(np.complex128))
    before = state.amplitudes.copy()
    phase_flip(state, {"B": 3})
    for i in range(16):
        sign = -1.0 if (i >> 2) == 3 else 1.0
        assert state.amplitudes[i] == sign * before[i]


def test_predicate_flip_circuit_matches_direct_flip():
    rng = np.random.default_rng(5)
    layout = RegisterLayout([("A", 2), ("B", 3)])
    for conditions in ({"B": 0}, {"B": 5}, {"A": 2, "B": 3}, {"A": 1}):
        amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        amps /= np.linalg.norm(amps)
        via_gates = StateVector(layout, amps.astype(np.complex128))
        apply_circuit(via_gates, predicate_flip_circuit(layout, conditions))
        direct = StateVector(layout, amps.astype(np.complex128))
        phase_flip(direct, conditions)
        assert np.allclose(via_gates.amplitudes, direct.amplitudes, atol=1e-12)


def test_empty_predicate_is_a_global_minus_sign():
    layout = RegisterLayout([("A", 2)])
    state = StateVector.basis_state(layout, 2)
    before = state.amplitudes.copy()
    apply_circuit(state, predicate_flip_circuit(layout, {}))
    assert np.allclose(state.amplitudes, -before, atol=0)
    phase_flip(state, {})
    assert np.allclose(state.amplitudes, before, atol=0)


def test_source_flip_circuit_negates_only_the_all_zero_state():
    layout = RegisterLayout([("A", 2), ("B", 1)])
    mat = oracles.circuit_matrix(source_flip_circuit(layout))
    want = np.eye(8, dtype=complex)
    want[0, 0] = -1.0
    assert np.allclose(mat, want, atol=1e-12)


def test_postselect_probability_multi_register():
    rng = np.random.default_rng(7)
    layout = RegisterLayout([("A", 2), ("B", 2)])
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    state = StateVector(layout, amps.astype(np.complex128))
    got = postselect_probability(state, {"A": 1, "B": 2})
    want = abs(amps[1 | (2 << 2)]) ** 2
    assert math.isclose(got, want, rel_tol=1e-12)


# --- the rotation law ----------------------------------------------------------

def test_iterates_follow_the_sine_law():
    # one-qubit toy target: amplitude sin((2k+1) theta) after k iterates
    for theta in (0.1, 0.35, 0.7):
        spec = AmplificationSpec(toy_synthesis(theta), {"t": 1}, nu=0)
        state = StateVector.zero_state(spec.synthesis.layout)
        apply_circuit(state, spec.synthesis)
        u = math.sin(theta)
        for k in range(1, 8):
            grover_iterate(state, spec)
            want = oracles.grover_amplitude(u, k)
            got = state.amplitudes[1].real
            assert abs(got - want) < 1e-12
            assert abs(state.norm() - 1.0) < 1e-12


def test_run_amplified_reports_u_and_final_state():
    theta = 0.22
    spec = AmplificationSpec(toy_synthesis(theta), {"t": 1}, nu=3)
    state, u_sq = run_amplified(spec)
    assert math.isclose(u_sq, math.sin(theta) ** 2, rel_tol=1e-12)
    want = oracles.grover_amplitude(math.sin(theta), 3) ** 2
    assert math.isclose(project_probability(state, "t", 1), want, rel_tol=1e-10)


def test_amplified_slice_keeps_the_conditional_distribution():
    # amplification rescales the target slice as a block: conditional
    # probabilities inside the slice never move
    rng = np.random.default_rng(11)
    layout = RegisterLayout([("C", 2), ("D", 2)])
    gates = [h(q) for q in range(4)] + [roty(float(rng.uniform(0.2, 1.2)), q)
                                        for q in range(4)]
    synthesis = Circuit(layout, gates)
    spec = AmplificationSpec(synthesis, {"D": 0}, nu=0)
    state = StateVector.zero_state(layout)
    apply_circuit(state, synthesis)
    base = state.amplitudes[:4].copy()  # D = 0 slice
    for k in range(1, 6):
        grover_iterate(state, spec)
        now = state.amplitudes[:4]
        # proportional to the unamplified slice at every iterate
        scale = now[0] / base[0]
        assert np.allclose(now, scale * base, atol=1e-12)


def test_ten_iterates_preserve_the_norm():
    rng = np.random.default_rng(13)
    layout = RegisterLayout([("C", 3), ("D", 2)])
    gates = [h(q) for q in range(5)] + [roty(float(rng.uniform(-1, 1)), q)
                                        for q in range(5)]
    spec = AmplificationSpec(Circuit(layout, gates), {"D": 0}, nu=0)
    state = StateVector.zero_state(layout)
    apply_circuit(state, spec.synthesis)
    for _ in range(10):
        grover_iterate(state, spec)
    assert abs(state.norm() - 1.0) < 1e-12


def test_spec_validates_target_values():
    synthesis = toy_synthesis(0.3)
    with pytest.raises(ValueError):
        AmplificationSpec(synthesis, {"t": 2}, nu=1)
    with pytest.raises(KeyError):
        AmplificationSpec(synthesis, {"missing": 0}, nu=1)
    with pytest.raises(ValueError):
        AmplificationSpec(synthesis, {"t": 1}, nu=-1)


# --- iterate-count rules ----------------------------------------------------------

def test_select_nu_published_rows():
    # round(pi / (4 asin u)) reproduces the published iterate counts
    for u_sq, want in [(0.167, 2), (0.063, 3), (0.016, 6),
                       (0.487, 1), (0.182, 2), (0.048, 4)]:
        assert select_nu(math.sqrt(u_sq), "paper") == want


def test_select_nu_optimal_beats_or_ties_paper():
    for u_sq in (0.167, 0.063, 0.016, 0.487, 0.182, 0.048, 0.3, 0.7):
        u = math.sqrt(u_sq)
        paper = predicted_postamp(u, select_nu(u, "paper"))
        best = predicted_postamp(u, select_nu(u, "optimal"))
        assert best >= paper - 1e-12


def test_select_nu_optimal_on_the_first_row():
    # u**2 = 0.167: one optimal iterate reaches 0.908, above the published 0.738
    u = math.sqrt(0.167)
    assert select_nu(u, "optimal") == 1
    assert predicted_postamp(u, 1) > 0.908
    assert predicted_postamp(u, 1) > predicted_postamp(u, select_nu(u, "paper"))


def test_select_nu_handles_certain_preparation():
    # the published rounding rule literally gives one iterate at u = 1,
    # which is harmless: sin(3 pi/2)**2 is still 1
    assert select_nu(1.0, "paper") == 1
    assert predicted_postamp(1.0, select_nu(1.0, "paper")) == 1.0
    assert select_nu(1.0, "optimal") == 0
    with pytest.raises(ValueError):
        select_nu(0.0, "paper")
    with pytest.raises(ValueError):
        select_nu(1.5, "paper")
    with pytest.raises(ValueError):
        select_nu(0.5, "sideways")


def test_predicted_postamp_is_the_sine_square():
    for u in (0.1, 0.4, 0.9):
        for nu in range(5):
            want = math.sin((2 * nu + 1) * math.asin(u)) ** 2
            assert math.isclose(predicted_postamp(u, nu), want, rel_tol=1e-12)


def test_optimal_is_best_up_to_the_first_peak():
    # the rule brackets the first sine peak; nothing at or below its own
    # iterate budget does better (later peaks can, at extra cost)
    for u in np.linspace(0.05, 0.95, 31):
        theta = math.asin(float(u))
        budget = max(0, math.ceil(math.pi / (4.0 * theta) - 0.5))
        nu = select_nu(float(u), "optimal")
        assert nu <= budget
        best = max(predicted_postamp(float(u), k) for k in range(0, budget + 1))
        assert predicted_postamp(float(u), nu) >= best - 1e-12


# --- closed form against the gate-level iterate ------------------------------------

CLOSED_FORM_TOL = 1e-12  # max-abs amplitude difference from the iterate loop


def iterated_state(spec):
    """U Q^nu |0> the gate-level way: U, then nu grover_iterate calls."""
    state = StateVector.zero_state(spec.synthesis.layout)
    apply_circuit(state, spec.synthesis)
    for _ in range(spec.nu):
        grover_iterate(state, spec)
    return state


def closed_form_error(spec) -> float:
    """Max-abs gap between run_amplified and the loop; also checks the reported u**2."""
    state, u_sq = run_amplified(spec)
    unamplified = iterated_state(AmplificationSpec(spec.synthesis, spec.target, 0))
    assert math.isclose(u_sq, postselect_probability(unamplified, spec.target), rel_tol=1e-12)
    return float(np.max(np.abs(state.amplitudes - iterated_state(spec).amplitudes)))


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("variant", ["direct", "controlled"])
@pytest.mark.parametrize("enforce_zero", [False, True])
def test_closed_form_matches_iterates_on_ising(size, variant, enforce_zero):
    lattice = ising.IsingLattice(size, size, 0.1)
    circ, _, _ = ising.build_boltzmann_synthesis(lattice, variant, enforce_zero=enforce_zero)
    conditions = {"D" if variant == "direct" else "E": 0}
    state, diag = ising.synthesize_boltzmann(lattice, variant, enforce_zero=enforce_zero)
    reference = iterated_state(AmplificationSpec(circ, conditions, diag.nu))
    assert diag.nu >= 1
    assert np.max(np.abs(state.amplitudes - reference.amplitudes)) <= CLOSED_FORM_TOL
    assert math.isclose(diag.measured_postamp, postselect_probability(reference, conditions),
                        rel_tol=1e-12)


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_closed_form_matches_iterates_on_a_table(variant):
    # 2**6 log-uniform amplitudes, some below the cutoff so they saturate
    alphas = np.exp(np.random.default_rng(17).uniform(math.log(2.5e-4), 0.0, 1 << 6))
    table = transduce.build_lambda_table(alphas, 2.0, 4, 1e-3)
    circ = transduce.build_synthesis(table, transduce.make_plan(variant, 2.0, 4),
                                     enforce_zero=True)
    target = {"D" if variant == "direct" else "E": 0}
    _, u_sq = run_amplified(AmplificationSpec(circ, target, 0))
    nu = select_nu(math.sqrt(u_sq))
    assert nu >= 1
    assert closed_form_error(AmplificationSpec(circ, target, nu)) <= CLOSED_FORM_TOL


def test_closed_form_at_zero_iterates_and_past_the_peak():
    synthesis = toy_synthesis(0.3)  # u**2 = 0.087: the first peak is at nu = 2
    for nu in (0, 2, 5, 9):
        assert closed_form_error(AmplificationSpec(synthesis, {"t": 1}, nu)) <= CLOSED_FORM_TOL
    state, _ = run_amplified(AmplificationSpec(synthesis, {"t": 1}, 5))
    assert project_probability(state, "t", 1) < predicted_postamp(math.sin(0.3), 2)


# u**2 reads exactly 1, 1 - 2e-16 (rounding) and exactly 0
@pytest.mark.parametrize("gates,u_sq", [([x(0)], 1.0), ([h(1), x(0)], 1.0), ([h(1)], 0.0)])
def test_closed_form_when_the_slice_is_everything_or_nothing(gates, u_sq):
    synthesis = Circuit(RegisterLayout([("t", 1), ("a", 1)]), gates)
    for nu in range(4):
        spec = AmplificationSpec(synthesis, {"t": 1}, nu)
        state, got = run_amplified(spec)
        assert abs(got - u_sq) < 1e-15
        assert closed_form_error(spec) <= CLOSED_FORM_TOL
        assert abs(state.norm() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), nu=st.integers(0, 40))
def test_closed_form_matches_iterates_on_the_toy_rotation(theta, nu):
    spec = AmplificationSpec(toy_synthesis(theta), {"t": 1}, nu)
    assert closed_form_error(spec) <= CLOSED_FORM_TOL
