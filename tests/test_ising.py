"""Lattice bookkeeping, the arithmetic oracle, and Boltzmann synthesis."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from multamp import ising
from multamp.ising import (
    BoltzmannTarget,
    IsingLattice,
    boltzmann_layout,
    build_ising_L,
    inverse_qft_gates,
    qft_gates,
    synthesize_boltzmann,
)
from multamp.simcore import Circuit, RegisterLayout, StateVector, apply_circuit, h
from multamp.transduce import KEPT_REGISTER, AmplitudeTable, OverflowLambdaError, build_lambda_table


# --- lattice bookkeeping ------------------------------------------------------

def test_lattice_validation():
    with pytest.raises(ValueError):
        IsingLattice(1, 4, 0.1)
    with pytest.raises(ValueError):
        IsingLattice(4, 1, 0.1)
    with pytest.raises(ValueError):
        IsingLattice(2, 2, 0.0)
    with pytest.raises(ValueError):
        IsingLattice(2, 2, -0.3)
    for beta_j in (math.inf, 400.0):  # gamma = exp(2 beta_j) would overflow
        with pytest.raises(ValueError, match="beta_j must be at most"):
            IsingLattice(2, 2, beta_j)
    for beta_j in (1e-300, 2.0 ** -54):  # gamma = exp(2 beta_j) would not exceed 1
        with pytest.raises(ValueError, match="beta_j must be above"):
            IsingLattice(2, 2, beta_j)
    IsingLattice(2, 2, 2.0 ** -53)  # exp(2**-52) rounds up to 1 + 2**-52


def test_pair_list_counts_right_and_down_for_every_site():
    for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4)):
        lattice = IsingLattice(rows, cols, 0.1)
        pairs = lattice.pairs()
        assert len(pairs) == 2 * lattice.num_sites
        for a, b in pairs:
            assert 0 <= a < lattice.num_sites
            assert 0 <= b < lattice.num_sites
    # a dimension of length 2 visits each bond in that direction twice
    two = IsingLattice(2, 2, 0.1).pairs()
    assert len(two) == 8 and len(set(map(frozenset, two))) == 4


def test_relative_beta_scales_the_published_critical_value():
    lattice = IsingLattice.from_relative_beta(2, 2, 1.0)
    assert math.isclose(lattice.beta_j, 2.269, rel_tol=1e-12)
    lattice = IsingLattice.from_relative_beta(3, 3, 0.1)
    assert math.isclose(lattice.beta_j, 0.2269, rel_tol=1e-12)


# --- unequal-pair counts ----------------------------------------------------------

@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_sigma_matches_the_spin_loop_oracle(rows, cols):
    lattice = IsingLattice(rows, cols, 0.5)
    sigma = lattice.sigma
    for config in range(1 << lattice.num_sites):
        assert sigma[config] == oracles.unequal_pair_count(rows, cols, config)


def test_lattice_sigma_is_the_vectorized_scan():
    lattice = IsingLattice(2, 3, 0.2)
    sigma = lattice.sigma
    assert sigma.shape == (64,)
    assert int(sigma.min()) == 0 and sigma[0] == 0  # aligned configurations
    assert np.all(sigma % 2 == 0)  # periodic loops flip parity twice


def test_lattice_sigma_is_computed_once_and_read_only():
    lattice = IsingLattice(2, 3, 0.2)
    sigma = lattice.sigma
    assert lattice.sigma is sigma and lattice.__dict__["sigma"] is sigma
    assert lattice.sigma.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        lattice.sigma[0] = 1
    with pytest.raises(ValueError, match="20 sites"):
        IsingLattice(3, 7, 0.2).sigma


def test_two_by_two_sigma_histogram():
    sigma = IsingLattice(2, 2, 0.1).sigma
    values, counts = np.unique(sigma, return_counts=True)
    assert dict(zip(values.tolist(), counts.tolist())) == {0: 2, 4: 12, 8: 2}


# --- exponent targets ---------------------------------------------------------------

def test_target_exponents_are_exact_half_sigmas():
    lattice = IsingLattice(3, 3, 0.3)
    target = BoltzmannTarget.from_lattice(lattice)
    sigma = lattice.sigma
    assert np.array_equal(target.lambdas, sigma // 2)
    assert math.isclose(target.gamma, math.exp(2 * 0.3), rel_tol=1e-15)
    assert np.allclose(target.alphas, np.exp(-0.3 * sigma), rtol=1e-15)


@pytest.mark.parametrize("rows,cols,want_d", [(2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 4, 4), (4, 4, 5)])
def test_minimal_exponent_width(rows, cols, want_d):
    target = BoltzmannTarget.from_lattice(IsingLattice(rows, cols, 0.1))
    assert target.d == want_d
    lam_max = int(target.lambdas.max())
    assert (1 << target.d) > lam_max >= (1 << (target.d - 1))


def test_too_small_exponent_width_is_an_overflow():
    lattice = IsingLattice(2, 2, 0.1)
    with pytest.raises(OverflowLambdaError):
        BoltzmannTarget.from_lattice(lattice, d=2)
    assert BoltzmannTarget.from_lattice(lattice, d=4).d == 4


def test_amplitude_table_round_trips_the_exponents():
    lattice = IsingLattice(2, 2, 0.4)
    target = BoltzmannTarget.from_lattice(lattice)
    assert isinstance(target, AmplitudeTable)
    # exponents are exact, so the float-log route down to the smallest
    # representable scale at this (gamma, d) rebuilds the same table
    cutoff = math.exp(-2.0 * lattice.beta_j * ((1 << target.d) - 1))
    rebuilt = build_lambda_table(target.alphas, target.gamma, target.d, cutoff)
    assert np.array_equal(rebuilt.lambdas, target.lambdas)


# --- Fourier transform ----------------------------------------------------------------

@pytest.mark.parametrize("d", range(1, 6))
def test_qft_matches_the_dft_matrix(d):
    layout = RegisterLayout([("D", d)])
    circuit = Circuit(layout, qft_gates(layout.qubits("D")))
    assert np.allclose(oracles.circuit_matrix(circuit), oracles.qft_matrix(d), atol=1e-12)


@pytest.mark.parametrize("d", range(1, 6))
def test_inverse_qft_inverts(d):
    layout = RegisterLayout([("D", d)])
    forward = Circuit(layout, qft_gates(layout.qubits("D")))
    backward = Circuit(layout, inverse_qft_gates(layout.qubits("D")))
    mat = oracles.circuit_matrix(backward) @ oracles.circuit_matrix(forward)
    assert np.allclose(mat, np.eye(1 << d), atol=1e-12)


# --- the arithmetic oracle ---------------------------------------------------------------

def assert_oracle_writes_half_sigma(lattice, d=None):
    """One uniform-superposition pass checks every configuration at once."""
    target = BoltzmannTarget.from_lattice(lattice, d)
    layout = boltzmann_layout(lattice, target.d, "direct", False)
    circuit = Circuit(layout, [h(q) for q in layout.qubits("C")])
    circuit.extend(build_ising_L(lattice, target.d, layout).gates)
    state = StateVector.zero_state(layout)
    apply_circuit(state, circuit)
    live = np.flatnonzero(np.abs(state.amplitudes) > 1e-9)
    assert live.shape[0] == 1 << lattice.num_sites
    configs = state.layout.values(live, "C")
    written = state.layout.values(live, "D")
    assert np.array_equal(written, target.lambdas[configs])
    assert np.all(state.layout.values(live, "a") == 1)
    # every surviving amplitude is exactly uniform: the oracle is a permutation
    assert np.allclose(np.abs(state.amplitudes[live]) ** 2,
                       1.0 / (1 << lattice.num_sites), atol=1e-12)


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_oracle_writes_half_sigma(rows, cols):
    assert_oracle_writes_half_sigma(IsingLattice(rows, cols, 0.1))


def test_oracle_with_extra_exponent_width():
    assert_oracle_writes_half_sigma(IsingLattice(2, 2, 0.1), d=5)


def test_oracle_per_basis_state_on_the_smallest_lattice():
    lattice = IsingLattice(2, 2, 0.1)
    target = BoltzmannTarget.from_lattice(lattice)
    layout = boltzmann_layout(lattice, target.d, "direct", False)
    circuit = build_ising_L(lattice, target.d, layout)
    for config in range(16):
        state = StateVector.basis_state(layout, layout.pack("C", config))
        apply_circuit(state, circuit)
        want = (layout.pack("C", config)
                | layout.pack("D", int(target.lambdas[config]))
                | layout.pack("a", 1))
        assert abs(abs(state.amplitudes[want]) - 1.0) < 1e-12


def test_oracle_validates_layout_and_width():
    lattice = IsingLattice(2, 2, 0.1)
    with pytest.raises(OverflowLambdaError):
        build_ising_L(lattice, 2, boltzmann_layout(lattice, 2, "direct", False))
    bad = RegisterLayout([("C", 3), ("D", 3), ("a", 1)])
    with pytest.raises(ValueError):
        build_ising_L(lattice, 3, bad)


# --- full synthesis --------------------------------------------------------------------

def test_layouts_count_the_published_qubits():
    for rows, cols, direct_q, controlled_q in ((2, 2, 8, 11), (3, 3, 13, 16), (4, 4, 22, 27)):
        lattice = IsingLattice(rows, cols, 0.1)
        d = BoltzmannTarget.from_lattice(lattice).d
        assert boltzmann_layout(lattice, d, "direct", False).total_qubits == direct_q
        assert boltzmann_layout(lattice, d, "controlled", False).total_qubits == controlled_q


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_unamplified_synthesis_matches_the_exact_norm(variant):
    from multamp.analysis import exact_norms
    lattice = IsingLattice(2, 2, 0.1)
    state, diag = synthesize_boltzmann(lattice, variant=variant, nu=0)
    target = BoltzmannTarget.from_lattice(lattice)
    norms = exact_norms(target.lambdas, target.gamma, target.d)
    oracle_u = norms.u_direct if variant == "direct" else norms.u_controlled
    assert abs(diag.u_sq - oracle_u ** 2) < 1e-12
    assert abs(diag.u_sq - diag.u_sq_oracle) < 1e-12
    assert diag.nu == 0
    assert abs(diag.measured_postamp - diag.u_sq) < 1e-12


def test_post_selected_state_is_boltzmann_distributed():
    from multamp.analysis import boltzmann_reference
    lattice = IsingLattice(2, 3, 0.35)
    reference = boltzmann_reference(lattice)
    for variant in ("direct", "controlled"):
        state, diag = synthesize_boltzmann(lattice, variant=variant, nu=0)
        layout = state.layout
        probs = np.abs(state.amplitudes) ** 2
        idx = np.arange(probs.shape[0])
        in_slice = layout.values(idx, diag.target_register) == 0
        kept = np.zeros(1 << lattice.num_sites)
        np.add.at(kept, layout.values(idx[in_slice], "C"), probs[in_slice])
        kept /= kept.sum()
        assert np.allclose(kept, reference.probabilities, atol=1e-12)


def test_amplification_preserves_the_conditional_distribution():
    lattice = IsingLattice(2, 2, 0.6)
    plain, _ = synthesize_boltzmann(lattice, variant="direct", nu=0)
    boosted, diag = synthesize_boltzmann(lattice, variant="direct", nu=3)
    layout = plain.layout
    probs0 = np.abs(plain.amplitudes) ** 2
    probs1 = np.abs(boosted.amplitudes) ** 2
    idx = np.arange(probs0.shape[0])
    in_slice = layout.values(idx, "D") == 0
    p0 = probs0[in_slice] / probs0[in_slice].sum()
    p1 = probs1[in_slice] / probs1[in_slice].sum()
    assert np.allclose(p0, p1, atol=1e-12)
    assert diag.nu == 3
    assert math.isclose(diag.measured_postamp,
                        oracles.grover_amplitude(math.sqrt(diag.u_sq), 3) ** 2,
                        rel_tol=1e-10)


KEYED_CONFIGS = [(rows, cols, variant, enforce_zero)
                 for rows, cols in ((2, 2), (2, 3), (3, 3))
                 for variant in ("direct", "controlled")
                 for enforce_zero in (False, True)] + [(4, 4, "direct", False)]


@pytest.mark.parametrize("rows,cols,variant,enforce_zero", KEYED_CONFIGS)
def test_keyed_oracle_prepares_what_the_gate_level_counter_does(rows, cols, variant, enforce_zero):
    lattice = IsingLattice(rows, cols, 0.1)
    circ, _, _ = ising.build_boltzmann_synthesis(lattice, variant, enforce_zero=enforce_zero)
    keyed = StateVector.zero_state(circ.layout)
    apply_circuit(keyed, circ)
    spec = oracles.gate_level_boltzmann_synthesis(lattice, variant, enforce_zero)
    gate_level = StateVector.zero_state(spec.layout)
    apply_circuit(gate_level, spec)
    # split each gate-level index into (qubits above a, a, qubits below a)
    halves = gate_level.amplitudes.reshape(-1, 2, 1 << spec.layout.offset("a"))
    assert not np.any(halves[:, 0, :])
    assert np.max(np.abs(halves[:, 1, :].ravel() - keyed.amplitudes)) <= 1e-14


def test_diagnostics_consistency():
    lattice = IsingLattice(2, 2, 0.1)
    state, diag = synthesize_boltzmann(lattice, variant="controlled")
    assert diag.rows == 2 and diag.cols == 2
    assert diag.variant == "controlled"
    assert diag.target_register == "E"
    assert diag.total_qubits == 11  # the gate-level circuit, counter ancilla included
    assert state.layout.total_qubits == 10
    assert math.isclose(diag.gamma, math.exp(0.2), rel_tol=1e-15)
    assert abs(diag.u_sq - diag.u_sq_oracle) < 1e-12
    assert abs(diag.predicted_postamp - diag.measured_postamp) < 1e-10
    data = asdict(diag)
    assert data["nu"] == diag.nu and data["beta_j"] == 0.1


@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_the_target_register_is_the_variants_kept_register(variant):
    _, diag = synthesize_boltzmann(IsingLattice(2, 2, 0.1), variant=variant, nu=0)
    assert diag.target_register == KEPT_REGISTER[variant]


def test_synthesize_rejects_bad_arguments():
    lattice = IsingLattice(2, 2, 0.1)
    with pytest.raises(ValueError):
        synthesize_boltzmann(lattice, variant="sideways")
    with pytest.raises(ValueError):
        synthesize_boltzmann(lattice, nu=-1)
    with pytest.raises(OverflowLambdaError):
        synthesize_boltzmann(lattice, d=2)


def test_enforce_zero_variant_runs_and_matches_norms():
    # no saturated entries exist here, so enforcement must not move anything
    lattice = IsingLattice(2, 2, 0.1)
    plain, diag0 = synthesize_boltzmann(lattice, variant="direct", nu=0)
    forced, diag1 = synthesize_boltzmann(lattice, variant="direct", nu=0, enforce_zero=True)
    assert diag1.total_qubits == diag0.total_qubits + 1
    assert abs(diag0.u_sq - diag1.u_sq) < 1e-12


@pytest.mark.parametrize("rows,cols", [(3, 6), (6, 3)])
def test_enforce_zero_leaves_the_saturation_value_to_no_exponent(rows, cols):
    # max Sigma/2 = 15 = 2**4 - 1, the value the flag empties at the minimal d = 4
    lattice = IsingLattice(rows, cols, 0.05)
    for variant in ("direct", "controlled"):
        _, plain, _ = ising.build_boltzmann_synthesis(lattice, variant)
        circ, target, _ = ising.build_boltzmann_synthesis(lattice, variant, enforce_zero=True)
        assert plain.d == 4 and int(plain.lambdas.max()) == 15
        assert target.d == 5 and np.all(target.lambdas < (1 << target.d) - 1)
        assert circ.layout.width("D") == 5 and "z" in circ.layout
    with pytest.raises(OverflowLambdaError, match="2\\*\\*d - 1"):
        ising.build_boltzmann_synthesis(lattice, "direct", d=4, enforce_zero=True)
    assert ising.build_boltzmann_synthesis(lattice, "direct", d=6, enforce_zero=True)[1].d == 6


def test_enforce_zero_keeps_the_top_sigma_of_3x6():
    # the six Sigma = 30 configurations hold 6.585e-6 of the post-selected slice
    # at nu = 0, their Boltzmann share; the flag must leave them that, not exactly 0
    lattice = IsingLattice(3, 6, 0.05)
    top = lattice.sigma == 30
    state, diag = synthesize_boltzmann(lattice, "direct", nu=0, enforce_zero=True)
    assert diag.d == 5 and top.sum() == 6
    kept = np.abs(state.select({"D": 0, "z": 1}).reshape(-1)) ** 2  # indexed by C
    assert not state.select({"D": 0, "z": 0}).any()
    want = np.exp(-2 * lattice.beta_j * lattice.sigma)
    got = kept / kept.sum()
    assert np.allclose(got, want / want.sum(), rtol=1e-9, atol=0)
    assert abs(got[top].sum() - 6.585e-6) < 0.001e-6
