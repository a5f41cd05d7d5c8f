"""Exact norms, reference distributions, and goodness-of-fit machinery."""

import math

import numpy as np
import pytest

import oracles
from multamp.analysis import (
    boltzmann_reference,
    distribution_tests,
    exact_norms,
    magnetization_rows,
    sigma_histogram_rows,
    tally,
    write_csv,
)
from multamp.ising import IsingLattice
from multamp.transduce import phi_product


# --- norms ---------------------------------------------------------------------

def test_exact_norms_against_a_literal_sum():
    gamma, d = math.exp(0.23), 4
    lambdas = [0, 1, 1, 3, 7, 2, 0, 5]
    summary = exact_norms(lambdas, gamma, d)
    a_sq = sum(gamma ** (-2 * l) for l in lambdas)
    assert math.isclose(summary.a_bar, math.sqrt(a_sq), rel_tol=1e-13)
    assert math.isclose(summary.phi, phi_product(gamma, d), rel_tol=1e-15)
    assert math.isclose(summary.u_direct, summary.phi * summary.a_bar / math.sqrt(8),
                        rel_tol=1e-15)
    assert math.isclose(summary.u_controlled, summary.a_bar / math.sqrt(8),
                        rel_tol=1e-15)
    assert summary.u_direct < summary.u_controlled <= 1.0 + 1e-12


def test_exact_norms_validates_input():
    with pytest.raises(ValueError):
        exact_norms([], 2.0, 3)
    with pytest.raises(ValueError):
        exact_norms([0, 1], 1.0, 3)


# --- reference distributions ------------------------------------------------------

@pytest.mark.parametrize("rows,cols,beta_j", [(2, 2, 0.1), (2, 2, 1.5), (2, 3, 0.4), (3, 3, 0.2269)])
def test_reference_matches_the_spin_loop_oracle(rows, cols, beta_j):
    reference = boltzmann_reference(IsingLattice(rows, cols, beta_j))
    want = oracles.boltzmann_probabilities(rows, cols, beta_j)
    assert np.allclose(reference.probabilities, want, atol=1e-12)
    assert math.isclose(reference.probabilities.sum(), 1.0, rel_tol=1e-12)


def test_reference_marginals_are_consistent():
    reference = boltzmann_reference(IsingLattice(3, 3, 0.3))
    assert int(reference.sigma_multiplicity.sum()) == 1 << 9
    assert math.isclose(reference.sigma_probability.sum(), 1.0, rel_tol=1e-12)
    assert math.isclose(reference.magnetization_probability.sum(), 1.0, rel_tol=1e-12)
    # P(sigma) = g(sigma) exp(-2 beta J sigma) / Z
    want = (reference.sigma_multiplicity
            * np.exp(-2 * 0.3 * reference.sigma_support.astype(float))
            / reference.partition_reduced)
    assert np.allclose(reference.sigma_probability, want, atol=1e-14)
    # spin-flip symmetry of the magnetization
    assert np.allclose(reference.magnetization_probability,
                       reference.magnetization_probability[::-1], atol=1e-14)


def test_reference_magnetization_is_the_spin_sum_per_configuration():
    lattice = IsingLattice(2, 3, 0.3)
    reference = boltzmann_reference(lattice)
    # bit k set means spin k is up (+1)
    want = [sum(1 if (config >> k) & 1 else -1 for k in range(6)) for config in range(1 << 6)]
    assert reference.magnetization.tolist() == want
    for m, p in zip(reference.magnetization_support, reference.magnetization_probability):
        assert math.isclose(reference.probabilities[reference.magnetization == m].sum(), p,
                            rel_tol=1e-12)


def test_tally_regroups_counts_by_label():
    labels = np.array([4, -2, 4, 0, -2, 7])
    assert tally({0: 3, 2: 5, 1: 2, 4: 1, 3: 6}, labels) == {-2: 3, 0: 6, 4: 8}
    assert list(tally({5: 1, 1: 2, 3: 4}, labels)) == [-2, 0, 7]  # ascending keys
    assert tally({}, labels) == {}


def test_tally_matches_the_raw_draws():
    reference = boltzmann_reference(IsingLattice(3, 3, 0.2))
    rng = np.random.default_rng(13)
    configs = rng.integers(0, 1 << 9, size=2000)
    counts = {int(c): int(n) for c, n in zip(*np.unique(configs, return_counts=True))}
    # the same tally straight from the raw draws
    for labels in (reference.sigma, reference.magnetization):
        keys, n = np.unique(labels[configs], return_counts=True)
        assert tally(counts, labels) == {int(k): int(c) for k, c in zip(keys, n)}


def test_reference_refuses_oversized_lattices():
    with pytest.raises(ValueError):
        boltzmann_reference(IsingLattice(5, 5, 0.1))


def test_two_by_two_reduced_partition_value():
    # 2 + 12 e**(-0.8) + 2 e**(-1.6) at beta J = 0.1
    reference = boltzmann_reference(IsingLattice(2, 2, 0.1))
    want = 2 + 12 * math.exp(-0.8) + 2 * math.exp(-1.6)
    assert math.isclose(reference.partition_reduced, want, rel_tol=1e-13)


# --- goodness of fit -----------------------------------------------------------------

def test_chi2_is_calibrated_across_seeds():
    # sampling straight from the reference: p > 0.01 should hold ~99% of the time
    probs = {0: 0.3, 4: 0.45, 8: 0.15, 12: 0.1}
    values = sorted(probs)
    p = np.array([probs[v] for v in values])
    passed = 0
    trials = 300
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        draw = rng.multinomial(4000, p)
        observed = {v: int(c) for v, c in zip(values, draw) if c}
        result = distribution_tests(observed, probs)
        passed += result.p_value > 0.01
    assert passed >= 291


def test_chi2_rejects_a_wrong_distribution():
    probs = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
    rng = np.random.default_rng(9)
    draw = rng.multinomial(4000, [0.4, 0.3, 0.2, 0.1])
    observed = {v: int(c) for v, c in enumerate(draw)}
    result = distribution_tests(observed, probs)
    assert result.p_value < 1e-6


def test_tvd_limits():
    exact = distribution_tests({0: 500, 1: 500}, {0: 0.5, 1: 0.5})
    assert exact.tvd < 0.05
    skewed = distribution_tests({0: 1000}, {0: 0.5, 1: 0.5})
    assert math.isclose(skewed.tvd, 0.5, rel_tol=1e-12)


def test_observed_outside_support_fails_hard():
    result = distribution_tests({0: 10, 7: 1}, {0: 1.0})
    assert result.p_value == 0.0
    assert math.isinf(result.chi2_stat)


def test_small_expected_bins_are_pooled():
    probs = {0: 0.995, 1: 0.004, 2: 0.001}
    observed = {0: 995, 1: 4, 2: 1}
    result = distribution_tests(observed, probs)
    assert result.pooled_bins == 2
    assert result.dof == 1
    assert result.p_value > 0.5


def test_reference_probabilities_must_normalize():
    with pytest.raises(ValueError):
        distribution_tests({0: 1}, {0: 0.5, 1: 0.4})


# --- report helpers --------------------------------------------------------------------

def test_sigma_histogram_rows_scale_theory_per_state():
    lattice = IsingLattice(2, 2, 0.1)
    reference = boltzmann_reference(lattice)
    counts = {0: 380, 4: 560, 8: 60}
    rows = sigma_histogram_rows(counts, reference, kept_shots=1000)
    assert [r["sigma"] for r in rows] == [0, 4, 8]
    assert [r["observed"] for r in rows] == [380, 560, 60]
    assert math.isclose(rows[0]["observed_per_state"], 380 / 2, rel_tol=1e-12)
    assert math.isclose(rows[1]["observed_per_state"], 560 / 12, rel_tol=1e-12)
    # per-state theory: kept * exp(-2 beta J sigma) / Z_reduced
    want0 = 1000 * 1.0 / reference.partition_reduced
    assert math.isclose(rows[0]["theory"], want0, rel_tol=1e-12)
    # times the density of states, theory is the expected count per sigma
    for row, g, p in zip(rows, reference.sigma_multiplicity, reference.sigma_probability):
        assert math.isclose(row["theory"] * g, 1000 * float(p), rel_tol=1e-12)


def test_magnetization_rows_cover_the_full_support():
    rows = magnetization_rows({-4: 10, 0: 30, 4: 10}, num_sites=4)
    assert [r["m"] for r in rows] == [-4, -2, 0, 2, 4]
    assert [r["probability"] for r in rows] == [0.2, 0.0, 0.6, 0.0, 0.2]


def test_write_csv_is_deterministic(tmp_path):
    rows = [{"a": 1, "b": 0.1 + 0.2}, {"a": 2, "b": 1.0 / 3.0}]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_csv(first, rows, ["a", "b"])
    write_csv(second, rows, ["a", "b"])
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text().splitlines()
    assert text[0] == "a,b"
    # repr round-trip: reading the floats back reproduces them exactly
    assert float(text[1].split(",")[1]) == 0.1 + 0.2
