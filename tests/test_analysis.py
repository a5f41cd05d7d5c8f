"""Exact norms, reference distributions, and goodness-of-fit machinery."""

import math

import numpy as np
import pytest

import oracles
from multamp.analysis import (
    boltzmann_reference,
    distribution_tests,
    exact_norms,
    histograms,
    magnetization_rows,
    sigma_histogram_rows,
    write_csv,
)
from multamp.ising import IsingLattice
from multamp.simcore import RegisterLayout
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


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_exact_norms_refuses_a_base_that_is_not_finite(gamma):
    # an infinite base would give 0 * inf = NaN for a zero exponent
    with pytest.raises(ValueError, match="gamma"):
        exact_norms([0, 1], gamma, 3)


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


def test_histograms_bin_counts_over_the_reference_support():
    reference = boltzmann_reference(IsingLattice(2, 2, 0.1))  # sigma support 0, 4, 8
    layout = RegisterLayout([("C", 4), ("D", 2)])
    # configurations 0 and 15 (sigma 0, m = -4 and +4), 1 (sigma 4, m = -2),
    # 6 (checkerboard: sigma 8, m = 0); the D bits above C must be ignored
    counts = {0: 3, 15 | (2 << 4): 5, 1 | (3 << 4): 2, 6: 7}
    sigma_counts, mag_counts = histograms(counts, layout, reference)
    assert sigma_counts.tolist() == [8, 2, 7]
    assert mag_counts.tolist() == [3, 2, 7, 0, 5]
    assert sigma_counts.dtype == mag_counts.dtype == np.int64
    empty = histograms({}, layout, reference)
    assert [a.tolist() for a in empty] == [[0, 0, 0], [0, 0, 0, 0, 0]]


def test_histograms_match_the_raw_draws():
    reference = boltzmann_reference(IsingLattice(3, 3, 0.2))
    layout = RegisterLayout([("C", 9), ("t", 1)])
    rng = np.random.default_rng(13)
    configs = rng.integers(0, 1 << 9, size=2000)
    counts = {int(c): int(n) for c, n in zip(*np.unique(configs, return_counts=True))}
    got = histograms(counts, layout, reference)
    # the same histograms straight from the raw draws
    for labels, support, hist in ((reference.sigma, reference.sigma_support, got[0]),
                                  (reference.magnetization, reference.magnetization_support,
                                   got[1])):
        assert hist.tolist() == [int(np.sum(labels[configs] == v)) for v in support]


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
    probs = np.array([0.3, 0.45, 0.15, 0.1])
    passed = 0
    trials = 300
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        draw = rng.multinomial(4000, probs)
        result = distribution_tests(draw, probs)
        passed += result.p_value > 0.01
    assert passed >= 291


def test_chi2_rejects_a_wrong_distribution():
    probs = np.full(4, 0.25)
    rng = np.random.default_rng(9)
    draw = rng.multinomial(4000, [0.4, 0.3, 0.2, 0.1])
    result = distribution_tests(draw, probs)
    assert result.p_value < 1e-6


def test_tvd_limits():
    exact = distribution_tests([500, 500], [0.5, 0.5])
    assert exact.tvd < 0.05
    skewed = distribution_tests([1000, 0], [0.5, 0.5])
    assert math.isclose(skewed.tvd, 0.5, rel_tol=1e-12)


def test_count_in_zero_probability_bin_fails_hard():
    result = distribution_tests([10, 1], [1.0, 0.0])
    assert result.p_value == 0.0
    assert math.isinf(result.chi2_stat)


def test_small_expected_bins_are_pooled():
    result = distribution_tests([995, 4, 1], [0.995, 0.004, 0.001])
    assert result.pooled_bins == 2
    assert result.dof == 1
    assert result.p_value > 0.5


def test_reference_probabilities_must_normalize():
    for probabilities in ([0.5, 0.4], [math.nan, 0.5]):
        with pytest.raises(ValueError, match="sum to 1"):
            distribution_tests([1, 0], probabilities)


def test_counts_and_probabilities_must_align():
    with pytest.raises(ValueError, match="not aligned"):
        distribution_tests([5, 5], [0.5, 0.25, 0.25])


# --- report helpers --------------------------------------------------------------------

def test_sigma_histogram_rows_scale_theory_per_state():
    lattice = IsingLattice(2, 2, 0.1)
    reference = boltzmann_reference(lattice)
    rows = sigma_histogram_rows(np.array([380, 560, 60]), reference, kept_shots=1000)
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
    reference = boltzmann_reference(IsingLattice(2, 2, 0.1))
    rows = magnetization_rows(np.array([10, 0, 30, 0, 10]), reference)
    assert [r["m"] for r in rows] == [-4, -2, 0, 2, 4]
    assert [r["probability"] for r in rows] == [0.2, 0.0, 0.6, 0.0, 0.2]
    # plain Python numbers, so the CSV (repr) and JSON outputs stay as they were
    assert all(type(r["m"]) is int and type(r["probability"]) is float for r in rows)


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
