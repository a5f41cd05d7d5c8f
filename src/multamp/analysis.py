"""Classical oracles and diagnostics for the synthesized distributions.

Everything here is computed without the simulator: exact post-selected
norms from the exponent table, a brute-force Boltzmann reference for
small lattices, and goodness-of-fit tests (Pearson chi-square with
small-bin pooling, plus total variation distance) for sampled counts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import stats

from .transduce import check_gamma, phi_product

CHI2_MIN_EXPECTED = 5.0  # pool bins below this expected count


@dataclass(frozen=True)
class NormSummary:
    """Exact pre-amplification norms for one exponent table."""

    a_bar: float         # sqrt(sum_l gamma**(-2 lambda~_l))
    phi: float           # direct-variant cosine-product prefactor
    u_direct: float      # phi * a_bar / sqrt(N)
    u_controlled: float  # a_bar / sqrt(N)


def exact_norms(lambdas, gamma: float, d: int) -> NormSummary:
    lambdas = np.asarray(lambdas)
    if lambdas.ndim != 1 or lambdas.shape[0] < 1:
        raise ValueError("lambdas must be a non-empty 1-D array")
    check_gamma(gamma)
    a_bar = math.sqrt(float(np.sum(np.exp(-2.0 * math.log(gamma) * lambdas))))
    phi = phi_product(gamma, d)
    root_n = math.sqrt(lambdas.shape[0])
    return NormSummary(a_bar, phi, phi * a_bar / root_n, a_bar / root_n)


@dataclass(eq=False)
class BoltzmannReference:
    """Exact Boltzmann data for one lattice, by brute force over 2**N."""

    beta_j: float
    sigma: np.ndarray                     # opposing-pair count per configuration
    magnetization: np.ndarray             # sum of spins +-1 per configuration
    probabilities: np.ndarray             # P(l), normalized
    partition_reduced: float              # sum_l exp(-2 beta_j sigma_l)
    sigma_support: np.ndarray             # sorted distinct sigma values
    sigma_multiplicity: np.ndarray        # density of states g(sigma)
    sigma_probability: np.ndarray         # P(sigma)
    magnetization_support: np.ndarray     # -N..N step 2
    magnetization_probability: np.ndarray


def boltzmann_reference(lattice) -> BoltzmannReference:
    """Exact reference distribution; lattice.sigma refuses lattices beyond 2**20 states."""
    sigma = lattice.sigma
    n = lattice.num_sites
    weights = np.exp(-2.0 * lattice.beta_j * sigma.astype(float))
    partition = float(weights.sum())
    probs = weights / partition

    support, inverse = np.unique(sigma, return_inverse=True)
    mult = np.bincount(inverse)
    psig = np.bincount(inverse, weights=probs)

    mag = 2 * np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64) - n
    msupport = np.arange(-n, n + 1, 2, dtype=np.int64)
    pmag = np.array([float(probs[mag == m].sum()) for m in msupport])

    return BoltzmannReference(
        beta_j=float(lattice.beta_j),
        sigma=sigma,
        magnetization=mag,
        probabilities=probs,
        partition_reduced=partition,
        sigma_support=support,
        sigma_multiplicity=mult,
        sigma_probability=psig,
        magnetization_support=msupport,
        magnetization_probability=pmag,
    )


@dataclass(frozen=True)
class DistributionTests:
    chi2_stat: float
    dof: int
    p_value: float
    tvd: float
    pooled_bins: int


def distribution_tests(observed, probabilities) -> DistributionTests:
    """Pearson chi-square (pooled) and TVD of counts against probabilities.

    ``observed`` and ``probabilities`` are aligned arrays over one sorted
    support (e.g. a reference's ``sigma_support``) and the probabilities
    sum to 1.  A count in a zero-probability bin makes the test fail hard.
    Bins with expected count below CHI2_MIN_EXPECTED are pooled with their
    successors.
    """
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    if obs.shape != probs.shape:
        raise ValueError(f"observed counts {obs.shape} and probabilities {probs.shape} "
                         "are not aligned")
    total = float(obs.sum())
    if total <= 0:
        raise ValueError("observed counts are empty")
    if not abs(probs.sum() - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError("reference probabilities must sum to 1")
    if np.any((probs == 0.0) & (obs > 0)):
        return DistributionTests(math.inf, max(len(obs) - 1, 1), 0.0,
                                 _tvd(obs, probs, total), len(obs))
    exp = probs * total

    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= CHI2_MIN_EXPECTED:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if pooled_exp:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)

    pooled_obs = np.array(pooled_obs)
    pooled_exp = np.array(pooled_exp)
    stat = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
    dof = len(pooled_obs) - 1
    p = float(stats.chi2.sf(stat, dof)) if dof >= 1 else 1.0
    return DistributionTests(stat, max(dof, 1), p, _tvd(obs, probs, total), len(pooled_obs))


def _tvd(obs: np.ndarray, probs: np.ndarray, total: float) -> float:
    return float(0.5 * np.abs(obs / total - probs).sum())


def histograms(counts: Mapping[int, int], layout,
               reference: BoltzmannReference) -> tuple[np.ndarray, np.ndarray]:
    """Sigma and magnetization counts of sampled basis states.

    ``counts`` maps basis indices of ``layout`` to shot counts; register C
    holds the spin configuration.  Returns int64 counts aligned with
    ``reference.sigma_support`` and ``reference.magnetization_support``.
    """
    index = np.fromiter(counts, dtype=np.int64, count=len(counts))
    weights = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    configs = layout.values(index, "C")

    def binned(support, labels):
        bins = np.searchsorted(support, labels[configs])
        return np.bincount(bins, weights, minlength=support.shape[0]).astype(np.int64)

    return (binned(reference.sigma_support, reference.sigma),
            binned(reference.magnetization_support, reference.magnetization))


def sigma_histogram_rows(sigma_counts: np.ndarray, reference: BoltzmannReference,
                         kept_shots: int) -> list[dict]:
    """Rows for the per-sigma histogram CSV, from counts aligned with ``sigma_support``.

    observed_per_state divides the raw count by the density of states
    g(sigma); theory is the expected per-state count at the same scale,
    kept_shots * exp(-2 beta_j sigma) / partition_reduced.
    """
    rows = []
    for s, g, observed in zip(reference.sigma_support.tolist(),
                              reference.sigma_multiplicity.tolist(), sigma_counts.tolist()):
        theory = kept_shots * math.exp(-2.0 * reference.beta_j * s) / reference.partition_reduced
        rows.append({
            "sigma": s,
            "observed": observed,
            "observed_per_state": observed / g,
            "theory": theory,
        })
    return rows


def magnetization_rows(mag_counts: np.ndarray, reference: BoltzmannReference) -> list[dict]:
    """Rows (m, probability) over ``magnetization_support``, -N..N step 2."""
    total = float(mag_counts.sum())
    if total <= 0:
        raise ValueError("magnetization counts are empty")
    return [{"m": m, "probability": c / total}
            for m, c in zip(reference.magnetization_support.tolist(), mag_counts.tolist())]


def write_csv(path, rows: list[dict], columns: list[str]):
    """Stable CSV: fixed column order, repr-round-trip floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value
