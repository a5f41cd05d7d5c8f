"""Boltzmann state synthesis for the periodic square-lattice Ising model.

Spins live on an rows x cols torus; the pair list is (site, right
neighbor) and (site, down neighbor) for every site, exactly 2N pairs,
which double-counts physical bonds when rows == 2 or cols == 2 (kept
deliberately; the per-bond weights just square).  The opposing-pair count
Sigma_l of a configuration is always even, the Boltzmann amplitudes are
alpha_l = exp(-beta_j * Sigma_l) = gamma**(-Sigma_l / 2) with
gamma = exp(+2 beta_j), so the exponents lambda_l = Sigma_l / 2 are exact
integers and nothing saturates.

The pipeline loads the exponents as the keyed XOR the amplitude-table
pipeline uses, RegisterXor("C", "D", Sigma/2), through the same
transduce.build_synthesis.  build_ising_L is the gate-level circuit that
oracle stands for, kept as its tested specification: Hadamards put the
exponent register D in the phase basis, each pair XORs its spin parity
into one spin qubit and kicks phase pi * x / 2**d onto D when the spins
differ, and an inverse Fourier transform turns the accumulated phase
into the binary value Sigma/2.  An ancilla prepared in |1> rides along
to match the usual phase-kickback drawing; with phases written directly
on D it stays untouched, so the simulated state leaves it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analysis
from .amplify import AmplificationSpec, postselect_probability, predicted_postamp, run_amplified, select_nu
# apply_circuit is unused here; bench/spans.py patches and restores it in every module holding it
from .simcore import Circuit, RegisterLayout, StateVector, apply_circuit, h, phase, swap, x  # noqa: F401
from .transduce import (
    AmplitudeTable,
    OverflowLambdaError,
    TransductionPlan,
    build_synthesis,
    make_plan,
)

# "inverse critical temperature" of the infinite square lattice in 1/J
# units; relative-temperature runs use beta*J = 2.269 * relative_beta
CRITICAL_BETA_TIMES_J = 2.269
# largest beta_j whose gamma = exp(2 beta_j) is still a finite float
MAX_BETA_J = math.log(np.finfo(float).max) / 2.0


@dataclass(frozen=True)
class IsingLattice:
    rows: int
    cols: int
    beta_j: float  # dimensionless product beta * J, ferromagnetic J > 0

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("lattice needs rows >= 2 and cols >= 2")
        if not 0.0 < self.beta_j <= MAX_BETA_J:
            raise ValueError(f"beta_j must be positive and at most {MAX_BETA_J:.2f} "
                             f"(gamma = exp(2 beta_j) overflows), got {self.beta_j}")

    @property
    def num_sites(self) -> int:
        return self.rows * self.cols

    def site(self, r: int, c: int) -> int:
        return (r % self.rows) * self.cols + (c % self.cols)

    def pairs(self) -> list[tuple[int, int]]:
        """(site, right) and (site, down) for every site: 2N ordered pairs."""
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                s = self.site(r, c)
                out.append((s, self.site(r, c + 1)))
                out.append((s, self.site(r + 1, c)))
        return out

    @cached_property
    def sigma(self) -> np.ndarray:
        """Sigma of every configuration, read-only; brute force, 20 sites max."""
        n = self.num_sites
        if n > 20:
            raise ValueError(f"brute force capped at 20 sites, got {n}")
        idx = np.arange(1 << n, dtype=np.int64)
        sig = np.zeros(1 << n, dtype=np.int64)
        for i, j in self.pairs():
            sig += ((idx >> i) ^ (idx >> j)) & 1
        sig.flags.writeable = False
        return sig

    @classmethod
    def from_relative_beta(cls, rows: int, cols: int, relative_beta: float) -> "IsingLattice":
        return cls(rows, cols, CRITICAL_BETA_TIMES_J * relative_beta)


class BoltzmannTarget(AmplitudeTable):
    """The amplitude table of one lattice: the exponents are the exact
    integers Sigma/2, never the float-log route."""

    @classmethod
    def from_lattice(cls, lattice: IsingLattice, d: int | None = None) -> "BoltzmannTarget":
        sigma = lattice.sigma
        if np.any(sigma & 1):
            raise AssertionError("parity violation: Sigma must be even on a torus")
        lambdas = sigma // 2
        lam_max = int(lambdas.max())
        d_min = max(1, lam_max.bit_length())
        if d is None:
            d = d_min
        elif d < 1:
            raise ValueError(f"d must be >= 1, got d={d}")
        elif d < d_min:
            raise OverflowLambdaError(
                f"d={d} cannot hold max Sigma/2 = {lam_max}; need d >= {d_min}"
            )
        gamma = math.exp(2.0 * lattice.beta_j)
        with np.errstate(under="ignore"):
            alphas = np.exp(-lattice.beta_j * sigma.astype(float))
        return cls(alphas, gamma, int(d), lambdas)


def qft_gates(qubits) -> list:
    """Forward transform |s> -> 2**(-d/2) sum_x exp(2 pi i x s / 2**d) |x>
    on a little-endian register (qubits[k] holds bit k of the value)."""
    qs = list(qubits)
    d = len(qs)
    out = []
    for j in reversed(range(d)):
        out.append(h(qs[j]))
        for m in range(j):
            out.append(phase(math.pi / (1 << (j - m)), qs[j], controls=((qs[m], 1),)))
    for j in range(d // 2):
        out.append(swap(qs[j], qs[d - 1 - j]))
    return out


def inverse_qft_gates(qubits) -> list:
    return [g.inverse() for g in reversed(qft_gates(qubits))]


def boltzmann_layout(lattice: IsingLattice, d: int, variant: str,
                     zero_flag: bool = False) -> RegisterLayout:
    regs = [("C", lattice.num_sites), ("D", d)]
    if variant == "controlled":
        regs.append(("E", d))
    regs.append(("a", 1))
    if zero_flag:
        regs.append(("z", 1))
    return RegisterLayout(regs)


def build_ising_L(lattice: IsingLattice, d: int, layout: RegisterLayout) -> Circuit:
    """Gate-level exponent oracle: |l>_C |0>_D -> |l>_C |Sigma_l / 2>_D.

    H on D, ancilla to |1>, then per pair (i, j): a CNOT folds the spin
    parity into qubit j, d controlled-Phase(pi * 2**k / 2**d) gates
    between qubit j and D qubit k kick the pair's phase onto D, and the
    CNOT uncomputes.  The inverse Fourier transform (normalized
    convention) then reads the accumulated phase out as Sigma/2.
    """
    if layout.width("C") != lattice.num_sites:
        raise ValueError("C register width must equal the number of sites")
    if layout.width("D") != d:
        raise ValueError("D register width disagrees with d")
    n = lattice.num_sites
    if n <= 20:
        lam_max = int(lattice.sigma.max()) // 2
    else:
        lam_max = n
    if (1 << d) <= lam_max:
        raise OverflowLambdaError(f"d={d} cannot hold max Sigma/2 = {lam_max}")

    cq = list(layout.qubits("C"))
    dq = list(layout.qubits("D"))
    aq = layout.offset("a")
    gates = [h(q) for q in dq]
    gates.append(x(aq))
    for i, j in lattice.pairs():
        fold = x(cq[j], controls=((cq[i], 1),))
        gates.append(fold)
        for k in range(d):
            gates.append(phase(math.pi * (1 << k) / (1 << d), dq[k], controls=((cq[j], 1),)))
        gates.append(fold)
    gates.extend(inverse_qft_gates(dq))
    return Circuit(layout, gates)


@dataclass(frozen=True)
class SynthesisDiagnostics:
    """What one synthesis run measured and predicted."""

    rows: int
    cols: int
    beta_j: float
    variant: str
    gamma: float
    d: int
    total_qubits: int       # of the gate-level circuit, one more than the simulated state
    target_register: str
    nu: int
    u_sq: float             # statevector post-selection probability before iterates
    u_sq_oracle: float      # exact_norms prediction of the same
    predicted_postamp: float
    measured_postamp: float


def build_boltzmann_synthesis(lattice: IsingLattice, variant: str, d: int | None = None,
                              enforce_zero: bool = False) -> tuple[Circuit, BoltzmannTarget, TransductionPlan]:
    """H on C, Sigma/2 XORed into D (build_ising_L's action on D = 0), transduction."""
    target = BoltzmannTarget.from_lattice(lattice, d)
    plan = make_plan(variant, target.gamma, target.d)
    return build_synthesis(target, plan, enforce_zero), target, plan


def synthesize_boltzmann(lattice: IsingLattice, variant: str = "direct",
                         d: int | None = None, nu: int | None = None,
                         nu_rule: str = "paper",
                         enforce_zero: bool = False,
                         dtype=np.complex128) -> tuple[StateVector, SynthesisDiagnostics]:
    """Prepare the Boltzmann state and report the run's numbers.

    The returned state is U Q^nu |0>; post-selecting the target register
    (D == 0 direct, E == 0 controlled) on value 0 leaves the Boltzmann
    distribution over C.  nu defaults to the chosen rule applied to the
    exact-norms u; pass nu explicitly (0 for no amplification) to
    override.
    """
    circ, target, plan = build_boltzmann_synthesis(lattice, variant, d, enforce_zero)
    conditions = {"D": 0} if variant == "direct" else {"E": 0}
    norms = analysis.exact_norms(target.lambdas, target.gamma, target.d)
    u_oracle = norms.u_direct if variant == "direct" else norms.u_controlled
    nu_used = int(nu) if nu is not None else select_nu(u_oracle, nu_rule)

    state, u_sq = run_amplified(AmplificationSpec(circ, conditions, nu_used), dtype)
    return state, SynthesisDiagnostics(
        rows=lattice.rows,
        cols=lattice.cols,
        beta_j=lattice.beta_j,
        variant=variant,
        gamma=target.gamma,
        d=target.d,
        total_qubits=boltzmann_layout(lattice, target.d, variant, enforce_zero).total_qubits,
        target_register=next(iter(conditions)),
        nu=nu_used,
        u_sq=u_sq,
        u_sq_oracle=u_oracle ** 2,
        predicted_postamp=predicted_postamp(u_oracle, nu_used),
        measured_postamp=postselect_probability(state, conditions),
    )
