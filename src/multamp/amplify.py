"""Amplitude amplification around a register-value target subspace.

One iterate is Q = -I_s U^-1 I_t U, where U is the synthesis circuit,
I_t flips the sign of every basis state whose registers match the target
predicate, and I_s flips the single all-zero source state.  After nu
iterates the post-selected probability is sin((2 nu + 1) asin u)**2 with
u the pre-amplification post-selected norm; the conditional distribution
inside the target slice is unchanged at every nu.

Q acts only on span{Pi U|0>, (1 - Pi) U|0>}, so ``run_amplified`` applies
U once and rescales the two halves in closed form (Brassard, Hoyer, Mosca
and Tapp, quant-ph/0005055).  ``grover_iterate`` is the iterate-by-iterate
reference it is tested against.  Its reflections act on the amplitudes
directly; their gate-level specifications (a multi-controlled Z for I_t,
an X-wrapped one for I_s) live with the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .simcore import Circuit, StateVector, apply_circuit, register_selector

NU_RULES = ("paper", "optimal")


class AmplificationSpec:
    """Synthesis circuit plus the reflection data for its iterates.

    ``target`` maps register names to required values (the |t> subspace);
    the source is the all-zero basis state.
    """

    def __init__(self, synthesis: Circuit, target: Mapping[str, int], nu: int):
        if nu < 0:
            raise ValueError("nu must be >= 0")
        if not target:
            raise ValueError("target predicate must name at least one register")
        register_selector(synthesis.layout, target)  # KeyError/ValueError on a bad register value
        self.synthesis = synthesis
        self.target = dict(target)
        self.nu = int(nu)


def phase_flip(state: StateVector, conditions: Mapping[str, int]) -> StateVector:
    """Negate every amplitude whose registers match the predicate.

    An empty predicate matches everything (a global sign).  Acts in place.
    """
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    psi[register_selector(state.layout, conditions)] *= -1.0
    return state


def postselect_probability(state: StateVector, conditions: Mapping[str, int]) -> float:
    """Joint probability of reading the given values on the named registers."""
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    return float(np.sum(np.abs(psi[register_selector(state.layout, conditions)]) ** 2))


def grover_iterate(state: StateVector, spec: AmplificationSpec) -> StateVector:
    """Advance U Q^k |0> to U Q^(k+1) |0>, in place.

    Applies the conjugated iterate U Q U^-1 = -(U I_s U^-1) I_t, which
    equals one application of Q = -I_s U^-1 I_t U in the pre-synthesis
    frame.  The source flip targets the single all-zero basis state.
    """
    phase_flip(state, spec.target)
    apply_circuit(state, spec.synthesis.inverse(), validate=False)
    state.amplitudes[0] *= -1.0  # I_s: the source predicate matches index 0 only
    apply_circuit(state, spec.synthesis, validate=False)
    np.negative(state.amplitudes, out=state.amplitudes)
    return state


def _amplification_factors(u_sq: float, nu: int) -> tuple[float, float]:
    """Factors for the slice and the rest: sin(k t)/sin(t) and cos(k t)/cos(t),
    k = 2 nu + 1, sin(t) = u.  An empty part (the slice at u = 0, the rest
    at u = 1) gets the limit, k or (-1)**nu k."""
    k = 2 * nu + 1
    if u_sq <= 0.0:
        return float(k), 1.0
    if u_sq >= 1.0:
        return (-1.0) ** nu, (-1.0) ** nu * k
    theta = math.asin(math.sqrt(u_sq))
    return math.sin(k * theta) / math.sin(theta), math.cos(k * theta) / math.cos(theta)


def run_amplified(spec: AmplificationSpec, dtype=np.complex128) -> tuple[StateVector, float]:
    """Prepare U Q^nu |0> from scratch; returns (state, pre-amp u**2).

    Applies U once and scales the target slice of U|0> and the rest by
    their closed-form factors, in place: only the slice is copied.
    """
    state = StateVector.zero_state(spec.synthesis.layout, dtype=dtype)
    apply_circuit(state, spec.synthesis, validate=False, from_zero=True)
    u_sq = postselect_probability(state, spec.target)
    if spec.nu:
        inside, outside = _amplification_factors(u_sq, spec.nu)
        psi = state.amplitudes.reshape((2,) * state.num_qubits)
        sel = register_selector(state.layout, spec.target)
        block = psi[sel] * inside
        state.amplitudes *= outside
        psi[sel] = block
    return state, u_sq


def select_nu(u: float, rule: str = "paper") -> int:
    """Iteration count for a pre-amplification norm u.

    paper: round(pi / (4 u)), half away from zero.
    optimal: the nu in {floor, ceil} of pi/(4 asin u) - 1/2 maximizing
    sin((2 nu + 1) asin u)**2, preferring the smaller count on ties.
    """
    if not 0.0 < u <= 1.0:
        raise ValueError("u must be in (0, 1]")
    if rule not in NU_RULES:
        raise ValueError(f"rule must be one of {NU_RULES}, got {rule!r}")
    if rule == "paper":
        return int(math.floor(math.pi / (4.0 * u) + 0.5))
    theta = math.asin(u)
    raw = math.pi / (4.0 * theta) - 0.5
    lo = max(0, math.floor(raw))
    hi = max(0, math.ceil(raw))
    best = min(
        sorted({lo, hi}),
        key=lambda nu: (-predicted_postamp(u, nu), nu),
    )
    return int(best)


def predicted_postamp(u: float, nu: int) -> float:
    """sin((2 nu + 1) asin u)**2, the rotation law for nu iterates."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must be in [0, 1]")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    return math.sin((2 * nu + 1) * math.asin(u)) ** 2
