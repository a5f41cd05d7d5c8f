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

The paper's U is H on the index register C, the exponent oracle keyed on
C, then gates that never read or write C (the flag and the transduction
ladder).  C's qubits are then global in Haner and Steiger's sense
(arXiv:1704.01127): U|0> = v * sum_c |c> (x) V|lambda(c)>, v =
(1/sqrt 2)**|C|, meets only the distinct exponents.  ``_keyed_plan`` reads
that form off the circuit, and ``run_amplified`` then writes the oracle's
output and runs V once per distinct exponent on a compact state, whose C
holds one value per distinct exponent, computing the Hadamards.  A row of
the state (2**|C| contiguous amplitudes, one value of the other
registers) is its compact row gathered through the oracle's inverse
index; a target that leaves C free takes each row wholly or not at all,
so the closed-form factors scale the compact rows, and each row that
holds a non-zero is gathered from them once.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .simcore import (_SQRT1_2, Circuit, Gate, RegisterLayout, RegisterXor, StateVector, _walk, apply_circuit,
                      register_selector)

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
    view = state.select(conditions)
    view *= -1.0
    return state


def postselect_probability(state: StateVector, conditions: Mapping[str, int]) -> float:
    """Joint probability of reading the given values on the named registers: ``StateVector.mass``."""
    return state.mass(conditions)


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

    Applies U once, reads u**2 off U|0> (``postselect_probability``), and
    scales the target slice and the rest by their closed-form factors in
    place (``StateVector.scale``).  The whole state is allocated first, so
    a state too large to hold fails before any other work.

    When U has the paper's form (``_keyed_plan``) and the target leaves C
    free, as for every Ising synthesis and every table whose distinct
    exponents fit in fewer qubits than C: U|0> is built on the compact
    state (``_compact_u``), the live rows of the target slice are gathered
    into the zeroed state to read u**2, the compact state is scaled, and
    every live row is gathered once more.  No other row is written: it keeps the
    zeroed state's +0.0.  u**2 is the float the dense path reads, and each
    live row the bytes the dense U and rescale write.  Any other U, or a
    target that fixes a qubit of C, runs dense on the whole state.
    """
    layout = spec.synthesis.layout
    key = layout.names()[0]
    state = StateVector(layout, np.zeros(1 << layout.total_qubits, dtype))
    plan = None if key in spec.target else _keyed_plan(spec.synthesis)
    if plan is None:
        state.amplitudes[0] = 1
        apply_circuit(state, spec.synthesis, validate=False)
        u_sq = postselect_probability(state, spec.target)
        if spec.nu:
            state.scale(spec.target, *_amplification_factors(u_sq, spec.nu))
        return state, u_sq
    op, later, values, index, m = plan
    compact = _compact_u(layout, op, later, values, m, dtype)
    rows = state.amplitudes.reshape(-1, 1 << layout.width(key))
    crows = compact.amplitudes.reshape(rows.shape[0], -1)[:, :len(values)]
    live = crows.any(axis=1)
    inside = np.zeros((2,) * (layout.total_qubits - layout.width(key)), bool)
    inside[register_selector(layout.without([key]), spec.target)] = True
    _gather(rows, crows, index, live & inside.reshape(-1))
    u_sq = postselect_probability(state, spec.target)
    if spec.nu:
        compact.scale(spec.target, *_amplification_factors(u_sq, spec.nu))
    _gather(rows, crows, index, live)
    return state, u_sq


def _keyed_plan(circuit: Circuit) -> tuple | None:
    """How ``run_amplified`` runs U on its compact state, read off the circuit alone, or None.

    None unless the circuit has U's form: instructions 0..k-1 are one
    uncontrolled H on each qubit of C (the layout's first register, k
    qubits), instruction k is a ``RegisterXor`` keyed on C, every later
    instruction is a gate on qubits from k up, and the XOR's distinct values
    fit in m < k qubits (else the compact state would be as large as the
    state).  Else (the XOR, the later gates, the distinct values in
    ascending order, the inverse index that maps each value of C to its
    distinct value's place, m).
    """
    layout, ops = circuit.layout, circuit.gates
    key = layout.names()[0]
    k = layout.width(key)
    if (len(ops) <= k or not isinstance(ops[k], RegisterXor) or ops[k].key_register != key
            or sorted(g.target for g in ops[:k] if isinstance(g, Gate) and g.kind == "h" and not g.controls)
            != list(range(k))
            or not all(isinstance(g, Gate) and min(g.qubits) >= k for g in ops[k + 1:])):
        return None
    op = ops[k]
    op.validate(layout)
    present = np.bincount(op.values) > 0  # np.unique's values and inverse, without its sort
    values = np.flatnonzero(present)
    m = max(1, (len(values) - 1).bit_length())
    if m >= k:
        return None
    return op, ops[k + 1:], values, (np.cumsum(present) - 1)[op.values], m


def _compact_u(layout: RegisterLayout, op: RegisterXor, later: list, values: np.ndarray, m: int,
               dtype) -> StateVector:
    """U|0> on the compact state: ``layout`` with C narrowed to m qubits, one key value per distinct
    XOR value (``_keyed_plan``'s output).

    The Hadamards on C and the oracle leave v = (1/sqrt 2)**k, k = |C|, at
    |j>_C |values[j]> for each distinct value's place j, +0.0 elsewhere; v
    is k products by 1/sqrt 2 in the state's dtype, as from |0> each
    Hadamard on C writes the product of the one non-zero it reads.  v is
    written there directly, then every later gate runs through
    ``apply_circuit``, its qubits shifted down by k - m.  Row r of the
    compact state, its first ``len(values)`` entries, gathered through the
    plan's inverse index, is row r of U|0>.
    """
    k = layout.width(op.key_register)
    down = k - m
    small = RegisterLayout([(op.key_register, m)] + [(r, layout.width(r)) for r in layout.names()[1:]])
    compact = StateVector(small, np.zeros(1 << small.total_qubits, dtype))
    v = compact.amplitudes.dtype.type(1)
    for _ in range(k):
        v *= _SQRT1_2
    compact.amplitudes[np.arange(len(values)) | values << small.offset(op.target_register)] = v
    apply_circuit(compact, Circuit(small, [
        Gate(g.kind, g.target - down, g.angle, None if g.target2 is None else g.target2 - down,
             tuple((q - down, p) for q, p in g.controls)) for g in later]), validate=False)
    return compact


def _gather(rows: np.ndarray, crows: np.ndarray, index: np.ndarray, which: np.ndarray) -> None:
    """Write each row ``which`` marks from its compact row through ``index``: one ``np.take``
    per row, the rows split among the workers (``simcore._walk``)."""
    written = np.flatnonzero(which)

    def share(lo, hi):
        for r in written[lo:hi]:
            np.take(crows[r], index, out=rows[r], mode="clip")

    _walk(share, len(written), len(written) * rows.shape[1])


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
