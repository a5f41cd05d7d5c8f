"""Multiplicative amplitude transduction.

Target amplitudes alpha_l in [0, 1] are re-expressed as gamma**(-lambda_l)
for a base gamma > 1, the exponent is truncated to an integer lambda~_l on
d bits, and a product of d single-qubit RotY gates synthesizes
gamma**(-lambda~) as a product of per-bit factors.  Two variants:

* direct: d uncontrolled RotY(-2*phi_k) act on the exponent register D
  itself; reading D == 0 leaves amplitude Phi * gamma**(-lambda~), where
  Phi is a lambda-independent cosine product (see phi_product).
* controlled: d RotY(2*psi_k) on a second register E, each controlled by
  one D qubit; reading E == 0 leaves amplitude gamma**(-lambda~) exactly
  and keeps lambda~ intact in D.

Amplitudes below the cutoff saturate at lambda~ = 2**d - 1; an exponent
that overflows d bits for a non-saturated amplitude is a hard error.
Whenever the layout holds the width-1 flag register z, build_T1 and
build_T2 emit the exact-zero form of their ladder: z flags the saturated
value of D and gates every rotation, so saturated entries get exactly
zero weight in the post-selected slice.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .simcore import (
    Circuit,
    RegisterLayout,
    RegisterXor,
    h,
    roty,
    x,
)

VARIANTS = ("direct", "controlled")
KEPT_REGISTER = {"direct": "D", "controlled": "E"}  # the register post-selection reads at 0


class OverflowLambdaError(ValueError):
    """A non-saturated amplitude needs an exponent outside [0, 2**d)."""


def plan_precision(cutoff_eps: float, rel_prec_delta: float) -> int:
    """Smallest d >= 1 with 2**d > -ln(cutoff_eps) / rel_prec_delta.

    d is the exponent-register width needed so that relative precision
    delta (gamma = e**delta) spans all amplitudes down to the cutoff.
    """
    if not 0.0 < cutoff_eps < 1.0:
        raise ValueError("cutoff_eps must be in (0, 1)")
    if not 0.0 < rel_prec_delta < math.inf:
        raise ValueError("rel_prec_delta must be positive and finite")
    ratio = -math.log(cutoff_eps) / rel_prec_delta
    if math.isinf(ratio):
        raise ValueError("rel_prec_delta too small: -ln(cutoff_eps) / rel_prec_delta overflows")
    return max(int(ratio).bit_length(), 1)


@dataclass(frozen=True)
class TransductionPlan:
    """Rotation schedule for one variant.

    ``angles[k]`` is the per-bit parameter: phi_k = arctan(gamma**(-2**k))
    for the direct variant, psi_k = arccos(gamma**(-2**k)) for the
    controlled one.  The builders turn these into RotY(-2*phi_k) or
    RotY(2*psi_k) gates.
    """

    variant: str
    gamma: float
    d: int
    angles: tuple


def _pow2(k: int) -> float:
    """2.0**k, or inf where that overflows a float; gamma**(-2**k) is then 0."""
    return math.ldexp(1.0, k) if k < sys.float_info.max_exp else math.inf


def make_plan(variant: str, gamma: float, d: int) -> TransductionPlan:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    check_gamma(gamma)
    if d < 1:
        raise ValueError("d must be >= 1")
    lg = math.log(gamma)
    # gamma**(-2**k) via exp to dodge float pow overflow at large k
    factors = [math.exp(-_pow2(k) * lg) for k in range(d)]
    if variant == "direct":
        angles = tuple(math.atan(f) for f in factors)
    else:
        angles = tuple(math.acos(f) for f in factors)
    return TransductionPlan(variant, float(gamma), int(d), angles)


def phi_product(gamma: float, d: int) -> float:
    """Direct-variant prefactor Phi = prod_k cos(phi_k).

    Telescopes to sqrt((1 - gamma**-2) / (1 - gamma**(-2**(d+1)))); tends
    to sqrt(1 - gamma**-2) as d grows.
    """
    check_gamma(gamma)
    if d < 1:
        raise ValueError("d must be >= 1")
    y = math.exp(-2.0 * math.log(gamma))
    return math.sqrt((1.0 - y) / (1.0 - y ** _pow2(d)))


@dataclass(eq=False)
class AmplitudeTable:
    """Integer exponents lambdas[l] on d bits for the amplitudes alphas[l] at base gamma."""

    alphas: np.ndarray
    gamma: float
    d: int
    lambdas: np.ndarray

    @property
    def num_entries(self) -> int:
        return int(self.alphas.shape[0])


def check_alphas(alphas) -> np.ndarray:
    """The amplitudes as a float array, every one in [0, 1]; NaN is rejected too."""
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
        raise ValueError("all amplitudes must lie in [0, 1]")
    return alphas


def check_gamma(gamma: float) -> None:
    """Raise unless the base gamma lies in (1, inf); NaN is rejected too."""
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"gamma must be > 1 and finite, got {gamma}")


def build_lambda_table(alphas, gamma: float, d: int, cutoff_eps: float) -> AmplitudeTable:
    """lambdas[l] = floor(-log_gamma(alphas[l])), or the saturation value 2**d - 1
    strictly below the cutoff (alpha == cutoff_eps is not saturated)."""
    alphas = check_alphas(alphas)
    if alphas.ndim != 1 or alphas.shape[0] < 1:
        raise ValueError("alphas must be a non-empty 1-D array")
    check_gamma(gamma)
    if not 1 <= d <= 63:
        raise ValueError(f"d must be in 1..63 (the exponents are int64), got {d}")
    if not 0.0 < cutoff_eps < 1.0:
        raise ValueError("cutoff_eps must be in (0, 1)")

    saturated = alphas < cutoff_eps
    lambdas = np.full(alphas.shape[0], (1 << d) - 1, dtype=np.int64)
    if np.any(~saturated):
        raw = -np.log(alphas[~saturated]) / math.log(gamma)
        # -log_gamma(alpha) of an exactly representable power of gamma can
        # land a hair below the integer; snap before flooring
        nearest = np.rint(raw)
        raw = np.where(np.abs(raw - nearest) < 1e-9, nearest, raw)
        lam = np.floor(raw).astype(np.int64)
        if np.any(lam >= (1 << d)):
            bad = int(np.argmax(lam))
            raise OverflowLambdaError(
                f"exponent {int(lam[bad])} needs more than d={d} bits for a "
                f"non-saturated amplitude (cutoff_eps={cutoff_eps})"
            )
        lambdas[~saturated] = lam
    return AmplitudeTable(alphas, float(gamma), int(d), lambdas)


def num_index_qubits(num_entries: int) -> int:
    n = int(num_entries).bit_length() - 1
    if num_entries < 2 or (1 << n) != num_entries:
        raise ValueError(f"table length must be a power of two >= 2, got {num_entries}")
    return n


def standard_layout(num_entries: int, d: int, variant: str, zero_flag: bool = False) -> RegisterLayout:
    """Index register C, exponent register D, plus E / z as needed."""
    regs = [("C", num_index_qubits(num_entries)), ("D", d)]
    if variant == "controlled":
        regs.append(("E", d))
    if zero_flag:
        regs.append(("z", 1))
    return RegisterLayout(regs)


def build_L_oracle(table: AmplitudeTable, layout: RegisterLayout) -> RegisterXor:
    """Exponent-loading oracle: XOR lambda~_l into D, keyed on C.

    A classically keyed basis permutation, exactly unitary and its own
    inverse.  On the intended input (D == |0> on every branch) it writes
    |l>|0> -> |l>|lambda~_l>; on any other D it XORs lambda~_l in.
    """
    if layout.width("C") != num_index_qubits(table.num_entries):
        raise ValueError("C register width does not match the table size")
    if layout.width("D") != table.d:
        raise ValueError("D register width does not match the table's d")
    op = RegisterXor("C", "D", table.lambdas)
    op.validate(layout)
    return op


def _zero_flag(layout: RegisterLayout, dq: list) -> tuple[list, tuple]:
    """Gates computing z = NOT(D == 2^d - 1), and z as one more rotation control;
    none when the layout has no z.  The flag is left computed (the direct
    variant rotates D); every post-selected branch carries z = 1."""
    if "z" not in layout:
        return [], ()
    if layout.width("z") != 1:
        raise ValueError("the exact-zero flag register 'z' must have width 1")
    zq = layout.offset("z")
    return [x(zq), x(zq, controls=tuple((q, 1) for q in dq))], ((zq, 1),)


def build_T1(plan: TransductionPlan, layout: RegisterLayout) -> Circuit:
    """Direct transduction: d uncontrolled RotY(-2*phi_k) on D.

    For a basis input |lambda~>_D the |0>_D output amplitude is
    phi_product(gamma, d) * gamma**(-lambda~).  Gated on the flag z,
    saturated branches keep D at 2^d - 1, outside the |0>_D slice.
    """
    if plan.variant != "direct":
        raise ValueError("build_T1 needs a direct-variant plan")
    if layout.width("D") != plan.d:
        raise ValueError("D register width does not match the plan")
    dq = list(layout.qubits("D"))
    gates, flag = _zero_flag(layout, dq)
    gates += [roty(-2.0 * phi, q, controls=flag) for phi, q in zip(plan.angles, dq)]
    return Circuit(layout, gates)


def build_T2(plan: TransductionPlan, layout: RegisterLayout) -> Circuit:
    """Controlled transduction: RotY(2*psi_k) on E_k controlled by D_k.

    Maps |lambda~>_D |0>_E so that the |lambda~>_D |0>_E output amplitude
    is gamma**(-lambda~) exactly, with no prefactor.  With the flag z, a
    NOT on E_0 anti-controlled on z moves saturated branches out of E == 0.
    It comes straight after the flag, before the ladder.  Every rotation
    fires on z == 1 only, so the NOT commutes with each of them and U is
    the same bit for bit after the ladder too; it stays where the
    circuits, and the fixed-seed outputs built from them, have it.
    """
    if plan.variant != "controlled":
        raise ValueError("build_T2 needs a controlled-variant plan")
    if "E" not in layout:
        raise ValueError("controlled transduction needs an E register in the layout")
    if layout.width("D") != plan.d or layout.width("E") != plan.d:
        raise ValueError("D/E register widths do not match the plan")
    dq = list(layout.qubits("D"))
    eq = list(layout.qubits("E"))
    gates, flag = _zero_flag(layout, dq)
    if flag:
        gates.append(x(eq[0], controls=((layout.offset("z"), 0),)))
    gates += [roty(2.0 * psi, eq[k], controls=((dq[k], 1),) + flag)
              for k, psi in enumerate(plan.angles)]
    return Circuit(layout, gates)


def build_synthesis(table: AmplitudeTable, plan: TransductionPlan,
                    enforce_zero: bool = False) -> Circuit:
    """Full preparation unitary: H on C, exponent oracle, transduction;
    ``enforce_zero`` adds the flag z that empties saturated entries exactly."""
    if plan.gamma != table.gamma or plan.d != table.d:
        raise ValueError("plan and table disagree on (gamma, d)")
    layout = standard_layout(table.num_entries, plan.d, plan.variant, enforce_zero)
    circ = Circuit(layout, [h(q) for q in layout.qubits("C")] + [build_L_oracle(table, layout)])
    return circ.extend((build_T1 if plan.variant == "direct" else build_T2)(plan, layout).gates)


def load_alphas_csv(path) -> np.ndarray:
    """Read an (index, alpha) table; a non-numeric first row is a header."""
    entries = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: line {lineno}: expected 'index,alpha'")
            try:
                idx = int(row[0])
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}: line {lineno}: bad index {row[0]!r}") from None
            if idx in entries:
                raise ValueError(f"{path}: duplicate index {idx}")
            entries[idx] = float(row[1])
    n = len(entries)
    if n == 0:
        raise ValueError(f"{path}: no amplitude rows found")
    if sorted(entries) != list(range(n)):
        raise ValueError(f"{path}: indices must cover 0..{n - 1} exactly")
    return np.array([entries[i] for i in range(n)], dtype=float)


def load_alphas_json(path) -> np.ndarray:
    with open(path) as fh:
        data = json.load(fh)
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: expected a flat JSON array of amplitudes") from None
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"{path}: expected a flat JSON array of amplitudes")
    return arr


def load_alphas(path) -> np.ndarray:
    """Dispatch on extension: .json -> JSON array, .csv -> (index, alpha) rows."""
    name = str(path).lower()
    if name.endswith(".json"):
        return load_alphas_json(path)
    if name.endswith(".csv"):
        return load_alphas_csv(path)
    raise ValueError(f"amplitude tables must be .csv or .json, got {path}")
