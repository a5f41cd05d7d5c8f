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
"""

from __future__ import annotations

import csv
import json
import math
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


class OverflowLambdaError(ValueError):
    """A non-saturated amplitude needs an exponent outside [0, 2**d)."""


def plan_precision(cutoff_eps: float, rel_prec_delta: float) -> int:
    """Smallest d with 2**d > -ln(cutoff_eps) / rel_prec_delta.

    d is the exponent-register width needed so that relative precision
    delta (gamma = e**delta) spans all amplitudes down to the cutoff.
    """
    if not 0.0 < cutoff_eps < 1.0:
        raise ValueError("cutoff_eps must be in (0, 1)")
    if rel_prec_delta <= 0.0:
        raise ValueError("rel_prec_delta must be positive")
    ratio = -math.log(cutoff_eps) / rel_prec_delta
    d = max(0, math.ceil(math.log2(ratio))) if ratio > 0 else 0
    # guard the float log against boundary rounding
    while (1 << d) <= ratio:
        d += 1
    while d > 0 and (1 << (d - 1)) > ratio:
        d -= 1
    return d


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


def make_plan(variant: str, gamma: float, d: int) -> TransductionPlan:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    lg = math.log(gamma)
    # gamma**(-2**k) via exp to dodge float pow overflow at large k
    factors = [math.exp(-(1 << k) * lg) for k in range(d)]
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
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    y = math.exp(-2.0 * math.log(gamma))
    return math.sqrt((1.0 - y) / (1.0 - y ** (1 << d)))


@dataclass(eq=False)
class AmplitudeTable:
    """Truncated exponents for one amplitude list.

    ``lambdas[l]`` is floor(-log_gamma(alphas[l])) for alphas[l] >=
    cutoff_eps and the saturation value 2**d - 1 below the cutoff
    (strictly below: alpha == cutoff_eps is not saturated).
    """

    alphas: np.ndarray
    gamma: float
    d: int
    cutoff_eps: float
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


def build_lambda_table(alphas, gamma: float, d: int, cutoff_eps: float) -> AmplitudeTable:
    alphas = check_alphas(alphas)
    if alphas.ndim != 1 or alphas.shape[0] < 1:
        raise ValueError("alphas must be a non-empty 1-D array")
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    if d < 1:
        raise ValueError("d must be >= 1")
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
    return AmplitudeTable(alphas, float(gamma), int(d), float(cutoff_eps), lambdas)


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


def build_T1(plan: TransductionPlan, layout: RegisterLayout) -> Circuit:
    """Direct transduction: d uncontrolled RotY(-2*phi_k) on D.

    For a basis input |lambda~>_D the |0>_D output amplitude is
    phi_product(gamma, d) * gamma**(-lambda~).
    """
    if plan.variant != "direct":
        raise ValueError("build_T1 needs a direct-variant plan")
    qubits = layout.qubits("D")
    if layout.width("D") != plan.d:
        raise ValueError("D register width does not match the plan")
    return Circuit(layout, [roty(-2.0 * phi, q) for phi, q in zip(plan.angles, qubits)])


def build_T2(plan: TransductionPlan, layout: RegisterLayout) -> Circuit:
    """Controlled transduction: RotY(2*psi_k) on E_k controlled by D_k.

    Maps |lambda~>_D |0>_E so that the |lambda~>_D |0>_E output amplitude
    is gamma**(-lambda~) exactly, with no prefactor.
    """
    if plan.variant != "controlled":
        raise ValueError("build_T2 needs a controlled-variant plan")
    if "E" not in layout:
        raise ValueError("controlled transduction needs an E register in the layout")
    if layout.width("D") != plan.d or layout.width("E") != plan.d:
        raise ValueError("D/E register widths do not match the plan")
    dq = list(layout.qubits("D"))
    eq = list(layout.qubits("E"))
    gates = [roty(2.0 * psi, eq[k], controls=((dq[k], 1),)) for k, psi in enumerate(plan.angles)]
    return Circuit(layout, gates)


def enforce_exact_zero(plan: TransductionPlan, layout: RegisterLayout) -> Circuit:
    """Transduction with exactly zero post-selected weight on saturation.

    Computes the NAND of the D qubits into the flag ancilla z (z == 0 only
    when D holds the saturated value 2^d - 1), runs the rotations with z
    as an extra control, then a NOT anti-controlled on z kicks saturated
    branches out of the post-selected |0> slice entirely.  On
    non-saturated branches the amplitudes match the plain builders.

    The flag is left as computed rather than uncomputed (the direct
    variant rotates D, so the detection cannot be reversed); every branch
    inside the post-selected slice carries z = 1, which factors out.
    """
    if "z" not in layout or layout.width("z") != 1:
        raise ValueError("enforce_exact_zero needs a width-1 ancilla register 'z'")
    if layout.width("D") != plan.d:
        raise ValueError("D register width does not match the plan")

    dq = list(layout.qubits("D"))
    zq = layout.offset("z")
    detect = tuple((q, 1) for q in dq)
    gates = [x(zq), x(zq, controls=detect)]  # z = NOT(D == 2^d - 1)
    if plan.variant == "direct":
        # saturated branches keep D at the (nonzero) saturation value, so
        # gating the rotations on z already empties their |0> component
        gates += [roty(-2.0 * phi, dq[k], controls=((zq, 1),))
                  for k, phi in enumerate(plan.angles)]
    else:
        if "E" not in layout:
            raise ValueError("controlled transduction needs an E register in the layout")
        eq = list(layout.qubits("E"))
        gates += [roty(2.0 * psi, eq[k], controls=((dq[k], 1), (zq, 1)))
                  for k, psi in enumerate(plan.angles)]
        gates.append(x(eq[0], controls=((zq, 0),)))
    return Circuit(layout, gates)


def build_synthesis(table: AmplitudeTable, plan: TransductionPlan,
                    enforce_zero: bool = False) -> Circuit:
    """Full preparation unitary: H on C, exponent oracle, transduction."""
    if plan.gamma != table.gamma or plan.d != table.d:
        raise ValueError("plan and table disagree on (gamma, d)")
    layout = standard_layout(table.num_entries, plan.d, plan.variant, enforce_zero)
    return assemble_synthesis(plan, layout, [build_L_oracle(table, layout)], enforce_zero)


def assemble_synthesis(plan: TransductionPlan, layout: RegisterLayout, oracle_ops,
                       enforce_zero: bool = False) -> Circuit:
    """H on C, the exponent oracle's ops, then the transduction the plan and flag pick."""
    circ = Circuit(layout, [h(q) for q in layout.qubits("C")] + list(oracle_ops))
    if enforce_zero:
        return circ.extend(enforce_exact_zero(plan, layout).gates)
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
