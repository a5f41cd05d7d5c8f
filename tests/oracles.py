"""Independent brute-force reference implementations.

Everything here deliberately avoids the code paths used by the package:
gates become dense matrices built by bit arithmetic, lattice sums come
from literal spin loops, and closed-form amplitudes are evaluated from
first principles.  Slow and obvious on purpose; keep sizes small.

The exceptions are the gate-level specifications at the end, which are
built from ``multamp`` gate constructors and circuit builders: the
amplification reflections as circuits, which ``amplify.phase_flip`` and
the iterate's index-0 sign flip must equal; the Ising preparation with
the gate-level pair counter, which the pipeline's keyed exponent oracle
must equal; and a classical tracker that runs permutation circuits (the
comparator) one basis state at a time for exhaustive truth tables.
"""

import math
from typing import Mapping

import numpy as np

from multamp import ising, simcore, transduce
from multamp.simcore import Circuit, RegisterLayout, RegisterXor, h, phase, x, z


def single_gate_matrix(kind: str, angle: float) -> np.ndarray:
    if kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if kind == "phase":
        return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)
    if kind == "ry":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"no matrix for kind {kind!r}")


def dense_unitary(num_qubits: int, gate) -> np.ndarray:
    """Full 2^n matrix for one gate, column by column via bit arithmetic."""
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if any(((col >> q) & 1) != pol for q, pol in gate.controls):
            mat[col, col] = 1.0
            continue
        if gate.kind == "swap":
            a = (col >> gate.target) & 1
            b = (col >> gate.target2) & 1
            row = col & ~(1 << gate.target) & ~(1 << gate.target2)
            row |= (b << gate.target) | (a << gate.target2)
            mat[row, col] = 1.0
            continue
        sub = single_gate_matrix(gate.kind, gate.angle)
        bit = (col >> gate.target) & 1
        for out_bit in (0, 1):
            row = (col & ~(1 << gate.target)) | (out_bit << gate.target)
            mat[row, col] += sub[out_bit, bit]
    return mat


def xor_permutation_matrix(layout, op) -> np.ndarray:
    dim = 1 << layout.total_qubits
    key_off = layout.offset(op.key_register)
    key_mask = (1 << layout.width(op.key_register)) - 1
    tgt_off = layout.offset(op.target_register)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        key = (col >> key_off) & key_mask
        row = col ^ (int(op.values[key]) << tgt_off)
        mat[row, col] = 1.0
    return mat


def circuit_matrix(circuit) -> np.ndarray:
    """Product of per-gate dense matrices, first gate rightmost."""
    n = circuit.layout.total_qubits
    mat = np.eye(1 << n, dtype=complex)
    for op in circuit:
        if hasattr(op, "key_register"):
            mat = xor_permutation_matrix(circuit.layout, op) @ mat
        else:
            mat = dense_unitary(n, op) @ mat
    return mat


def direct_zero_amplitude(gamma: float, d: int, lam: int) -> float:
    """<0...0| component after the uncontrolled rotation ladder on |lam>.

    Qubit k of the exponent register sees a rotation by -2*arctan(gamma**-2**k);
    the |0> matrix element is cos for an input 0 bit and +sin for a 1 bit.
    """
    amp = 1.0
    for k in range(d):
        phi = math.atan(gamma ** -(2 ** k))
        amp *= math.sin(phi) if (lam >> k) & 1 else math.cos(phi)
    return amp


def controlled_zero_amplitude(gamma: float, d: int, lam: int) -> float:
    """Mirror-register |0...0> component: cos(arccos(gamma**-2**k)) per 1 bit."""
    amp = 1.0
    for k in range(d):
        if (lam >> k) & 1:
            amp *= gamma ** -(2 ** k)
    return amp


def phi_normalization(gamma: float, d: int) -> float:
    """Product of the cos factors over all d rotation stages."""
    phi = 1.0
    for k in range(d):
        phi *= math.cos(math.atan(gamma ** -(2 ** k)))
    return phi


def qft_matrix(d: int) -> np.ndarray:
    """DFT with the e^{+2 pi i x s / 2^d} kernel, unitary normalization."""
    dim = 1 << d
    x = np.arange(dim)
    return np.exp(2j * math.pi * np.outer(x, x) / dim) / math.sqrt(dim)


def unequal_pair_count(rows: int, cols: int, config: int) -> int:
    """Count unequal nearest-neighbor pairs on the periodic lattice.

    Each site contributes its right and down neighbor, so every bond is
    visited once for rows, cols > 2 and twice when a dimension equals 2.
    """
    total = 0
    for r in range(rows):
        for c in range(cols):
            here = (config >> (r * cols + c)) & 1
            right = (config >> (r * cols + (c + 1) % cols)) & 1
            down = (config >> (((r + 1) % rows) * cols + c)) & 1
            total += (here != right) + (here != down)
    return total


def boltzmann_probabilities(rows: int, cols: int, beta_j: float) -> np.ndarray:
    """Literal spin-loop Boltzmann distribution over all 2^N configurations."""
    n = rows * cols
    weights = np.empty(1 << n, dtype=float)
    for config in range(1 << n):
        spins = [1.0 if (config >> i) & 1 else -1.0 for i in range(n)]
        energy = 0.0
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                energy -= spins[i] * spins[r * cols + (c + 1) % cols]
                energy -= spins[i] * spins[((r + 1) % rows) * cols + c]
        weights[config] = math.exp(-beta_j * energy)
    return weights / weights.sum()


def grover_amplitude(u: float, nu: int) -> float:
    """Target amplitude after nu ideal reflections starting at sin(theta) = u."""
    theta = math.asin(u)
    return math.sin((2 * nu + 1) * theta)


# --- gate-level specifications ------------------------------------------------

def predicate_flip_circuit(layout: RegisterLayout, conditions: Mapping[str, int]) -> Circuit:
    """Gate-level equivalent of amplify.phase_flip: one multi-controlled Z.

    The first conditioned qubit is the Z target (X-conjugated when its
    required bit is 0); the rest become polarity controls.
    """
    bits = []
    for reg, val in conditions.items():
        for k, q in enumerate(layout.qubits(reg)):
            bits.append((q, (val >> k) & 1))
    if not bits:
        # global -1: Z X Z X on any one qubit
        return Circuit(layout, [z(0), x(0), z(0), x(0)])
    (q0, b0), rest = bits[0], tuple(bits[1:])
    core = phase(math.pi, q0, controls=rest)
    gates = [core] if b0 == 1 else [x(q0), core, x(q0)]
    return Circuit(layout, gates)


def source_flip_circuit(layout: RegisterLayout) -> Circuit:
    """Flip |00...0>: X on every qubit around a multi-controlled Z."""
    n = layout.total_qubits
    wrap = [x(q) for q in range(n)]
    core = phase(math.pi, 0, controls=tuple((q, 1) for q in range(1, n)))
    return Circuit(layout, wrap + [core] + list(reversed(wrap)))


def gate_level_boltzmann_synthesis(lattice, variant: str, enforce_zero: bool = False) -> Circuit:
    """The Ising preparation U with the counter as gates: H on C, build_ising_L, the ladder.

    It acts on ``ising.boltzmann_layout``, which holds the counter's idle
    ancilla ``a`` that the pipeline's keyed oracle leaves out.
    """
    target = ising.BoltzmannTarget.from_lattice(lattice)
    plan = transduce.make_plan(variant, target.gamma, target.d)
    layout = ising.boltzmann_layout(lattice, target.d, variant, enforce_zero)
    circ = Circuit(layout, [h(q) for q in layout.qubits("C")])
    circ.extend(ising.build_ising_L(lattice, target.d, layout).gates)
    ladder = transduce.build_T1 if variant == "direct" else transduce.build_T2
    return circ.extend(ladder(plan, layout).gates)


def apply_permutation_to_index(ops, index: int, layout: RegisterLayout | None = None) -> int:
    """Track one basis state through a permutation-only circuit classically.

    Accepts x/swap gates (with controls) and RegisterXor instructions; any
    amplitude-mixing gate raises.  Runs in O(gates) independent of the
    qubit count, which makes exhaustive truth-table checks cheap.
    """
    if isinstance(ops, Circuit):
        layout = ops.layout
        ops = ops.gates
    for op in ops:
        if isinstance(op, RegisterXor):
            if layout is None:
                raise ValueError("RegisterXor tracking needs a layout")
            key = layout.value(index, op.key_register)
            index ^= int(op.values[key]) << layout.offset(op.target_register)
            continue
        if op.kind not in ("x", "swap"):
            raise ValueError(f"{op.kind} is not a basis permutation")
        if not all((index >> q) & 1 == pol for q, pol in op.controls):
            continue
        if op.kind == "x":
            index ^= 1 << op.target
        else:
            b1 = (index >> op.target) & 1
            b2 = (index >> op.target2) & 1
            if b1 != b2:
                index ^= (1 << op.target) | (1 << op.target2)
    return index


def reference_sample(amplitudes, shots: int, seed) -> dict[int, int]:
    """The procedure ``simcore.sample`` must reproduce count for count, on one flat buffer.

    |a|^2 is computed over the whole buffer at once and cut into rows of
    ``simcore._SAMPLE_BLOCK`` weights.  One multinomial over the rows'
    sums splits the shots (skipped for one row); then, row by row, a
    multinomial over the row's non-zero weights when the draws are at
    least four times as many, else uniforms scaled by the row's running total,
    searched unsorted in the running sum over every weight and tallied
    with ``np.unique``.  ``seed``: an int or a Generator.
    """
    p = np.abs(amplitudes).astype(np.float64)
    np.multiply(p, p, out=p)
    rows = p.reshape(-1, min(p.shape[0], simcore._SAMPLE_BLOCK))
    masses = np.array([row.sum() for row in rows])
    rng = np.random.default_rng(seed)
    per_row = rng.multinomial(shots, masses / masses.sum()) if rows.shape[0] > 1 else [shots]
    counts = {}
    for r, (row, k) in enumerate(zip(rows, per_row)):
        where = np.flatnonzero(row)
        if not k:
            continue
        if 4 * where.shape[0] <= k:
            num = rng.multinomial(k, row[where] / row[where].sum())
            values, num = where[num > 0], num[num > 0]
        else:
            cum = np.cumsum(row)
            values, num = np.unique(np.searchsorted(cum, rng.random(k) * cum[-1], side="right"),
                                    return_counts=True)
        counts.update({r * rows.shape[1] + int(v): int(c) for v, c in zip(values, num)})
    return counts
