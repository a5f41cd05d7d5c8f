"""Dense statevector simulator with named quantum registers.

Bit order is little endian throughout: qubit ``i`` holds bit ``i`` of the
basis index, and a register occupying qubits ``[lo, hi)`` reads its value
the same way.  Gates act in place on a ``(2,)*n`` view of the amplitude
buffer, so a gate with ``c`` controls touches ``2**(n-c)`` amplitudes.
``z`` and ``phase`` allocate nothing.  ``x``, ``swap``, ``h`` and ``ry`` take
the slice's |0> and |1> halves in pieces of ``2**_PIECE_QUBITS`` amplitudes,
with ``out=`` ufuncs into at most two piece-sized scratch arrays: 512 KiB for
complex128 whatever the state size (Häner and Steiger, arXiv:1704.01127).
``RegisterXor`` permutes only the qubit span of its registers, one block of
``2**hi`` amplitudes at a time (``hi``: top of the span).  No kernel runs in parallel.

Post-selection goes through one slice: ``register_selector`` indexes the
basis states whose registers read given values.  ``collapse`` copies that
slice alone onto the layout of the remaining registers, and
``amplify.postselect_probability`` sums its weight.

A StateVector owns its buffer; the concurrency contract is one writer per
state, and callers must not alias buffers across states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_NORM_BLOCK = 1 << 16
_PIECE_QUBITS = 14  # half-slice piece of 2**14 amplitudes: four such arrays fill 1 MiB of L2


def norm_tolerance(dtype) -> float:
    """Accepted |norm - 1| of a state in ``dtype``: 1e-6 or 4096 epsilons, if larger.

    Rounding moves the norm by about one epsilon per gate (the float32
    1/sqrt(2) alone is off by 1e-8), and 4096 is several times the gate
    count of the largest synthesis circuit here.
    """
    return max(1e-6, 4096 * float(np.finfo(dtype).eps))


GATE_KINDS = ("h", "x", "z", "ry", "phase", "swap")


class RegisterLayout:
    """Ordered map of register names to contiguous qubit spans.

    Registers are packed in declaration order starting at qubit 0, so the
    first register declared occupies the least significant bits of the
    basis index.
    """

    def __init__(self, registers: Iterable[tuple[str, int]]):
        spans: dict[str, tuple[int, int]] = {}
        lo = 0
        for name, width in registers:
            if not name or not isinstance(name, str):
                raise ValueError("register name must be a non-empty string")
            if name in spans:
                raise ValueError(f"duplicate register name {name!r}")
            if width < 1:
                raise ValueError(f"register {name!r} needs width >= 1, got {width}")
            spans[name] = (lo, lo + width)
            lo += width
        if not spans:
            raise ValueError("layout needs at least one register")
        self._spans = spans
        self._total = lo

    @property
    def total_qubits(self) -> int:
        return self._total

    def names(self):
        return tuple(self._spans)

    def __contains__(self, name) -> bool:
        return name in self._spans

    def _span(self, name: str) -> tuple[int, int]:
        try:
            return self._spans[name]
        except KeyError:
            raise KeyError(f"unknown register {name!r}; have {list(self._spans)}") from None

    def width(self, name: str) -> int:
        lo, hi = self._span(name)
        return hi - lo

    def offset(self, name: str) -> int:
        return self._span(name)[0]

    def qubits(self, name: str) -> range:
        lo, hi = self._span(name)
        return range(lo, hi)

    def value(self, index: int, name: str) -> int:
        """Extract the register's value from a basis index."""
        lo, hi = self._span(name)
        return (index >> lo) & ((1 << (hi - lo)) - 1)

    def values(self, indices: np.ndarray, name: str) -> np.ndarray:
        lo, hi = self._span(name)
        return (np.asarray(indices) >> lo) & ((1 << (hi - lo)) - 1)

    def pack(self, name: str, value: int) -> int:
        """Basis-index fragment with the register set to ``value``."""
        lo, hi = self._span(name)
        if not 0 <= value < (1 << (hi - lo)):
            raise ValueError(f"value {value} out of range for register {name!r}")
        return value << lo

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self._spans == other._spans

    def __repr__(self):
        inner = ", ".join(f"{k}[{lo}:{hi}]" for k, (lo, hi) in self._spans.items())
        return f"RegisterLayout({inner})"


class StateVector:
    """Dense complex amplitude vector over a register layout."""

    def __init__(self, layout: RegisterLayout, amplitudes: np.ndarray):
        if amplitudes.ndim != 1 or amplitudes.shape[0] != (1 << layout.total_qubits):
            raise ValueError("amplitude buffer size does not match the layout")
        if amplitudes.dtype not in (np.complex64, np.complex128):
            raise ValueError("amplitudes must be complex64 or complex128")
        self.layout = layout
        self.amplitudes = amplitudes

    @property
    def num_qubits(self) -> int:
        return self.layout.total_qubits

    @classmethod
    def zero_state(cls, layout: RegisterLayout, dtype=np.complex128) -> "StateVector":
        return cls.basis_state(layout, 0, dtype=dtype)

    @classmethod
    def basis_state(cls, layout: RegisterLayout, index: int, dtype=np.complex128) -> "StateVector":
        size = 1 << layout.total_qubits
        if not 0 <= index < size:
            raise ValueError(f"basis index {index} out of range for {layout.total_qubits} qubits")
        amps = np.zeros(size, dtype=dtype)
        amps[index] = 1.0
        return cls(layout, amps)

    def norm(self) -> float:
        # accumulate in float64 whatever the buffer dtype, one block at a time
        total = 0.0
        for lo in range(0, self.amplitudes.shape[0], _NORM_BLOCK):
            block = self.amplitudes[lo:lo + _NORM_BLOCK].astype(np.complex128, copy=False)
            total += np.vdot(block, block).real
        return math.sqrt(total)

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes)
        np.multiply(p, p, out=p)
        return p

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amplitudes.copy())


@dataclass(frozen=True)
class Gate:
    """One primitive gate: kind in {h, x, z, ry, phase, swap}.

    ``controls`` is a tuple of (qubit, polarity) pairs; polarity 1 fires on
    |1>, polarity 0 on |0>.  ``target2`` is used by swap only.  ``angle``
    is the full rotation angle theta of RotY(theta) / Phase(theta).
    """

    kind: str
    target: int
    angle: float = 0.0
    target2: int | None = None
    controls: tuple = ()

    def inverse(self) -> "Gate":
        if self.kind in ("ry", "phase"):
            return Gate(self.kind, self.target, -self.angle, self.target2, self.controls)
        return self  # h, x, z, swap are self-inverse


def h(target, controls=()) -> Gate:
    return Gate("h", target, controls=tuple(controls))


def x(target, controls=()) -> Gate:
    return Gate("x", target, controls=tuple(controls))


def z(target, controls=()) -> Gate:
    return Gate("z", target, controls=tuple(controls))


def roty(angle, target, controls=()) -> Gate:
    """RotY(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]], t = angle."""
    return Gate("ry", target, angle=float(angle), controls=tuple(controls))


def phase(angle, target, controls=()) -> Gate:
    """Phase(theta) = diag(1, exp(i*theta))."""
    return Gate("phase", target, angle=float(angle), controls=tuple(controls))


def swap(target, target2, controls=()) -> Gate:
    return Gate("swap", target, target2=target2, controls=tuple(controls))


class RegisterXor:
    """Classically keyed basis permutation: target ^= values[key].

    Exactly unitary (a permutation of basis states) and its own inverse,
    since XOR-ing the same value twice cancels.  ``values`` maps every key
    register value to the integer XOR-ed into the target register.
    """

    def __init__(self, key_register: str, target_register: str, values):
        self.key_register = key_register
        self.target_register = target_register
        self.values = np.asarray(values, dtype=np.int64)
        if self.values.ndim != 1:
            raise ValueError("values must be a flat integer array")

    def validate(self, layout: RegisterLayout):
        kw = layout.width(self.key_register)
        tw = layout.width(self.target_register)
        if self.values.shape[0] != (1 << kw):
            raise ValueError(
                f"need one value per key-register state: expected {1 << kw}, got {self.values.shape[0]}"
            )
        if self.values.min() < 0 or self.values.max() >= (1 << tw):
            raise ValueError(f"XOR values do not fit in register {self.target_register!r}")

    def apply(self, state: StateVector) -> StateVector:
        layout = state.layout
        self.validate(layout)
        key, target = layout.qubits(self.key_register), layout.qubits(self.target_register)
        lo, hi = min(key.start, target.start), max(key.stop, target.stop)
        # permute the qubit span [lo, hi) alone, one block of 2**hi amplitudes at a time
        perm = np.arange(1 << (hi - lo), dtype=np.int64)
        keys = self.values[(perm >> (key.start - lo)) & ((1 << len(key)) - 1)]
        keys <<= target.start - lo
        perm ^= keys
        blocks = state.amplitudes.reshape(-1, 1 << (hi - lo), 1 << lo)
        gathered = np.empty_like(blocks[0])
        for block in blocks:
            # perm is a permutation of its index range, so "clip" never clips; "raise" would buffer
            np.take(block, perm, axis=0, out=gathered, mode="clip")
            block[...] = gathered
        return state

    def inverse(self) -> "RegisterXor":
        return self


class Circuit:
    """Ordered, exactly invertible instruction sequence over a layout.

    Instructions are Gates plus (optionally) RegisterXor permutations; both
    carry their own exact inverse, so ``inverse()`` is gate-wise.
    """

    def __init__(self, layout: RegisterLayout, gates=None):
        self.layout = layout
        self.gates: list = list(gates) if gates is not None else []

    def extend(self, ops) -> "Circuit":
        self.gates.extend(ops)
        return self

    def inverse(self) -> "Circuit":
        return Circuit(self.layout, [g.inverse() for g in reversed(self.gates)])

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


def _check_qubits(n: int, gate: Gate):
    used = [gate.target]
    if gate.kind == "swap":
        if gate.target2 is None:
            raise ValueError("swap needs a second target")
        used.append(gate.target2)
    elif gate.target2 is not None:
        raise ValueError(f"{gate.kind} takes a single target")
    for q, pol in gate.controls:
        if pol not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {pol}")
        used.append(q)
    for q in used:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")
    if len(set(used)) != len(used):
        raise ValueError(f"gate touches a qubit twice: {gate}")


def apply_gate(state: StateVector, gate: Gate, validate: bool = True) -> StateVector:
    """Apply one gate in place and return the same state.

    ``validate=True`` additionally checks that the input state is
    normalized; circuit application does this once up front instead.
    """
    n = state.num_qubits
    if gate.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    _check_qubits(n, gate)
    if validate and abs(state.norm() - 1.0) > norm_tolerance(state.amplitudes.dtype):
        raise ValueError("input state is not normalized")

    psi = state.amplitudes.reshape((2,) * n)
    sel = [slice(None)] * n
    for q, pol in gate.controls:
        sel[n - 1 - q] = pol  # qubit q lives on axis n-1-q of the C-order view

    ax = n - 1 - gate.target
    kind = gate.kind
    if kind == "z":
        sel[ax] = 1
        psi[tuple(sel)] *= -1.0
        return state
    if kind == "phase":
        sel[ax] = 1
        psi[tuple(sel)] *= cmath.exp(1j * gate.angle)
        return state

    s0 = list(sel)
    s0[ax] = 0
    s1 = list(sel)
    s1[ax] = 1
    if kind == "swap":
        ax2 = n - 1 - gate.target2
        s0[ax2] = 1  # |01> half
        s1[ax2] = 0  # |10> half
    if len(gate.controls) + (kind == "swap") + 1 == n:
        s0[ax], s1[ax] = slice(0, 1), slice(1, 2)  # every axis fixed: keep the halves views
    v0, v1 = psi[tuple(s0)], psi[tuple(s1)]
    half = gate.angle / 2.0
    c, s = (math.cos(half), math.sin(half)) if kind == "ry" else (_SQRT1_2, _SQRT1_2)
    lead = v0.ndim - _PIECE_QUBITS
    if lead <= 0:
        _butterfly(kind, v0, v1, c, s)
        return state
    t = np.empty(v0.shape[lead:], v0.dtype)
    w = None if kind in ("x", "swap") else np.empty_like(t)
    for i in np.ndindex(v0.shape[:lead]):
        _butterfly(kind, v0[i], v1[i], c, s, t, w)
    return state


def _butterfly(kind, a, b, c, s, t=None, w=None):
    """One piece of an x/swap/h/ry gate, in place: ``a``, ``b`` are the |0>, |1> halves.

    ``t``, ``w``: contiguous scratch of the piece's shape, allocated here if not given.
    Each term of ``a*c - b*s``, ``a*s + b*c`` (h: ``(a+b)*s``, ``(a-b)*s``) reads the
    strided halves once, with the per-element arithmetic of those whole-slice expressions.
    """
    if kind in ("x", "swap"):
        if t is None:
            t = a.copy()
        else:
            t[...] = a
        a[...] = b
        b[...] = t
    elif kind == "h":
        t = np.add(a, b, out=t)
        np.multiply(t, s, out=t)
        w = np.subtract(a, b, out=w)
        np.multiply(w, s, out=w)
        a[...] = t
        b[...] = w
    else:  # ry
        t = np.multiply(a, c, out=t)
        w = np.multiply(b, s, out=w)
        np.subtract(t, w, out=t)
        np.multiply(a, s, out=w)
        a[...] = t
        np.multiply(b, c, out=t)
        np.add(w, t, out=t)
        b[...] = t


def apply_circuit(state: StateVector, circuit: Circuit, validate: bool = True) -> StateVector:
    """Apply every instruction of the circuit in order, in place."""
    if circuit.layout != state.layout:
        raise ValueError("circuit layout does not match the state layout")
    if validate and abs(state.norm() - 1.0) > norm_tolerance(state.amplitudes.dtype):
        raise ValueError("input state is not normalized")
    for op in circuit.gates:
        if isinstance(op, Gate):
            apply_gate(state, op, validate=False)
        else:
            op.apply(state)
    return state


def register_selector(layout: RegisterLayout, conditions: Mapping[str, int]) -> tuple:
    """Index into the ``(2,)*n`` view that keeps the basis states matching every condition."""
    n = layout.total_qubits
    sel = [slice(None)] * n
    for reg, val in conditions.items():
        if not 0 <= val < (1 << layout.width(reg)):  # width raises KeyError on unknown names
            raise ValueError(f"value {val} out of range for register {reg!r}")
        for k, q in enumerate(layout.qubits(reg)):
            sel[n - 1 - q] = (val >> k) & 1
    return tuple(sel)


def collapse(state: StateVector, conditions: Mapping[str, int]) -> StateVector:
    """Post-select the conditioned registers and drop them.

    Returns a fresh StateVector holding the renormalized matching slice on
    the layout of the remaining registers, in their original order.  Only
    slice-sized buffers are allocated: 2**(n - w) amplitudes for w
    conditioned qubits.  Raises if the slice has ~zero weight.
    """
    layout = state.layout
    rest = RegisterLayout((name, layout.width(name)) for name in layout.names()
                          if name not in conditions)
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    amps = psi[register_selector(layout, conditions)].flatten()  # always a copy
    p = float(np.sum(np.abs(amps) ** 2))
    if p < 1e-300:
        raise ValueError(f"cannot collapse onto zero-probability outcome {dict(conditions)}")
    amps /= math.sqrt(p)
    return StateVector(rest, amps)


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Draw basis-index counts from the state's Born distribution.

    The generator is numpy's PCG64 via ``default_rng(seed)``; a given
    (state, shots, seed) triple reproduces identical counts.  To split
    streams for parallel sampling, spawn child seeds with
    ``np.random.SeedSequence(seed).spawn(k)`` and run one call per child.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = state.probabilities()
    cum = np.cumsum(p, dtype=np.float64)
    if abs(cum[-1] - 1.0) > norm_tolerance(state.amplitudes.dtype):
        raise ValueError("state is not normalized")
    rng = np.random.default_rng(seed)
    draws = rng.random(shots) * cum[-1]
    draws.sort()  # sorted keys search several times faster; the counts ignore draw order
    idx = np.searchsorted(cum, draws, side="right")
    np.clip(idx, 0, p.shape[0] - 1, out=idx)
    values, counts = np.unique(idx, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def counts_by_register(counts: Mapping[int, int], layout: RegisterLayout, register: str) -> dict[int, int]:
    """Marginalize basis-index counts onto one register."""
    out: dict[int, int] = {}
    for index, c in counts.items():
        v = layout.value(index, register)
        out[v] = out.get(v, 0) + c
    return out


def filter_counts(counts: Mapping[int, int], layout: RegisterLayout,
                  conditions: Mapping[str, int]) -> dict[int, int]:
    """Keep only the counts whose registers match every condition."""
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    keep = np.ones(keys.shape, dtype=bool)
    for reg, val in conditions.items():
        keep &= layout.values(keys, reg) == val
    return dict(compress(counts.items(), keep))
