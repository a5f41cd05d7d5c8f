"""Dense statevector simulator with named quantum registers.

Bit order is little endian throughout: qubit ``i`` holds bit ``i`` of the
basis index, and a register occupying qubits ``[lo, hi)`` reads its value
the same way.  Gates act in place on a ``(2,)*n`` view of the amplitude
buffer, so a gate with ``c`` controls touches ``2**(n-c)`` amplitudes.
``z`` allocates nothing.  ``x``, ``swap``, ``h``, ``ry`` and ``phase`` take
the slice's |0> and |1> halves in pieces of ``2**_PIECE_QUBITS`` amplitudes,
with ``out=`` ufuncs into at most two piece-sized scratch arrays: 512 KiB for
complex128 whatever the state size (Häner and Steiger, arXiv:1704.01127).
``RegisterXor`` permutes only the qubit span of its registers, one block of
``2**hi`` amplitudes at a time (``hi``: top of the span).  No kernel runs in parallel.

``apply_circuit(..., from_zero=True)`` skips the amplitudes known to be 0.
It keeps one record: the qubits no instruction has written yet, which
read 0 on every non-zero amplitude.  ``apply_gate`` indexes them like
controls, so each gate runs on the slice where they read 0.  Every
layout here puts the index register C lowest, so H on C and the
exponent oracle touch 2**|C| amplitudes, not the whole state.  Other
states, such as the one ``amplify.grover_iterate`` runs U^-1 on, take
the whole-state path.

Post-selection goes through one slice: ``register_selector`` indexes the
basis states whose registers read given values.  ``collapse`` copies that
slice alone onto the layout of the remaining registers, and
``amplify.postselect_probability`` sums its weight.

``sample`` holds no state-sized array: for one block of ``_SAMPLE_BLOCK``
amplitudes, |a|^2 and a float64 cumsum over its non-zero entries (over all
of them when more than half are non-zero) with their positions (512 KiB
each; plus a float32 |a|^2 block for complex64), then the block ends, the
sorted draws (8 B per shot), the counting arrays of one block and the
returned counts (``sample_overhead`` bounds it).

A StateVector owns its buffer; the concurrency contract is one writer per
state, and callers must not alias buffers across states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_NORM_BLOCK = 1 << 16
_PIECE_QUBITS = 14  # half-slice piece of 2**14 amplitudes: four such arrays fill 1 MiB of L2
_SAMPLE_BLOCK = 1 << 16  # amplitudes per cumsum block of ``sample``: 512 KiB of float64


def _require_normalized(value: float, dtype, message: str) -> None:
    """Raise ``ValueError(message)`` unless |value - 1| <= max(1e-6, 4096 epsilons of ``dtype``).

    Rounding moves the norm by about one epsilon per gate (the float32
    1/sqrt(2) alone is off by 1e-8), and 4096 is several times the gate
    count of the largest synthesis circuit here.  A NaN value fails.
    """
    if not abs(value - 1.0) <= max(1e-6, 4096 * float(np.finfo(dtype).eps)):
        raise ValueError(message)


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

    @property
    def targets(self) -> tuple:
        """The qubits the gate writes: target, then target2."""
        return (self.target,) if self.target2 is None else (self.target, self.target2)

    @property
    def qubits(self) -> tuple:
        """Every qubit the gate reads or writes: target, target2, then the controls."""
        return self.targets + tuple(q for q, _ in self.controls)

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

    def spans(self, layout: RegisterLayout) -> tuple[range, range]:
        """The key and target registers' qubits in ``layout``."""
        return layout.qubits(self.key_register), layout.qubits(self.target_register)

    def apply(self, state: StateVector, top: int | None = None) -> StateVector:
        """Permute the state in place and return it.

        ``top``: the caller knows every qubit from ``top`` up reads 0, so
        every amplitude at index >= 2**top is 0.  When the span reaches
        above ``top``, the 2**top live amplitudes are copied out, the
        prefix is zeroed, and each copy is written to its destination; a
        live index reads 0 on every qubit from ``top`` up, and the
        permutation sends the zero amplitudes onto the positions left at
        zero.  Otherwise the span is gathered block by block.
        """
        layout = state.layout
        self.validate(layout)
        key, target = self.spans(layout)
        lo, hi = min(key.start, target.start), max(key.stop, target.stop)
        if top is not None and top < hi:
            live = state.amplitudes[:1 << top]
            moved = live.copy()
            live[...] = 0
            dest = np.arange(1 << top, dtype=np.int64)
            keys = self.values[(dest >> key.start) & ((1 << len(key)) - 1)]
            keys <<= target.start
            dest ^= keys
            state.amplitudes[dest] = moved
            return state
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
    if gate.kind == "swap" and gate.target2 is None:
        raise ValueError("swap needs a second target")
    if gate.kind != "swap" and gate.target2 is not None:
        raise ValueError(f"{gate.kind} takes a single target")
    for q, pol in gate.controls:
        if pol not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {pol}")
    used = gate.qubits
    for q in used:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")
    if len(set(used)) != len(used):
        raise ValueError(f"gate touches a qubit twice: {gate}")


def apply_gate(state: StateVector, gate: Gate, validate: bool = True, zeros=()) -> StateVector:
    """Apply one gate in place and return the same state.

    ``validate=True`` additionally checks that the input state is
    normalized; circuit application does this once up front instead.
    ``zeros``: qubits, none of them a target, that read 0 on every
    non-zero amplitude.  Their axes are indexed at 0 like controls, so
    only that slice is computed, and a control on 1 of one leaves the
    state as it is.
    """
    n = state.num_qubits
    if gate.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    _check_qubits(n, gate)
    if validate:
        _require_normalized(state.norm(), state.amplitudes.dtype, "input state is not normalized")

    psi = state.amplitudes.reshape((2,) * n)
    free = slice(None)
    sel = [free] * n
    for q, pol in gate.controls:
        sel[n - 1 - q] = pol  # qubit q lives on axis n-1-q of the C-order view
    targets = gate.targets
    fixed = len(gate.controls) + len(targets)
    for q in zeros:
        if q in targets or not 0 <= q < n:
            raise ValueError(f"zero qubit {q} is a target of {gate} or outside [0, {n})")
        if sel[n - 1 - q] is free:
            sel[n - 1 - q] = 0
            fixed += 1
        elif sel[n - 1 - q] == 1:
            return state  # a control no non-zero amplitude satisfies

    ax = n - 1 - gate.target
    kind = gate.kind
    s0 = list(sel)
    s0[ax] = 0
    s1 = list(sel)
    s1[ax] = 1
    if kind == "swap":
        ax2 = n - 1 - gate.target2
        s0[ax2] = 1  # |01> half
        s1[ax2] = 0  # |10> half
    if fixed == n:
        s0[ax], s1[ax] = slice(0, 1), slice(1, 2)  # every axis fixed: keep the halves views
    v0, v1 = psi[tuple(s0)], psi[tuple(s1)]
    if kind == "z":
        v1 *= -1.0
        return state
    if kind == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
    elif kind == "phase":
        c, s = math.cos(gate.angle), math.sin(gate.angle)
    else:
        c, s = _SQRT1_2, _SQRT1_2
    lead = v0.ndim - _PIECE_QUBITS
    if lead <= 0:
        _butterfly(kind, v0, v1, c, s)
        return state
    t = np.empty(v0.shape[lead:], v0.dtype)
    w = None if kind in ("x", "swap", "phase") else np.empty_like(t)
    for i in np.ndindex(v0.shape[:lead]):
        _butterfly(kind, v0[i], v1[i], c, s, t, w)
    return state


def _butterfly(kind, a, b, c, s, t=None, w=None):
    """One piece of an x/swap/h/ry/phase gate, in place: ``a``, ``b`` are the |0>, |1> halves.

    ``t``, ``w``: contiguous scratch of the piece's shape, allocated here if not given.
    Each term of ``a*c - b*s``, ``a*s + b*c`` (h: ``(a+b)*s``, ``(a-b)*s``) reads the
    strided halves once, with the per-element arithmetic of those whole-slice expressions.
    Phase multiplies ``b`` by ``c + i*s`` through real products and sums of its parts:
    numpy's complex product rounds a 1-element array differently from longer ones.
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
    elif kind == "phase":  # b*c + i*b*s, rounded like Python's complex product
        t = np.multiply(b, s, out=t)
        np.multiply(b, c, out=b)
        np.subtract(b.real, t.imag, out=b.real)
        np.add(b.imag, t.real, out=b.imag)
    else:  # ry
        t = np.multiply(a, c, out=t)
        w = np.multiply(b, s, out=w)
        np.subtract(t, w, out=t)
        np.multiply(a, s, out=w)
        a[...] = t
        np.multiply(b, c, out=t)
        np.add(w, t, out=t)
        b[...] = t


def apply_circuit(state: StateVector, circuit: Circuit, validate: bool = True,
                  from_zero: bool = False) -> StateVector:
    """Apply every instruction of the circuit in order, in place.

    ``from_zero=True`` promises that ``state`` is |0...0> (only
    ``amplitudes[0] == 1`` is checked).  The call then records, local to
    it, the qubits no instruction has written yet, starting with every
    qubit.  Each gate runs through ``apply_gate`` with the unwritten
    qubits it does not target as ``zeros``, and then its targets are
    written.  A ``RegisterXor`` gets as ``top`` one above the highest
    written qubit, and scatters the live amplitudes when its span
    reaches above it (see ``RegisterXor.apply``); then its target
    register is written.

    On the live slice the kernels do the same arithmetic as on the whole
    state, so the amplitudes are bit-equal to the untracked call's, except
    that an amplitude that stays 0 keeps +0.0 where the dense butterflies
    may write -0.0.
    """
    if circuit.layout != state.layout:
        raise ValueError("circuit layout does not match the state layout")
    if validate:
        _require_normalized(state.norm(), state.amplitudes.dtype, "input state is not normalized")
    n = state.num_qubits
    if from_zero and state.amplitudes[0] != 1:
        raise ValueError("from_zero needs the state |0...0>")
    zeros = set(range(n)) if from_zero else set()  # the qubits no instruction has written yet
    for op in circuit.gates:
        if isinstance(op, Gate):
            targets = op.targets
            apply_gate(state, op, validate=False, zeros=[q for q in zeros if q not in targets])
            zeros.difference_update(targets)
        else:
            op.apply(state, max((q + 1 for q in range(n) if q not in zeros), default=0))
            zeros.difference_update(op.spans(state.layout)[1])
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


def _block_cumsum(amplitudes: np.ndarray, lo: int, start: float, p: np.ndarray,
                  cum: np.ndarray, nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``start`` plus the running sum of the non-zero |a|^2 in ``amplitudes[lo:lo + len(p)]``.

    Returns the sums and their positions in the block, or ``None`` for the
    positions when more than half the weights are non-zero: the sums then
    cover every position and fill ``p``, else they fill the front of
    ``cum``.  The block's last position always counts, so draws past the
    total find it.  |a|^2 is rounded in the buffer's real dtype and then
    widened, numpy accumulates in order and x + 0.0 == x, so each sum is
    bit-equal to one float64 cumsum over the whole buffer at its position.
    """
    block = amplitudes[lo:lo + p.shape[0]]
    if block.dtype == np.complex128:
        np.abs(block, out=p)
        np.multiply(p, p, out=p)
    else:
        w = np.abs(block)
        np.multiply(w, w, out=w)
        p[...] = w
    np.not_equal(p, 0.0, out=nonzero)
    nonzero[-1] = True
    if 2 * np.count_nonzero(nonzero) > p.shape[0]:  # packing would cost more than it saves
        p[0] += start
        return np.cumsum(p, out=p), None
    where = np.flatnonzero(nonzero)
    sums = np.take(p, where, out=cum[:where.shape[0]], mode="clip")  # "raise" would buffer
    sums[0] += start
    return np.cumsum(sums, out=sums), where


def sample(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Draw basis-index counts from the state's Born distribution.

    The generator is numpy's PCG64 via ``default_rng(seed)``; a given
    (state, shots, seed) triple reproduces identical counts, keyed in
    ascending order.  To split streams for parallel sampling, spawn child
    seeds with ``np.random.SeedSequence(seed).spawn(k)`` and run one call
    per child.

    A draw ``r * total`` (``r`` uniform in [0, 1)) lands on the first index
    whose cumulative |a|^2 exceeds it, or on the last index past the end.
    Pass 1 keeps only the end of each block's cumsum; pass 2 rebuilds the
    cumsum of each block that holds draws and counts them there, by searching
    the shorter of the block's sorted draws and its cumsum in the longer.
    Both passes run a block's cumsum over its non-zero weights alone (a
    zero weight adds nothing, and only a draw past the total, clipped onto
    the last index, lands on one), and pass 2 maps the positions found back
    through the block's non-zero positions.  A block whose weights are
    more than half non-zero sums all of them in place, as packing them
    would cost more than it saves.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    amplitudes = state.amplitudes
    width = min(amplitudes.shape[0], _SAMPLE_BLOCK)
    p, cum, nonzero = np.empty(width), np.empty(width), np.empty(width, dtype=bool)
    ends = np.empty(amplitudes.shape[0] // width)
    total = 0.0
    for b in range(ends.shape[0]):
        sums, where = _block_cumsum(amplitudes, b * width, total, p, cum, nonzero)
        total = ends[b] = sums[-1]
    _require_normalized(total, amplitudes.dtype, "state is not normalized")
    draws = np.random.default_rng(seed).random(shots)
    draws *= total
    draws.sort()
    splits = np.searchsorted(draws, ends, side="left")
    splits[-1] = shots  # draws at or past the total count on the last index
    keys, counts = [], []
    first = 0
    for b in np.flatnonzero(np.diff(splits, prepend=0)).tolist():
        mine = draws[first:splits[b]]
        first = splits[b]
        if ends.shape[0] > 1:
            sums, where = _block_cumsum(amplitudes, b * width, ends[b - 1] if b else 0.0, p, cum, nonzero)
        if mine.shape[0] < sums.shape[0]:
            idx = np.searchsorted(sums, mine, side="right")  # sorted, like the draws
            np.minimum(idx, sums.shape[0] - 1, out=idx)
            starts = np.flatnonzero(np.diff(idx, prepend=-1))
            hit, num = idx[starts], np.diff(starts, append=idx.shape[0])
        else:
            below = np.searchsorted(mine, sums, side="left")
            below[-1] = mine.shape[0]
            num = np.diff(below, prepend=0)
            hit = np.flatnonzero(num)
            num = num[hit]
        if where is not None:
            hit = where[hit]
        counts += num.tolist()
        hit += b * width
        keys += hit.tolist()
    return dict(zip(keys, counts))


def sample_overhead(size: int, shots: int) -> int:
    """Upper bound on the bytes ``sample`` holds beside a ``size``-amplitude buffer.

    Block-sized scratch (|a|^2 and the packed cumsum of the non-zero
    weights, 16 B; the non-zero mask, 1 B; their positions, 8 B; a float32
    |a|^2 for complex64 and the counting arrays: 48 B per block entry, 37 B
    measured with ``tracemalloc``) plus 128 B per shot: the sorted draws
    and, when every shot is its own outcome, its search index, list slots
    and dict entry (~120 B measured).
    """
    return 48 * min(size, _SAMPLE_BLOCK) + 128 * shots


def filter_counts(counts: Mapping[int, int], layout: RegisterLayout,
                  conditions: Mapping[str, int]) -> dict[int, int]:
    """Keep only the counts whose registers match every condition."""
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    keep = np.ones(keys.shape, dtype=bool)
    for reg, val in conditions.items():
        keep &= layout.values(keys, reg) == val
    return dict(compress(counts.items(), keep))
