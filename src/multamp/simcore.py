"""Dense statevector simulator with named quantum registers.

Bit order is little endian throughout: qubit ``i`` holds bit ``i`` of the
basis index, and a register occupying qubits ``[lo, hi)`` reads its value
the same way.  Gates act in place on a ``(2,)*n`` view of the amplitude
buffer, so a gate with ``c`` controls touches ``2**(n-c)`` amplitudes.
``z`` allocates nothing.  ``x``, ``swap``, ``h``, ``ry`` and ``phase`` take
the slice's halves in pieces of at most ``2**_PIECE_QUBITS`` amplitudes, with
``out=`` ufuncs into at most two piece-sized scratch arrays per gate:
512 KiB for complex128 whatever the state size (Häner and Steiger,
arXiv:1704.01127).  Every gate runs on the calling thread.  ``RegisterXor``
permutes each block of ``2**hi`` amplitudes (``hi``: top of its span)
through one copy.  ``_blocks`` cuts the pieces, and the blocks of
``StateVector.mass``, ``StateVector.scale`` and ``sample``.  ``mass`` and
``sample``'s pass 1 read each block once, in one fused sum of squares
(``_block_mass``), and sum the blocks' masses the same way, in block order.

The blocks of ``mass`` and of ``scale``, and the rows
``amplify.run_amplified`` gathers from U's compact state, are walked by
``_walk``, in contiguous shares, one per CPU the process may run on
(``os.sched_getaffinity``): the calling thread takes the first and a pool
of threads, started by the first walk that splits, the rest; every share
ends before its walk returns, and the pool runs nothing else.
``sample``'s pass 2 runs on the calling thread, which draws every random
number, in block order.  Each block runs the same numpy calls on the same
memory at any worker count, so amplitudes, masses and counts are the same
bytes.  A walk over at most ``_SAMPLE_BLOCK`` amplitudes runs inline, on
one thread.  A forked child starts a pool of its own.

``apply_circuit`` is the dense path, the specification: every gate runs
on its 2**(n-c) amplitudes of the whole state, every ``RegisterXor``
through its ``apply``.  ``amplify.run_amplified`` builds the paper's U|0>
on a compact state instead when the circuit has U's form: it writes the
oracle's output and runs only the later gates through ``apply_circuit``.

Post-selection goes through one slice: ``StateVector.select`` is the
writable view of the basis states whose registers read given values,
indexed by ``register_selector``.  ``sample`` draws from it,
``StateVector.mass`` sums its weight and ``amplify.phase_flip`` negates
it, all in place; none copies more than one block of it per worker.
``StateVector.scale`` multiplies it by one factor and the rest, one view
per qubit the predicate fixes, by the other, in place and with no scratch.

``sample`` holds no state-sized array: one block's |a|^2, non-zero mask,
positions, running sum and draws (``_SAMPLE_BLOCK`` amplitudes, fewer than
four draws per entry) and the returned counts (``sample_overhead``).  A
block's mass copies it only if it is complex64 or strided, to one
contiguous complex128 block per worker.

An instruction checks what depends on it alone once, when it is built;
applying it checks only what needs the state.  A StateVector owns its
buffer; the concurrency contract is one writer per state, and callers must
not alias buffers across states.  The worker threads a call splits its
walk over write only that call's state, and the call returns once they end.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from itertools import compress, product
from typing import Iterable, Mapping

import numpy as np

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_PIECE_QUBITS = 14  # half-slice piece of 2**14 amplitudes: four such arrays fill 1 MiB of L2
_SAMPLE_BLOCK = 1 << 16  # amplitudes per block of mass, sample and scale: 1 MiB, the most mass and sample copy


def _blocks(a: np.ndarray, size: int):
    """C-order views of at most ``size`` (a power of two) entries tiling ``a``, a ``(2,)*k`` view:
    ``a`` if it fits, else ``a[i]`` over its leading axes.  Every caller passes such a view
    (``select``'s, one of ``StateVector.scale``'s parts, a gate's half), never a flat buffer."""
    if a.size <= size:
        return (a,)
    return [a[i] for i in product((0, 1), repeat=a.ndim - size.bit_length() + 1)]


def _workers() -> int:
    """The CPUs this process may run on: the shares a walk of many blocks is split into."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_pool = None  # the threads beyond the caller's, started by the first walk that splits
_pool_lock = threading.Lock()


def _reset_pool() -> None:
    """Forget the pool: a forked child holds none of its threads, so it starts its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _walk(share, count: int, size: int) -> None:
    """Call ``share(lo, hi)`` on contiguous shares ``[lo, hi)`` of ``range(count)``, one per worker.

    ``count`` items (blocks, or the rows ``amplify.run_amplified`` gathers)
    hold ``size`` amplitudes in all.  A walk over at most ``_SAMPLE_BLOCK``
    amplitudes runs inline and starts no thread.  Else the calling thread takes the first share and the
    pool the rest, each in the caller's ``contextvars`` (numpy's ``errstate``),
    and the call returns once every share has ended.  ``share`` writes only
    what its own items own, so the result is the same at any worker count.
    A gate runs on the calling thread alone, with no walk.
    """
    global _pool
    k = min(count, _workers()) if size > _SAMPLE_BLOCK else 1
    if k <= 1:
        share(0, count)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _workers() - 1), thread_name_prefix="simcore")
    bounds = [count * i // k for i in range(k + 1)]
    jobs = [_pool.submit(contextvars.copy_context().run, share, lo, hi)
            for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        share(bounds[0], bounds[1])
    finally:
        wait(jobs)  # no share outlives the call, even when the caller's raised
    for job in jobs:
        job.result()


def _block_mass(block: np.ndarray) -> float:
    """Sum of |a|^2 over ``block``, in float64: one pass over its re and im parts.

    A complex64 or strided block is copied to contiguous complex128 first;
    that copy is the one temporary.  ``einsum`` sums in numpy's own loop: a
    BLAS dot (``vdot``, ``dot``) may split the sum across threads, and with
    them its rounding.
    """
    f = np.ascontiguousarray(block, dtype=np.complex128).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", f, f))


def _require_normalized(value: float, dtype, message: str) -> None:
    """Raise ``ValueError(message)`` unless |value - 1| <= max(1e-6, 4096 epsilons of ``dtype``).

    ``value`` is a mass (``StateVector.mass``): the gates and ``sample`` check
    the same sum.  Rounding moves it by about one epsilon per gate (the float32
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

    def without(self, names) -> "RegisterLayout":
        """The layout of the other registers, in their order."""
        return RegisterLayout((name, hi - lo) for name, (lo, hi) in self._spans.items()
                              if name not in names)

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
        """sqrt of the mass of the whole state, in float64 whatever the dtype."""
        return math.sqrt(self.mass({}))

    def mass(self, conditions: Mapping[str, int]) -> float:
        """Sum of |a|^2 over ``select(conditions)``: the masses of its blocks, summed as
        ``sample`` sums them before it draws, so the two totals are the same float."""
        return float(self._block_masses(conditions)[1].sum())

    def _block_masses(self, conditions: Mapping[str, int]) -> tuple:
        """The ``_SAMPLE_BLOCK``-amplitude blocks of ``select(conditions)`` and their masses."""
        blocks = _blocks(self.select(conditions), _SAMPLE_BLOCK)
        masses = np.zeros(len(blocks))

        def share(lo, hi):
            for i in range(lo, hi):
                masses[i] = _block_mass(blocks[i])

        _walk(share, len(blocks), len(blocks) * blocks[0].size)
        return blocks, masses

    def scale(self, conditions: Mapping[str, int], inside: float, outside: float) -> "StateVector":
        """Multiply ``select(conditions)`` by ``inside`` and the rest by ``outside``, in place.

        The rest is one view per qubit the predicate fixes, highest first:
        the amplitudes where that qubit reads the other value and the fixed
        qubits above it read theirs.  With the slice, these views are disjoint
        and cover the state.  Each is walked in blocks of at most
        ``_SAMPLE_BLOCK`` amplitudes (``_blocks``), split among the workers
        (``_walk``), and each block that holds a non-zero is multiplied by its
        factor once, in place, with no scratch.  A block that holds only zeros
        is left as it is, so pages no gate wrote stay unwritten (and a zero
        keeps its sign).  ``amplify.run_amplified`` scales U's compact state
        this way, or the whole state when U ran dense.
        """
        psi = self.amplitudes.reshape((2,) * self.num_qubits)
        sel = register_selector(self.layout, conditions)
        parts = [(sel, inside)] + [(sel[:i] + (1 - v,), outside)
                                   for i, v in enumerate(sel) if not isinstance(v, slice)]
        blocks = [(block, factor) for index, factor in parts
                  for block in _blocks(psi[index + (Ellipsis,)], _SAMPLE_BLOCK)]

        def share(lo, hi):
            for block, factor in blocks[lo:hi]:
                if block.any():
                    block *= factor

        _walk(share, len(blocks), sum(block.size for block, _ in blocks))
        return self

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amplitudes.copy())

    def select(self, conditions: Mapping[str, int]) -> np.ndarray:
        """Writable view of the amplitudes whose registers read the given values.

        Its axes are the ``(2,)*n`` axes of the free qubits, highest qubit
        first; with every qubit fixed it is a 0-d view, never a copy.  An
        unknown register raises KeyError, an out-of-range value ValueError.
        """
        psi = self.amplitudes.reshape((2,) * self.num_qubits)
        return psi[register_selector(self.layout, conditions) + (Ellipsis,)]


@dataclass(frozen=True)
class Gate:
    """One primitive gate: kind in {h, x, z, ry, phase, swap}.

    ``controls`` is a tuple of (qubit, polarity) pairs; polarity 1 fires on
    |1>, polarity 0 on |0>.  ``angle`` is the full rotation angle theta of
    RotY(theta) / Phase(theta).  Building a gate (``inverse`` and
    ``dataclasses.replace`` too) checks the kind, that a swap and only a swap
    has a ``target2``, the polarities, and that the qubits are distinct and >= 0.
    It also sets, once, ``targets``: the qubits the gate writes, target then
    target2; and ``qubits``: every qubit it reads or writes, the targets then
    the controls.  Neither is a field, so equality, hashing, repr and
    ``replace`` read the five fields alone.
    """

    kind: str
    target: int
    angle: float = 0.0
    target2: int | None = None
    controls: tuple = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS or (self.kind == "swap") != (self.target2 is not None):
            raise ValueError(f"kind must be one of {GATE_KINDS}, and only a swap has a target2: {self}")
        targets = (self.target,) if self.target2 is None else (self.target, self.target2)
        used = targets + tuple(q for q, _ in self.controls)
        if any(p not in (0, 1) for _, p in self.controls) or min(used) < 0 or len(set(used)) != len(used):
            raise ValueError(f"control polarities must be 0 or 1, and qubits distinct and >= 0: {self}")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "qubits", used)

    def inverse(self) -> "Gate":  # h, x, z and swap are self-inverse
        return replace(self, angle=-self.angle) if self.kind in ("ry", "phase") else self


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
    register value to the integer XOR-ed into the target register.  Building
    one refuses a self-keyed XOR, which is no permutation, and values other
    than integers >= 0; each ``apply`` runs ``validate`` on their count and range.
    """

    def __init__(self, key_register: str, target_register: str, values):
        if key_register == target_register:
            raise ValueError(f"register {key_register!r} cannot key an XOR into itself")
        values = np.asarray(values)
        if values.ndim != 1 or not np.issubdtype(values.dtype, np.integer):
            raise ValueError("values must be a flat integer array")
        self.key_register = key_register
        self.target_register = target_register
        self.values = values.astype(np.int64, copy=False)
        if np.any(self.values < 0):
            raise ValueError("XOR values must be non-negative")

    def validate(self, layout: RegisterLayout):
        kw = layout.width(self.key_register)
        tw = layout.width(self.target_register)
        if self.values.shape[0] != (1 << kw):
            raise ValueError(
                f"need one value per key-register state: expected {1 << kw}, got {self.values.shape[0]}"
            )
        if self.values.max() >= (1 << tw):
            raise ValueError(f"XOR values do not fit in register {self.target_register!r}")

    def apply(self, state: StateVector) -> StateVector:
        """Permute the state in place and return it.

        The permutation maps each block of 2**hi amplitudes (``hi``: top of
        the key/target span) onto itself: each block is copied out once and
        the copy written to its destinations.
        """
        layout = state.layout
        self.validate(layout)
        key, target = layout.qubits(self.key_register), layout.qubits(self.target_register)
        hi = max(key.stop, target.stop)
        # dest[i] = i ^ (values[key of i] << target.start)
        dest = np.arange(1 << hi, dtype=np.int64)
        by_key = dest.reshape(-1, 1 << len(key), 1 << key.start)
        by_key ^= (self.values << target.start)[:, None]
        moved = np.empty(1 << hi, state.amplitudes.dtype)
        for block in state.amplitudes.reshape(-1, 1 << hi):
            moved[...] = block
            block[dest] = moved
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


def apply_gate(state: StateVector, gate: Gate, validate: bool = True) -> StateVector:
    """Apply one gate in place and return the same state.

    The gate's wiring was checked when it was built; a call checks its qubits
    against the qubit count and, if ``validate``, the input mass.  The gate
    runs on the slice where its controls read their polarities, 2**(n - c)
    amplitudes for c controls, whatever they hold.  Its |0> and |1> halves go
    to ``_butterfly`` in pieces of at most ``2**_PIECE_QUBITS`` amplitudes,
    in order on the calling thread, through one scratch per gate.
    """
    n = state.num_qubits
    kind = gate.kind
    if max(gate.qubits) >= n:
        raise ValueError(f"{gate} reaches past the {n}-qubit state")
    if validate:
        _require_normalized(state.mass({}), state.amplitudes.dtype, "input state is not normalized")

    psi = state.amplitudes.reshape((2,) * n)
    sel = [slice(None)] * n + [Ellipsis]  # Ellipsis: the halves stay views, 0-d ones too
    for q, pol in gate.controls:
        sel[n - 1 - q] = pol  # qubit q lives on axis n-1-q of the C-order view
    ax = n - 1 - gate.target
    sel[ax] = 0
    if kind == "swap":
        ax2 = n - 1 - gate.target2
        sel[ax2] = 1  # |01> half
    v0 = psi[tuple(sel)]
    sel[ax] = 1
    if kind == "swap":
        sel[ax2] = 0  # |10> half
    v1 = psi[tuple(sel)]
    if kind == "z":
        v1 *= -1.0
        return state
    if kind == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
    elif kind == "phase":
        c, s = math.cos(gate.angle), math.sin(gate.angle)
    else:
        c, s = _SQRT1_2, _SQRT1_2
    a0, a1 = _blocks(v0, 1 << _PIECE_QUBITS), _blocks(v1, 1 << _PIECE_QUBITS)
    t = np.empty(a0[0].shape, v0.dtype)
    w = None if kind in ("x", "swap", "phase") else np.empty_like(t)
    for a, b in zip(a0, a1):
        _butterfly(kind, a, b, c, s, t, w)
    return state


def _butterfly(kind, a, b, c, s, t, w):
    """One piece of an x/swap/h/ry/phase gate, in place: ``a``, ``b`` are the |0>, |1> halves.

    ``t``, ``w``: contiguous scratch of the piece's shape (``w`` for h and ry only).
    Each term of ``a*c - b*s``, ``a*s + b*c`` (h: ``(a+b)*s``, ``(a-b)*s``) reads the
    strided halves once, with the per-element arithmetic of those whole-slice expressions.
    Phase multiplies ``b`` by ``c + i*s`` through real products and sums of its parts:
    numpy's complex product rounds a 1-element array differently from longer ones.
    """
    if kind in ("x", "swap"):
        t[...] = a
        a[...] = b
        b[...] = t
    elif kind == "h":
        np.add(a, b, out=t)
        np.multiply(t, s, out=t)
        np.subtract(a, b, out=w)
        np.multiply(w, s, out=w)
        a[...] = t
        b[...] = w
    elif kind == "phase":  # b*c + i*b*s, rounded like Python's complex product
        np.multiply(b, s, out=t)
        np.multiply(b, c, out=b)
        np.subtract(b.real, t.imag, out=b.real)
        np.add(b.imag, t.real, out=b.imag)
    else:  # ry
        np.multiply(a, c, out=t)
        np.multiply(b, s, out=w)
        np.subtract(t, w, out=t)
        np.multiply(a, s, out=w)
        a[...] = t
        np.multiply(b, c, out=t)
        np.add(w, t, out=t)
        b[...] = t


def apply_circuit(state: StateVector, circuit: Circuit, validate: bool = True) -> StateVector:
    """Apply every instruction of the circuit in order, in place: each gate through
    ``apply_gate`` on the whole state, each ``RegisterXor`` through its ``apply``."""
    if circuit.layout != state.layout:
        raise ValueError("circuit layout does not match the state layout")
    if validate:
        _require_normalized(state.mass({}), state.amplitudes.dtype, "input state is not normalized")
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


def _block_draws(p: np.ndarray, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``p`` and counts of ``k`` draws from the weights ``p`` (overwritten).

    Only the non-zero weights take part, so a weight that is 0, or whose
    |a|^2 underflowed to 0, is never drawn.  With four draws per such
    weight or more, one ``rng.multinomial`` over them gives the counts: a
    micro-benchmark put its cost per weight near that of four sorted draws.
    Else uniforms r in [0, 1) scaled to r * s, s the weights' sum (never
    reached: r <= 1 - 2**-53, s normal), are sorted and land on the first
    weight whose running sum exceeds them, searching the shorter in the
    longer.  The running sum is over the non-zero weights, packed, unless
    more than half are non-zero: packing would cost more than it saves.
    """
    nonzero = p != 0.0
    nnz = np.count_nonzero(nonzero)
    where = np.flatnonzero(nonzero) if 4 * nnz <= k or 2 * nnz <= p.shape[0] else None
    w = p if where is None else p[where]
    if 4 * nnz <= k:
        num = rng.multinomial(k, w / w.sum())
        hit = np.flatnonzero(num)
        return where[hit], num[hit]
    sums = np.cumsum(w, out=w)
    draws = rng.random(k)
    draws *= sums[-1]
    draws.sort()
    if k < nnz:
        idx = np.searchsorted(sums, draws, side="right")
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        hit, num = idx[starts], np.diff(starts, append=k)
    else:
        num = np.diff(np.searchsorted(draws, sums, side="left"), prepend=0)
        hit = np.flatnonzero(num)
        num = num[hit]
    return (hit if where is None else where[hit]), num


def sample(state: StateVector, shots: int, seed, conditions: Mapping[str, int] | None = None
           ) -> dict[int, int]:
    """Draw basis-index counts from the state's Born distribution.

    ``seed``: an int or a ``np.random.Generator``, read by ``default_rng``
    (numpy's PCG64), so a given (state, shots, seed) reproduces identical
    counts, keyed in ascending order.  To split streams for parallel
    sampling, spawn child seeds with ``np.random.SeedSequence(seed).spawn(k)``
    and run one call per child.

    ``conditions``: draw from the renormalized slice where those registers
    read those values, through the ``StateVector.select`` view; the keys
    then index the layout of the other registers
    (``RegisterLayout.without``).  A zero-weight slice raises.  Without a
    predicate (``None`` or empty) the whole state is drawn from, and an
    unnormalized one raises.

    Pass 1 takes each block of ``_SAMPLE_BLOCK`` amplitudes' mass in one
    fused sum of squares (``_block_mass``), and one multinomial over those
    masses splits the shots among the blocks; over a single block it draws
    no random number.  Pass 2 computes |a|^2 in each block that holds draws
    and draws them there (``_block_draws``), in block order on the calling
    thread: the law of drawing each shot from the whole of it.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    blocks, masses = state._block_masses(conditions or {})
    total = masses.sum()
    if not conditions:  # the whole state: None or an empty predicate
        _require_normalized(total, state.amplitudes.dtype, "state is not normalized")
    elif not total > 1e-300:
        raise ValueError(f"cannot sample the zero-probability slice {dict(conditions)}")
    rng = np.random.default_rng(seed)
    per_block = rng.multinomial(shots, masses / total)
    p = np.empty(blocks[0].size)
    weights = p.reshape(blocks[0].shape)
    counts = {}
    for b in np.flatnonzero(per_block).tolist():
        np.abs(blocks[b], out=weights)
        np.multiply(weights, weights, out=weights)
        hit, num = _block_draws(p, int(per_block[b]), rng)
        hit += b * p.size
        counts.update(zip(hit.tolist(), num.tolist()))
    return counts


def sample_overhead(size: int, shots: int) -> int:
    """Upper bound on the bytes ``sample`` holds beside a ``size``-amplitude buffer.

    Per block entry, the larger of the two passes.  Pass 1: one contiguous
    complex128 copy of a block per worker (16 B each), made of a complex64
    or strided block.  Pass 2: 64 B, the |a|^2 of the block that draws, the
    non-zero mask and positions, the packed weights, and one block's draws
    (fewer than four per entry) with their search index.  112 B per outcome
    drawn, at most min(shots, size): the returned dict's entries and ints
    and the lists they come from.  ``tracemalloc`` measured 163 B per entry
    for 2**30 shots on 2**16 amplitudes, 103 B per outcome for 2**26 shots
    on 2**18, and 0.9 MB for 4096 shots on 2**20.
    """
    return max(64, 16 * _workers()) * min(size, _SAMPLE_BLOCK) + 112 * min(shots, size)


def filter_counts(counts: Mapping[int, int], layout: RegisterLayout,
                  conditions: Mapping[str, int]) -> dict[int, int]:
    """Keep only the counts whose registers match every condition."""
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    keep = np.ones(keys.shape, dtype=bool)
    for reg, val in conditions.items():
        keep &= layout.values(keys, reg) == val
    return dict(compress(counts.items(), keep))
