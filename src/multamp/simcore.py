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
scatters the live prefix of each block of ``2**hi`` amplitudes (``hi``: top
of its span).  ``_blocks`` cuts the pieces, and the blocks of
``StateVector.mass``, ``StateVector.scale`` and ``sample``.  ``mass`` and
``sample``'s pass 1 read each block once, in one fused sum of squares
(``_block_mass``), and sum the blocks' masses the same way, in block order.

The blocks of ``mass`` and of ``scale`` and the rows the keyed path
gathers (below) are walked by ``_walk``, in contiguous shares, one per CPU
the process may run on (``os.sched_getaffinity``): the calling thread
takes the first and a pool of threads, started by the first walk that
splits, the rest.  In ``sample``'s pass 2 one of those threads computes
the next drawn block's |a|^2 while the caller draws from the current one;
every random number is drawn by the caller, in block order.  Each block
runs the same numpy calls on the same memory at any worker count, so
amplitudes, masses and counts are the same bytes.  A walk over at most
``_SAMPLE_BLOCK`` amplitudes runs inline, on one thread.  A forked child
starts a pool of its own.

``apply_circuit(..., from_zero=True)`` chooses the keyed path from the
circuit alone, before any write, at any state size (``_keyed_plan``).
The paper's U is H on the index register C, the exponent oracle keyed on
C, then gates that never read or write C: C's qubits are global in Häner
and Steiger's sense, and U|0> = v * sum_c |c> (x) V|lambda(c)>, v =
(1/sqrt 2)**|C|, meets only the distinct exponents.  So the Hadamards are
not applied but v is computed, in the state's dtype, and the oracle and V
run once per distinct exponent, through the dense kernels, on a compact
state.  Each row of the state (2**|C| contiguous amplitudes, one value of
the other qubits) that holds a non-zero is then gathered back through the
XOR's inverse index.  The path records which rows those are for a caller
that asks (``_written``), and ``amplify.run_amplified`` sums u^2 and
rescales over the blocks that hold them alone (``_live``).  Every other
circuit runs dense, each gate on its 2**(n-c) amplitudes: the comparator,
whose second XOR reads C, a table whose distinct exponents need every
qubit of C, and the U^-1 ``amplify.grover_iterate`` runs.

Post-selection goes through one slice: ``StateVector.select`` is the
writable view of the basis states whose registers read given values,
indexed by ``register_selector``.  ``sample`` draws from it,
``StateVector.mass`` sums its weight and ``amplify.phase_flip`` negates
it, all in place; none copies more than one block of it per worker.
``StateVector.scale`` multiplies it by one factor and the rest, one view
per qubit the predicate fixes, by the other, in place and with no scratch.

``sample`` holds no state-sized array: two blocks' |a|^2 (the drawing one
and the next), one block's non-zero mask, positions, running sum and draws
(``_SAMPLE_BLOCK`` amplitudes, fewer than four draws per entry) and the
returned counts (``sample_overhead``).  A block's mass copies it only if
it is complex64 or strided, to one contiguous complex128 block per worker.

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


def _live(support, index: tuple, count: int):
    """Whether each of the ``count`` blocks ``_blocks`` cuts from ``psi[index + ...]`` holds a non-zero.

    ``support`` is what ``apply_circuit``'s keyed path appends to ``_written``:
    one bool per contiguous segment of 2**g amplitudes, g <= log2 ``_SAMPLE_BLOCK``,
    over the ``(2,)*(n - g)`` axes of the qubits from g up, True where the segment
    holds a non-zero.  When ``index`` fixes no qubit below g, every block is a run
    of whole segments along the same leading axes, so indexing ``support`` alike
    answers for it.  None (read the blocks) without a ``support``, or when ``index``
    fixes a qubit inside a segment.
    """
    if support is None or not all(isinstance(i, slice) for i in index[support.ndim:]):
        return None
    return support[index[:support.ndim] + (Ellipsis,)].reshape(count, -1).any(axis=1)


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


def _submit(fn, *args):
    """Run ``fn(*args)`` on the pool, in the caller's ``contextvars`` (numpy's ``errstate``)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _workers() - 1), thread_name_prefix="simcore")
    return _pool.submit(contextvars.copy_context().run, fn, *args)


def _walk(share, count: int, size: int) -> None:
    """Call ``share(lo, hi)`` on contiguous shares ``[lo, hi)`` of ``range(count)``, one per worker.

    ``count`` items (blocks, or the keyed path's rows) hold ``size`` amplitudes
    in all.  A walk over at most ``_SAMPLE_BLOCK`` amplitudes runs inline and
    starts no thread.  Else the calling thread takes the first share and the
    pool the rest, and the call returns once every share has ended.  ``share``
    writes only what its own items own, so the result is the same at any
    worker count.  A gate runs on the calling thread alone, with no walk.
    """
    k = min(count, _workers()) if size > _SAMPLE_BLOCK else 1
    if k <= 1:
        share(0, count)
        return
    bounds = [count * i // k for i in range(k + 1)]
    jobs = [_submit(share, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
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

    def mass(self, conditions: Mapping[str, int], *, _support=None) -> float:
        """Sum of |a|^2 over ``select(conditions)``: the masses of its blocks, summed as
        ``sample`` sums them before it draws, so the two totals are the same float.
        ``_support``: a keyed ``apply_circuit``'s record of this state's non-zero
        segments, as ``amplify.run_amplified`` passes it; only the blocks it marks are read."""
        return float(self._block_masses(conditions, _support)[1].sum())

    def _block_masses(self, conditions: Mapping[str, int], support=None) -> tuple:
        """The ``_SAMPLE_BLOCK``-amplitude blocks of ``select(conditions)`` and their masses.

        Given a keyed ``apply_circuit``'s ``support`` (see ``_live``), only the
        blocks it marks are read; the others hold only zeros, so their masses
        are 0.0 and every sum over them is the same float.
        """
        sel = register_selector(self.layout, conditions)
        view = self.amplitudes.reshape((2,) * self.num_qubits)[sel + (Ellipsis,)]
        blocks = _blocks(view, _SAMPLE_BLOCK)
        live = _live(support, sel, len(blocks))
        read = range(len(blocks)) if live is None else np.flatnonzero(live)
        masses = np.zeros(len(blocks))

        def share(lo, hi):
            for i in read[lo:hi]:
                masses[i] = _block_mass(blocks[i])

        _walk(share, len(read), len(read) * blocks[0].size)
        return blocks, masses

    def scale(self, conditions: Mapping[str, int], inside: float, outside: float, *, _support=None
              ) -> "StateVector":
        """Multiply ``select(conditions)`` by ``inside`` and the rest by ``outside``, in place.

        The rest is one view per qubit the predicate fixes, highest first:
        the amplitudes where that qubit reads the other value and the fixed
        qubits above it read theirs.  With the slice, these views are disjoint
        and cover the state.  Each is walked in blocks of at most
        ``_SAMPLE_BLOCK`` amplitudes (``_blocks``), split among the workers
        (``_walk``), and each block is multiplied by its factor once, in
        place, with no scratch.  A block that holds only zeros is left as it
        is, so pages no gate wrote stay unwritten (and a zero keeps its sign).
        Given a keyed ``apply_circuit``'s ``_support`` of this state, as
        ``amplify.run_amplified`` passes it, only the blocks it marks are
        walked, and they are multiplied without being read first: the same
        blocks, the same bytes.
        """
        psi = self.amplitudes.reshape((2,) * self.num_qubits)
        sel = register_selector(self.layout, conditions)
        parts = [(sel, inside)] + [(sel[:i] + (1 - v,), outside)
                                   for i, v in enumerate(sel) if not isinstance(v, slice)]
        blocks = []  # (block, factor, whether it is still to be read for a non-zero)
        for index, factor in parts:
            part = _blocks(psi[index + (Ellipsis,)], _SAMPLE_BLOCK)
            live = _live(_support, index, len(part))
            blocks += [(block, factor, live is None)
                       for block in (part if live is None else compress(part, live))]

        def share(lo, hi):
            for block, factor, unread in blocks[lo:hi]:
                if not unread or block.any():
                    block *= factor

        _walk(share, len(blocks), sum(block.size for block, _, _ in blocks))
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

    def apply(self, state: StateVector, top: int | None = None) -> StateVector:
        """Permute the state in place and return it.

        ``top``: the caller knows every qubit from ``top`` up reads 0, so
        every amplitude at index >= 2**top is 0 (default: the qubit count).
        ``apply_circuit``'s keyed path passes the compact key's width, having
        written the compact state's first entries alone.
        The permutation maps each block of 2**hi amplitudes (``hi``: top of
        the key/target span) onto itself.  In each block below 2**top the
        live prefix, its first 2**min(top, hi), is copied out and zeroed,
        and each copy is written to its destination, which the zeros left.
        A prefix that is the whole block is not zeroed: the scatter writes
        every position of it.
        """
        layout = state.layout
        self.validate(layout)
        key, target = layout.qubits(self.key_register), layout.qubits(self.target_register)
        hi = max(key.stop, target.stop)
        top = state.num_qubits if top is None else top
        width = min(top, hi)
        # dest[i] = i ^ (values[key of i] << target.start); key bits from ``width`` up read 0
        k_lo, k_hi = min(key.start, width), min(key.stop, width)
        dest = np.arange(1 << width, dtype=np.int64)
        by_key = dest.reshape(-1, 1 << (k_hi - k_lo), 1 << k_lo)
        by_key ^= (self.values[:1 << (k_hi - k_lo)] << target.start)[:, None]
        moved = np.empty(1 << width, state.amplitudes.dtype)
        for block in state.amplitudes.reshape(-1, 1 << hi)[:1 << max(top - hi, 0)]:
            live = block[:1 << width]
            moved[...] = live
            if width < hi:
                live[...] = 0
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


def apply_circuit(state: StateVector, circuit: Circuit, validate: bool = True,
                  from_zero: bool = False, *, _written: list | None = None) -> StateVector:
    """Apply every instruction of the circuit in order, in place.

    The dense path, the specification: each gate runs through ``apply_gate``
    on the whole state and each ``RegisterXor`` through its ``apply``.

    ``from_zero=True`` promises that ``state`` is |0...0> (only
    ``amplitudes[0] == 1`` is checked) and lets the call take the keyed
    path, chosen from the circuit alone before anything is written
    (``_keyed_plan``): k uncontrolled H, one on each qubit of C, the
    layout's first register, in any order; then a ``RegisterXor`` keyed on
    C whose distinct values fit in m < k qubits; then only gates that
    neither target nor control a qubit of C.  After the XOR the state is
    v * sum_c |c> (x) |values[c]>, v = (1/sqrt 2)**k, and the rest acts on
    each value of C alike, so ``_run_keyed`` runs it once per distinct value,
    on a compact state.  Every other circuit runs dense.  The keyed amplitudes
    are the dense path's: the same bytes in every row the path writes, and
    the same values in the rows it leaves at +0.0, where the dense butterflies
    may write -0.0.  The path appends to ``_written``, if given, the segments
    that hold a non-zero (the ``support`` ``_live`` reads); valid until the
    next write.
    """
    if circuit.layout != state.layout:
        raise ValueError("circuit layout does not match the state layout")
    if validate:
        _require_normalized(state.mass({}), state.amplitudes.dtype, "input state is not normalized")
    if from_zero and state.amplitudes[0] != 1:
        raise ValueError("from_zero needs the state |0...0>")
    plan = _keyed_plan(circuit) if from_zero else None
    if plan is not None:
        support = _run_keyed(state, *plan)
        if _written is not None:
            _written.append(support)
        return state
    for op in circuit.gates:
        if isinstance(op, Gate):
            apply_gate(state, op, validate=False)
        else:
            op.apply(state)
    return state


def _keyed_plan(circuit: Circuit) -> tuple | None:
    """``_run_keyed``'s arguments after ``state``, read off the circuit alone, or None.

    None unless the circuit has the form ``apply_circuit``'s keyed path
    needs: instructions 0..k-1 are one uncontrolled H on each qubit of C
    (the layout's first register, k qubits), instruction k is a
    ``RegisterXor`` keyed on C, every later instruction is a gate on qubits
    from k up, and the XOR's distinct values fit in m < k qubits (else the
    compact state would be as large as the state).  Else (the XOR, the later
    gates, the distinct values in ascending order, the inverse index that
    maps each value of C to its distinct value's place, m).
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


def _run_keyed(state: StateVector, op: RegisterXor, later: list, values: np.ndarray, index: np.ndarray,
               m: int) -> np.ndarray:
    """Write U|0> into ``state`` (|0...0>) for a circuit ``_keyed_plan`` took; return its support.

    The compact state is the layout with C narrowed to m qubits, one key
    value per distinct XOR value.  Its first ``len(values)`` key entries
    get v = (1/sqrt 2)**k, k = |C|, as k products by 1/sqrt 2 in the state's
    dtype: from |0> each Hadamard on C writes the product of the one
    non-zero it reads.  A ``RegisterXor`` of the distinct values, padded with 0
    to 2**m, runs on it (``top`` m), then every later gate through
    ``apply_gate``, its qubits shifted down by k - m.  Then each row of the
    state (2**k contiguous amplitudes: one value of the other qubits) that
    holds a non-zero is gathered from its compact row through ``index``, one
    ``np.take`` per row, the rows split among the workers (``_walk``).
    Amplitude 0, |0...0>'s 1, is cleared when row 0 holds no non-zero.
    Returns the ``support`` ``_live`` reads: whether each segment of
    2**seg amplitudes, seg = min(k, log2 ``_SAMPLE_BLOCK``), holds a
    non-zero, read off the compact rows.  Nothing of the state is read.
    Scratch: the compact state beside the plan's 2**k int64 index.
    """
    layout, n = state.layout, state.num_qubits
    k = layout.width(op.key_register)
    down = k - m
    compact = StateVector(RegisterLayout([(op.key_register, m)] + [(r, layout.width(r))
                                                                   for r in layout.names()[1:]]),
                          np.zeros(1 << (n - down), state.amplitudes.dtype))
    v = state.amplitudes.dtype.type(1)
    for _ in range(k):
        v *= _SQRT1_2
    compact.amplitudes[:len(values)] = v
    padded = np.zeros(1 << m, np.int64)
    padded[:len(values)] = values
    RegisterXor(op.key_register, op.target_register, padded).apply(compact, m)
    for g in later:
        apply_gate(compact, Gate(g.kind, g.target - down, g.angle, None if g.target2 is None else g.target2 - down,
                                 tuple((q - down, p) for q, p in g.controls)), validate=False)

    rows = state.amplitudes.reshape(-1, 1 << k)
    crows = compact.amplitudes.reshape(-1, 1 << m)[:, :len(values)]
    seg = min(k, _SAMPLE_BLOCK.bit_length() - 1)  # a segment is 2**seg amplitudes
    holds = np.zeros((1 << (k - seg), len(values)), bool)  # [s, j]: segment s of a row holds key value j
    holds[np.arange(1 << (k - seg))[:, None], index.reshape(-1, 1 << seg)] = True
    support = (crows != 0) @ holds.T
    live = support.any(axis=1)
    written = np.flatnonzero(live)

    def share(lo, hi):
        for r in written[lo:hi]:
            np.take(crows[r], index, out=rows[r], mode="clip")

    _walk(share, len(written), len(written) << k)
    if not live[0]:
        state.amplitudes[0] = 0
    return support.reshape((2,) * (n - seg))


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


def _block_weights(block: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|a|^2 of ``block``, in C order, into the float64 ``p``."""
    out = p.reshape(block.shape)
    np.abs(block, out=out)
    np.multiply(out, out, out=out)
    return p


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
    and draws them there (``_block_draws``): the law of drawing each shot
    from the whole of it.  With more than one worker, a pool thread
    computes the next such block's |a|^2 while the caller draws from this
    one; every random number is drawn by the caller, in block order.
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
    drawn = np.flatnonzero(per_block).tolist()
    p = _block_weights(blocks[drawn[0]], np.empty(blocks[0].size))
    ahead = np.empty_like(p) if len(drawn) > 1 and _workers() > 1 else None
    counts = {}
    for b, after in zip(drawn, drawn[1:] + [None]):
        job = None if ahead is None or after is None else _submit(
            _block_weights, blocks[after], ahead)  # the next block's |a|^2 while this one draws
        try:
            hit, num = _block_draws(p, int(per_block[b]), rng)
        finally:
            if job is not None:
                wait([job])
        hit += b * p.size
        counts.update(zip(hit.tolist(), num.tolist()))
        if job is not None:
            p, ahead = job.result(), p
        elif after is not None:
            _block_weights(blocks[after], p)
    return counts


def sample_overhead(size: int, shots: int) -> int:
    """Upper bound on the bytes ``sample`` holds beside a ``size``-amplitude buffer.

    Per block entry, the larger of the two passes.  Pass 1: one contiguous
    complex128 copy of a block per worker (16 B each), made of a complex64
    or strided block.  Pass 2: 72 B, the |a|^2 of the block that draws and of
    the next one (a worker computes it meanwhile), the non-zero mask and
    positions, the packed weights, and one block's draws (fewer than four
    per entry) with their search index.  112 B per outcome drawn, at most
    min(shots, size): the returned dict's entries and ints and the lists
    they come from.  ``tracemalloc`` measured 164 B per entry for 2**30
    shots on 2**16 amplitudes, 106 B per outcome for 2**26 shots on 2**18,
    and 0.9 MB for 4096 shots on 2**20 (1.4 MB with a worker computing the
    next block's |a|^2).
    """
    return max(72, 16 * _workers()) * min(size, _SAMPLE_BLOCK) + 112 * min(shots, size)


def filter_counts(counts: Mapping[int, int], layout: RegisterLayout,
                  conditions: Mapping[str, int]) -> dict[int, int]:
    """Keep only the counts whose registers match every condition."""
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    keep = np.ones(keys.shape, dtype=bool)
    for reg, val in conditions.items():
        keep &= layout.values(keys, reg) == val
    return dict(compress(counts.items(), keep))
