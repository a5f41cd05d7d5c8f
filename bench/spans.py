"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper in place of the original in every module of the package
that holds it by name (``ising`` imports ``apply_circuit`` from
``simcore``, ``cli`` imports ``sample``, and so on), so no call goes
unseen.  ``simcore.apply_gate`` and ``RegisterXor.apply`` get a gate
wrapper that also records the gate class and the bytes it touches.
``uninstall`` puts every original back.

A span's self time is its duration minus the time of the spans it
called.  Nothing is written out until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

TRACED_MODULES = ("simcore", "transduce", "amplify", "ising", "analysis", "cli")
PACKAGE_MODULES = TRACED_MODULES + ("baselines",)
GATE_CLASSES = ("h", "ry", "cry", "x", "cx", "mcx", "phase", "cphase", "swap", "register_xor")

# spans whose direct apply_circuit calls apply the whole synthesis U (or U^-1)
U_CALLERS = frozenset({"ising.synthesize_boltzmann", "amplify.grover_iterate",
                       "amplify.run_amplified", "transduce.run_synthesis"})


def gate_class(op) -> str:
    """Kernel class of one instruction: h, ry, cry, x, cx, mcx, phase, ..."""
    kind = getattr(op, "kind", None)
    if kind is None:
        return "register_xor"
    controls = len(op.controls)
    if kind == "x":
        return ("x", "cx", "mcx")[min(controls, 2)]
    return f"c{kind}" if controls else kind


def touched_bytes(op, state) -> int:
    """Computed bytes: 2**(n - controls) amplitudes, each read and written once."""
    controls = len(getattr(op, "controls", ()))
    return 2 * (state.amplitudes.size >> controls) * state.amplitudes.itemsize


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, seconds, self seconds
        self.gates = defaultdict(lambda: [0, 0.0, 0])    # class -> calls, seconds, bytes
        self.u_applications = 0
        self.ising_u = [0, 0.0]
        self.max_state_bytes = 0
        self._stack = []  # [name, child seconds]
        self._undo = []

    # -- recording ---------------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, t0) -> float:
        dt = time.perf_counter() - t0
        name, child = self._stack.pop()
        rec = self.spans[name]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._stack:
            self._stack[-1][1] += dt
        return dt

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(t0)
        return traced

    def _gate(self, name, fn, op_first: bool):
        def traced(a, b, *args, **kwargs):
            op, state = (a, b) if op_first else (b, a)
            t0 = self._enter(name)
            try:
                return fn(a, b, *args, **kwargs)
            finally:
                dt = self._exit(t0)
                rec = self.gates[gate_class(op)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += touched_bytes(op, state)
        return traced

    def _apply_circuit(self, fn):
        def traced(state, circuit, *args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            in_ising = any(name == "ising.synthesize_boltzmann" for name, _ in self._stack)
            self.max_state_bytes = max(self.max_state_bytes, state.amplitudes.nbytes)
            t0 = self._enter("simcore.apply_circuit")
            try:
                return fn(state, circuit, *args, **kwargs)
            finally:
                dt = self._exit(t0)
                if parent in U_CALLERS:
                    self.u_applications += 1
                    if in_ising:
                        self.ising_u[0] += 1
                        self.ising_u[1] += dt
        return traced

    # -- installation ------------------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"multamp.{m}") for m in PACKAGE_MODULES}
        modules["multamp"] = importlib.import_module("multamp")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "simcore.apply_gate":
                    wrappers[fn] = self._gate("simcore.apply_gate", fn, op_first=False)
                elif name == "simcore.apply_circuit":
                    wrappers[fn] = self._apply_circuit(fn)
                else:
                    wrappers[fn] = self._span(name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._undo.append((mod, attr, value))
        xor = modules["simcore"].RegisterXor
        self._undo.append((xor, "apply", xor.apply))
        xor.apply = self._gate("simcore.register_xor", xor.apply, op_first=True)
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------------------

    def seconds(self, name) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def calls(self, name) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def self_seconds(self, name) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def gate_metrics(self) -> dict:
        out = {}
        for g in GATE_CLASSES:
            calls, secs, nbytes = self.gates.get(g, (0, 0.0, 0))
            out[f"simcore.{g}.calls"] = (calls, "count")
            out[f"simcore.{g}.s"] = (secs, "s")
            out[f"simcore.{g}.gbps"] = (nbytes / secs / 1e9 if secs > 0 else 0.0, "GB/s")
        return out
