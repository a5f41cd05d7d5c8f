"""Reference state-preparation methods the multiplicative approach is
measured against.

* rotation oracle: per-branch ancilla rotation through theta_l =
  arccos(alpha_l), with the arcsine done classically; post-selecting the
  ancilla on |0> leaves alpha_l exactly.  Simulator-level oracle (an
  in-circuit arcsine is out of scope here).
* comparator: the integer-threshold method.  alpha~_l = floor(2**d
  alpha_l) is loaded into D, a uniform register E is compared against it
  by a gate-level ripple comparator (d work qubits), and post-selecting
  the flag and E on |0> leaves alpha~_l / 2**d.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis
from .simcore import Circuit, RegisterLayout, RegisterXor, StateVector, apply_circuit, h, x
from .transduce import build_lambda_table, check_alphas, num_index_qubits


def rotation_oracle_synthesis(alphas, dtype=np.complex128) -> tuple[StateVector, RegisterLayout]:
    """Uniform index register plus one rotated ancilla per branch.

    The returned state is H_C|0> with the ancilla of branch l rotated so
    its |0> amplitude is exactly alpha_l; the rotation angles come from a
    classical arccos, which is what makes this an oracle rather than a
    circuit construction.
    """
    alphas = check_alphas(alphas)
    n = num_index_qubits(alphas.shape[0])
    layout = RegisterLayout([("C", n), ("a", 1)])
    num = alphas.shape[0]
    amps = np.zeros(2 * num, dtype=dtype)
    root_n = math.sqrt(num)
    amps[:num] = alphas / root_n                      # ancilla |0> block
    amps[num:] = np.sqrt(1.0 - alphas ** 2) / root_n  # ancilla |1> block
    return StateVector(layout, amps), layout


def comparator_layout(num_entries: int, d: int) -> RegisterLayout:
    n = num_index_qubits(num_entries)
    return RegisterLayout([("C", n), ("D", d), ("E", d), ("g", 1), ("w", d)])


def comparator_flag_gates(layout: RegisterLayout) -> list:
    """g ^= (E >= D), computed by a borrow-chain ripple comparator.

    Work qubit k accumulates the borrow of bit k of E - D through
    majority Toffolis; the final borrow negated lands in g and the chain
    uncomputes itself, leaving D, E, and w untouched.
    """
    dq = list(layout.qubits("D"))
    eq = list(layout.qubits("E"))
    wq = list(layout.qubits("w"))
    g = layout.offset("g")
    d = len(dq)
    if len(eq) != d or len(wq) != d:
        raise ValueError("comparator needs equal-width D, E, and w registers")
    chain = [x(wq[0], controls=((eq[0], 0), (dq[0], 1)))]
    for k in range(1, d):
        chain.append(x(wq[k], controls=((eq[k], 0), (dq[k], 1))))
        chain.append(x(wq[k], controls=((eq[k], 0), (wq[k - 1], 1))))
        chain.append(x(wq[k], controls=((dq[k], 1), (wq[k - 1], 1))))
    flag = [x(g), x(g, controls=((wq[d - 1], 1),))]
    return chain + flag + list(reversed(chain))


def build_comparator_synthesis(alphas, d: int) -> tuple[Circuit, dict]:
    """Comparator pipeline circuit and its post-selection predicate.

    alpha~_l = floor(2**d alpha_l) lies in [0, 2**d]; the boundary value
    2**d (alpha exactly 1) does not fit the register, so those branches
    store 0 and a keyed flag flip afterwards forces g back to 0 for every
    x, realizing "no x reaches the threshold" and a post-selected
    amplitude of exactly 1/sqrt(N).
    """
    alphas = check_alphas(alphas)
    if d < 1:
        raise ValueError("d must be >= 1")
    layout = comparator_layout(alphas.shape[0], d)
    alpha_tilde = np.floor(alphas * (1 << d)).astype(np.int64)
    boundary = alpha_tilde == (1 << d)
    store = np.where(boundary, 0, alpha_tilde)

    circ = Circuit(layout)
    circ.extend(h(q) for q in layout.qubits("C"))
    circ.extend([RegisterXor("C", "D", store)])
    circ.extend(h(q) for q in layout.qubits("E"))
    circ.extend(comparator_flag_gates(layout))
    if np.any(boundary):
        circ.extend([RegisterXor("C", "g", boundary.astype(np.int64))])
    circ.extend(h(q) for q in layout.qubits("E"))
    return circ, {"E": 0, "g": 0}


def comparator_synthesis(alphas, d: int, dtype=np.complex128) -> tuple[StateVector, Circuit, dict]:
    circ, conditions = build_comparator_synthesis(alphas, d)
    state = StateVector.zero_state(circ.layout, dtype=dtype)
    apply_circuit(state, circ, validate=False)
    return state, circ, conditions


def compare_norms(alphas, d: int, gamma: float | None = None,
                  cutoff_eps: float | None = None) -> list[dict]:
    """Pre-amplification post-selected norm and qubit budget per method.

    Row keys: method, d, norm, qubits.  The multiplicative rows default
    to cutoff_eps = 2**-d (the comparator's absolute step) and
    gamma = cutoff_eps**(-1 / (2**d - 1)), which spends the full exponent
    range on [cutoff_eps, 1] without overflow.
    """
    alphas = check_alphas(alphas)
    if not 1 <= d <= 63:
        raise ValueError(f"d must be in 1..63 (the exponents are int64), got {d}")
    n = num_index_qubits(alphas.shape[0])
    num = alphas.shape[0]
    if cutoff_eps is None:
        cutoff_eps = 2.0 ** -d
    elif not 0.0 < cutoff_eps < 1.0:  # NaN fails too
        raise ValueError(f"cutoff_eps must be in (0, 1), got {cutoff_eps}")
    if gamma is None:
        gamma = math.exp(-math.log(cutoff_eps) / ((1 << d) - 1))
        if gamma == 1.0:
            raise ValueError(f"the default gamma rounds to 1 at d={d}; use a smaller d or --gamma")

    table = build_lambda_table(alphas, gamma, d, cutoff_eps)
    norms = analysis.exact_norms(table.lambdas, gamma, d)
    alpha_tilde = np.floor(alphas * (1 << d))
    return [
        {"method": "rotation", "d": d,
         "norm": math.sqrt(float(np.mean(alphas ** 2))),
         "qubits": n + 1},
        {"method": "comparator", "d": d,
         "norm": math.sqrt(float(np.mean((alpha_tilde / (1 << d)) ** 2))),
         "qubits": n + 3 * d + 1},
        {"method": "multiplicative-direct", "d": d,
         "norm": norms.u_direct,
         "qubits": n + d},
        {"method": "multiplicative-controlled", "d": d,
         "norm": norms.u_controlled,
         "qubits": n + 2 * d},
    ]
