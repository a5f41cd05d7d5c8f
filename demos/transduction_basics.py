"""Exponent tables and the rotation ladder, on a table small enough to read.

Run from the repository root:  python3 demos/transduction_basics.py
"""

import math

from multamp import (
    StateVector,
    apply_circuit,
    build_lambda_table,
    build_synthesis,
    make_plan,
    phi_product,
)
from multamp.amplify import postselect_probability

GAMMA = math.exp(0.25)
D = 4
EPS = 0.02
ALPHAS = [1.0, 0.82, 0.55, 0.31, 0.18, 0.09, 0.01, 0.64]

table = build_lambda_table(ALPHAS, GAMMA, D, EPS)
print(f"gamma = e**0.25, d = {D}, cutoff = {EPS}")
print(f"{'alpha':>8} {'lambda':>7} {'gamma**-lambda':>15}")
for alpha, lam in zip(table.alphas, table.lambdas):
    mark = "  (saturated)" if alpha < EPS else ""
    print(f"{alpha:8.3f} {lam:7d} {GAMMA ** -lam:15.4f}{mark}")

# the exponent register can only hold gamma**-lambda on a power-of-two
# grid, so every amplitude is rounded DOWN to the next representable one
print("\nworst truncation ratio:", round(min(
    GAMMA ** -int(l) / a for a, l in zip(table.alphas, table.lambdas) if a >= EPS), 4),
    f"(floor guarantees at most one factor of gamma = {GAMMA:.4f})")

for variant in ("direct", "controlled"):
    plan = make_plan(variant, GAMMA, D)
    circuit = build_synthesis(table, plan)
    layout = circuit.layout
    state = apply_circuit(StateVector.zero_state(layout), circuit)
    post = "D" if variant == "direct" else "E"
    print(f"\n{variant} variant on {layout.total_qubits} qubits; "
          f"post-select {post} = 0")
    phi = phi_product(GAMMA, D) if variant == "direct" else 1.0
    print(f"{'index':>5} {'amplitude':>12} {'predicted':>12}")
    for i in range(len(ALPHAS)):
        index = layout.pack("C", i)
        if variant == "controlled":
            index |= layout.pack("D", int(table.lambdas[i]))
        got = state.amplitudes[index].real * math.sqrt(len(ALPHAS))
        want = phi * GAMMA ** -int(table.lambdas[i])
        print(f"{i:5d} {got:12.6f} {want:12.6f}")
    u_sq = postselect_probability(state, {post: 0})
    print(f"post-selection probability u**2 = {u_sq:.4f}"
          + (f"  (Phi**2 = {phi ** 2:.4f} of it is the ladder prefactor)"
             if variant == "direct" else "  (amplitudes exact, no prefactor)"))
