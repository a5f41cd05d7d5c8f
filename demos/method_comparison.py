"""Four ways to load the same amplitudes, compared on norm and qubit count.

Run from the repository root:  python3 demos/method_comparison.py
"""

import numpy as np

from multamp import compare_norms
from multamp.amplify import postselect_probability
from multamp.baselines import comparator_synthesis, rotation_oracle_synthesis

rng = np.random.default_rng(2024)
ALPHAS = np.sort(rng.uniform(0.05, 1.0, size=16))[::-1]
D = 6

print("sixteen random amplitudes, d =", D)
rows = compare_norms(ALPHAS, D)
print(f"\n{'method':<28} {'norm u':>8} {'u**2':>8} {'qubits':>7}")
for row in rows:
    print(f"{row['method']:<28} {row['norm']:8.4f} {row['norm'] ** 2:8.4f} "
          f"{row['qubits']:7d}")

# the table above is analytic; the two baselines also run as real circuits
state, layout = rotation_oracle_synthesis(ALPHAS)
measured = postselect_probability(state, {"a": 0})
print(f"\nrotation-oracle statevector check: P(keep) = {measured:.6f} "
      f"(analytic {rows[0]['norm'] ** 2:.6f})")

state, circuit, conditions = comparator_synthesis(ALPHAS, D)
measured = postselect_probability(state, conditions)
print(f"comparator statevector check:      P(keep) = {measured:.6f} "
      f"(analytic {rows[1]['norm'] ** 2:.6f})")

print("\nreading the table: the rotation oracle is the qubit-count floor but "
      "needs amplitude-indexed rotations; the comparator pays "
      f"{rows[1]['qubits'] - rows[0]['qubits']} extra qubits for arithmetic-only "
      "gates; multiplicative transduction spends "
      f"{rows[2]['qubits'] - rows[0]['qubits']} (direct) or "
      f"{rows[3]['qubits'] - rows[0]['qubits']} (controlled) and keeps the "
      "rotation angles fixed per bit, which is what makes the Boltzmann "
      "sampler exact.")
