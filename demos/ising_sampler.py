"""Boltzmann sampling of a 3x3 periodic lattice, end to end.

Run from the repository root:  python3 demos/ising_sampler.py
Writes histogram CSVs into demo_out/.
"""

import os

import numpy as np

from multamp import IsingLattice, boltzmann_reference, synthesize_boltzmann
from multamp.analysis import (
    distribution_tests,
    histograms,
    magnetization_rows,
    sigma_histogram_rows,
    write_csv,
)
from multamp.simcore import sample

SHOTS = 1 << 17
lattice = IsingLattice(3, 3, beta_j=0.1)

state, diag = synthesize_boltzmann(lattice, variant="direct")
print(f"{lattice.rows}x{lattice.cols} lattice at beta*J = {lattice.beta_j}: "
      f"{diag.total_qubits} qubits, d = {diag.d}")
print(f"u**2 = {diag.u_sq:.4f}; after nu = {diag.nu} amplification rounds the "
      f"post-selection probability is {diag.measured_postamp:.4f}")

# Binomial(SHOTS, P) of SHOTS whole-state shots would read the target register at 0:
# draw that many, from that slice alone
rng = np.random.default_rng(11)
kept_shots = int(rng.binomial(SHOTS, diag.measured_postamp))
kept = sample(state, kept_shots, rng, {diag.target_register: 0})
print(f"kept {kept_shots}/{SHOTS} shots ({kept_shots / SHOTS:.1%})")

reference = boltzmann_reference(lattice)
sigma_counts, mag_counts = histograms(kept, state.layout.without([diag.target_register]), reference)

print(f"\n{'Sigma':>6} {'observed/state':>15} {'theory/state':>13}")
rows = sigma_histogram_rows(sigma_counts, reference, kept_shots)
for row in rows:
    print(f"{row['sigma']:6d} {row['observed_per_state']:15.1f} {row['theory']:13.1f}")

fit = distribution_tests(sigma_counts, reference.sigma_probability)
print(f"\nchi-square p = {fit.p_value:.3f}, total variation distance = {fit.tvd:.4f}")

os.makedirs("demo_out", exist_ok=True)
write_csv("demo_out/sigma_hist.csv", rows,
          ["sigma", "observed", "observed_per_state", "theory"])
write_csv("demo_out/magnetization_hist.csv",
          magnetization_rows(mag_counts, reference), ["m", "probability"])
print("wrote demo_out/sigma_hist.csv and demo_out/magnetization_hist.csv")
