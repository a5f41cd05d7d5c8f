"""Quantum state preparation by multiplicative amplitude transduction.

Dense statevector simulation of amplitude synthesis circuits: target
amplitudes are encoded as integer exponents of a base gamma and realized
multiplicatively, either by uncontrolled rotations on the exponent
register (direct) or by singly controlled rotations onto a mirror
register (controlled).  Includes amplitude amplification, an Ising-model
Boltzmann sampler built on the same machinery, and comparator/rotation
baselines for norm comparisons.

Registers are little-endian throughout: qubit i carries bit i of a
basis-state index.
"""

__version__ = "0.1.0"

from .simcore import (
    Circuit,
    Gate,
    RegisterLayout,
    RegisterXor,
    StateVector,
    apply_circuit,
    apply_gate,
    sample,
)
from .transduce import (
    AmplitudeTable,
    OverflowLambdaError,
    TransductionPlan,
    build_lambda_table,
    build_synthesis,
    load_alphas,
    make_plan,
    phi_product,
    plan_precision,
    standard_layout,
)
from .amplify import (
    AmplificationSpec,
    grover_iterate,
    predicted_postamp,
    run_amplified,
    select_nu,
)
from .ising import (
    BoltzmannTarget,
    IsingLattice,
    SynthesisDiagnostics,
    synthesize_boltzmann,
)
from .analysis import (
    boltzmann_reference,
    distribution_tests,
    exact_norms,
)
from .baselines import compare_norms

__all__ = [
    "__version__",
    "AmplificationSpec",
    "AmplitudeTable",
    "BoltzmannTarget",
    "Circuit",
    "Gate",
    "IsingLattice",
    "OverflowLambdaError",
    "RegisterLayout",
    "RegisterXor",
    "StateVector",
    "SynthesisDiagnostics",
    "TransductionPlan",
    "apply_circuit",
    "apply_gate",
    "boltzmann_reference",
    "build_lambda_table",
    "build_synthesis",
    "compare_norms",
    "distribution_tests",
    "exact_norms",
    "grover_iterate",
    "load_alphas",
    "make_plan",
    "phi_product",
    "plan_precision",
    "predicted_postamp",
    "run_amplified",
    "sample",
    "select_nu",
    "standard_layout",
    "synthesize_boltzmann",
]
