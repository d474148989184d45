"""Penalized trace minimization for LQR control-device placement.

Solves the Riccati-constrained placement problems

    min_p tr(X(p) W) + beta/2 ||p||^2           (norm penalty)
    min_p tr(X(p) W) + beta/2 (tr G_p - gamma)^2  (gain-trace penalty)

on dense Galerkin truncations, where X(p) solves
A X + X A.T - X G_p X + Q = 0, and certifies the fixed-point contraction
constants that make the minimizers unique.
"""

# optimize first: its compile, the package's largest, then runs before the
# other modules are loaded, which keeps the import's peak memory down
from .optimize import (
    ContractionReport,
    OptimalityTriple,
    Problem1Config,
    Problem2Config,
    StatePair,
    beta_sweep,
    contraction_constant_p1,
    contraction_constant_p2,
    cost_p1,
    cost_p2,
    critical_cone_basis,
    hessian_p1,
    hessian_p2,
    lipschitz_bound_check,
    solve_p1,
    solve_p2,
    stationarity_residual_p1,
    stationarity_residual_p2,
)
from .devices import (
    CallableFamily,
    ConstantFamily,
    ConstantLedger,
    GaussianActuators,
    estimate_constants,
)
from .dual import DualSolution, solve_dual, verify_dual
from .errors import (
    ClosedLoopUnstable,
    ConfigError,
    DegenerateFamily,
    DimensionMismatch,
    HorizonTooShort,
    MaxIterExceeded,
    NewtonStall,
    RiccatiPlaceError,
    SingularSystem,
    UnstableGenerator,
)
from .linalg import (
    NormReport,
    bochner_quadrature,
    matrix_exponential,
    norms,
    solve_sylvester,
)
from .riccati import RiccatiSolution, solve_are, solve_are_hamiltonian, verify_are
from .semigroup import StabilityCertificate, certify_stability, perturbed_certificate

__version__ = "0.1.0"
