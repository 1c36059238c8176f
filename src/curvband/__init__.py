"""curvband: quantum mechanics of a charged particle bound to a curved surface.

Simulates a particle squeezed onto an axisymmetric surface z = S(rho) in a
static vector potential.  The geometry module supplies curvatures and the
offset-chart scale factors, fields handles frame components (projecting
Cartesian fields onto the adapted frame) and the gauge diagnostic, operator
discretizes the per-channel radial Hamiltonian (including the curvature well
-(H^2-K)/2 and the imaginary coupling i e A3 H) and gives the normal ladder
omega (n + 1/2), and solver provides verified spectra plus Crank-Nicolson
norm tracking.
"""

from .errors import (
    CertificateError,
    ChartDegenerateError,
    CoarseGridWarning,
    ConfigError,
    CurvbandError,
    DomainError,
    EvaluationError,
    InstabilityWarning,
    RefinementError,
    SolveError,
)
from .geometry import (
    SurfaceProfile,
    catalog,
    curvatures,
    flat,
    gaussian_bump,
    paraboloid,
    sphere_cap,
)
from .fields import (
    GaugeReport,
    axial_uniform,
    cartesian_constant,
    divergence,
    frame_synthetic,
    from_cartesian,
    is_coulomb_gauge,
    zero_field,
)
from .operator import (
    DecouplingReport,
    RadialGrid,
    TangentialOperator,
    build_tangential,
    decoupling_check,
    normal_energy,
)
from .solver import (
    EvolutionTrace,
    HermiticityReport,
    Spectrum,
    eigen_solve,
    evolve,
    ground_state,
    hermiticity_report,
    weighted_coupling,
)
from .config import RunConfig, parse_config, serialize_config

__version__ = "0.1.0"
