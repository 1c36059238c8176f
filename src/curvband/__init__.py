"""curvband: quantum mechanics of a charged particle bound to a curved surface.

Simulates a particle squeezed onto an axisymmetric surface z = S(rho) in a
static vector potential.  The geometry module supplies curvatures and the
adapted frame, fields handles frame components and the gauge diagnostic,
operator discretizes the per-channel radial Hamiltonian (including the
curvature well -(H^2-K)/2 and the imaginary coupling i e A3 H), and solver
provides verified spectra plus Crank-Nicolson norm tracking.
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
    SolveError,
)
from .geometry import (
    GeometrySample,
    ScaleFactors,
    SurfaceProfile,
    catalog,
    curvature_potential,
    curvatures,
    eval_geometry,
    flat,
    frame_vectors,
    from_height_function,
    gaussian_bump,
    paraboloid,
    scale_factors,
    sphere_cap,
)
from .fields import (
    GaugeReport,
    VectorPotentialSpec,
    axial_uniform,
    cartesian_constant,
    coupling_profile,
    divergence,
    frame_synthetic,
    from_cartesian,
    is_coulomb_gauge,
    project_to_frame,
    zero_field,
)
from .operator import (
    DecouplingReport,
    NormalChannel,
    RadialGrid,
    TangentialOperator,
    build_tangential,
    decoupling_check,
    normal_channel,
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
    total_energy,
    weighted_coupling,
)
from .config import RunConfig, parse_config, serialize_config

__version__ = "0.1.0"
