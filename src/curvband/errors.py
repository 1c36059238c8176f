"""Exception and warning types shared across the package."""


class CurvbandError(Exception):
    """Base class for all package errors."""


class DomainError(CurvbandError, ValueError):
    """Argument outside the mathematical domain (rho, q, quantum numbers)."""


class EvaluationError(CurvbandError, ArithmeticError):
    """A profile or field produced non-finite or inconsistent values."""


class ChartDegenerateError(CurvbandError, ValueError):
    """Normal-offset chart degenerates: F(q) = 1 + 2qH + q^2 K <= 0."""


class ConfigError(CurvbandError, ValueError):
    """Run configuration failed to parse or validate."""


class SolveError(CurvbandError, RuntimeError):
    """Eigen- or linear-solve failed, or a solution failed verification."""


class CertificateError(SolveError):
    """The eigenvalues of smallest real part cannot be told apart from the
    rest: Bauer-Fike discs around the located levels overlap."""


class RefinementError(SolveError):
    """A certified non-normal level did not converge, within the refinement
    cap, to an eigenpair that meets the contract inside its own disc."""


class CoarseGridWarning(UserWarning):
    """Radial grid too coarse for trustworthy spectra."""


class InstabilityWarning(UserWarning):
    """Time stepping shows signs of numerical instability."""
