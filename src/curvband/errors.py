"""Exception and warning types shared across the package."""


class CurvbandError(Exception):
    """Base class for all package errors."""


class DomainError(CurvbandError, ValueError):
    """A scalar argument outside its domain, named: rho, q, a constant, an integer, dt."""


class EvaluationError(CurvbandError, ArithmeticError):
    """A profile or field produced non-finite or inconsistent values."""


class ChartDegenerateError(CurvbandError, ValueError):
    """From divergence: the normal-offset chart degenerates, h1 h2 = rho Z F(q) <= 0."""


class ConfigError(CurvbandError, ValueError):
    """Run configuration failed to parse or validate."""


class SolveError(CurvbandError, RuntimeError):
    """A solve failed or failed verification, or a band, state or norm is unusable."""


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
