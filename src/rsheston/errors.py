"""Exception types shared across the library."""


class RsHestonError(Exception):
    """Base class for all rsheston errors."""


class NegativeRate(RsHestonError):
    """An off-diagonal intensity entry is negative."""


class RowSumNonZero(RsHestonError):
    """An intensity-matrix row does not sum to zero within tolerance."""


class FellerViolated(RsHestonError):
    """2*kappa*theta >= chi**2 fails in at least one regime."""


class AssumptionViolated(RsHestonError):
    """A solvability condition on the model parameters fails."""


class DomainViolation(RsHestonError):
    """Inputs left the well-definedness region of a closed-form solution."""


class StepFailure(RsHestonError):
    """ODE integration met no finite, positive solution within its tolerance at the step cap."""


class ConfigError(RsHestonError):
    """Invalid run configuration."""


class ParseError(ConfigError):
    """Config file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
