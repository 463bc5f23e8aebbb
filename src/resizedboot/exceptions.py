"""Exception types shared across the package."""


class ResizedBootError(Exception):
    """Base class for all package errors."""


class DatasetError(ResizedBootError):
    """Invalid design matrix / response combination."""


class CsvParseError(ResizedBootError):
    """Dataset CSV could not be parsed; message carries the file line number."""


class FitFailedError(ResizedBootError):
    """A fit that was required to converge did not."""


class LeverageDegenerateError(ResizedBootError):
    """Some 1 - w_i * f''(t_i) fell below the guard: the first-order
    leave-one-out approximation is unreliable for that observation."""


class CurveNotBracketingError(ResizedBootError):
    """The observed corrupted signal strength exceeds the simulated curve's
    maximum, so inversion would require extrapolation."""

    def __init__(self, eta_tilde: float, eta_max: float):
        self.eta_tilde = float(eta_tilde)
        self.eta_max = float(eta_max)
        super().__init__(
            f"eta_tilde={eta_tilde:.6g} above curve maximum {eta_max:.6g}; "
            "refusing to extrapolate (signal likely near the phase boundary)"
        )

    def __reduce__(self):
        # unpickling calls the class with these, not with the message
        return type(self), (self.eta_tilde, self.eta_max)


class ZeroMleError(ResizedBootError):
    """Cannot hit a positive signal-strength target by rescaling a zero MLE."""


class TooManyFailuresError(ResizedBootError):
    """Too large a fraction of simulated refits failed, which signals a
    design at or over the separability phase boundary."""

    def __init__(self, n_failed: int, n_total: int, context: str = "bootstrap"):
        self.n_failed = int(n_failed)
        self.n_total = int(n_total)
        self.context = context
        super().__init__(
            f"{n_failed}/{n_total} {context} replicates failed to converge; "
            "the design may sit at or over the separability phase transition"
        )

    def __reduce__(self):
        return type(self), (self.n_failed, self.n_total, self.context)


class InsufficientBootstrapError(ResizedBootError):
    """Not enough bootstrap replicates for interior tail quantiles."""


class ResponseOverflowError(ResizedBootError):
    """Poisson mean exp(t) too large to simulate safely."""
