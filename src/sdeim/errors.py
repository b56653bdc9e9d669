"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Input has an incompatible or empty shape."""


class RankError(ValueError):
    """A rank requirement is violated (e.g. more modes requested than the data supports)."""


class AssumptionError(ValueError):
    """The full-rank sampling assumption rank(S^T Phi) = min(n, m) is violated."""


class ObservationRangeError(ValueError):
    """Requested time lies outside the observation window (no extrapolation)."""


class ConfigError(ValueError):
    """An experiment config is inconsistent; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class DivergenceError(RuntimeError):
    """Integration left the finite range.

    t_last is the time of the last step whose state passed the check, so
    the state left the range within one step after it: dt for integrate
    and advance, one kernel-ODE substep for das_deim.
    """

    def __init__(self, message, t_last):
        super().__init__(message)
        self.t_last = t_last
