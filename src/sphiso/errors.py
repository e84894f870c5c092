"""Shared exception types."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class ArityError(PreconditionError):
    """Symbol text names more variables than the caller allows."""

    def __init__(self, used, nvars):
        self.used = used
        self.nvars = nvars
        super().__init__(f"text uses {used} variables, nvars={nvars} given")

    def __reduce__(self):
        return type(self), (self.used, self.nvars)


class OnCurveError(ValueError):
    """Winding number is undefined: the point sits too close to the sampled curve."""

    def __init__(self, distance, tolerance):
        self.distance = distance
        self.tolerance = tolerance
        super().__init__(
            f"point within curve tolerance of the symbol range "
            f"(distance {distance:.3e} <= {tolerance:.3e})"
        )

    def __reduce__(self):
        return type(self), (self.distance, self.tolerance)


class ConditioningError(ValueError):
    """Numerical breakdown in a factorization, with the offending index."""

    def __init__(self, degree, pivot):
        self.degree = degree
        self.pivot = pivot
        super().__init__(f"Cholesky breakdown at degree {degree}: pivot {pivot:.3e}")

    def __reduce__(self):
        return type(self), (self.degree, self.pivot)


class ResourceLimitError(RuntimeError):
    """A structural size bound was exceeded (term counts, multi-index degrees)."""


class InvariantError(RuntimeError):
    """Two routes to the same answer disagree: a defect in the code, not in the input."""


class UsageError(ValueError):
    """Bad CLI input or scenario file; message names the offending field."""
