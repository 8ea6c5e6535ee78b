"""Error taxonomy shared across the package.

Invalid arguments raise plain ``ValueError`` (or a subclass below when the
failure mode deserves its own name).  Numeric failures during long
computations raise ``RuntimeError`` subclasses so callers — in particular the
CLI — can map them to distinct exit codes.
"""


class DegenerateInputError(ValueError):
    """Input is structurally valid but degenerate (e.g. a zero sample vector
    where the kernel's angular factor is undefined)."""


class UnsupportedConstantError(ValueError):
    """No table entry for a requested (p, activation) pair."""


class RangeViolationError(ValueError):
    """Label vector has mass outside the kernel's range space."""


class NumericFailureError(RuntimeError):
    """Non-finite value appeared mid-computation.

    ``sample_index`` identifies the offending sample when known.
    """

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class DivergenceError(RuntimeError):
    """Training diverged.  ``trace`` holds the TraceRows recorded so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
