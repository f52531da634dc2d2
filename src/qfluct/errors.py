"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes, so raising the right class matters:
bad inputs and malformed configs are ``ParameterError``, a vanishing gap is
``NormalPhaseError`` (a physical regime, not a bug), and the two
non-convergence flavours are kept apart because they call for different
remedies (solver settings vs. basis size).
"""

import math


class QfluctError(Exception):
    """Base class for everything raised on purpose by this package."""


class ParameterError(QfluctError):
    """Invalid physical parameters or malformed configuration."""


class ParityError(ParameterError):
    """A sector label or spin count with the wrong parity."""


class NormalPhaseError(QfluctError):
    """Gap is zero: fluctuation operators are undefined (division by c*N)."""


class SolverError(QfluctError):
    """Root finder failed to converge."""


class TruncationError(QfluctError):
    """Charge-basis truncation too small for the requested quantity."""


class NumericalError(QfluctError):
    """Internal numerical failure (quadrature or eigensolver)."""


def require_finite(**values) -> None:
    """Raise ``ParameterError`` naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
