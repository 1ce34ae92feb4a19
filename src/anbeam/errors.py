"""Exception hierarchy for solver and oracle failure modes."""

import numpy as np


class BeamformingError(Exception):
    """Base class for all domain errors raised by this package."""


class NoRelays(BeamformingError):
    """Operation needs at least one relay but the network has none."""


class InfeasibleThreshold(BeamformingError):
    """Relay SNR threshold exceeds what full message power can deliver."""


class DegenerateAlpha(BeamformingError):
    """Power split alpha outside (0, 1] (at 0 the power matrix is singular)."""


class InfeasibleBudget(BeamformingError):
    """Source budget cannot cancel the noise forwarded at the forced relay amplitudes."""


class SingularObservation(BeamformingError):
    """Monotonicity threshold is undefined (its denominator vanishes)."""


class NonFiniteSolution(BeamformingError):
    """A quantity of the solve overflowed a float, through the gains, the
    budgets or a vanishing alpha: the weights, C_d, r* or the quartic."""


class OracleEvalError(BeamformingError):
    """A verification oracle hit a non-finite objective evaluation."""


class OracleTooLarge(BeamformingError):
    """Requested oracle run exceeds its built-in cost guard."""


class RowErrors:
    """Errors of the rows of a batch solve, one exception object per failed
    row.  A row keeps the first error it raises; `failed` masks the rows that
    later steps skip."""

    def __init__(self, n: int):
        self.errors = [None] * n
        self.failed = np.zeros(n, dtype=bool)

    def fail(self, rows, make) -> None:
        """Record make(i) as the error of each still-ok row i in `rows` (an
        index array)."""
        for i in rows:
            if self.errors[i] is None:
                self.errors[i] = make(i)
        self.failed[rows] = True
