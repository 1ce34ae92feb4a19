"""Exception hierarchy for solver and oracle failure modes."""

import numpy as np


class BeamformingError(Exception):
    """Base class for all domain errors raised by this package: outcomes that
    depend on the channel values, which a sweep redraws.  An argument that a
    function never accepts is a ValueError naming it instead."""


class InfeasibleThreshold(BeamformingError):
    """Relay SNR threshold exceeds what full message power can deliver."""


class InfeasibleBudget(BeamformingError):
    """Source budget cannot cancel the noise forwarded at the forced relay amplitudes."""


class SingularObservation(BeamformingError):
    """Monotonicity threshold is undefined (its denominator vanishes)."""


class NonFiniteSolution(BeamformingError):
    """eta1, eta2 or tau, the weights, C_d or the second-phase power left the
    float range, through the gains, the budgets or a vanishing alpha."""


class OracleEvalError(BeamformingError):
    """A verification oracle hit a non-finite objective evaluation."""


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
