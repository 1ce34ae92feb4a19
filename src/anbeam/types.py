"""Domain types: channel realizations, power budgets, derived quantities, solutions.

All types are immutable after construction (arrays are marked read-only), so
values can be shared freely across threads and processes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# At or below this threshold (~5.56e-309) 1/gamma overflows a float, and the
# split alpha = (1 + sigma2/(|h_se|^2 p1)) / (1 + 1/gamma) underflows to 0.
_GAMMA_FLOOR = 1.0 / sys.float_info.max


def check_gamma(gamma) -> float:
    """gamma as a float; one that is not finite, or whose reciprocal
    overflows a float, is a ValueError naming it."""
    gamma = float(gamma)
    if not _GAMMA_FLOOR < gamma < math.inf:
        raise ValueError(f"gamma={gamma!r} must be finite and above {_GAMMA_FLOOR:.3g}, "
                         "where 1/gamma overflows a float")
    return gamma


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _set(obj, name, value):
    object.__setattr__(obj, name, value)


def _freeze_in_place(obj) -> None:
    """Mark every array field read-only without copying it; for solver
    results, whose arrays the solver built for them alone."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _check_network(h_sd, h_sr, h_rd, sigma2: float) -> None:
    """Raise the ValueError of the first check a network's fields fail; h_sd
    is a complex for a single network and an (N,) array for a stack."""
    for name, value in (("h_sd", h_sd), ("h_sr", h_sr), ("h_rd", h_rd)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    relay_ndim = 2 if np.ndim(h_sd) else 1
    if h_sr.ndim != relay_ndim or h_rd.ndim != relay_ndim:
        raise ValueError(f"h_sr and h_rd must be {relay_ndim}-dimensional")
    if h_sr.shape != h_rd.shape:
        raise ValueError("h_sr and h_rd must have the same shape")
    if not 0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be finite and positive")
    if np.count_nonzero(h_sd == 0):
        raise ValueError("h_sd must be nonzero: the second-phase cancellation "
                         "signal divides by it")
    if relay_ndim == 2 and h_sd.shape != h_sr.shape[:1]:
        raise ValueError("h_sd must hold one gain per row of h_sr")


@dataclass(frozen=True, eq=False)
class NetworkInstance:
    """One channel realization of the two-hop network, or a stack of N of
    them with a common relay count and noise power.

    h_sd: complex source->destination gain, kept as a Python complex; (N,) for a stack.
    h_sr: complex source->relay gains, one per relay; (M,), or (N, M).
    h_rd: complex relay->destination gains, one per relay, shaped as h_sr.
    sigma2: receiver noise power, identical at every node and row.

    The rank of h_sd tells them apart; a 2-D one is refused.  Row i of a
    stack is one network; every model formula reads these fields over a
    trailing relay axis, so it serves a stack as it serves a single network.
    model.py keeps the channel arrays it forms from a network in the
    network's __dict__, read-only.

    Built from fields (this constructor, which stack and a sweep part use)
    or from one drawn row's buffer (_of_gains).  A drawn network holds its
    gains in one frozen buffer, _gains, and its h_sr and h_rd are views of
    it.  A stack keeps only C-contiguous copies of its three fields, which
    the solvers read faster than strided views.
    """

    h_sd: Union[complex, np.ndarray]
    h_sr: np.ndarray
    h_rd: np.ndarray
    sigma2: float

    def __post_init__(self):
        h_sd, h_sr, h_rd = (_frozen_array(x, complex) for x in (self.h_sd, self.h_sr, self.h_rd))
        if not h_sd.ndim:
            h_sd = h_sd.item()
        # one write for the four fields, which the frozen dataclass keeps in __dict__
        self.__dict__.update(h_sd=h_sd, h_sr=h_sr, h_rd=h_rd, sigma2=float(self.sigma2))
        _check_network(h_sd, h_sr, h_rd, self.sigma2)

    @classmethod
    def _of_gains(cls, gains: np.ndarray, sigma2: float) -> "NetworkInstance":
        """The network of one drawn row's complex buffer [h_sd, h_s1, h_1d, ...],
        owned uncopied and frozen as _gains, with the constructor's checks."""
        self, sigma2, h_sd = object.__new__(cls), float(sigma2), gains.item(0)
        gains.setflags(write=False)
        self.__dict__.update(h_sd=h_sd, h_sr=gains[1::2], h_rd=gains[2::2], sigma2=sigma2,
                             _gains=gains)
        # one test of the whole buffer (count_nonzero is twice as fast as
        # isfinite(...).all() on a short array); _check_network names what failed
        if not (gains.ndim == 1 and gains.size % 2
                and np.count_nonzero(np.isfinite(gains)) == gains.size
                and 0 < sigma2 < math.inf and h_sd != 0):
            _check_network(h_sd, self.h_sr, self.h_rd, sigma2)
        return self

    @classmethod
    def stack(cls, instances) -> "NetworkInstance":
        """Stack of the given single networks, in order, through the field
        constructor (one copy per field); they must share M and sigma2."""
        instances = list(instances)
        if not instances:
            raise ValueError("cannot stack an empty list of instances")
        sigma2 = instances[0].sigma2
        if any(inst.sigma2 != sigma2 for inst in instances):
            raise ValueError("stacked instances must share sigma2")
        counts = {len(inst.h_sr) for inst in instances}
        if len(counts) > 1:
            raise ValueError(f"stacked instances must share the relay count, "
                             f"got M in {sorted(counts)}")
        return cls(h_sd=[inst.h_sd for inst in instances],
                   h_sr=[inst.h_sr for inst in instances],
                   h_rd=[inst.h_rd for inst in instances], sigma2=sigma2)

    @property
    def n(self) -> int:
        """Number of networks in a stack."""
        return len(self.h_sd)

    @property
    def m(self) -> int:
        """Number of relays (of every network in a stack)."""
        return self.h_sr.shape[-1]


@dataclass(frozen=True)
class TotalBudget:
    """Single cap on the summed second-phase transmit power."""

    p_tot: float

    def __post_init__(self):
        _set(self, "p_tot", float(self.p_tot))
        if not 0 < self.p_tot < math.inf:
            raise ValueError("p_tot must be finite and positive")


@dataclass(frozen=True, eq=False)
class IndividualBudget:
    """Separate source cap p_s and per-relay caps p_i for the second phase."""

    p_s: float
    p_i: np.ndarray

    def __post_init__(self):
        _set(self, "p_s", float(self.p_s))
        _set(self, "p_i", _frozen_array(self.p_i, float))
        if not 0 < self.p_s < math.inf:
            raise ValueError("p_s must be finite and positive")
        if self.p_i.ndim != 1 or not np.all((self.p_i >= 0) & (self.p_i < math.inf)):
            raise ValueError("p_i must be a vector of finite nonnegative reals")


Budget = Union[TotalBudget, IndividualBudget]


@dataclass(frozen=True, eq=False)
class SystemParams:
    """First-phase power, relay SNR ceiling and the second-phase budget.

    p1 is a scalar, or a vector of one value per row of the stack of networks
    it is solved with; everything that works on a single network (the
    oracles, serialization, derive_model of one network) rejects a vector
    with a ValueError naming p1.  gamma may be None when the power split alpha is
    supplied explicitly to a solver; when present it must pass check_gamma,
    and the feasibility bound gamma <= |h_se|^2 * p1 / sigma2 is checked at
    solve time.
    """

    p1: Union[float, np.ndarray]
    gamma: Optional[float]
    budget: Budget

    def __post_init__(self):
        if np.ndim(self.p1):
            _set(self, "p1", _frozen_array(self.p1, float))
            if self.p1.ndim != 1:
                raise ValueError("p1 must be a scalar or a vector")
        else:
            _set(self, "p1", float(self.p1))
        if not np.all((0 < self.p1) & (self.p1 < math.inf)):
            raise ValueError("p1 must be finite and positive")
        if self.gamma is not None:
            _set(self, "gamma", check_gamma(self.gamma))


@dataclass(frozen=True, eq=False)
class DerivedModel:
    """Frozen copies of the vectors of one (instance, p1, alpha) triple, the
    input of the dense references (the solvers read model.py's kept arrays).
    For a stack of networks every field gains a leading row axis: alpha is
    an (N,) array and the vectors below are (N, M) or (N, M+1).

    h: length-(M+1) combined gains [h_sd, h_s1*h_1d, ...] seen by the
       second-phase beam at the destination.
    g: length-M cancellation gains h_si*h_id/h_sd.
    d_h_diag: relay-noise amplification diagonal [0, |h_1d|^2, ...].
    t_diag: per-relay received power |h_si|^2 * p1 + sigma2.
    """

    alpha: float
    p1: float
    h: np.ndarray
    g: np.ndarray
    d_h_diag: np.ndarray
    t_diag: np.ndarray

    def __post_init__(self):
        for name, dtype in (("h", complex), ("g", complex), ("d_h_diag", float),
                            ("t_diag", float)):
            _set(self, name, _frozen_array(getattr(self, name), dtype))

    @property
    def m(self) -> int:
        return self.g.shape[-1]


@dataclass(frozen=True, eq=False)
class SignalRealization:
    """Draws of the random signals: message x, artificial noise u and the M+1
    receiver noises z (relays first, destination last), for one symbol (scalar
    x and u) or n symbols (x and u of shape (n,), z of shape (n, M+1)).  Arrays
    are copied and frozen; scalars are kept as complex."""

    x: Union[complex, np.ndarray]
    u: Union[complex, np.ndarray]
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "u", "z"):
            value = _frozen_array(getattr(self, name), complex)
            _set(self, name, value if value.ndim else complex(value))


@dataclass(frozen=True, eq=False)
class TotalDiagnostics:
    """Byproducts of the closed-form total-budget solve of every row of a
    batch; row(i) is one row's, as a single solve reports them: v a view,
    the rest floats."""

    v: np.ndarray                            # (N, M+1) solution of D_tilde v = conj(h)
    mu: Union[np.ndarray, float]             # (N,) scaling putting mu*v on the power boundary
    rayleigh_value: Union[np.ndarray, float]  # (N,) achieved |h.w|^2 / (1 + w' D_h w)

    def __post_init__(self):
        _freeze_in_place(self)

    def row(self, i: int) -> "TotalDiagnostics":
        return TotalDiagnostics(v=self.v[i], mu=float(self.mu[i]),
                                rayleigh_value=float(self.rayleigh_value[i]))


@dataclass(frozen=True, eq=False)
class IndividualDiagnostics:
    """The clamped set and the final magnitude solve of every row of a batch;
    row(i) is one row's, as a single solve reports them: clamped the tuple
    of clamped relay indices, the rest floats.

    clamped: (N, M) mask of relays fixed at their amplitude caps.
    t1, t2, tau: (N,) offsets and active norm of the final magnitude problem,
        in the problem's own units (those of initial_problem's c, the
        channel magnitudes scaled by 2^-e, e the binary exponent of |h_sd|).
    chosen_r: (N,) radius of the final solve.

    A clamped row's root candidates are not kept: select_root gives them for
    the row's final MagnitudeProblem, dataclasses.replace(initial_problem(...),
    t1=, t2=, active=, tau=) with these fields.
    """

    clamped: Union[np.ndarray, tuple]
    t1: Union[np.ndarray, float]
    t2: Union[np.ndarray, float]
    tau: Union[np.ndarray, float]
    chosen_r: Union[np.ndarray, float]

    def __post_init__(self):
        _freeze_in_place(self)

    def row(self, i: int) -> "IndividualDiagnostics":
        return IndividualDiagnostics(
            clamped=tuple(int(j) for j in np.flatnonzero(self.clamped[i])),
            t1=float(self.t1[i]), t2=float(self.t2[i]), tau=float(self.tau[i]),
            chosen_r=float(self.chosen_r[i]))


@dataclass(frozen=True, eq=False)
class BeamSolution:
    """Optimal weights plus the quantities callers typically inspect, of one
    network or of every row of a stack solved together: w (M+1,) or
    (N, M+1), the rest floats or (N,) arrays.

    errors[i] is the BeamformingError row i of a stack raised, or None; the
    numbers of a failed row are unspecified, and one failed row never
    changes another.  A single solve raises instead, so its errors are ().
    """

    w: np.ndarray
    alpha: Union[np.ndarray, float]
    c_d: Union[np.ndarray, float]
    second_phase_power: Union[np.ndarray, float]
    diagnostics: Union[TotalDiagnostics, IndividualDiagnostics, None] = None
    errors: tuple = ()

    def __post_init__(self):
        _freeze_in_place(self)

    def row(self, i: int) -> "BeamSolution":
        """Row i of a stack's solution as a single solve reports it, w a
        view; raises the row's error if it failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return BeamSolution(w=self.w[i], alpha=float(self.alpha[i]), c_d=float(self.c_d[i]),
                            second_phase_power=float(self.second_phase_power[i]),
                            diagnostics=self.diagnostics.row(i))
