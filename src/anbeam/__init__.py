"""Secure two-phase beamforming through untrusted amplify-and-forward relays
with source-injected artificial noise.

The source splits its first-phase power between the message and a known
jamming signal that caps every relay's SNR; in the second phase the relays
forward their receptions with complex weights while the source transmits a
beam share plus a term that cancels the forwarded jamming at the destination.
This package provides the closed-form weight solvers for a total or
per-node second-phase power budget, brute-force oracles that verify them, and
a seeded Monte Carlo sweep harness.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BeamformingError,
    InfeasibleBudget,
    InfeasibleThreshold,
    NonFiniteSolution,
    OracleEvalError,
    SingularObservation,
)
from .experiments import (
    ChannelVariances,
    ExperimentRow,
    ExperimentSpec,
    emit_csv,
    power_sweep_spec,
    relay_count_sweep_spec,
    instance_stream,
    run_sweep,
    sample_instance,
    solve_grid_point,
)
from .individual_solver import (
    MagnitudeProblem,
    initial_problem,
    optimal_phases,
    quartic_coeffs,
    select_root,
    solve_individual,
    solve_individual_batch,
    solve_source_only,
)
from .model import (
    alpha_for_threshold,
    alpha_monotonicity_threshold,
    capacity_dest,
    capacity_relay,
    derive_model,
    relay_snrs,
    second_phase_power,
    secrecy_monotone_in_alpha,
    secrecy_rate,
    simulate_noise_residual,
    strongest_relay,
)
from .oracles import (
    EmpiricalSnr,
    OracleReport,
    empirical_snr,
    oracle_individual_grid,
    oracle_total,
    power_iteration_rank1,
)
from .total_solver import build_d_tilde, solve_total, solve_total_batch
from .types import (
    BeamSolution,
    DerivedModel,
    IndividualBudget,
    NetworkInstance,
    SignalRealization,
    SystemParams,
    TotalBudget,
)

__version__ = "0.1.0"

# not the submodules: a star import would bind anbeam.types over the stdlib's types
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
