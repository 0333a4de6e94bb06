"""Canonical-dual resource allocation and adaptive modulation for uplink SC-FDMA."""

from .assignment import Allocation, AssignmentInstance, InfeasibleInstanceError, to_assignment
from .baselines import (
    InfeasibleAllocationError,
    OracleCeilingError,
    brute_force,
    greedy,
    round_robin,
)
from .channel import (
    ChannelGains,
    EmptyPatternError,
    ScenarioConfig,
    effective_snr_mmse,
    effective_snr_zf,
    generate_channel,
)
from .dual import (
    DualDomainError,
    DualPoint,
    GapReport,
    SolverConfig,
    SolveReport,
    diagnose_gap,
    dual_gradient,
    dual_value,
    modified_instance,
    project_rho,
    recover_indicator,
    solve,
    xi_value,
)
from .harness import CampaignConfig, emit_cdf, run_campaign, run_drop
from .jamsc import (
    FrameConfig,
    PowerSolveError,
    build_jamsc,
    cost,
    lowest_modulation,
    min_subchannels,
    solve_pattern_power,
)
from .patterns import OptionTable, PatternBoundsError, PatternSet, enumerate_patterns
from .sumax import ModulationTable, build_sumax, pattern_effective_snr, select_modulation

__version__ = "0.1.0"
