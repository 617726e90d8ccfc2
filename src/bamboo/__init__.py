"""Periodic cutting schedules for bamboo gardens.

Pipeline: reduce rates to fractional pinwheel periods, round them onto the
{2,3} doubling grids, rebalance the leftover density, and interleave the
two grid chains on odd/even days. The default configuration keeps every
bamboo within 12/7 times the instance lower bound; verifiers and
exhaustive oracles are included so nothing has to be taken on faith.
"""

from .model import (
    BgtInstance,
    InvalidInstance,
    JobPeriod,
    PeriodicSchedule,
    PseudoInstance,
    ScheduleEntry,
    density,
    parse_rational,
)
from .oracle import PinwheelResult, StateSpaceTooLarge, bgt_opt, pinwheel_feasible, tightness_examples
from .reduction import PeriodBelowTwo, ReductionConfig, bgt_to_pseudo
from .rounding import (
    CertificateViolation,
    UnroundablePeriod,
    certificate,
    decompose,
    normalize,
    specialize_instance,
    specialize_single,
    split_23,
)
from .scheduler import (
    ChainInstance,
    NotAChain,
    Overdense,
    Solution,
    interleave,
    partition_bins,
    schedule_chain,
    solve,
)
from .verifier import (
    HorizonOverflow,
    check_collisions,
    check_windows,
    evaluate,
    simulate,
)

__version__ = "0.1.0"
