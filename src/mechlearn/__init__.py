"""Learning near-optimal multi-bidder, multi-item auctions from samples.

Pipelines: round sampled values to a grid, solve an LP revenue oracle over
the empirical product prior, extend off-support, and wrap for real bids;
plus single-parameter Myerson machinery and the single-bidder exact-IC
nudge, with incentive and individual-rationality audits throughout.
"""

from ._version import TOOL_VERSION as __version__
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    InvariantError,
    MechlearnError,
    ParseError,
    UsageError,
)
from .grid import (
    DiscreteMarginal,
    GridSpec,
    GridValue,
    ProductPrior,
    SampleSet,
    empirical_marginal,
    recommended_sample_count,
    round_down,
)
from .learner import (
    LearnedMechanism,
    Menu,
    MenuEntry,
    evaluate_on_reals,
    learn_bic,
    learn_dsic,
    learn_single_parameter,
    mechanism_to_menu,
    menu_mechanism,
    nudge_to_ic,
)
from .mechanism import (
    MechanismTable,
    ProfileDomain,
    RegretReport,
    deserialize_mechanism,
    regret_report,
    revenue,
    serialize_mechanism,
)
from .myerson import (
    IronedVirtuals,
    MyersonAuction,
    iron,
    run_myerson,
    snap_to_support,
)
from .oracle import LpSolution, OracleProblem, extend_bic, extend_dsic, solve_optimal
from .exactlp import brute_force_optimal
from .outcomes import (
    OutcomeSpace,
    PricedOutcome,
    ValuationModel,
    bidder_value,
    check_weakly_downward_closed,
    enumerate_multi_item,
    single_parameter_space,
)
from .priors import PriorCell, PriorDescription, prior_from_config, sample_prior
