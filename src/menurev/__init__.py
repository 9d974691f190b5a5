"""Revenue-optimal selling mechanisms for a single additive buyer over
finitely supported valuation distributions: exact evaluation, constructive
menu transformations, exhaustive grid search, equal-revenue analytics, and
lottery-menu tooling."""

from .buyer import (
    BuyerOutcome,
    MonotonicityReport,
    buyer_choice,
    check_monotone,
    expected_revenue,
    expected_revenues,
    monotonicity_grid,
    revenue_at,
    sale_probabilities,
)
from .constructions import (
    CertificateError,
    ConstructionCertificate,
    submodularize2,
    symmetrize2,
    three_halves_decomposition,
)
from .continuous import (
    ERGapReport,
    NumericParams,
    er_cap_sweep,
    er_discretize,
    numeric_gap_er,
    solve_w,
)
from .model import (
    JointDistribution,
    Menu,
    SingleItemDistribution,
    all_bundles,
    is_monotone_menu,
    is_submodular,
    is_symmetric_menu,
    menu2,
    normalize,
    point_mass,
    product,
    uniform,
)
from .randomized import (
    COMBINATION_RULES,
    DirectMechanism,
    LPOutcome,
    MenuEntry,
    RandomizedMenu,
    best_false_name_deviation,
    false_name_utility,
    lp_optimal,
    menu_expected_payment,
    rchoice,
    verify_ic_ir,
)
from .regions import RegionPartition2, region_partition_2, render_ascii, render_svg
from .search import (
    CandidateGrid,
    GapReport,
    SearchResult,
    candidate_grid,
    gap_report,
    search_optimal,
)
from .serialize import ParseError, parse_distribution, parse_menu

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
