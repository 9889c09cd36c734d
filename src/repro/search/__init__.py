"""Budget-exact, strategy-unifying, parallel design-space search.

The paper runs one hill climber at a time; this package scales the
search layer into a *portfolio*: every explorer in the repository
(Algorithm 1 hill climbing, NSGA-II, random sampling, capped exhaustive
enumeration) behind one :class:`~repro.search.strategies.SearchStrategy`
interface, metered by a shared
:class:`~repro.core.budget.EvaluationBudget` so reported evaluation
counts are exact by construction, and executed as parallel islands by
:class:`~repro.search.portfolio.PortfolioRunner` with periodic archive
merging, migration, and experiment-store checkpoints (``repro runs
resume`` continues interrupted searches).
"""

from repro.core.budget import (
    EvaluationBudget,
    MeteredEstimator,
)
from repro.errors import BudgetExceededError
from repro.search.portfolio import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    IslandReport,
    PortfolioResult,
    PortfolioRunner,
    analyze_front,
)
from repro.search.strategies import (
    STRATEGIES,
    ExhaustiveStrategy,
    HillClimbStrategy,
    Nsga2Strategy,
    RandomStrategy,
    SearchStrategy,
    make_strategy,
)

__all__ = [
    "BudgetExceededError",
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "EvaluationBudget",
    "ExhaustiveStrategy",
    "HillClimbStrategy",
    "IslandReport",
    "MeteredEstimator",
    "Nsga2Strategy",
    "PortfolioResult",
    "PortfolioRunner",
    "RandomStrategy",
    "STRATEGIES",
    "SearchStrategy",
    "analyze_front",
    "make_strategy",
]
