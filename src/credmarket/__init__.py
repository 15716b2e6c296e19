"""Mechanism-design engine and adversarial simulator for capacity-constrained
service markets: polymatroid rank oracles, truthful and non-truthful payment
rules, operator deviations with agent-side detectability analysis, credibility
devices (broadcast transcripts, deposit-backed recomputation, fee separation),
and the measurement layer that prices non-credibility."""

from .errors import (
    CapacityNotBindingWarning,
    ConfigError,
    CredmarketError,
    DomainError,
    Level2RegimeError,
    MatroidBoundaryError,
    NoDeviationError,
    NonMonotoneAllocationError,
    NoWindowError,
    StructureError,
    UndefinedRatioError,
    UnsupportedPriorError,
)
from .polymatroid import (
    RankOracle,
    SubstituteCloneOracle,
    TableOracle,
    generate_topology,
    level1_matroid,
    make_oracle,
    nonmodularity_profile,
    pair_gap,
)
from .mechanisms import (
    ClinchTranscript,
    Mechanism,
    UniformPrior,
    clinching_auction,
    edmonds_greedy,
    vcg_outcome,
)
from .adversary import (
    DeviationStrategy,
    apply_deviation,
    construct_perturbation,
)
from .credibility import (
    FeeOperator,
    fee_operator_surplus,
    knife_edge_sweep,
    make_commitment,
    run_dra,
    tamper_forge_rank,
    tamper_ghost_clinch,
    tamper_inflate_clinch,
    verify_transcript,
)
from .metrics import (
    bertrand_price,
    gamma_distribution,
    orthogonality_decompose,
    salop_markup,
    scaling_sweep,
)
from .sim import (
    ScenarioConfig,
    best_ghost,
    generate_round,
    ghost_candidates,
    run_experiment,
    settle_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityNotBindingWarning",
    "ClinchTranscript",
    "ConfigError",
    "CredmarketError",
    "DeviationStrategy",
    "DomainError",
    "FeeOperator",
    "Level2RegimeError",
    "MatroidBoundaryError",
    "Mechanism",
    "NoDeviationError",
    "NoWindowError",
    "NonMonotoneAllocationError",
    "RankOracle",
    "ScenarioConfig",
    "StructureError",
    "SubstituteCloneOracle",
    "TableOracle",
    "UndefinedRatioError",
    "UniformPrior",
    "UnsupportedPriorError",
    "apply_deviation",
    "bertrand_price",
    "best_ghost",
    "clinching_auction",
    "construct_perturbation",
    "edmonds_greedy",
    "fee_operator_surplus",
    "gamma_distribution",
    "generate_round",
    "generate_topology",
    "ghost_candidates",
    "knife_edge_sweep",
    "level1_matroid",
    "make_commitment",
    "make_oracle",
    "nonmodularity_profile",
    "orthogonality_decompose",
    "pair_gap",
    "run_dra",
    "run_experiment",
    "salop_markup",
    "scaling_sweep",
    "settle_threshold",
    "tamper_forge_rank",
    "tamper_ghost_clinch",
    "tamper_inflate_clinch",
    "vcg_outcome",
    "verify_transcript",
]
