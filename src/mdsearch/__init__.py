"""Constraint-guided sampling for masked discrete diffusion.

The sampler runs an absorbing-state reverse chain whose every step may pass
through a violation-minimizing search operator (best-of-pool proposal
selection plus greedy single-edit refinement) before tokens commit. Exact
enumeration denoisers stand in for trained models so the behavior is fully
checkable at desk scale.
"""

from .denoise import (
    CorruptedDenoiser,
    DataDistribution,
    Denoiser,
    ExactPosteriorDenoiser,
    TableDenoiser,
    UniformDenoiser,
    load_table,
)
from .diffusion import (
    NoiseSchedule,
    ReverseCoeffs,
    first_hitting_steps,
    linear_schedule,
    reverse_coeffs,
)
from .search import (
    SearchConfig,
    StepRecord,
    aggregate_violation,
    best_of_pool,
    guided_reverse_step,
    proposal_draws,
    refine,
    sample,
    vanilla_reverse_step,
)
from .tasks import (
    Instance,
    build_denoiser,
    exact_distribution,
    peptide_instance,
    sat_instance,
    sudoku_instance,
)
from .vocab import EditableRegion, Vocab, fully_masked, masked_positions

__version__ = "0.1.0"

__all__ = [
    "CorruptedDenoiser",
    "DataDistribution",
    "Denoiser",
    "ExactPosteriorDenoiser",
    "TableDenoiser",
    "UniformDenoiser",
    "load_table",
    "NoiseSchedule",
    "ReverseCoeffs",
    "first_hitting_steps",
    "guided_reverse_step",
    "linear_schedule",
    "reverse_coeffs",
    "vanilla_reverse_step",
    "SearchConfig",
    "StepRecord",
    "aggregate_violation",
    "best_of_pool",
    "proposal_draws",
    "refine",
    "sample",
    "Instance",
    "build_denoiser",
    "exact_distribution",
    "peptide_instance",
    "sat_instance",
    "sudoku_instance",
    "EditableRegion",
    "Vocab",
    "fully_masked",
    "masked_positions",
]
