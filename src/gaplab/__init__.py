"""Numerical laboratory for the geometry of multi-modal contrastive embedding spaces.

The package covers the full desk-scale pipeline: dense primitives and
spectral effective-dimension analysis (``linalg``), the symmetric
contrastive loss with exact and span-form gradients plus a projected
trainer and stable-region bounds (``contrastive``), grouped gap/noise
statistics (``geometry``), synthetic ground-truth worlds (``worlds``),
the collapse/corrupt embedding transforms (``c3``), a cross-modal
transfer benchmark (``bench``), embedding file IO (``embio``), and a
report-writing CLI (``cli``).
"""

from .linalg import (
    EmbeddingMatrix,
    PairedEmbeddings,
    SpectralSummary,
    l2_normalize_rows,
    covariance,
    spectral_summary,
    mean_pairwise_cosine,
)
from .contrastive import (
    ContrastiveBatch,
    GradientPair,
    TrainerConfig,
    TrainingRecord,
    TrainingResult,
    StableRegionReport,
    conditional_probs,
    contrastive_loss,
    exact_gradients,
    span_gradients,
    train_contrastive,
    stable_region_threshold,
    loss_bound_check,
)
from .geometry import (
    PairGroups,
    GapReport,
    group_pairs,
    group_statistics,
    masked_gap_distance,
    per_dim_variance,
)
from .worlds import (
    GapWorld,
    InitWorld,
    MlpSimConfig,
    MlpProbe,
    make_gap_world,
    make_collapsed_init_world,
    mlp_collapse_sim,
)
from .c3 import (
    C3Config,
    corrupt,
)
from .bench import (
    LatentSpec,
    ToyTask,
    RidgeDecoder,
    AblationRow,
    make_toy_task,
    train_decoder,
    in_modality_metric,
    run_ablation,
    gap_shift_sweep,
)
from .embio import ingest, export, read_mmeb, write_mmeb, read_csv, write_csv

__version__ = "0.1.0"
