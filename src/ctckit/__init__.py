"""CTC training toolkit: exact losses and decoders over alignment lattices,
consistency- and smoothness-regularized training objectives, peakedness
analytics, a small numpy encoder with hand-written backprop, and a synthetic
benchmark harness with a CLI.
"""

from .errors import (
    CapacityError,
    CtcKitError,
    InvalidInputError,
)
from .lattice import (
    Alignment,
    DistributionLattice,
    LabelSequence,
    LogitLattice,
    Vocabulary,
    collapse,
    load_lattice_text,
    save_lattice_text,
    softmax_rows,
)
from .ctc import (
    CtcLossResult,
    ObjectiveResult,
    ctc_loss,
    ctc_loss_from_logits,
    ctc_loss_oracle,
    is_feasible,
    occupancy_marginals,
)
from .decode import (
    decode_oracle,
    greedy_decode,
    prefix_beam_decode,
)
from .augment import (
    AugmentedView,
    SpecAugmentConfig,
    augment,
    make_views,
    pool_mask_any,
    time_warp,
)
from .consistency import (
    CrConfig,
    cr_loss,
    paired_loss_from_logits,
)
from .smoothing import (
    SrConfig,
    smooth_lattice,
    sr_loss_from_logits,
    sr_penalty,
)
from .peakedness import (
    PeakStats,
    emit_plot_data,
    peak_stats,
    save_plot_data,
    write_plot_data,
)
from .encoder import (
    AdamState,
    EncoderConfig,
    ParameterSet,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .metrics import (
    corpus_token_error_rate,
    levenshtein,
)
from .dataset import (
    Dataset,
    Sample,
    SyntheticTaskConfig,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .harness import (
    EvalReport,
    RunRecord,
    evaluate_model,
    rerun_from_record,
    run_experiment,
    sweep,
    train_model,
    write_sweep_csv,
)

__all__ = [
    "AdamState",
    "Alignment",
    "AugmentedView",
    "CapacityError",
    "CrConfig",
    "CtcKitError",
    "CtcLossResult",
    "Dataset",
    "DistributionLattice",
    "EncoderConfig",
    "EvalReport",
    "InvalidInputError",
    "LabelSequence",
    "LogitLattice",
    "ObjectiveResult",
    "ParameterSet",
    "PeakStats",
    "RunRecord",
    "Sample",
    "SpecAugmentConfig",
    "SrConfig",
    "SyntheticTaskConfig",
    "Vocabulary",
    "adam_step",
    "augment",
    "backward",
    "collapse",
    "corpus_token_error_rate",
    "cr_loss",
    "ctc_loss",
    "ctc_loss_from_logits",
    "ctc_loss_oracle",
    "decode_oracle",
    "emit_plot_data",
    "evaluate_model",
    "forward",
    "generate_dataset",
    "greedy_decode",
    "init_params",
    "is_feasible",
    "levenshtein",
    "load_checkpoint",
    "load_dataset",
    "load_lattice_text",
    "make_views",
    "occupancy_marginals",
    "paired_loss_from_logits",
    "peak_stats",
    "pool_mask_any",
    "prefix_beam_decode",
    "rerun_from_record",
    "run_experiment",
    "save_checkpoint",
    "save_dataset",
    "save_lattice_text",
    "save_plot_data",
    "smooth_lattice",
    "softmax_rows",
    "sr_loss_from_logits",
    "sr_penalty",
    "sweep",
    "time_warp",
    "train_model",
    "write_sweep_csv",
]
