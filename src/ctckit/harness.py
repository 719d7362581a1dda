"""Experiment orchestration: training loops, evaluation, run records, sweeps.

A run is fully determined by (objective, flat config, seed). All training
randomness flows through two generators spawned from the seed: one for
parameter init, one for per-epoch shuffling, augmentation, and dropout,
consumed in a fixed order so repeated runs are bit-identical.

The fair-cost rule: consistency training does two forward/backward passes
per sample, so `cr_ctc` runs with half the epochs and half the batch size
whenever train.fair_cost is on, holding total compute roughly equal to the
plain-CTC baseline.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import config as cfgmod
from .augment import augment, make_views, pool_mask_any
from .consistency import paired_loss_from_logits
from .ctc import ObjectiveResult, ctc_loss, occupancy_marginals
from .dataset import Dataset, generate_dataset
from .decode import greedy_decode, prefix_beam_decode
from .encoder import (
    AdamState,
    ParameterSet,
    accumulate,
    adam_step,
    backward,
    forward,
    init_params,
)
from .errors import InvalidInputError, writing
from .lattice import LabelSequence, LogitLattice, Vocabulary, softmax_rows
from .metrics import corpus_token_error_rate
from .peakedness import PeakStats, peak_stats
from .smoothing import sr_loss_from_logits

OUT_DIR_ENV = "CTCKIT_OUT_DIR"

SWEEP_AXES: dict[str, tuple] = {
    "objective": ("ctc", "cr_ctc", "sr_ctc"),
    "alpha": (0.1, 0.2, 0.3),
    "time_scale_ratio": (1.0, 1.5, 2.0, 2.5, 3.0),
    "distance": ("bidirectional_kl", "hard_label_ce"),
    "target_mode": ("stop_gradient", "flow_gradient"),
    "frame_filter": ("all", "exclude_self_masked", "exclude_self_unmasked"),
    "freq_scale_ratio": (1.0, 2.5),
}

# axis name -> config key it overrides (objective handled separately)
_AXIS_KEYS = {
    "alpha": "cr.alpha",
    "time_scale_ratio": "aug.cr_time_scale_ratio",
    "distance": "cr.distance",
    "target_mode": "cr.target_mode",
    "frame_filter": "cr.frame_filter",
    "freq_scale_ratio": "aug.freq_scale_ratio",
}

SWEEP_CSV_COLUMNS = (
    "axis,value,objective,seed,epochs,batch_size,"
    "dev_greedy_ter,dev_prefix_ter,test_greedy_ter,test_prefix_ter,"
    "mean_nonblank_duration,mean_blank_emit_prob,mean_nonblank_emit_prob,"
    "wall_clock_s"
)


def default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


@dataclass
class TrainOutcome:
    params: ParameterSet
    loss_curve: list[float | None]  # None: every sample of the epoch skipped
    skipped: int


@dataclass(frozen=True)
class EvalReport:
    greedy_ter: float
    prefix_ter: float
    peak: PeakStats


@dataclass
class RunRecord:
    """Everything needed to report and reproduce one training run.

    `config` is the resolved flat config before the fair-cost adjustment;
    `epochs`/`batch_size` record what was actually used.
    """

    objective: str
    seed: int
    config: dict[str, object]
    epochs: int
    batch_size: int
    loss_curve: list[float | None]
    skipped_samples: int
    dev_greedy_ter: float
    dev_prefix_ter: float
    test_greedy_ter: float
    test_prefix_ter: float
    peak: dict[str, float | int]
    wall_clock_s: float
    notes: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        try:
            payload = json.loads(text)
            return cls(**payload)
        except (json.JSONDecodeError, TypeError) as exc:
            raise InvalidInputError(f"bad run record: {exc}") from exc

    def save(self, path) -> None:
        with writing("run record", path), open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "RunRecord":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise InvalidInputError(f"cannot read run record {path}: {exc}") from exc


def effective_schedule(flat: dict[str, object], objective: str) -> tuple[int, int]:
    """(epochs, batch_size) after the fair-cost rule."""
    epochs = int(flat["train.epochs"])
    batch = int(flat["train.batch_size"])
    if objective == "cr_ctc" and bool(flat["train.fair_cost"]):
        epochs = max(1, epochs // 2)
        batch = max(1, batch // 2)
    return epochs, batch


def train_model(
    dataset: Dataset,
    flat: dict[str, object],
    objective: str | None = None,
    seed: int | None = None,
) -> TrainOutcome:
    objective = objective or str(flat["train.objective"])
    if objective not in cfgmod.OBJECTIVES:
        raise InvalidInputError(f"unknown objective {objective!r}")
    seed = int(flat["train.seed"]) if seed is None else int(seed)

    enc_cfg = cfgmod.encoder_config(flat)
    aug_cfg = cfgmod.augment_config(flat, for_objective=objective)
    cr_cfg = cfgmod.section("cr", flat)
    sr_cfg = cfgmod.section("sr", flat)
    lr = float(flat["train.lr"])
    vocab = dataset.vocab
    num_classes = vocab.extended_size

    init_rng = np.random.default_rng([seed, 0])
    step_rng = np.random.default_rng([seed, 1])
    params = init_params(enc_cfg, dataset.config.feature_dim, num_classes, init_rng)
    opt_state = AdamState.fresh(params)

    epochs, batch_size = effective_schedule(flat, objective)
    samples = dataset.train
    skipped = 0
    curve: list[float | None] = []

    for epoch in range(epochs):
        order = step_rng.permutation(len(samples))
        epoch_loss, epoch_count = 0.0, 0
        for step, start in enumerate(range(0, len(order), batch_size)):
            batch = [samples[int(i)] for i in order[start : start + batch_size]]
            grads = params.zeros_like()
            used = 0
            try:
                for sample in batch:
                    item = _sample_grads(
                        params, sample, objective, enc_cfg, aug_cfg, cr_cfg,
                        sr_cfg, vocab, step_rng,
                    )
                    if item is None:
                        skipped += 1
                        continue
                    loss, sample_grads = item
                    accumulate(grads, sample_grads)
                    epoch_loss += loss
                    used += 1
                if used == 0:
                    continue
                for g in grads.values():
                    g /= used
                params, opt_state = adam_step(params, grads, opt_state, lr)
            except InvalidInputError as exc:
                raise InvalidInputError(f"epoch {epoch} step {step}: {exc}") from exc
            epoch_count += used
        curve.append(epoch_loss / epoch_count if epoch_count else None)
    return TrainOutcome(params, curve, skipped)


def _sample_grads(
    params, sample, objective, enc_cfg, aug_cfg, cr_cfg, sr_cfg, vocab, rng
):
    """Loss and parameter gradients for one sample; None when infeasible."""
    y = sample.labels
    if objective == "cr_ctc":
        views = make_views(sample.features, aug_cfg, rng)
    else:
        views = (augment(sample.features, aug_cfg, rng),)
    passes = [forward(params, v.features, enc_cfg, True, rng) for v in views]
    logits, tapes = zip(*passes)

    if objective == "cr_ctc":
        factor = enc_cfg.downsample_factor
        masks = [pool_mask_any(v.time_masked, factor) for v in views]
        res = paired_loss_from_logits(*logits, y, vocab, *masks, cr_cfg)
    elif objective == "sr_ctc":
        res = sr_loss_from_logits(logits[0], y, vocab, sr_cfg)
    else:
        res = ctc_loss_from_logits(logits[0], y, vocab)
    if not res.feasible:
        return None

    grads = [backward(params, tape, dl) for tape, dl in zip(tapes, res.grads)]
    for view_grads in grads[1:]:
        accumulate(grads[0], view_grads)
    return res.loss, grads[0]


def ctc_loss_from_logits(
    logits: LogitLattice, y: LabelSequence, vocab: Vocabulary
) -> ObjectiveResult:
    """Plain CTC objective on raw logits; its one part is ``ctc``.

    The gradient is softmax(logits) minus the occupancy posterior, so every
    row sums to zero. It lives here rather than in ``ctc`` because
    ``perfbench/tracing.py`` times softmax_rows, ctc_loss and
    occupancy_marginals where this module imports them.
    """
    dist = softmax_rows(logits)
    res = ctc_loss(dist, y, vocab)
    if not res.feasible:
        return ObjectiveResult(False, math.inf, None, {})
    grad = dist.probs - occupancy_marginals(dist, res)
    return ObjectiveResult(True, res.loss, (grad,), {"ctc": res.loss})


def evaluate_model(
    params: ParameterSet,
    dataset: Dataset,
    split: str,
    flat: dict[str, object],
) -> EvalReport:
    """Eval-mode decode of one split with both decoders, plus peak stats."""
    enc_cfg = cfgmod.encoder_config(flat)
    beam = int(flat["eval.beam"])
    vocab = dataset.vocab
    greedy_pairs, prefix_pairs, stats = [], [], []
    for sample in dataset.split(split):
        logits, _ = forward(params, sample.features, enc_cfg)
        dist = softmax_rows(logits)
        hyp_greedy, _ = greedy_decode(dist, vocab)
        hyp_prefix = prefix_beam_decode(dist, vocab, beam)
        greedy_pairs.append((hyp_greedy.labels, sample.labels.labels))
        prefix_pairs.append((hyp_prefix.labels, sample.labels.labels))
        stats.append(peak_stats(dist, vocab))
    return EvalReport(
        corpus_token_error_rate(greedy_pairs),
        corpus_token_error_rate(prefix_pairs),
        PeakStats.merge(stats),
    )


def run_experiment(
    objective: str,
    flat: dict[str, object],
    seed: int | None = None,
    dataset: Dataset | None = None,
    out_dir: str | None = None,
    checkpoint_path: str | None = None,
) -> tuple[RunRecord, ParameterSet]:
    """Train, evaluate on dev and test, optionally persist the record.

    A prebuilt dataset may be passed to share generation across runs; it
    must match the config's data settings.
    """
    seed = int(flat["train.seed"]) if seed is None else int(seed)
    data_cfg = cfgmod.data_config(flat)
    if dataset is None:
        dataset = generate_dataset(data_cfg)
    elif dataset.config != data_cfg:
        raise InvalidInputError("supplied dataset does not match the config")

    t0 = time.perf_counter()
    outcome = train_model(dataset, flat, objective=objective, seed=seed)
    dev = evaluate_model(outcome.params, dataset, "dev", flat)
    test = evaluate_model(outcome.params, dataset, "test", flat)
    wall = time.perf_counter() - t0

    epochs, batch = effective_schedule(flat, objective)
    record = RunRecord(
        objective=objective,
        seed=seed,
        config={**flat, "train.objective": objective, "train.seed": seed},
        epochs=epochs,
        batch_size=batch,
        loss_curve=outcome.loss_curve,
        skipped_samples=outcome.skipped,
        dev_greedy_ter=dev.greedy_ter,
        dev_prefix_ter=dev.prefix_ter,
        test_greedy_ter=test.greedy_ter,
        test_prefix_ter=test.prefix_ter,
        peak=asdict(test.peak),
        wall_clock_s=wall,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        record.save(os.path.join(out_dir, f"run_{objective}_seed{seed}.json"))
    if checkpoint_path is not None:
        from .encoder import save_checkpoint

        meta = {"objective": objective, "seed": seed,
                "config": {k: flat[k] for k in sorted(flat)}}
        save_checkpoint(checkpoint_path, outcome.params, meta)
    return record, outcome.params


def rerun_from_record(record: RunRecord) -> RunRecord:
    """Reproduce a run from its persisted config + seed (fresh dataset).

    Retired keys are ignored when they hold the value the code now always
    uses, and rejected otherwise."""
    for key, value in cfgmod.RETIRED.items():
        if record.config.get(key, value) != value:
            raise InvalidInputError(
                f"run record sets {key} = {record.config[key]!r}, which can "
                f"no longer be rerun (the code always uses {value!r})"
            )
    fresh, _ = run_experiment(record.objective, record.config, record.seed)
    return fresh


def _sweep_cells(axes: list[str]) -> list[tuple[str, object]]:
    cells: list[tuple[str, object]] = []
    for axis in axes:
        if axis not in SWEEP_AXES:
            raise InvalidInputError(
                f"unknown sweep axis {axis!r}; available: {sorted(SWEEP_AXES)}"
            )
        cells.extend((axis, value) for value in SWEEP_AXES[axis])
    return cells


def sweep(
    flat: dict[str, object],
    axes: list[str] | None = None,
    seeds: tuple[int, ...] = (0,),
    out_csv: str | None = None,
    dataset: Dataset | None = None,
) -> list[dict[str, object]]:
    """One-at-a-time ablation grid around the base config.

    Every cell deviates from `flat` in exactly one axis value. All axes
    except `objective` train cr_ctc variants. Rows follow
    SWEEP_CSV_COLUMNS order.
    """
    axes = list(SWEEP_AXES) if axes is None else axes
    if dataset is None:
        dataset = generate_dataset(cfgmod.data_config(flat))
    rows: list[dict[str, object]] = []
    for axis, value in _sweep_cells(axes):
        for seed in seeds:
            cell = dict(flat)
            objective = str(cell["train.objective"])
            if axis == "objective":
                objective = str(value)
            else:
                cell[_AXIS_KEYS[axis]] = value
                objective = "cr_ctc"
            record, _ = run_experiment(objective, cell, seed, dataset=dataset)
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "objective": objective,
                    "seed": seed,
                    "epochs": record.epochs,
                    "batch_size": record.batch_size,
                    "dev_greedy_ter": record.dev_greedy_ter,
                    "dev_prefix_ter": record.dev_prefix_ter,
                    "test_greedy_ter": record.test_greedy_ter,
                    "test_prefix_ter": record.test_prefix_ter,
                    "mean_nonblank_duration": record.peak[
                        "mean_nonblank_duration"
                    ],
                    "mean_blank_emit_prob": record.peak["mean_blank_emit_prob"],
                    "mean_nonblank_emit_prob": record.peak[
                        "mean_nonblank_emit_prob"
                    ],
                    "wall_clock_s": record.wall_clock_s,
                }
            )
    if out_csv is not None:
        write_sweep_csv(rows, out_csv)
    return rows


def write_sweep_csv(rows: list[dict[str, object]], path) -> None:
    columns = SWEEP_CSV_COLUMNS.split(",")
    with writing("sweep CSV", path), open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_COLUMNS + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
