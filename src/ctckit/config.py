"""Flat key = value experiment configuration.

One namespace of dotted keys covers data generation, augmentation, the
consistency and smoothness losses, the encoder, training, and evaluation.
Files hold `key = value` lines with `#` comments; unknown keys are
rejected. Values are coerced to the type of the key's default. Presets
are named override bundles applied below file and command-line overrides
(precedence: defaults < preset < file < --set flags).
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

from .augment import SpecAugmentConfig
from .consistency import CrConfig
from .dataset import SyntheticTaskConfig
from .encoder import EncoderConfig
from .errors import InvalidInputError, reading
from .smoothing import SrConfig

OBJECTIVES = ("ctc", "cr_ctc", "sr_ctc")

# prefix -> settings dataclass. Each field `name` is the flat key
# `prefix.name`; its default and type are the field's default and its type.
SECTIONS: dict[str, type] = {
    "data": SyntheticTaskConfig,
    "aug": SpecAugmentConfig,
    "cr": CrConfig,
    "sr": SrConfig,
    "model": EncoderConfig,
}

# help text of each dataclass-backed key
_HELP: dict[str, str] = {
    "data.vocab_size": "number of distinct tokens",
    "data.feature_dim": "feature vector width",
    "data.min_frames_per_token": "shortest token rendering",
    "data.max_frames_per_token": "longest token rendering",
    "data.noise_std": "Gaussian noise level on features",
    "data.min_label_len": "shortest label sequence",
    "data.max_label_len": "longest label sequence",
    "data.num_train": "training samples",
    "data.num_dev": "dev samples",
    "data.num_test": "test samples",
    "data.seed": "dataset generation seed",
    "aug.warp_factor": "time-warp window",
    "aug.num_freq_masks": "frequency masks per view",
    "aug.max_freq_mask_width": "frequency mask width cap",
    "aug.num_time_masks": "time masks per view before scaling",
    "aug.max_time_mask_width": "time mask width cap",
    "aug.max_time_mask_fraction": "masked-frame fraction cap",
    "aug.time_scale_ratio": "time-mask count/fraction multiplier",
    "aug.freq_scale_ratio": "frequency-mask count/width multiplier",
    "cr.alpha": "consistency weight",
    "cr.target_mode": "stop_gradient | flow_gradient",
    "cr.distance": "bidirectional_kl | hard_label_ce",
    "cr.frame_filter": "all | exclude_self_masked | exclude_self_unmasked",
    "sr.beta": "smoothness penalty weight",
    "model.layers": "residual conv blocks",
    "model.hidden_dim": "hidden width",
    "model.context_radius": "conv taps each side",
    "model.dropout_prob": "inverted dropout rate",
    "model.layer_drop_prob": "residual branch drop rate",
    "model.downsample_factor": "ceil-mode input pooling",
}

# key -> (default, help). Type is the type of the default.
KEY_TABLE: dict[str, tuple[object, str]] = {
    f"{prefix}.{f.name}": (f.default, _HELP[f"{prefix}.{f.name}"])
    for prefix, cls in SECTIONS.items()
    for f in fields(cls)
} | {
    # keys with no settings dataclass behind them
    "aug.cr_time_scale_ratio": (2.5, "time multiplier used by cr_ctc"),
    "train.objective": ("ctc", "ctc | cr_ctc | sr_ctc"),
    "train.epochs": (20, "training epochs"),
    "train.batch_size": (16, "samples per gradient step"),
    "train.lr": (2e-3, "learning rate"),
    "train.seed": (0, "training seed (init, dropout, shuffling)"),
    "eval.beam": (4, "prefix beam width"),
}

DEFAULTS: dict[str, object] = {k: v for k, (v, _) in KEY_TABLE.items()}

# removed keys that older run records may hold -> the value the code now
# always uses
RETIRED: dict[str, object] = {
    "train.optimizer": "adam",
    "cr.normalize_by_frames": False,
    "aug.mask_value": 0.0,
    "train.fair_cost": True,
}

PRESETS: dict[str, dict[str, object]] = {
    # desk: the benchmark setting for objective comparisons. High feature
    # noise plus 2x pooling leaves each token ~2.5-3.5 encoder frames, the
    # regime where over-confident spiky alignments actually cost accuracy.
    # Duration range 5-7 keeps adjacent repeats decidable from span length
    # (4-8 would make e.g. 8 frames readable as one token or two).
    # Augmentation geometry is scaled to T in [15, 70], F=16.
    "desk": {
        "data.num_train": 240,
        "data.num_dev": 40,
        "data.num_test": 400,
        "data.noise_std": 1.6,
        "data.min_frames_per_token": 5,
        "data.max_frames_per_token": 7,
        "model.downsample_factor": 2,
        "train.epochs": 60,
        "train.batch_size": 16,
        "aug.warp_factor": 4,
        "aug.max_freq_mask_width": 2,
        "aug.num_time_masks": 4,
        "aug.max_time_mask_width": 4,
    },
    # smoke: quick end-to-end sanity run
    "smoke": {
        "data.num_train": 200,
        "data.num_dev": 24,
        "data.num_test": 24,
        "data.noise_std": 0.5,
        "aug.warp_factor": 4,
        "aug.max_freq_mask_width": 2,
        "aug.num_time_masks": 4,
        "aug.max_time_mask_width": 4,
        "model.hidden_dim": 32,
        "model.layers": 2,
        "train.epochs": 5,
        "train.batch_size": 16,
    },
}


def _coerce(key: str, text: str) -> object:
    if key not in DEFAULTS:
        raise InvalidInputError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    text = text.strip()
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
    except ValueError as exc:
        raise InvalidInputError(f"{key}: {exc}") from exc
    return text


def parse_config_text(text: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = _coerce(key.strip(), value)
    return out


def load_config_file(path) -> dict[str, object]:
    with reading("config file", path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text)


def parse_assignments(pairs: list[str]) -> dict[str, object]:
    """Parse --set style `key=value` strings."""
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidInputError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = _coerce(key.strip(), value)
    return out


def resolve(
    preset: str | None = None,
    file: str | None = None,
    assignments: list[str] | None = None,
) -> dict[str, object]:
    flat = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise InvalidInputError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        flat.update(PRESETS[preset])
    if file is not None:
        flat.update(load_config_file(file))
    if assignments:
        flat.update(parse_assignments(assignments))
    _validate(flat)
    return flat


def _validate(flat: dict[str, object]) -> None:
    if flat["train.objective"] not in OBJECTIVES:
        raise InvalidInputError(
            f"train.objective must be one of {OBJECTIVES}"
        )
    if int(flat["train.epochs"]) < 1 or int(flat["train.batch_size"]) < 1:
        raise InvalidInputError("train.epochs and train.batch_size must be >= 1")
    if not 0.0 < float(flat["train.lr"]) < math.inf:
        raise InvalidInputError("train.lr must be finite and > 0")
    if int(flat["eval.beam"]) < 1:
        raise InvalidInputError("eval.beam must be >= 1")
    for prefix in SECTIONS:
        section(prefix, flat)
    augment_config(flat, for_objective="cr_ctc")


def section(prefix: str, flat: dict[str, object]):
    """The settings dataclass of ``prefix`` built from its ``prefix.field``
    keys, each cast to the type of the field's default."""
    cls = SECTIONS[prefix]
    return cls(**{
        f.name: type(f.default)(flat[f"{prefix}.{f.name}"]) for f in fields(cls)
    })


def data_config(flat: dict[str, object]) -> SyntheticTaskConfig:
    return section("data", flat)


def encoder_config(flat: dict[str, object]) -> EncoderConfig:
    return section("model", flat)


def augment_config(
    flat: dict[str, object], for_objective: str | None = None
) -> SpecAugmentConfig:
    """Augmentation policy; cr_ctc swaps in its own time-scaling ratio."""
    cfg = section("aug", flat)
    if for_objective == "cr_ctc":
        ratio = float(flat["aug.cr_time_scale_ratio"])
        return replace(cfg, time_scale_ratio=ratio)
    return cfg
