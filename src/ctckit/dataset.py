"""Synthetic sequence-labeling task.

Each token of the vocabulary gets a fixed Gaussian prototype vector.
A sample renders a random label sequence by repeating each token's
prototype for a random number of frames and adding Gaussian noise.
Durations are lengthened if needed so every sample satisfies the
alignment-feasibility bound T >= 2U+1.

Split generators are derived from the dataset seed via spawn keys
([seed, split_index]), so splits are independent and the whole dataset
is bit-reproducible from the config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError, load_arrays, reading, save_arrays, writing
from .lattice import LabelSequence, Vocabulary

_SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class SyntheticTaskConfig:
    vocab_size: int = 8
    feature_dim: int = 16
    min_frames_per_token: int = 4
    max_frames_per_token: int = 8
    noise_std: float = 0.3
    min_label_len: int = 3
    max_label_len: int = 10
    num_train: int = 512
    num_dev: int = 64
    num_test: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 1 or self.feature_dim < 1:
            raise InvalidInputError("vocab_size and feature_dim must be >= 1")
        if not 1 <= self.min_frames_per_token <= self.max_frames_per_token:
            raise InvalidInputError("frames_per_token range must be positive")
        if not 1 <= self.min_label_len <= self.max_label_len:
            raise InvalidInputError("label length range must be positive")
        if self.noise_std < 0:
            raise InvalidInputError("noise_std must be >= 0")
        if min(self.num_train, self.num_dev, self.num_test) < 1:
            raise InvalidInputError("split sizes must be >= 1")


@dataclass(frozen=True)
class Sample:
    features: np.ndarray  # T x feature_dim
    labels: LabelSequence

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)


@dataclass(frozen=True)
class Dataset:
    config: SyntheticTaskConfig
    vocab: Vocabulary
    prototypes: np.ndarray  # vocab_size x feature_dim
    train: tuple[Sample, ...]
    dev: tuple[Sample, ...]
    test: tuple[Sample, ...]

    def split(self, name: str) -> tuple[Sample, ...]:
        if name not in _SPLITS:
            raise InvalidInputError(f"unknown split {name!r}")
        return getattr(self, name)


def _render(
    cfg: SyntheticTaskConfig, prototypes: np.ndarray, rng: np.random.Generator
) -> Sample:
    U = int(rng.integers(cfg.min_label_len, cfg.max_label_len + 1))
    labels = rng.integers(0, cfg.vocab_size, size=U)
    durations = rng.integers(
        cfg.min_frames_per_token, cfg.max_frames_per_token + 1, size=U
    )
    # lengthen round-robin until T >= 2U+1 so CTC always has an alignment
    i = 0
    while int(durations.sum()) < 2 * U + 1:
        durations[i % U] += 1
        i += 1
    clean = np.repeat(prototypes[labels], durations, axis=0)
    noise = rng.standard_normal(clean.shape) * cfg.noise_std
    return Sample(clean + noise, LabelSequence(tuple(int(v) for v in labels)))


def generate_dataset(cfg: SyntheticTaskConfig) -> Dataset:
    proto_rng = np.random.default_rng([cfg.seed, 0])
    prototypes = proto_rng.standard_normal((cfg.vocab_size, cfg.feature_dim))
    splits = []
    counts = (cfg.num_train, cfg.num_dev, cfg.num_test)
    for k, count in enumerate(counts, start=1):
        rng = np.random.default_rng([cfg.seed, k])
        splits.append(tuple(_render(cfg, prototypes, rng) for _ in range(count)))
    return Dataset(
        cfg, Vocabulary.generic(cfg.vocab_size), prototypes, *splits
    )


def save_dataset(dataset: Dataset, path) -> None:
    arrays: dict[str, np.ndarray] = {"prototypes": dataset.prototypes}
    for split in _SPLITS:
        samples = dataset.split(split)
        arrays[f"{split}.count"] = np.array(len(samples))
        for i, s in enumerate(samples):
            arrays[f"{split}.{i}.features"] = s.features
            arrays[f"{split}.{i}.labels"] = np.array(s.labels.labels, dtype=np.int64)
    with writing("dataset file", path):
        save_arrays(path, arrays, asdict(dataset.config))


def load_dataset(path) -> Dataset:
    with reading("dataset file", path):
        arrays, meta = load_arrays(path)
        cfg = SyntheticTaskConfig(**meta)
        splits = []
        for split in _SPLITS:
            samples = []
            for i in range(int(arrays[f"{split}.count"])):
                labels = tuple(int(v) for v in arrays[f"{split}.{i}.labels"])
                samples.append(
                    Sample(arrays[f"{split}.{i}.features"], LabelSequence(labels))
                )
            splits.append(tuple(samples))
        prototypes = arrays["prototypes"]
    return Dataset(cfg, Vocabulary.generic(cfg.vocab_size), prototypes, *splits)
