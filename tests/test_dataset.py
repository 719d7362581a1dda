"""Synthetic dataset generation and persistence."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from ctckit.dataset import (
    Sample,
    SyntheticTaskConfig,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from ctckit.errors import InvalidInputError


def tiny_cfg(**kw):
    base = dict(
        vocab_size=4,
        feature_dim=5,
        num_train=6,
        num_dev=3,
        num_test=3,
        seed=7,
    )
    base.update(kw)
    return SyntheticTaskConfig(**base)


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"vocab_size": 0},
            {"min_frames_per_token": 0},
            {"min_frames_per_token": 9, "max_frames_per_token": 8},
            {"min_label_len": 0},
            {"noise_std": -1.0},
            {"num_dev": 0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(InvalidInputError):
            tiny_cfg(**kw)


class TestGeneration:
    def test_split_sizes(self):
        ds = generate_dataset(tiny_cfg())
        assert (len(ds.train), len(ds.dev), len(ds.test)) == (6, 3, 3)
        assert ds.vocab.size == 4

    def test_deterministic(self):
        a = generate_dataset(tiny_cfg())
        b = generate_dataset(tiny_cfg())
        assert np.array_equal(a.prototypes, b.prototypes)
        for sa, sb in zip(a.train + a.dev + a.test, b.train + b.dev + b.test):
            assert np.array_equal(sa.features, sb.features)
            assert sa.labels == sb.labels

    def test_seed_changes_data(self):
        a = generate_dataset(tiny_cfg(seed=1))
        b = generate_dataset(tiny_cfg(seed=2))
        assert not np.array_equal(a.train[0].features, b.train[0].features)

    def test_splits_differ(self):
        ds = generate_dataset(tiny_cfg())
        assert not np.array_equal(ds.train[0].features, ds.dev[0].features)

    def test_feasibility_bound(self):
        # even 1-frame tokens must be stretched to T >= 2U+1
        cfg = tiny_cfg(
            min_frames_per_token=1, max_frames_per_token=1, num_train=30
        )
        ds = generate_dataset(cfg)
        for s in ds.train + ds.dev + ds.test:
            U = len(s.labels.labels)
            assert s.features.shape[0] >= 2 * U + 1

    def test_label_and_duration_ranges(self):
        ds = generate_dataset(tiny_cfg(num_train=40))
        for s in ds.train:
            U = len(s.labels.labels)
            assert 3 <= U <= 10
            assert all(0 <= v < 4 for v in s.labels.labels)
            assert 4 * U <= s.features.shape[0] <= 8 * U

    def test_zero_noise_renders_prototypes(self):
        ds = generate_dataset(tiny_cfg(noise_std=0.0))
        s = ds.train[0]
        frame_sets = {tuple(np.round(row, 12)) for row in s.features}
        protos = {tuple(np.round(p, 12)) for p in ds.prototypes}
        assert frame_sets <= protos
        # first frame renders the first label exactly
        assert np.allclose(s.features[0], ds.prototypes[s.labels.labels[0]])

    def test_features_read_only(self):
        ds = generate_dataset(tiny_cfg())
        with pytest.raises(ValueError):
            ds.train[0].features[0, 0] = 9.0

    def test_split_accessor(self):
        ds = generate_dataset(tiny_cfg())
        assert ds.split("dev") is ds.dev
        with pytest.raises(InvalidInputError):
            ds.split("validation")


def assert_same_dataset(a, b):
    assert a.config == b.config
    assert np.array_equal(a.prototypes, b.prototypes)
    for split in ("train", "dev", "test"):
        assert len(a.split(split)) == len(b.split(split))
        for sa, sb in zip(a.split(split), b.split(split)):
            assert np.array_equal(sa.features, sb.features)
            assert sa.labels == sb.labels


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset(tiny_cfg())
        path = tmp_path / "data.npz"
        save_dataset(ds, path)
        assert_same_dataset(load_dataset(path), ds)

    def test_key_layout(self, tmp_path):
        # the file format: one npz member per array, with the config as
        # UTF-8 JSON bytes under config_json; files written by hand in this
        # layout must keep loading
        ds = generate_dataset(tiny_cfg())
        blob = json.dumps(asdict(ds.config), sort_keys=True).encode("utf-8")
        arrays = {"prototypes": ds.prototypes,
                  "config_json": np.frombuffer(blob, dtype=np.uint8)}
        for split in ("train", "dev", "test"):
            samples = ds.split(split)
            arrays[f"{split}.count"] = np.array(len(samples))
            for i, s in enumerate(samples):
                arrays[f"{split}.{i}.features"] = s.features
                arrays[f"{split}.{i}.labels"] = np.array(s.labels.labels)
        np.savez_compressed(tmp_path / "data.npz", **arrays)
        assert_same_dataset(load_dataset(tmp_path / "data.npz"), ds)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(InvalidInputError):
            load_dataset(path)
