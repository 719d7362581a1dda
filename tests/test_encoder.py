"""Encoder forward/backward, optimizers, and the checkpoint format."""

import math

import numpy as np
import pytest

from ctckit.encoder import (
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
from ctckit.errors import InvalidInputError
from ctckit.ctc import ctc_loss_from_logits
from ctckit.lattice import LabelSequence, Vocabulary

VOCAB = Vocabulary.generic(2)


def small_cfg(**kw):
    base = dict(
        layers=2,
        hidden_dim=4,
        context_radius=1,
        dropout_prob=0.0,
        layer_drop_prob=0.0,
        downsample_factor=1,
    )
    base.update(kw)
    return EncoderConfig(**base)


def make_params(cfg, feature_dim=3, num_classes=3, seed=0):
    return init_params(cfg, feature_dim, num_classes, np.random.default_rng(seed))


class TestConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.layers == 3
        assert cfg.hidden_dim == 64
        assert cfg.context_radius == 2
        assert cfg.downsample_factor == 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"hidden_dim": 0},
            {"dropout_prob": 1.0},
            {"layer_drop_prob": -0.1},
            {"downsample_factor": 0},
            {"context_radius": -1},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(InvalidInputError):
            small_cfg(**kw)


class TestForward:
    def test_eval_deterministic(self):
        cfg = small_cfg()
        params = make_params(cfg)
        x = np.random.default_rng(1).standard_normal((6, 3))
        a, _ = forward(params, x, cfg)
        b, _ = forward(params, x, cfg)
        assert np.array_equal(a.values, b.values)

    def test_zero_drop_train_equals_eval(self):
        cfg = small_cfg(dropout_prob=0.0, layer_drop_prob=0.0)
        params = make_params(cfg)
        x = np.random.default_rng(1).standard_normal((6, 3))
        ev, _ = forward(params, x, cfg)
        tr, _ = forward(params, x, cfg, train=True, rng=np.random.default_rng(7))
        assert np.array_equal(ev.values, tr.values)

    @pytest.mark.parametrize("T,expected", [(8, 2), (9, 3), (1, 1), (4, 1)])
    def test_downsample_ceil(self, T, expected):
        cfg = small_cfg(downsample_factor=4)
        params = make_params(cfg)
        x = np.random.default_rng(2).standard_normal((T, 3))
        out, _ = forward(params, x, cfg)
        assert out.num_frames == expected

    def test_downsample_averages(self):
        cfg = small_cfg(layers=0, downsample_factor=2)
        params = make_params(cfg)
        x = np.random.default_rng(3).standard_normal((5, 3))
        _, tape = forward(params, x, cfg)
        assert np.allclose(tape.x_ds[0], x[:2].mean(axis=0))
        assert np.allclose(tape.x_ds[2], x[4])  # ragged tail pools alone

    def test_feature_dim_mismatch(self):
        cfg = small_cfg()
        params = make_params(cfg, feature_dim=3)
        with pytest.raises(InvalidInputError):
            forward(params, np.zeros((4, 5)), cfg)

    @pytest.mark.parametrize(
        "kw", [{"layers": 1}, {"layers": 3}, {"context_radius": 2}, {"hidden_dim": 5}]
    )
    def test_params_from_another_config_rejected(self, kw):
        params = make_params(small_cfg(layers=2))
        with pytest.raises(InvalidInputError, match="does not match the model config"):
            forward(params, np.zeros((4, 3)), small_cfg(**kw))

    def test_train_without_rng(self):
        cfg = small_cfg()
        params = make_params(cfg)
        with pytest.raises(InvalidInputError):
            forward(params, np.zeros((4, 3)), cfg, train=True)

    def test_seeded_train_reproducible(self):
        cfg = small_cfg(dropout_prob=0.3, layer_drop_prob=0.3)
        params = make_params(cfg)
        x = np.random.default_rng(1).standard_normal((6, 3))
        a, _ = forward(params, x, cfg, train=True, rng=np.random.default_rng(5))
        b, _ = forward(params, x, cfg, train=True, rng=np.random.default_rng(5))
        assert np.array_equal(a.values, b.values)

    def test_branch_masks_independent(self):
        # two train passes with distinct generators sample distinct sub-models
        cfg = small_cfg(dropout_prob=0.5, layer_drop_prob=0.0, hidden_dim=16)
        params = make_params(cfg, feature_dim=3)
        x = np.random.default_rng(1).standard_normal((8, 3))
        _, ta = forward(params, x, cfg, train=True, rng=np.random.default_rng(100))
        _, tb = forward(params, x, cfg, train=True, rng=np.random.default_rng(200))
        assert not np.array_equal(ta.layers[0].drop, tb.layers[0].drop)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        cfg = small_cfg()
        params = make_params(cfg)
        x = np.random.default_rng(1).standard_normal((6, 3))
        out, tape = forward(params, x, cfg)
        grads = backward(params, tape, np.zeros_like(out.values))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_dropped_layer_zero_grads(self):
        cfg = small_cfg(layers=3, layer_drop_prob=0.5)
        params = make_params(cfg)
        x = np.random.default_rng(1).standard_normal((6, 3))
        dropped = None
        for seed in range(50):
            out, tape = forward(
                params, x, cfg, train=True, rng=np.random.default_rng(seed)
            )
            kept = [lt.kept[0] for lt in tape.layers]  # one sequence
            if not all(kept) and any(kept):
                dropped = kept.index(False)
                break
        assert dropped is not None
        grads = backward(params, tape, np.ones_like(out.values))
        assert np.all(grads[f"layer{dropped}.w"] == 0.0)
        assert np.all(grads[f"layer{dropped}.b"] == 0.0)
        survivor = kept.index(True)
        assert np.any(grads[f"layer{survivor}.w"] != 0.0)

    def _fd_check(self, cfg, train, seed, coords=10):
        params = make_params(cfg, feature_dim=3, num_classes=3, seed=3)
        gen = np.random.default_rng(11)
        x = gen.standard_normal((7, 3))
        y = LabelSequence((0, 1))

        def loss_and_grads(ps):
            rng = np.random.default_rng(seed) if train else None
            logits, tape = forward(ps, x, cfg, train=train, rng=rng)
            res = ctc_loss_from_logits(logits, y, VOCAB)
            return res.loss, backward(ps, tape, res.grads[0])

        _, grads = loss_and_grads(params)
        h = 1e-5
        names = params.names()
        worst = 0.0
        for _ in range(coords):
            name = names[int(gen.integers(len(names)))]
            flat_idx = int(gen.integers(params[name].size))
            for sign, store in ((1.0, "hi"), (-1.0, "lo")):
                bumped = params.copy()
                bumped.tensors[name].flat[flat_idx] += sign * h
                val, _ = loss_and_grads(bumped)
                if store == "hi":
                    hi = val
                else:
                    lo = val
            fd = (hi - lo) / (2 * h)
            an = grads[name].flat[flat_idx]
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, err)
        assert worst <= 1e-4, f"finite differences disagree, rel err {worst:.2e}"

    def test_fd_eval_mode(self):
        self._fd_check(small_cfg(), train=False, seed=0, coords=12)

    def test_fd_train_mode_with_dropout(self):
        # recreating the generator per evaluation pins the same sub-model
        cfg = small_cfg(dropout_prob=0.25, layer_drop_prob=0.25)
        self._fd_check(cfg, train=True, seed=17, coords=12)

    def test_fd_with_downsampling(self):
        self._fd_check(small_cfg(downsample_factor=2), train=False, seed=0, coords=8)


class TestOptimizers:
    def test_adam_quadratic_bowl(self):
        # f(w) = 0.5 (w - 3)^2, gradient w - 3
        params = ParameterSet({"w": np.array([10.0])})
        state = AdamState.fresh(params)
        for _ in range(1000):
            params, state = adam_step(
                params, {"w": params["w"] - 3.0}, state, lr=0.05
            )
        assert abs(params["w"][0] - 3.0) < 1e-3

    def test_adam_first_step_magnitude(self):
        params = ParameterSet({"w": np.array([0.0])})
        state = AdamState.fresh(params)
        out, state = adam_step(params, {"w": np.array([1.0])}, state, lr=0.01)
        assert math.isclose(abs(out["w"][0]), 0.01, rel_tol=1e-6)
        assert state.step == 1

    def test_adam_deterministic(self):
        params = ParameterSet({"w": np.arange(4.0)})
        g = {"w": np.array([0.5, -1.0, 2.0, 0.0])}
        a, _ = adam_step(params, g, AdamState.fresh(params), lr=0.1)
        b, _ = adam_step(params, g, AdamState.fresh(params), lr=0.1)
        assert np.array_equal(a["w"], b["w"])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg()
        params = make_params(cfg)
        meta = {"preset": "desk", "epochs": 16}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta)
        loaded, got_meta = load_checkpoint(path)
        assert got_meta == meta
        assert loaded.names() == params.names()
        for name in params.names():
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].shape == params[name].shape

    def test_round_trip_scalar_and_empty_meta(self, tmp_path):
        params = ParameterSet({"s": np.float64(2.5), "v": np.zeros(3)})
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        loaded, meta = load_checkpoint(path)
        assert meta == {}
        assert loaded["s"].shape == ()
        assert loaded["s"] == 2.5

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAKPT" + b"\x00" * 20)
        with pytest.raises(InvalidInputError, match="cannot read checkpoint"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, make_params(cfg))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)

    def test_flipped_byte_rejected(self, tmp_path):
        # the middle of the file is tensor data, which a CRC-32 covers
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, make_params(cfg))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidInputError, match="cannot read checkpoint"):
            load_checkpoint(path)
