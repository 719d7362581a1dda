"""The grouped training step and eval pass against the one-sample-at-a-time
loop they replaced.

The reference below is the per-sample step as it was written before
training ran in groups: one encoder forward, objective and backward per
sample, with the encoder's forward and backward copied here unchanged.
Training must give the same loss curve, skipped count and parameter bytes,
and eval the same report.
"""

import math

import numpy as np
import pytest

from ctckit import config as cfgmod
from ctckit import harness
from ctckit.augment import augment, make_views, pool_mask_any
from ctckit.consistency import paired_loss_from_logits
from ctckit.ctc import ctc_loss_from_logits
from ctckit.dataset import generate_dataset
from ctckit.decode import greedy_decode, prefix_beam_decode
from ctckit.encoder import AdamState, _downsample, adam_step, init_params
from ctckit.lattice import LogitLattice, softmax_rows
from ctckit.metrics import corpus_token_error_rate
from ctckit.peakedness import PeakStats, peak_stats
from ctckit.smoothing import sr_loss_from_logits

TINY = [
    "data.num_train=12",
    "data.num_dev=4",
    "data.num_test=6",
    "data.noise_std=0.4",
    "data.min_label_len=3",
    "data.max_label_len=5",
    "model.hidden_dim=8",
    "model.layers=2",
    "model.context_radius=1",
    "train.epochs=3",
    "train.batch_size=4",
    "aug.warp_factor=2",
    "aug.max_freq_mask_width=2",
    "aug.num_time_masks=2",
    "aug.max_time_mask_width=3",
]


def _ref_forward(params, x, cfg, train=False, rng=None):
    x_ds = _downsample(np.asarray(x, dtype=np.float64), cfg.downsample_factor)
    T = x_ds.shape[0]
    h = np.tanh(x_ds @ params["in.w"] + params["in.b"])
    tape = {"x_ds": x_ds, "proj_act": h, "layers": []}
    r = cfg.context_radius
    p, q = cfg.dropout_prob, cfg.layer_drop_prob
    for l in range(cfg.layers):
        if train:
            drop = (rng.random((T, h.shape[1])) >= p) / (1.0 - p)
            kept = bool(rng.random() >= q)
            scale = 1.0 / (1.0 - q)
        else:
            drop, kept, scale = None, True, 1.0
        if not kept:
            tape["layers"].append(None)
            continue
        w = params[f"layer{l}.w"]
        hp = np.pad(h, ((r, r), (0, 0)))
        u = np.full(h.shape, params[f"layer{l}.b"])
        for j in range(2 * r + 1):
            u += hp[j : j + T] @ w[j]
        a = np.tanh(u)
        branch = a if drop is None else a * drop
        tape["layers"].append((hp, a, drop, scale))
        h = h + branch * scale
    tape["h_final"] = h
    return LogitLattice(h @ params["out.w"] + params["out.b"]), tape


def _ref_backward(params, tape, dlogits):
    grads = params.zeros_like()
    h_final = tape["h_final"]
    grads["out.w"] = h_final.T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    dh = dlogits @ params["out.w"].T
    T = h_final.shape[0]
    for l in range(len(tape["layers"]) - 1, -1, -1):
        if tape["layers"][l] is None:
            continue
        h_pad, act, drop, scale = tape["layers"][l]
        r = (params[f"layer{l}.w"].shape[0] - 1) // 2
        da = dh * scale
        if drop is not None:
            da = da * drop
        du = da * (1.0 - act * act)
        grads[f"layer{l}.b"] = du.sum(axis=0)
        w = params[f"layer{l}.w"]
        dw = grads[f"layer{l}.w"]
        dhp = np.zeros_like(h_pad)
        for j in range(2 * r + 1):
            dw[j] = h_pad[j : j + T].T @ du
            dhp[j : j + T] += du @ w[j].T
        dh = dh + dhp[r : r + T]
    da0 = dh * (1.0 - tape["proj_act"] * tape["proj_act"])
    grads["in.w"] = tape["x_ds"].T @ da0
    grads["in.b"] = da0.sum(axis=0)
    return grads


def _accumulate(total, part):
    for name, g in part.items():
        total[name] += g


def _ref_sample_grads(params, sample, objective, enc_cfg, aug_cfg, cr_cfg, sr_cfg, vocab, rng):
    y = sample.labels
    if objective == "cr_ctc":
        views = make_views(sample.features, aug_cfg, rng)
    else:
        views = (augment(sample.features, aug_cfg, rng),)
    passes = [_ref_forward(params, v.features, enc_cfg, True, rng) for v in views]
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
    grads = [_ref_backward(params, tape, dl) for tape, dl in zip(tapes, res.grads)]
    for view_grads in grads[1:]:
        _accumulate(grads[0], view_grads)
    return res.loss, grads[0]


def _ref_train(dataset, flat, objective, seed):
    enc_cfg = cfgmod.encoder_config(flat)
    aug_cfg = cfgmod.augment_config(flat, for_objective=objective)
    cr_cfg = cfgmod.section("cr", flat)
    sr_cfg = cfgmod.section("sr", flat)
    vocab = dataset.vocab
    params = init_params(enc_cfg, dataset.config.feature_dim, vocab.extended_size,
                         np.random.default_rng([seed, 0]))
    step_rng = np.random.default_rng([seed, 1])
    opt_state = AdamState.fresh(params)
    epochs, batch_size = harness.effective_schedule(flat, objective)
    samples = dataset.train
    skipped, curve = 0, []
    for _ in range(epochs):
        order = step_rng.permutation(len(samples))
        epoch_loss, epoch_count = 0.0, 0
        for start in range(0, len(order), batch_size):
            batch = [samples[int(i)] for i in order[start : start + batch_size]]
            grads = params.zeros_like()
            used = 0
            for sample in batch:
                item = _ref_sample_grads(params, sample, objective, enc_cfg, aug_cfg,
                                         cr_cfg, sr_cfg, vocab, step_rng)
                if item is None:
                    skipped += 1
                    continue
                loss, sample_grads = item
                _accumulate(grads, sample_grads)
                epoch_loss += loss
                used += 1
            if used == 0:
                continue
            for g in grads.values():
                g /= used
            params, opt_state = adam_step(params, grads, opt_state, float(flat["train.lr"]))
            epoch_count += used
        curve.append(epoch_loss / epoch_count if epoch_count else None)
    return params, curve, skipped


def _ref_evaluate(params, dataset, split, flat):
    enc_cfg = cfgmod.encoder_config(flat)
    beam = int(flat["eval.beam"])
    vocab = dataset.vocab
    greedy_pairs, prefix_pairs, stats = [], [], []
    for sample in dataset.split(split):
        logits, _ = _ref_forward(params, sample.features, enc_cfg)
        dist = softmax_rows(logits)
        hyp_greedy, _ = greedy_decode(dist, vocab)
        hyp_prefix = prefix_beam_decode(dist, vocab, beam)
        greedy_pairs.append((hyp_greedy.labels, sample.labels.labels))
        prefix_pairs.append((hyp_prefix.labels, sample.labels.labels))
        stats.append(peak_stats(dist, vocab))
    return harness.EvalReport(
        corpus_token_error_rate(greedy_pairs),
        corpus_token_error_rate(prefix_pairs),
        PeakStats.merge(stats),
    )


# one-frame encoder outputs: 1-3 labels of 1-3 frames each (at least
# 2U+1 frames in all), pooled by 6; a sample of two or more labels pooled to
# fewer frames than it needs cannot be aligned and is skipped
ONE_FRAME = ["data.min_label_len=1", "data.max_label_len=3",
             "data.min_frames_per_token=1", "data.max_frames_per_token=3",
             "model.downsample_factor=6", "data.num_train=16"]

CASES = {
    "ctc": ("ctc", []),
    "sr_ctc": ("sr_ctc", []),
    "cr_ctc": ("cr_ctc", []),
    "hard_label_ce": ("cr_ctc", ["cr.distance=hard_label_ce"]),
    "flow_gradient": ("cr_ctc", ["cr.target_mode=flow_gradient"]),
    "exclude_self_masked": ("cr_ctc", ["cr.frame_filter=exclude_self_masked"]),
    "exclude_self_unmasked": ("cr_ctc", ["cr.frame_filter=exclude_self_unmasked"]),
    "no_layers": ("ctc", ["model.layers=0"]),
    "context_radius_0": ("sr_ctc", ["model.context_radius=0"]),
    "downsample_1": ("cr_ctc", ["model.downsample_factor=1"]),
    "downsample_3": ("ctc", ["model.downsample_factor=3"]),
    "batch_size_1": ("cr_ctc", ["train.batch_size=1"]),
    "ragged_last_batch": ("sr_ctc", ["train.batch_size=5"]),
    "layer_drop": ("ctc", ["model.layer_drop_prob=0.5", "model.dropout_prob=0.3"]),
    "desk_width": ("cr_ctc", ["model.hidden_dim=64", "model.layers=3",
                              "model.context_radius=2"]),
    "skipped_and_one_frame": ("ctc", ONE_FRAME),
    "skipped_and_one_frame_cr": ("cr_ctc", ONE_FRAME),
}


@pytest.mark.parametrize("group_frames", [harness.GROUP_FRAMES, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_grouped_training_equals_the_per_sample_loop(case, group_frames, monkeypatch):
    objective, sets = CASES[case]
    flat = cfgmod.resolve(assignments=TINY + sets)
    dataset = generate_dataset(cfgmod.data_config(flat))
    ref_params, ref_curve, ref_skipped = _ref_train(dataset, flat, objective, 3)

    monkeypatch.setattr(harness, "GROUP_FRAMES", group_frames)
    out = harness.train_model(dataset, flat, objective, 3)
    assert out.loss_curve == ref_curve
    assert out.skipped == ref_skipped
    for name in ref_params.names():
        assert out.params[name].tobytes() == ref_params[name].tobytes(), name

    report = harness.evaluate_model(out.params, dataset, "test", flat)
    assert report == _ref_evaluate(ref_params, dataset, "test", flat)


def test_the_edge_cases_occur():
    flat = cfgmod.resolve(assignments=TINY + ONE_FRAME)
    dataset = generate_dataset(cfgmod.data_config(flat))
    frames = [math.ceil(s.features.shape[0] / 6) for s in dataset.train]
    needed = [s.labels.min_frames() for s in dataset.train]
    assert any(f == 1 and n == 1 for f, n in zip(frames, needed))
    assert any(f < n for f, n in zip(frames, needed))
