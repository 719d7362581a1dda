"""Shipping gate: one test per release criterion, in order.

Each test prints a single `criterion NN ...: PASS/FAIL` line (run with -s
to stream them; on failure the line is in the assertion message). The
benchmark-level criteria share one set of trained desk-preset runs via a
module-scoped fixture, so the suite trains each objective exactly once
per seed.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import one_hot_distribution, random_distribution

from ctckit import (
    CrConfig,
    LabelSequence,
    LogitLattice,
    SpecAugmentConfig,
    SrConfig,
    Vocabulary,
    augment,
    cr_loss,
    ctc_grad,
    ctc_loss,
    ctc_loss_oracle,
    decode_oracle,
    greedy_decode,
    is_feasible,
    occupancy_marginals,
    paired_loss_from_logits,
    prefix_beam_decode,
    smooth_lattice,
    softmax_rows,
    sr_loss_from_logits,
)
from ctckit import config as cfgmod
from ctckit.dataset import generate_dataset
from ctckit.encoder import EncoderConfig, backward, forward, init_params
from ctckit.harness import run_experiment, sweep, train_model, write_sweep_csv


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_target(rng, num_frames: int, vocab_size: int, max_len: int):
    """Feasible random label sequence for a T-frame lattice."""
    while True:
        u = int(rng.integers(0, max_len + 1))
        y = LabelSequence(tuple(int(v) for v in rng.integers(0, vocab_size, u)))
        if is_feasible(num_frames, y):
            return y


# --- criterion 1: exact loss vs enumeration ---------------------------------


def test_c01_oracle_equivalence():
    rng = np.random.default_rng(20260819)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        vocab_size = int(rng.integers(1, 4))
        num_frames = int(rng.integers(1, 7))
        vocab = Vocabulary.generic(vocab_size)
        y = _random_target(rng, num_frames, vocab_size, max_len=3)
        dist = random_distribution(rng, num_frames, vocab.extended_size)
        got = ctc_loss(dist, y, vocab)
        want = ctc_loss_oracle(dist, y, vocab)
        assert got.feasible
        worst = max(worst, abs(got.loss - want))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "dp loss equals enumeration on 100 instances",
        worst <= 1e-9 and elapsed < 10.0,
        f"max diff {worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion 2: finite-difference gradients --------------------------------

_FD_H = 1e-5


def _rel_err(fd: float, an: float) -> float:
    return abs(fd - an) / max(abs(fd), abs(an), 1e-12)


def _fd_coords(rng, grad: np.ndarray, count: int = 12):
    """Randomly sampled coordinates, preferring non-negligible entries so
    the relative-error quotient is meaningful."""
    flat = np.argwhere(np.abs(grad) > 1e-6)
    if len(flat) < count:
        flat = np.argwhere(np.isfinite(grad))
    picks = rng.choice(len(flat), size=min(count, len(flat)), replace=False)
    return [tuple(flat[i]) for i in picks]


def _max_rel_err(loss_fn, grad, base, coords) -> float:
    worst = 0.0
    for idx in coords:
        up = base.copy()
        up[idx] += _FD_H
        down = base.copy()
        down[idx] -= _FD_H
        fd = (loss_fn(up) - loss_fn(down)) / (2 * _FD_H)
        worst = max(worst, _rel_err(fd, float(grad[idx])))
    return worst


def test_c02_gradient_correctness():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    vocab = Vocabulary.generic(3)
    y = LabelSequence((0, 1, 1, 2))
    worst: dict[str, float] = {}

    # exact ctc gradient
    logits = rng.normal(size=(9, vocab.extended_size))
    bundle = ctc_grad(LogitLattice(logits), y, vocab)
    worst["ctc_grad"] = _max_rel_err(
        lambda l: ctc_loss(softmax_rows(LogitLattice(l)), y, vocab).loss,
        bundle.grad,
        logits,
        _fd_coords(rng, bundle.grad),
    )

    # consistency loss, stop-gradient mode: the reported per-branch grad
    # differentiates only the terms where that branch is the prediction,
    # so the fd surrogate freezes the other branch's probabilities
    la = rng.normal(size=(6, 4))
    lb = rng.normal(size=(6, 4))
    pa0 = softmax_rows(LogitLattice(la))
    pb0 = softmax_rows(LogitLattice(lb))
    sg_cfg = CrConfig()

    def sg_source_term(l, target):
        p = softmax_rows(LogitLattice(l))
        diff = target.log_probs - p.log_probs
        kl = np.where(target.probs > 0.0, target.probs * diff, 0.0).sum()
        return 0.5 * float(kl)

    res_sg = cr_loss(pa0, pb0, None, None, sg_cfg)
    worst["cr_loss sg grad_a"] = _max_rel_err(
        lambda l: sg_source_term(l, pb0),
        res_sg.grad_a,
        la,
        _fd_coords(rng, res_sg.grad_a),
    )
    worst["cr_loss sg grad_b"] = _max_rel_err(
        lambda l: sg_source_term(l, pa0),
        res_sg.grad_b,
        lb,
        _fd_coords(rng, res_sg.grad_b),
    )

    # consistency loss, flow-gradient mode: plain fd through the whole value
    fl_cfg = CrConfig(target_mode="flow_gradient")
    res_fl = cr_loss(pa0, pb0, None, None, fl_cfg)

    def flow_value(l, side):
        za = softmax_rows(LogitLattice(l if side == "a" else la))
        zb = softmax_rows(LogitLattice(l if side == "b" else lb))
        return cr_loss(za, zb, None, None, fl_cfg).loss

    worst["cr_loss flow grad_a"] = _max_rel_err(
        lambda l: flow_value(l, "a"), res_fl.grad_a, la,
        _fd_coords(rng, res_fl.grad_a),
    )
    worst["cr_loss flow grad_b"] = _max_rel_err(
        lambda l: flow_value(l, "b"), res_fl.grad_b, lb,
        _fd_coords(rng, res_fl.grad_b),
    )

    # smoothness-regularized objective: fd surrogate freezes the smoothed
    # target distribution, matching the reported gradient's contract
    sr_cfg = SrConfig(beta=0.3)
    lz = rng.normal(size=(10, vocab.extended_size))
    sr_res = sr_loss_from_logits(LogitLattice(lz), y, vocab, sr_cfg)
    smooth0 = smooth_lattice(softmax_rows(LogitLattice(lz)))

    def sr_surrogate(l):
        z = softmax_rows(LogitLattice(l))
        ctc_part = ctc_loss(z, y, vocab).loss
        pen = np.where(
            smooth0.probs > 0.0,
            smooth0.probs * (smooth0.log_probs - z.log_probs),
            0.0,
        ).sum()
        return ctc_part + sr_cfg.beta * float(pen)

    worst["sr_loss_from_logits"] = _max_rel_err(
        sr_surrogate, sr_res.grad, lz, _fd_coords(rng, sr_res.grad)
    )

    # toy encoder backward, end to end through the exact ctc gradient
    enc_cfg = EncoderConfig(
        layers=2, hidden_dim=8, context_radius=1,
        dropout_prob=0.0, layer_drop_prob=0.0,
    )
    params = init_params(enc_cfg, 5, vocab.extended_size,
                         np.random.default_rng(11))
    x = rng.normal(size=(12, 5))

    def enc_loss(params_arr, name):
        trial = params.copy()
        trial.tensors[name] = params_arr
        lat, _ = forward(trial, x, enc_cfg)
        return ctc_loss(softmax_rows(lat), y, vocab).loss

    lat, tape = forward(params, x, enc_cfg)
    dlogits = softmax_rows(lat).probs - occupancy_marginals(
        softmax_rows(lat), ctc_loss(softmax_rows(lat), y, vocab).table
    )
    grads = backward(params, tape, dlogits)
    enc_worst = 0.0
    for name in ("in.w", "layer0.w", "layer1.b", "out.w", "out.b"):
        g = grads[name]
        coords = _fd_coords(rng, g, count=3 if g.size > 3 else g.size)
        enc_worst = max(
            enc_worst,
            _max_rel_err(lambda a, n=name: enc_loss(a, n), g,
                         params[name].copy(), coords),
        )
    worst["toy model backward"] = enc_worst

    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(
        2,
        "finite differences confirm every gradient",
        peak <= 1e-4 and elapsed < 30.0,
        f"{detail}, {elapsed:.1f}s",
    )


# --- criterion 3: stop-gradient contract -------------------------------------


def test_c03_stop_gradient_contract():
    rng = np.random.default_rng(5)
    za = random_distribution(rng, 8, 4)
    zb = random_distribution(rng, 8, 4)

    # frame filters arranged so branch b's own prediction term vanishes:
    # everything left in grad_b is the target-side contribution, which
    # stop_gradient must make exactly zero
    cfg = CrConfig(frame_filter="exclude_self_masked")
    res = cr_loss(za, zb, np.zeros(8, bool), np.ones(8, bool), cfg)
    target_only_zero = bool(np.all(res.grad_b == 0.0))

    # accumulating that contribution must leave any buffer bit-identical
    acc = rng.normal(size=res.grad_b.shape)
    accumulated = acc + res.grad_b
    bit_identical = accumulated.tobytes() == acc.tobytes()

    # with all frames active, the stop-gradient branch gradients must be
    # bit-for-bit the prediction-side formula alone
    full = cr_loss(za, zb, None, None, CrConfig())
    pa, pb = za.probs, zb.probs
    pred_only_a = 0.5 * (pa - pb)
    pred_only_b = 0.5 * (pb - pa)
    formula_match = (
        full.grad_a.tobytes() == pred_only_a.tobytes()
        and full.grad_b.tobytes() == pred_only_b.tobytes()
    )

    _report(
        3,
        "stop-gradient target branches accumulate bitwise zero",
        target_only_zero and bit_identical and formula_match,
    )


# --- criterion 4: decoding exactness -----------------------------------------


def test_c04_decoding_exactness():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(200):
        vocab = Vocabulary.generic(int(rng.integers(1, 3)))
        num_frames = int(rng.integers(1, 6))
        dist = random_distribution(rng, num_frames, vocab.extended_size)
        exact = decode_oracle(dist, vocab)
        beam = prefix_beam_decode(dist, vocab, beam=4096)
        if tuple(exact.labels) != tuple(beam.labels):
            mismatches += 1

    greedy_mismatches = 0
    for _ in range(100):
        vocab = Vocabulary.generic(2)
        num_frames = int(rng.integers(1, 6))
        path = rng.integers(0, vocab.extended_size, size=num_frames)
        dist = one_hot_distribution(tuple(int(v) for v in path), vocab.extended_size)
        g, _ = greedy_decode(dist, vocab)
        if tuple(prefix_beam_decode(dist, vocab, beam=4).labels) != tuple(g.labels):
            greedy_mismatches += 1
        if tuple(decode_oracle(dist, vocab).labels) != tuple(g.labels):
            greedy_mismatches += 1

    _report(
        4,
        "saturating beam equals oracle; greedy agrees on one-hot",
        mismatches == 0 and greedy_mismatches == 0,
        f"{mismatches} beam mismatches, {greedy_mismatches} greedy mismatches",
    )


# --- criterion 5: identical views collapse to plain ctc ----------------------


def test_c05_identical_views_reduce_to_ctc():
    rng = np.random.default_rng(17)
    vocab = Vocabulary.generic(3)
    y = LabelSequence((0, 2, 1))
    x = rng.normal(size=(11, 5))
    enc_cfg = EncoderConfig(layers=1, hidden_dim=6, context_radius=1,
                            dropout_prob=0.0, layer_drop_prob=0.0)
    params = init_params(enc_cfg, 5, vocab.extended_size,
                         np.random.default_rng(3))

    mask = np.zeros(11, dtype=bool)
    single = ctc_loss(softmax_rows(forward(params, x, enc_cfg)[0]), y, vocab).loss

    worst = 0.0
    for alpha in (0.0, 0.1, 0.2, 0.3, 1.0, 7.5):
        logits_a, _ = forward(params, x, enc_cfg)
        logits_b, _ = forward(params, x, enc_cfg)
        res = paired_loss_from_logits(logits_a, logits_b, y, vocab, mask, mask,
                                      CrConfig(alpha=alpha))
        assert res.feasible
        worst = max(worst, abs(res.loss - single))
    _report(
        5,
        "identical views give the single-view loss at any alpha",
        worst <= 1e-12,
        f"max |diff| {worst:.2e}",
    )


# --- criterion 6: augmentation stays inside its budget -----------------------


def test_c06_augmentation_bounds():
    cfg = SpecAugmentConfig(time_scale_ratio=2.5)
    cap = 0.15 * 2.5  # 0.375
    worst_fraction = 0.0
    shape_violations = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        num_frames = int(rng.integers(1, 240))
        x = rng.normal(size=(num_frames, 20))
        view = augment(x, cfg, rng)
        if view.features.shape != x.shape:
            shape_violations += 1
        worst_fraction = max(worst_fraction, float(view.time_masked.mean()))
    _report(
        6,
        "masked fraction capped at 0.375 over 1000 seeds",
        worst_fraction <= cap + 1e-12 and shape_violations == 0,
        f"worst fraction {worst_fraction:.4f}, {shape_violations} shape changes",
    )


# --- criteria 7-9: trained desk-preset benchmark -----------------------------

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def desk_runs():
    """Every trained run the benchmark criteria consume, one per
    objective/variant and seed, on one shared dataset."""
    flat = cfgmod.resolve(preset="desk")
    dataset = generate_dataset(cfgmod.data_config(flat))
    nosg = cfgmod.resolve(preset="desk",
                          assignments=["cr.target_mode=flow_gradient"])
    runs: dict[str, list] = {}
    for tag, objective, cell in (
        ("ctc", "ctc", flat),
        ("cr", "cr_ctc", flat),
        ("sr", "sr_ctc", flat),
        ("cr_nosg", "cr_ctc", nosg),
    ):
        runs[tag] = [
            run_experiment(objective, cell, seed=s, dataset=dataset)[0]
            for s in SEEDS
        ]
    return runs


def _wins(pairs, better) -> int:
    return sum(bool(better(run, base)) for run, base in pairs)


def test_c07_consistency_beats_baseline_directionally(desk_runs):
    pairs = list(zip(desk_runs["cr"], desk_runs["ctc"]))
    ter = _wins(pairs, lambda r, b: r.test_prefix_ter < b.test_prefix_ter)
    probs = _wins(
        pairs,
        lambda r, b: (
            r.peak["mean_blank_emit_prob"] < b.peak["mean_blank_emit_prob"]
            and r.peak["mean_nonblank_emit_prob"]
            < b.peak["mean_nonblank_emit_prob"]
        ),
    )
    duration = _wins(
        pairs,
        lambda r, b: r.peak["mean_nonblank_duration"]
        >= b.peak["mean_nonblank_duration"],
    )
    wall = sum(r.wall_clock_s for pair in pairs for r in pair)
    _report(
        7,
        "paired-view training wins error, confidence, duration",
        ter >= 4 and probs >= 4 and duration >= 4 and wall < 1800.0,
        f"ter {ter}/5, emit probs {probs}/5, duration {duration}/5, "
        f"{wall:.0f}s trained",
    )


def test_c08_smoothness_beats_baseline_directionally(desk_runs):
    pairs = list(zip(desk_runs["sr"], desk_runs["ctc"]))
    ter = _wins(pairs, lambda r, b: r.test_prefix_ter < b.test_prefix_ter)
    duration = _wins(
        pairs,
        lambda r, b: r.peak["mean_nonblank_duration"]
        > b.peak["mean_nonblank_duration"],
    )
    _report(
        8,
        "smoothness-regularized training wins error and duration",
        ter >= 3 and duration >= 4,
        f"ter {ter}/5, duration {duration}/5",
    )


def test_c09_ablation_sanity(desk_runs, tmp_path):
    # consistency-weight sweep must run end to end at the benchmark scale
    flat = cfgmod.resolve(preset="desk")
    rows = sweep(flat, axes=["alpha"], seeds=(0,))
    csv_path = tmp_path / "sweep_alpha.csv"
    write_sweep_csv(rows, csv_path)
    alphas = [row["value"] for row in rows]
    sweep_ok = alphas == [0.1, 0.2, 0.3] and all(
        math.isfinite(row["test_prefix_ter"]) for row in rows
    )

    # flowing gradients through the consistency target is the ablation the
    # default must not lose to; emit the comparison table
    def row(tag, recs):
        mp = sum(r.test_prefix_ter for r in recs) / len(recs)
        mg = sum(r.test_greedy_ter for r in recs) / len(recs)
        md = sum(r.peak["mean_nonblank_duration"] for r in recs) / len(recs)
        return tag, mp, mg, md

    table = [row("cr (stop gradient)", desk_runs["cr"]),
             row("cr (flow gradient)", desk_runs["cr_nosg"])]
    lines = [f"{'variant':22s} {'prefix_ter':>10s} {'greedy_ter':>10s} {'duration':>8s}"]
    lines += [f"{t:22s} {p:10.4f} {g:10.4f} {d:8.2f}" for t, p, g, d in table]
    report = "\n".join(lines)
    print(report)
    (tmp_path / "nosg_comparison.txt").write_text(report + "\n", encoding="utf-8")

    sg_mean = table[0][1]
    nosg_mean = table[1][1]
    _report(
        9,
        "alpha sweep completes; no-sg comparison emitted",
        sweep_ok,
        f"alpha rows {alphas}, sg mean prefix {sg_mean:.4f} "
        f"vs no-sg {nosg_mean:.4f}",
    )


# --- criterion 10: bit-level training determinism ----------------------------


def test_c10_training_determinism():
    assignments = [
        "data.num_train=24", "data.num_dev=8", "data.num_test=8",
        "train.epochs=6", "train.batch_size=8",
    ]
    flat = cfgmod.resolve(preset="desk", assignments=assignments)
    dataset = generate_dataset(cfgmod.data_config(flat))
    identical = True
    for objective in ("ctc", "cr_ctc", "sr_ctc"):
        first = train_model(dataset, flat, objective=objective, seed=7)
        second = train_model(dataset, flat, objective=objective, seed=7)
        if first.loss_curve != second.loss_curve:
            identical = False
        if sorted(first.params.names()) != sorted(second.params.names()):
            identical = False
        for name in first.params.names():
            if first.params[name].tobytes() != second.params[name].tobytes():
                identical = False
    _report(
        10,
        "seeded training is bit-reproducible",
        identical,
    )
