"""One benchmark run of one workload, in the current process.

Start it through ``run.py``, which pins BLAS/OpenMP threads in a fresh
process. The last line on stdout is the result object; the line before it
records the machine, versions, seed and the raw counts behind the metrics.

Each workload is one client in a closed loop: the timed call (one
``train_model`` or one ``evaluate_model``) repeats for ``--seconds``,
split over MODELS seeded models, and every call must return a result
bit-identical to the previous call of the same model. ``--trace 1``
alternates untraced and traced calls on one model and reports per-layer
metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ctckit
from ctckit import config as cfgmod
from ctckit import dataset as datamod
from ctckit import harness

from tracing import (
    REGION_ROOT,
    REGION_SITES,
    SETUP_ROOT,
    SETUP_SITES,
    SPANS,
    Tracer,
    patched,
    resolve_sites,
)

# An untraced run trains (or, for eval_decode, decodes with) this many
# models, one per training seed, and reports their mean TER: one model
# after a few epochs gives a TER that spreads too far from seed to seed to
# guard accuracy.
MODELS = 3

# The data seed picks the token prototypes, and with them how hard the
# task is: over 8 data seeds the test TER of one schedule spread 37%
# (quartile distance over median), over 8 training seeds on one dataset
# 6%. So --seed varies the training seeds (init, shuffling, augmentation,
# dropout) over one fixed desk dataset.
DATA_SEED = 0


@dataclass(frozen=True)
class Workload:
    """A named input set. ``overrides`` apply on top of the desk preset;
    ``tiny`` shrinks the data for the smoke test and keeps the schedule."""

    objective: str
    overrides: dict
    tiny: dict
    decode_only: bool = False


_TINY = {"data.num_train": 16, "data.num_dev": 4, "data.num_test": 8}

# Why each workload exists, and which layers it stresses, is in README.md.
WORKLOADS = {
    "train_ctc": Workload("ctc", {"train.epochs": 4}, _TINY),
    "train_cr_ctc": Workload("cr_ctc", {"train.epochs": 8}, _TINY),
    "train_sr_ctc_long": Workload(
        "sr_ctc",
        {
            "train.epochs": 4,
            "model.downsample_factor": 1,
            "data.max_label_len": 40,
            "data.num_test": 100,
        },
        _TINY,
    ),
    "eval_decode": Workload(
        "ctc",
        {"train.epochs": 3, "data.num_test": 1000},
        {**_TINY, "data.num_test": 24},
        decode_only=True,
    ),
}


def make_config(workload: Workload, train_seed: int, size: str) -> dict:
    """Flat config of one model: the desk preset, the workload's overrides
    and the fixed data seed."""
    sets = {**workload.overrides, "data.seed": DATA_SEED, "train.seed": train_seed}
    if size == "tiny":
        sets.update(workload.tiny)
    return cfgmod.resolve("desk", assignments=[f"{k}={v}" for k, v in sets.items()])


# ----------------------------------------------------------------- probes


class Probes:
    """Wrappers the benchmark always installs: one clock read after each
    optimizer step, and a copy of every hypothesis ``evaluate_model``
    produces, so the run can check them."""

    SITES = (
        ("ctckit.harness", "adam_step"),
        ("ctckit.harness", "greedy_decode"),
        ("ctckit.harness", "prefix_beam_decode"),
    )

    def __init__(self):
        self.step_ns: list[int] = []
        self.greedy: list = []
        self.prefix: list = []

    def hooks(self):
        def stamp(fn):
            def step(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.step_ns.append(time.perf_counter_ns())
                return out
            return step

        def capture(into, pick):
            def hook(fn):
                def decode(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    into.append(pick(out))
                    return out
                return decode
            return hook

        return {
            self.SITES[0]: stamp,
            self.SITES[1]: capture(self.greedy, lambda out: out[0]),
            self.SITES[2]: capture(self.prefix, lambda out: out),
        }

    def untraced(self):
        """Replacements that wrap the original functions directly."""
        hooks = self.hooks()
        out = []
        for mod_name, attr in self.SITES:
            module = sys.modules[mod_name]
            if hasattr(module, attr):
                out.append((module, attr, hooks[(mod_name, attr)](getattr(module, attr))))
        return out

    def take(self):
        """What the probes saw since the last take. The lists are emptied
        in place, because installed hooks hold them."""
        taken = (list(self.step_ns), list(self.greedy), list(self.prefix))
        for seen in (self.step_ns, self.greedy, self.prefix):
            seen.clear()
        return taken


# ----------------------------------------------------------------- checks


def check_curve(curve) -> list[str]:
    if len(curve) < 2:
        return [f"loss curve has {len(curve)} epochs; need at least 2"]
    if not all(math.isfinite(v) for v in curve):
        return [f"loss curve is not finite: {curve}"]
    if not curve[-1] < curve[0]:
        return [f"last epoch loss {curve[-1]} is not below first {curve[0]}"]
    return []


def expected_skipped(dataset, flat, objective: str) -> int:
    """Samples the harness must skip: too few encoder frames for the labels
    plus the blanks forced between adjacent repeats. Augmentation keeps the
    frame count, so this follows from the data alone."""
    factor = int(flat["model.downsample_factor"])
    infeasible = 0
    for sample in dataset.train:
        frames = -(-sample.features.shape[0] // factor)
        y = sample.labels.labels
        repeats = sum(1 for a, b in zip(y, y[1:]) if a == b)
        if frames < len(y) + repeats:
            infeasible += 1
    epochs, _ = harness.effective_schedule(flat, objective)
    return epochs * infeasible


def _edit_distance(a, b) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def check_hypotheses(hyps, samples, vocab_size: int, reported_ter: float,
                     what: str) -> tuple[int, list[str]]:
    """(invalid hypothesis count, errors). Every hypothesis must be a label
    sequence over the vocabulary, and the error rate recomputed here from
    them must equal the one ctckit reported."""
    if len(hyps) != len(samples):
        return len(samples), [f"{what}: {len(hyps)} hypotheses for {len(samples)} utterances"]
    invalid = 0
    for hyp in hyps:
        labels = getattr(hyp, "labels", None)
        if not isinstance(labels, tuple) or not all(
            isinstance(v, int) and 0 <= v < vocab_size for v in labels
        ):
            invalid += 1
    errors = [f"{what}: {invalid} invalid hypotheses"] if invalid else []
    if not invalid:
        dist = sum(_edit_distance(h.labels, s.labels.labels) for h, s in zip(hyps, samples))
        ref = sum(len(s.labels.labels) for s in samples)
        ter = dist / max(1, ref)
        if ter != reported_ter:
            errors.append(f"{what}: recomputed TER {ter} != reported {reported_ter}")
    return invalid, errors


# -------------------------------------------------------------- the run


@dataclass
class Ledger:
    """Operations attempted and failed, and every check that failed."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


@dataclass
class Model:
    """One seeded model of a run: its config, data and parameters. The
    decode workload trains it in set-up and keeps that training's timing."""

    flat: dict
    dataset: object
    params: object
    trained: object = None
    train_ns: int = 0
    step_ns: list = field(default_factory=list)


def set_up(workload: Workload, flat: dict, probes: Probes) -> Model:
    """Generate the data and initialise the parameters; for the decode
    workload, also train the model it decodes with."""
    dataset = datamod.generate_dataset(cfgmod.data_config(flat))
    seed = int(flat["train.seed"])
    params = ctckit.init_params(
        cfgmod.encoder_config(flat), dataset.config.feature_dim,
        dataset.vocab.extended_size, np.random.default_rng([seed, 0]),
    )
    model = Model(flat, dataset, params)
    if workload.decode_only:
        with patched(probes.untraced()):
            t0 = time.perf_counter_ns()
            model.trained = harness.train_model(dataset, flat, workload.objective, seed)
            model.train_ns = time.perf_counter_ns() - t0
        model.step_ns = _intervals(t0, probes.take()[0])
        model.params = model.trained.params
    return model


def _intervals(t0: int, stamps: list[int]) -> list[int]:
    return [b - a for a, b in zip([t0] + stamps[:-1], stamps)]


@dataclass
class Rep:
    """One timed call of one model and what the probes saw during it."""

    model: int
    wall_ns: int
    step_ns: list
    result: object  # TrainOutcome or EvalReport
    greedy: list
    prefix: list


def timed_call(workload, models, j, replacements, probes, tracer=None) -> Rep:
    model = models[j]
    with patched(replacements):
        t0 = time.perf_counter_ns()
        if tracer is None:
            result = _call(workload, model)
        else:
            with tracer.span(REGION_ROOT):
                result = _call(workload, model)
        wall = time.perf_counter_ns() - t0
    stamps, greedy, prefix = probes.take()
    return Rep(j, wall, _intervals(t0, stamps), result, greedy, prefix)


def _call(workload, model):
    if workload.decode_only:
        return harness.evaluate_model(model.params, model.dataset, "test", model.flat)
    return harness.train_model(model.dataset, model.flat, workload.objective,
                               int(model.flat["train.seed"]))


def evaluate(models, j, params, probes) -> Rep:
    """Eval of trained parameters on the test split, outside the timed
    region; its wall time gives the training workloads' eval rate."""
    model = models[j]
    with patched(probes.untraced()):
        t0 = time.perf_counter_ns()
        report = harness.evaluate_model(params, model.dataset, "test", model.flat)
        wall = time.perf_counter_ns() - t0
    _, greedy, prefix = probes.take()
    return Rep(j, wall, [], report, greedy, prefix)


def check_eval(rep: Rep, model: Model, ledger: Ledger, what: str) -> None:
    samples = model.dataset.test
    vocab_size = model.dataset.vocab.size
    report = rep.result
    ledger.attempted += len(samples)
    bad_g, err_g = check_hypotheses(rep.greedy, samples, vocab_size, report.greedy_ter, f"{what} greedy")
    bad_p, err_p = check_hypotheses(rep.prefix, samples, vocab_size, report.prefix_ter, f"{what} prefix")
    ledger.failed += max(bad_g, bad_p)
    for e in err_g + err_p:
        ledger.errors.append(e)


def ops_per_call(workload: Workload, model: Model) -> int:
    """Operations in one timed call: eval utterances, or training sample
    steps (a cr_ctc sample counts once, although it runs two views)."""
    if workload.decode_only:
        return len(model.dataset.test)
    epochs, _ = harness.effective_schedule(model.flat, workload.objective)
    return epochs * len(model.dataset.train)


def check_training(outcome, workload: Workload, model: Model, ledger: Ledger, what: str) -> None:
    epochs, _ = harness.effective_schedule(model.flat, workload.objective)
    ledger.attempted += epochs * len(model.dataset.train)
    ledger.failed += outcome.skipped
    for e in check_curve(outcome.loss_curve):
        ledger.errors.append(f"{what}: {e}")
    expected = expected_skipped(model.dataset, model.flat, workload.objective)
    if outcome.skipped != expected:
        ledger.errors.append(f"{what}: skipped {outcome.skipped} samples, expected {expected}")


def same_result(a, b) -> bool:
    """Bit-identical training curves, or identical eval reports."""
    if hasattr(a, "loss_curve"):
        return a.loss_curve == b.loss_curve and a.skipped == b.skipped
    return (a.greedy_ter, a.prefix_ter, a.peak) == (b.greedy_ter, b.prefix_ter, b.peak)


def _quantile(values, q: int) -> float:
    """q-th decile (inclusive method); the median for q = 5."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: int, trace: bool, size: str,
        spans_out: str | None = None) -> tuple[dict, dict]:
    """Returns (result object, info object).

    An untraced run gives each of MODELS models, one per training seed, a
    block of ``seconds / MODELS``: set it up, repeat its timed call, and
    (training workloads) evaluate it. Blocks spread each model's set-up and
    eval over the run, so no figure rests on one short stretch of it. A
    traced run has one model and one block.
    """
    workload = WORKLOADS[workload_name]
    n_models = 1 if trace else MODELS
    ledger = Ledger()
    probes = Probes()
    tracer = Tracer() if trace else None
    modes = [("untraced", None)]
    missing = []
    if trace:
        setup_sites, missing = resolve_sites(SETUP_SITES)
        region_sites, missing_region = resolve_sites(REGION_SITES)
        missing += missing_region
        modes.append(("traced", tracer.replacements(region_sites, probes.hooks())))

    models, setup_ns, evals = [], [], []
    reps = {mode: [] for mode, _ in modes}
    raised = False
    for j in range(n_models):
        t0 = time.perf_counter_ns()
        flat = make_config(workload, seed * MODELS + j, size)
        if trace:
            with patched(tracer.replacements(setup_sites)), tracer.span(SETUP_ROOT):
                model = set_up(workload, flat, probes)
        else:
            model = set_up(workload, flat, probes)
        setup_ns.append(time.perf_counter_ns() - t0)
        models.append(model)
        if workload.decode_only:
            check_training(model.trained, workload, model, ledger, f"set-up training {j}")

        # Repeat the call while at least half of the next one, if it takes
        # as long as the last, falls inside the block.
        block_end = time.perf_counter() + seconds / n_models
        while not raised:
            t_call = time.perf_counter()
            try:
                # Alternate which mode goes first so warm-up does not bias
                # the tracing overhead.
                order = modes if len(reps["untraced"]) % 2 == 0 else modes[::-1]
                for mode, replacements in order:
                    repl = probes.untraced() if replacements is None else replacements
                    reps[mode].append(timed_call(workload, models, j, repl, probes,
                                                 tracer if replacements else None))
            except Exception:
                # The program raised: this call's operations failed, and
                # the run stops measuring.
                probes.take()
                ledger.attempted += ops_per_call(workload, model)
                ledger.failed += ops_per_call(workload, model)
                ledger.errors.append(f"timed call raised:\n{traceback.format_exc()}")
                raised = True
                break
            now = time.perf_counter()
            if now + (now - t_call) / 2 > block_end:
                break
        firsts = {mode: next((r for r in rs if r.model == j), None) for mode, rs in reps.items()}
        if not workload.decode_only and None not in firsts.values():
            evals.append(evaluate(models, j, firsts["untraced"].result.params, probes))
            check_eval(evals[-1], model, ledger, f"test eval of model {j}")
            if trace:
                traced_eval = evaluate(models, j, firsts["traced"].result.params, probes)
                check_eval(traced_eval, model, ledger, "test eval of the traced model")
                if not same_result(traced_eval.result, evals[-1].result):
                    ledger.errors.append("traced and untraced models disagree on test TER or peak stats")
        if raised:
            break

    for mode, mode_reps in reps.items():
        last = {}
        for i, rep in enumerate(mode_reps):
            what = f"{mode} call {i} (model {rep.model})"
            if workload.decode_only:
                check_eval(rep, models[rep.model], ledger, what)
            else:
                check_training(rep.result, workload, models[rep.model], ledger, what)
            if rep.model in last and not same_result(rep.result, last[rep.model]):
                ledger.errors.append(f"{what}: differs from the previous call of the same model")
            last[rep.model] = rep.result
            if mode == "traced" and i < len(reps["untraced"]) and not same_result(
                    rep.result, reps["untraced"][i].result):
                ledger.errors.append(f"{what}: traced and untraced results differ")

    # Test-split results: the timed passes themselves for the decode
    # workload, one eval per model after its block otherwise.
    if workload.decode_only:
        evals = reps["untraced"]
    reports = [next(r.result for r in evals if r.model == j)
               for j in sorted({r.model for r in evals})]

    info = {
        "workload": workload_name,
        "seed": seed,
        "train_seeds": [int(m.flat["train.seed"]) for m in models],
        "data_seed": DATA_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "env": environment(),
        "setup_s": [ns / 1e9 for ns in setup_ns],
        "rep_s": {mode: [r.wall_ns / 1e9 for r in rs] for mode, rs in reps.items()},
        "eval_s": [r.wall_ns / 1e9 for r in evals],
        "missing_sites": missing,
        "errors": ledger.errors,
    }
    correct = not ledger.errors
    attempted = max(1, ledger.attempted)
    failed = ledger.failed if correct else attempted
    if not reports:
        raise RuntimeError("no model was evaluated: " + "; ".join(ledger.errors))
    if trace:
        metrics = layer_metrics(tracer, reps["untraced"], reps["traced"], reports[0])
        if spans_out:
            write_spans(tracer, spans_out)
    else:
        steps = [ns for m in models for ns in m.step_ns] if workload.decode_only else [
            ns for r in reps["untraced"] for ns in r.step_ns]
        metrics = end_to_end_metrics(workload, models, setup_ns, reps["untraced"], evals,
                                     steps, reports)
        metrics["ok_frac"] = _metric(1.0 - failed / attempted, "ratio")
        info["steps"] = len(steps)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def end_to_end_metrics(workload, models, setup_ns, reps, evals, steps, reports):
    """Throughputs are utterances over the wall time of all timed calls.
    Decoding cost depends on how peaky a model's lattices are, so each
    model's eval passes weigh equally. The decode workload trains only in
    set-up, so its training figures come from its set-up trainings."""
    model = models[0]
    epochs, _ = harness.effective_schedule(model.flat, workload.objective)
    train_utts = epochs * len(model.dataset.train)  # per call, or per set-up training
    if workload.decode_only:
        train_ns = statistics.fmean(m.train_ns for m in models)
    else:
        train_ns = statistics.fmean(r.wall_ns for r in reps)
    eval_ns = statistics.fmean(
        statistics.fmean(r.wall_ns for r in evals if r.model == j)
        for j in sorted({r.model for r in evals}))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(setup_ns) / 1e9, "s"),
        "train_utts_per_s": _metric(train_utts / (train_ns / 1e9), "utt/s"),
        "step_ms_p50": _metric(_quantile(steps, 5) / 1e6, "ms"),
        "step_ms_p90": _metric(_quantile(steps, 9) / 1e6, "ms"),
        "eval_utts_per_s": _metric(len(model.dataset.test) / (eval_ns / 1e9), "utt/s"),
        "test_prefix_ter": _metric(statistics.fmean(r.prefix_ter for r in reports), "ratio"),
        "test_greedy_ter": _metric(statistics.fmean(r.greedy_ter for r in reports), "ratio"),
        "peak_rss_mb": _metric(rss_kib / 1024.0, "MiB"),
    }


def layer_metrics(tracer, untraced_reps, traced_reps, report) -> dict:
    """Per span: calls per repetition of the phase it ran in, self time per
    call, and self time as a share of that phase's wall time (the timed
    region, or set-up for dataset generation)."""
    roots, per_span = tracer.summary()
    out = {}
    for name in SPANS:
        phase, calls, self_ns, _ = per_span.get(name, (REGION_ROOT, 0, 0, 0))
        count, phase_ns = roots.get(phase, (1, 0))
        per_rep = calls / count
        out[f"{name}.calls"] = _metric(int(per_rep) if per_rep == int(per_rep) else per_rep, "count")
        out[f"{name}.self_us_per_call"] = _metric(self_ns / calls / 1e3 if calls else 0.0, "us")
        out[f"{name}.share"] = _metric(self_ns / phase_ns if phase_ns else 0.0, "ratio")

    region_count = roots.get(REGION_ROOT, (1, 0))[0]

    def work(name):
        return per_span.get(name, (None, 0, 0, 0))

    _, _, _, frames = work("encoder.forward")
    _, _, ctc_ns, cells = work("ctc.ctc_loss")
    _, _, beam_ns, beam_frames = work("decode.prefix_beam_decode")
    out["encoder.forward_frames"] = _metric(frames // region_count, "frames")
    out["ctc.cells"] = _metric(cells // region_count, "cells")
    out["ctc.ns_per_cell"] = _metric(ctc_ns / cells if cells else 0.0, "ns")
    out["decode.prefix_beam_frames"] = _metric(beam_frames // region_count, "frames")
    out["decode.prefix_beam_us_per_frame"] = _metric(
        beam_ns / beam_frames / 1e3 if beam_frames else 0.0, "us")
    out["peakedness.mean_nonblank_duration"] = _metric(report.peak.mean_nonblank_duration, "frames")
    out["peakedness.mean_nonblank_emit_prob"] = _metric(report.peak.mean_nonblank_emit_prob, "ratio")

    plain = statistics.median(r.wall_ns for r in untraced_reps) / 1e9
    traced = statistics.median(r.wall_ns for r in traced_reps) / 1e9
    out["trace.overhead_s"] = _metric(traced - plain, "s")
    out["trace.overhead_frac"] = _metric((traced - plain) / plain, "ratio")
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1, work in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start_ns": t0, "end_ns": t1, "work": work}) + "\n")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans-out", help="write the traced run's spans here, one JSON object a line")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(ctckit.__file__).resolve().parent.parent != src:
        print(f"ctckit was imported from {ctckit.__file__}, not from {src}", file=sys.stderr)
        return 2
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size, args.spans_out)
    except Exception:
        # The program raised outside any check: there is no result to report.
        traceback.print_exc()
        return 1
    for error in info["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
