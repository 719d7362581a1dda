"""Tests of the benchmark itself: smoke runs of every workload at tiny size,
tracing that leaves the program's results untouched, and checks that fail
loudly.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
from ctckit import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload_the_worker_has():
    assert sorted(WORKLOADS) == sorted(worker.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    extra = ["--spans-out", str(spans)] if trace else []
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace:
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        ids = {r["id"] for r in records}
        assert all(r["parent"] is None or r["parent"] in ids for r in records)
        assert {r["name"] for r in records if r["parent"] is None} == {"setup", "harness"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train_ctc", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _all_sites():
    found, missing = tracing.resolve_sites(tracing.REGION_SITES + tracing.SETUP_SITES)
    assert not missing
    return found


def test_wrappers_restore_the_original_functions():
    sites = _all_sites()
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in sites]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer.replacements(sites)):
            assert all(getattr(m, a) is not fn for m, a, fn in originals)
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is fn for m, a, fn in originals)


@pytest.mark.parametrize("workload", ["train_cr_ctc", "train_sr_ctc_long"])
def test_traced_training_is_bit_identical_and_draws_no_rng(workload):
    spec = worker.WORKLOADS[workload]
    flat = worker.make_config(spec, 5, "tiny")
    dataset = worker.datamod.generate_dataset(worker.cfgmod.data_config(flat))
    plain = harness.train_model(dataset, flat, spec.objective, 5)

    np_state, py_state = np.random.get_state(), random.getstate()
    tracer = tracing.Tracer()
    with tracing.patched(tracer.replacements(_all_sites())):
        traced = harness.train_model(dataset, flat, spec.objective, 5)
    assert tracer.spans
    assert np.array_equal(np.random.get_state()[1], np_state[1])
    assert random.getstate() == py_state

    assert traced.loss_curve == plain.loss_curve
    assert traced.skipped == plain.skipped
    for name in plain.params.names():
        assert np.array_equal(traced.params[name], plain.params[name])
    before = harness.evaluate_model(plain.params, dataset, "test", flat)
    with tracing.patched(tracer.replacements(_all_sites())):
        after = harness.evaluate_model(traced.params, dataset, "test", flat)
    assert worker.same_result(before, after)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_checks_itself_against_untraced(workload):
    result, info = worker.run(workload, 1, 0, True, "tiny")
    assert result["correct"], info["errors"]
    assert set(info["rep_s"]) == {"untraced", "traced"}
    assert "trace.overhead_s" in result["metrics"]


def test_span_self_times_add_up_to_the_region():
    result, _ = worker.run("train_ctc", 2, 0, True, "tiny")
    region_shares = [v["value"] for k, v in result["metrics"].items()
                     if k.endswith(".share") and not k.startswith("dataset.")]
    assert sum(region_shares) == pytest.approx(1.0, abs=1e-9)


def test_checks_reject_bad_outputs():
    assert worker.check_curve([3.0, 2.0]) == []
    assert worker.check_curve([3.0])
    assert worker.check_curve([3.0, math.nan])
    assert worker.check_curve([2.0, 3.0])

    class Hyp:
        def __init__(self, labels):
            self.labels = labels

    class Sample:
        def __init__(self, labels):
            self.labels = Hyp(labels)

    samples = [Sample((1, 2)), Sample((3,))]
    assert worker.check_hypotheses([Hyp((1, 2)), Hyp((3,))], samples, 8, 0.0, "x") == (0, [])
    assert worker.check_hypotheses([Hyp((1, 2)), Hyp((8,))], samples, 8, 0.0, "x")[0] == 1
    assert worker.check_hypotheses([Hyp((1,))], samples, 8, 0.0, "x")[1]
    assert worker.check_hypotheses([Hyp((1, 2)), Hyp(())], samples, 8, 0.0, "x")[1]


def test_a_failed_check_fails_every_operation(monkeypatch):
    real = harness.train_model

    def diverging(*args, **kwargs):
        out = real(*args, **kwargs)
        out.loss_curve[-1] = math.nan
        return out

    monkeypatch.setattr(harness, "train_model", diverging)
    result, info = worker.run("train_ctc", 0, 0, False, "tiny")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert any("not finite" in e for e in info["errors"])


def test_an_exception_fails_the_run_and_still_reports(monkeypatch):
    real = harness.train_model
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "train_model", flaky)
    result, info = worker.run("train_ctc", 0, 0, False, "tiny")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("injected" in e for e in info["errors"])
