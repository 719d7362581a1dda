"""Smoke runs of the experiment scripts as a user starts them."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_compare_objectives_smoke(tmp_path):
    objectives = ["ctc", "cr_ctc"]
    sets = ["data.num_train=16", "data.num_dev=4", "data.num_test=4", "train.epochs=2"]
    cmd = [
        sys.executable,
        str(SCRIPTS / "compare_objectives.py"),
        "--preset", "smoke",
        "--objectives", ",".join(objectives),
        "--seeds", "0",
        "--out-dir", str(tmp_path),
    ]
    for assignment in sets:
        cmd += ["--set", assignment]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in tmp_path.glob("run_*.json"))
    assert written == sorted(f"run_{o}_seed0.json" for o in objectives)


def test_fingerprint_smoke():
    sets = ["data.num_train=12", "data.num_dev=4", "data.num_test=4",
            "train.epochs=2", "model.hidden_dim=8"]
    cmd = [sys.executable, str(SCRIPTS / "fingerprint.py"), "--preset", "smoke"]
    for assignment in sets:
        cmd += ["--set", assignment]
    runs = [subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "ctc", "sr_ctc", "cr_ctc", "cr_ctc_hard_label"
    ]
    assert runs[1].stdout.splitlines() == lines


def test_paired_bench_smoke(tmp_path):
    # one A/A pair: this tree against itself
    out = tmp_path / "bench.json"
    root = SCRIPTS.parent
    cmd = [sys.executable, str(SCRIPTS / "paired_bench.py"), "--parent", str(root),
           "--pairs", "1", "--workload", "train_ctc", "--seconds", "0",
           "--size", "tiny", "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert [(r["side"], r["correct"]) for r in report["runs"]] == [
        ("parent", True), ("change", True)]
    rows = report["summary"]["train_ctc"]
    assert rows["test_prefix_ter"]["ratio_of_medians"] == 1.0
    assert rows["ok_frac"]["change_win_share"] == 0.0
    assert set(rows["train_utts_per_s"]["parent"]) == {"q1", "median", "q3"}
