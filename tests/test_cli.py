"""Command-line interface: subcommands, config plumbing, exit codes."""

import numpy as np
import pytest

from ctckit.cli import main
from ctckit.dataset import load_dataset
from ctckit.harness import RunRecord
from ctckit.lattice import DistributionLattice, save_lattice_text

TINY_SETS = [
    "--set", "data.num_train=10",
    "--set", "data.num_dev=3",
    "--set", "data.num_test=3",
    "--set", "data.noise_std=0.4",
    "--set", "data.max_label_len=5",
    "--set", "model.hidden_dim=8",
    "--set", "model.layers=1",
    "--set", "model.context_radius=1",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=4",
    "--set", "aug.warp_factor=2",
    "--set", "aug.max_freq_mask_width=2",
    "--set", "aug.num_time_masks=1",
    "--set", "aug.max_time_mask_width=2",
]


@pytest.fixture()
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CTCKIT_OUT_DIR", str(tmp_path))
    return tmp_path


def peaked_lattice(tmp_path):
    probs = np.array(
        [
            [0.05, 0.9, 0.05],
            [0.05, 0.9, 0.05],
            [0.9, 0.05, 0.05],
            [0.1, 0.1, 0.8],
        ]
    )
    path = tmp_path / "lat.txt"
    save_lattice_text(DistributionLattice.from_probs(probs), path)
    return path


class TestGenData:
    def test_writes_dataset(self, out_env, capsys):
        assert main(["gen-data"] + TINY_SETS) == 0
        out = capsys.readouterr().out
        assert "train=10" in out
        ds = load_dataset(out_env / "dataset.npz")
        assert len(ds.train) == 10

    def test_explicit_out(self, tmp_path, capsys):
        target = tmp_path / "d.npz"
        assert main(["gen-data", "--out", str(target)] + TINY_SETS) == 0
        assert target.exists()


class TestTrainEvaluate:
    def test_train_record_checkpoint_evaluate(self, out_env, capsys):
        ckpt = out_env / "model.ckpt"
        code = main(
            ["train", "--objective", "ctc", "--seed", "1", "--save", str(ckpt)]
            + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ctc seed=1" in out
        record = RunRecord.load(out_env / "run_ctc_seed1.json")
        assert record.objective == "ctc"
        assert ckpt.exists()

        code = main(
            ["evaluate", "--load", str(ckpt), "--split", "dev"] + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy_ter=" in out
        assert "mean_nonblank_duration" in out

    def test_train_uses_saved_dataset(self, out_env, capsys):
        data = out_env / "d.npz"
        assert main(["gen-data", "--out", str(data)] + TINY_SETS) == 0
        code = main(["train", "--data", str(data), "--seed", "0"] + TINY_SETS)
        assert code == 0

    @pytest.mark.parametrize("layers", ["3", "1"])
    def test_checkpoint_config_mismatch_rejected(self, out_env, capsys, layers):
        ckpt = out_env / "model.ckpt"
        train = ["train", "--seed", "0", "--save", str(ckpt)] + TINY_SETS
        assert main(train + ["--set", "model.layers=2"]) == 0
        capsys.readouterr()
        code = main(
            ["evaluate", "--load", str(ckpt)]
            + TINY_SETS
            + ["--set", f"model.layers={layers}"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "ter=" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: checkpoint ")

    def test_missing_checkpoint_is_invalid_input(self, out_env, capsys):
        code = main(["evaluate", "--load", str(out_env / "nope.ckpt")] + TINY_SETS)
        assert code == 1


class TestDecodeAnalyze:
    def test_decode_greedy(self, tmp_path, capsys):
        lat = peaked_lattice(tmp_path)
        assert main(["decode", "--input", str(lat)]) == 0
        assert capsys.readouterr().out.strip() == "t0 t1"

    def test_decode_prefix(self, tmp_path, capsys):
        lat = peaked_lattice(tmp_path)
        assert main(["decode", "--input", str(lat), "--method", "prefix"]) == 0
        assert capsys.readouterr().out.strip() == "t0 t1"

    def test_analyze(self, tmp_path, capsys):
        lat = peaked_lattice(tmp_path)
        plot = tmp_path / "plot.csv"
        assert main(["analyze", "--input", str(lat), "--plot-data", str(plot)]) == 0
        out = capsys.readouterr().out
        assert "mean_nonblank_duration" in out
        lines = plot.read_text().splitlines()
        assert lines[0] == "frame,token,probability,is_blank"
        assert len(lines) == 5

    def test_missing_lattice(self, tmp_path, capsys):
        code = main(["decode", "--input", str(tmp_path / "nope.txt")])
        assert code == 1

    def test_malformed_lattice(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a lattice\n")
        assert main(["decode", "--input", str(bad)]) == 1


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--coords", "6"]) == 0
        assert "max rel err" in capsys.readouterr().out


class TestSweepCommand:
    def test_alpha_sweep(self, out_env, capsys):
        code = main(["sweep", "--axes", "alpha", "--seeds", "0"] + TINY_SETS)
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha=0.1" in out
        csv = (out_env / "sweep.csv").read_text()
        assert csv.count("\n") == 4

    def test_unknown_axis(self, out_env, capsys):
        assert main(["sweep", "--axes", "bogus"] + TINY_SETS) == 1


class TestExitCodes:
    def test_bad_flag_exits_one(self, capsys):
        assert main(["decode", "--no-such-flag"]) == 1

    def test_unknown_config_key(self, capsys):
        assert main(["gen-data", "--set", "data.bogus=1"]) == 1

    def test_bad_preset(self, capsys):
        assert main(["train", "--preset", "warehouse"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", "{lat}", "--plot-data", "{bad}/f.csv"],
            ["gen-data", "--out", "{bad}/x.npz"] + TINY_SETS,
            ["--out-dir", "{lat}/sub", "gen-data"] + TINY_SETS,
            ["train", "--record", "{bad}/r.json"] + TINY_SETS,
            ["train", "--save", "{bad}/m.ckpt"] + TINY_SETS,
            ["sweep", "--axes", "alpha", "--out", "{bad}/s.csv"] + TINY_SETS,
        ],
        ids=["plot-data", "gen-data", "out-dir", "record", "checkpoint", "sweep"],
    )
    def test_unwritable_output_path_exits_one(self, tmp_path, capsys, argv):
        lat = peaked_lattice(tmp_path)
        bad = tmp_path / "missing"
        argv = [a.format(lat=lat, bad=bad) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write ")
        target = next(a for a in argv if a.startswith((str(bad), f"{lat}/")))
        assert target in lines[0]
