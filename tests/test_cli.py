"""Command-line interface: subcommands, config plumbing, exit codes."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit import cli
from ctckit import config as cfgmod
from ctckit.cli import main
from ctckit.dataset import load_dataset
from ctckit.encoder import init_params, save_checkpoint
from ctckit.errors import load_arrays, save_arrays
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
        # the dataset is written at the path given, whatever its suffix
        data = out_env / "d.bin"
        assert main(["gen-data", "--out", str(data)] + TINY_SETS) == 0
        assert data.exists()
        assert not (out_env / "d.bin.npz").exists()
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

    def test_checkpoint_model_settings_mismatch_rejected(self, out_env, capsys):
        # pooling changes no tensor shape, so only the recorded config tells
        ckpt = out_env / "model.ckpt"
        train = ["train", "--seed", "0", "--save", str(ckpt)] + TINY_SETS
        assert main(train + ["--set", "model.downsample_factor=2"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--load", str(ckpt)] + TINY_SETS) == 1
        captured = capsys.readouterr()
        assert "ter=" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: checkpoint {ckpt} ")
        assert "model.downsample_factor 2 vs 1" in err[0]

    @pytest.mark.parametrize(
        "setting, code", [("model.layers=2", 1), ("model.downsample_factor=2", 0)]
    )
    def test_checkpoint_without_config_gets_shape_check(
        self, out_env, capsys, setting, code
    ):
        flat = cfgmod.resolve(assignments=TINY_SETS[1::2] + [setting])
        params = init_params(
            cfgmod.encoder_config(flat),
            int(flat["data.feature_dim"]),
            int(flat["data.vocab_size"]) + 1,
            np.random.default_rng(0),
        )
        ckpt = out_env / "bare.ckpt"
        save_checkpoint(ckpt, params)
        assert main(["evaluate", "--load", str(ckpt)] + TINY_SETS) == code
        if code:
            assert "does not match the model config" in capsys.readouterr().err

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

    def test_decode_huge_finite_log_probabilities(self, tmp_path, capsys):
        # the row normalizes to [0.5, 0.5, 0]: blank and t0 tie, blank wins
        lat = tmp_path / "huge.txt"
        lat.write_text("1 3\n1e308 1e308 0\n")
        assert main(["decode", "--input", str(lat), "--method", "prefix"]) == 0
        assert capsys.readouterr().out.strip() == ""

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
    def test_unwritable_output_path_exits_one(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # a bad output path must fail before any training starts
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the output path")

        monkeypatch.setattr(cli, "run_experiment", no_training)
        monkeypatch.setattr(cli, "sweep", no_training)
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

    @pytest.mark.parametrize(
        "case",
        ["truncated-dataset", "lattice-0xff", "config-0xff",
         "dataset-unknown-key", "flipped-checkpoint"],
    )
    def test_unreadable_input_exits_one(self, out_env, capsys, case):
        dataset = out_env / "d.npz"
        assert main(["gen-data", "--out", str(dataset)] + TINY_SETS) == 0
        bad = out_env / "bad"
        if case == "truncated-dataset":
            bad.write_bytes(dataset.read_bytes()[:-100])
            argv = ["train", "--data", str(bad)] + TINY_SETS
        elif case == "lattice-0xff":
            bad.write_bytes(peaked_lattice(out_env).read_bytes() + b"\xff\n")
            argv = ["decode", "--input", str(bad)]
        elif case == "config-0xff":
            bad.write_bytes(b"data.num_train = 10\n\xff\n")
            argv = ["gen-data", "--config", str(bad), "--out", str(dataset)]
        elif case == "dataset-unknown-key":
            arrays, meta = load_arrays(dataset)
            save_arrays(bad, arrays, {**meta, "bogus": 1})
            argv = ["train", "--data", str(bad)] + TINY_SETS
        else:
            ckpt = out_env / "m.ckpt"
            assert main(["train", "--save", str(ckpt)] + TINY_SETS) == 0
            blob = bytearray(ckpt.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            bad.write_bytes(bytes(blob))
            argv = ["evaluate", "--load", str(bad)] + TINY_SETS
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "ter=" not in captured.out
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot read ")
        assert str(bad) in lines[0]


def _damage(data, blob: bytes) -> bytes:
    """Truncate ``blob``, flip bytes in it, append bytes, or replace it."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "append", "replace"]))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        out = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 3))):
            out[data.draw(st.integers(0, len(out) - 1))] ^= data.draw(
                st.integers(1, 255)
            )
        return bytes(out)
    if kind == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=64))
    return data.draw(st.binary(max_size=256))


# every data size is pinned, so no damaged config file can grow gen-data's run
PINNED_SETS = TINY_SETS + [
    "--set", "data.vocab_size=8",
    "--set", "data.feature_dim=16",
    "--set", "data.min_frames_per_token=4",
    "--set", "data.max_frames_per_token=8",
    "--set", "data.min_label_len=3",
]


class TestReaderFuzz:
    """A damaged input file exits 0 or 1, and 1 with one error line."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("valid")
        ckpt, data = d / "m.ckpt", d / "d.npz"
        with redirect_stdout(io.StringIO()):
            assert main(["gen-data", "--out", str(data)] + TINY_SETS) == 0
            assert main(["train", "--data", str(data), "--save", str(ckpt),
                         "--record", str(d / "r.json")] + TINY_SETS) == 0
        (d / "exp.cfg").write_text(
            "# tiny run\ndata.noise_std = 0.4\nmodel.hidden_dim = 8\n"
            "cr.alpha = 0.3\ntrain.objective = sr_ctc\n"
        )
        return {
            "checkpoint": (ckpt, ["evaluate", "--load", "{bad}"] + TINY_SETS),
            "dataset": (data, ["evaluate", "--load", str(ckpt),
                               "--data", "{bad}"] + TINY_SETS),
            "lattice": (peaked_lattice(d), ["decode", "--input", "{bad}",
                                            "--method", "prefix"]),
            "config": (d / "exp.cfg", ["gen-data", "--config", "{bad}", "--out",
                                       str(d / "out.npz")] + PINNED_SETS),
        }

    @pytest.mark.parametrize("reader", ["checkpoint", "dataset", "lattice", "config"])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_damaged_file(self, valid, reader, data):
        path, argv = valid[reader]
        bad = path.with_name("bad")
        bad.write_bytes(_damage(data, path.read_bytes()))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.format(bad=bad) for a in argv])
        assert code in (0, 1)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith("error: ")
