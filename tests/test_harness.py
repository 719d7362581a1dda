"""Training loop determinism, run records, evaluation, and sweeps.

Training tests run on a deliberately tiny setup (small model, few
samples, few epochs) so the whole file stays fast.
"""

import json
import math

import numpy as np
import pytest

from ctckit import config as cfgmod
from ctckit.dataset import generate_dataset
from ctckit.errors import InvalidInputError
from ctckit.harness import (
    RunRecord,
    effective_schedule,
    evaluate_model,
    rerun_from_record,
    run_experiment,
    sweep,
    train_model,
    write_sweep_csv,
)

TINY = [
    "data.num_train=12",
    "data.num_dev=4",
    "data.num_test=4",
    "data.noise_std=0.4",
    "data.min_label_len=3",
    "data.max_label_len=5",
    "model.hidden_dim=8",
    "model.layers=1",
    "model.context_radius=1",
    "train.epochs=4",
    "train.batch_size=4",
    "aug.warp_factor=2",
    "aug.max_freq_mask_width=2",
    "aug.num_time_masks=2",
    "aug.max_time_mask_width=3",
]


@pytest.fixture(scope="module")
def tiny_flat():
    return cfgmod.resolve(assignments=TINY)


@pytest.fixture(scope="module")
def tiny_ds(tiny_flat):
    return generate_dataset(cfgmod.data_config(tiny_flat))


class TestSchedule:
    def test_fair_cost_halves_cr_only(self, tiny_flat):
        flat = dict(tiny_flat, **{"train.epochs": 20, "train.batch_size": 16})
        assert effective_schedule(flat, "ctc") == (20, 16)
        assert effective_schedule(flat, "sr_ctc") == (20, 16)
        assert effective_schedule(flat, "cr_ctc") == (10, 8)

    def test_fair_cost_off(self, tiny_flat):
        flat = dict(
            tiny_flat,
            **{"train.epochs": 20, "train.batch_size": 16, "train.fair_cost": False},
        )
        assert effective_schedule(flat, "cr_ctc") == (20, 16)

    def test_floors_at_one(self, tiny_flat):
        flat = dict(tiny_flat, **{"train.epochs": 1, "train.batch_size": 1})
        assert effective_schedule(flat, "cr_ctc") == (1, 1)


class TestTraining:
    @pytest.mark.parametrize("objective", ["ctc", "cr_ctc", "sr_ctc"])
    def test_objectives_run_and_learn(self, tiny_flat, tiny_ds, objective):
        out = train_model(tiny_ds, tiny_flat, objective=objective, seed=0)
        epochs, _ = effective_schedule(tiny_flat, objective)
        assert len(out.loss_curve) == epochs
        assert all(math.isfinite(v) for v in out.loss_curve)
        assert out.loss_curve[-1] < out.loss_curve[0]

    def test_bit_reproducible(self, tiny_flat, tiny_ds):
        a = train_model(tiny_ds, tiny_flat, objective="cr_ctc", seed=3)
        b = train_model(tiny_ds, tiny_flat, objective="cr_ctc", seed=3)
        assert a.loss_curve == b.loss_curve
        for name in a.params.names():
            assert np.array_equal(a.params[name], b.params[name])

    def test_seed_changes_training(self, tiny_flat, tiny_ds):
        a = train_model(tiny_ds, tiny_flat, objective="ctc", seed=0)
        b = train_model(tiny_ds, tiny_flat, objective="ctc", seed=1)
        assert a.loss_curve != b.loss_curve

    def test_unknown_objective(self, tiny_flat, tiny_ds):
        with pytest.raises(InvalidInputError):
            train_model(tiny_ds, tiny_flat, objective="rnnt")

    def test_infeasible_samples_skipped(self, tiny_flat, tiny_ds):
        # aggressive downsampling leaves some outputs too short to align
        flat = dict(tiny_flat, **{"model.downsample_factor": 8})
        out = train_model(tiny_ds, flat, objective="ctc", seed=0)
        assert out.skipped > 0
        assert all(math.isfinite(v) for v in out.loss_curve)


class TestEvaluation:
    def test_eval_report(self, tiny_flat, tiny_ds):
        out = train_model(tiny_ds, tiny_flat, objective="ctc", seed=0)
        rep = evaluate_model(out.params, tiny_ds, "dev", tiny_flat)
        assert 0.0 <= rep.greedy_ter
        assert 0.0 <= rep.prefix_ter
        assert rep.peak.num_frames > 0

    def test_bad_split(self, tiny_flat, tiny_ds):
        out = train_model(tiny_ds, tiny_flat, objective="ctc", seed=0)
        with pytest.raises(InvalidInputError):
            evaluate_model(out.params, tiny_ds, "holdout", tiny_flat)


class TestRunRecord:
    def test_round_trip_lossless(self, tiny_flat, tiny_ds):
        record, _ = run_experiment("ctc", tiny_flat, seed=0, dataset=tiny_ds)
        again = RunRecord.from_json(record.to_json())
        assert again == record

    def test_save_load(self, tmp_path, tiny_flat, tiny_ds):
        record, _ = run_experiment("sr_ctc", tiny_flat, seed=1, dataset=tiny_ds)
        path = tmp_path / "run.json"
        record.save(path)
        assert RunRecord.load(path) == record

    def test_persists_into_out_dir(self, tmp_path, tiny_flat, tiny_ds):
        record, _ = run_experiment(
            "ctc", tiny_flat, seed=2, dataset=tiny_ds, out_dir=str(tmp_path)
        )
        expected = tmp_path / "run_ctc_seed2.json"
        assert expected.exists()
        assert RunRecord.load(expected) == record

    def test_reproducible_from_record(self, tiny_flat, tiny_ds):
        record, _ = run_experiment("cr_ctc", tiny_flat, seed=5, dataset=tiny_ds)
        again, _ = run_experiment(record.objective, record.config, record.seed)
        assert again.loss_curve == record.loss_curve
        assert again.test_greedy_ter == record.test_greedy_ter
        assert again.peak == record.peak

    def test_record_fields(self, tiny_flat, tiny_ds):
        record, _ = run_experiment("cr_ctc", tiny_flat, seed=0, dataset=tiny_ds)
        assert record.objective == "cr_ctc"
        assert record.epochs == 2  # fair cost halves 4 -> 2
        assert record.batch_size == 2
        assert record.wall_clock_s > 0
        assert set(record.peak) == {
            "mean_nonblank_duration",
            "mean_blank_emit_prob",
            "mean_nonblank_emit_prob",
            "num_emissions",
            "num_blank_frames",
            "num_nonblank_frames",
        }

    def test_rerun_from_saved_record_is_identical(self, tmp_path):
        flat = cfgmod.resolve("smoke", assignments=TINY)
        record, _ = run_experiment("cr_ctc", flat, seed=4)
        path = tmp_path / "run.json"
        record.save(path)
        again = rerun_from_record(RunRecord.load(path))
        assert again.loss_curve == record.loss_curve
        assert again.skipped_samples == record.skipped_samples
        for name in ("dev_greedy_ter", "dev_prefix_ter",
                     "test_greedy_ter", "test_prefix_ter"):
            assert getattr(again, name) == getattr(record, name)

    def test_all_skipped_epoch_saves_strict_json(self, tmp_path, tiny_flat, tiny_ds):
        # labels of 3+ tokens cannot fit in the 1-2 frames left after
        # 16x downsampling, so every sample of every epoch is skipped
        flat = dict(tiny_flat, **{"model.downsample_factor": 16})
        record, _ = run_experiment("ctc", flat, seed=0, dataset=tiny_ds)
        assert record.skipped_samples == 4 * len(tiny_ds.train)
        assert record.loss_curve == [None] * 4
        path = tmp_path / "run.json"
        record.save(path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["loss_curve"] == [None] * 4
        assert RunRecord.load(path) == record

    def test_dataset_config_mismatch(self, tiny_flat, tiny_ds):
        flat = dict(tiny_flat, **{"data.vocab_size": 5})
        with pytest.raises(InvalidInputError):
            run_experiment("ctc", flat, seed=0, dataset=tiny_ds)

    def test_bad_json(self):
        with pytest.raises(InvalidInputError):
            RunRecord.from_json("{not json")
        with pytest.raises(InvalidInputError):
            RunRecord.from_json(json.dumps({"objective": "ctc"}))


class TestSweep:
    def test_alpha_axis(self, tmp_path, tiny_flat, tiny_ds):
        rows = sweep(
            tiny_flat,
            axes=["alpha"],
            seeds=(0,),
            dataset=tiny_ds,
            out_csv=str(tmp_path / "sweep.csv"),
        )
        assert [r["value"] for r in rows] == [0.1, 0.2, 0.3]
        assert all(r["objective"] == "cr_ctc" for r in rows)
        text = (tmp_path / "sweep.csv").read_text().splitlines()
        assert text[0].startswith("axis,value,objective,seed")
        assert len(text) == 4

    def test_objective_axis(self, tiny_flat, tiny_ds):
        rows = sweep(tiny_flat, axes=["objective"], seeds=(0,), dataset=tiny_ds)
        assert [r["objective"] for r in rows] == ["ctc", "cr_ctc", "sr_ctc"]

    def test_unknown_axis(self, tiny_flat, tiny_ds):
        with pytest.raises(InvalidInputError):
            sweep(tiny_flat, axes=["temperature"], dataset=tiny_ds)

    def test_csv_column_order(self, tmp_path):
        row = {
            "axis": "alpha", "value": 0.1, "objective": "cr_ctc", "seed": 0,
            "epochs": 1, "batch_size": 2,
            "dev_greedy_ter": 0.5, "dev_prefix_ter": 0.5,
            "test_greedy_ter": 0.25, "test_prefix_ter": 0.25,
            "mean_nonblank_duration": 1.5, "mean_blank_emit_prob": 0.9,
            "mean_nonblank_emit_prob": 0.8, "wall_clock_s": 1.0,
        }
        path = tmp_path / "one.csv"
        write_sweep_csv([row], path)
        lines = path.read_text().splitlines()
        assert lines[1] == (
            "alpha,0.100000,cr_ctc,0,1,2,0.500000,0.500000,0.250000,"
            "0.250000,1.500000,0.900000,0.800000,1.000000"
        )
