"""Flat config parsing, precedence, and dataclass builders."""

from dataclasses import fields

import pytest

from ctckit import config as cfgmod
from ctckit.errors import InvalidInputError


class TestParsing:
    def test_defaults_resolve(self):
        flat = cfgmod.resolve()
        assert flat["data.vocab_size"] == 8
        assert flat["cr.alpha"] == 0.2
        assert flat["train.objective"] == "ctc"
        assert flat["train.fair_cost"] is True

    def test_text_parsing(self):
        text = """
        # a comment
        data.vocab_size = 5
        cr.alpha = 0.3   # trailing comment
        train.objective = sr_ctc
        train.fair_cost = false
        """
        got = cfgmod.parse_config_text(text)
        assert got == {
            "data.vocab_size": 5,
            "cr.alpha": 0.3,
            "train.objective": "sr_ctc",
            "train.fair_cost": False,
        }

    def test_unknown_key(self):
        with pytest.raises(InvalidInputError):
            cfgmod.parse_config_text("data.bogus = 1")

    def test_bad_int(self):
        with pytest.raises(InvalidInputError):
            cfgmod.parse_config_text("data.vocab_size = many")

    def test_bad_bool(self):
        with pytest.raises(InvalidInputError):
            cfgmod.parse_config_text("train.fair_cost = sometimes")

    def test_missing_equals(self):
        with pytest.raises(InvalidInputError):
            cfgmod.parse_config_text("just a line")

    def test_precedence(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data.num_train = 111\ntrain.epochs = 9\n")
        flat = cfgmod.resolve(
            preset="smoke", file=str(cfg), assignments=["train.epochs=3"]
        )
        # file overrides preset, --set overrides file
        assert flat["data.num_train"] == 111
        assert flat["train.epochs"] == 3
        # untouched preset values survive
        assert flat["data.num_test"] == 24

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError):
            cfgmod.resolve(preset="warehouse")

    def test_bad_objective_rejected(self):
        with pytest.raises(InvalidInputError):
            cfgmod.resolve(assignments=["train.objective=rnnt"])

    @pytest.mark.parametrize(
        "pair",
        [
            "cr.alpha=-1",
            "cr.distance=l2",
            "sr.beta=-0.5",
            "model.dropout_prob=1.0",
            "aug.max_time_mask_fraction=1.5",
            "aug.cr_time_scale_ratio=-1",
            "data.min_label_len=0",
            "train.lr=inf",
            "train.lr=nan",
            "train.lr=0",
            "train.lr=-0.001",
        ],
    )
    def test_bad_values_rejected_at_resolve(self, pair):
        with pytest.raises(InvalidInputError):
            cfgmod.resolve("smoke", assignments=[pair])

    @pytest.mark.parametrize("key", sorted(cfgmod.RETIRED))
    def test_retired_keys_rejected(self, key):
        with pytest.raises(InvalidInputError, match="unknown config key"):
            cfgmod.parse_config_text(f"{key} = {cfgmod.RETIRED[key]}")

    def test_every_key_documented(self):
        for key, (default, doc) in cfgmod.KEY_TABLE.items():
            assert doc.strip(), key


class TestBuilders:
    def test_data_config(self):
        flat = cfgmod.resolve(assignments=["data.noise_std=0.7"])
        dc = cfgmod.data_config(flat)
        assert dc.noise_std == 0.7
        assert dc.vocab_size == 8

    def test_augment_config_objective_ratio(self):
        flat = cfgmod.resolve()
        base = cfgmod.augment_config(flat)
        cr = cfgmod.augment_config(flat, for_objective="cr_ctc")
        assert base.time_scale_ratio == 1.0
        assert cr.time_scale_ratio == 2.5
        assert cr.effective_num_time_masks == 25

    def test_cr_and_sr_configs(self):
        flat = cfgmod.resolve(
            assignments=["cr.target_mode=flow_gradient", "sr.beta=0.5"]
        )
        assert cfgmod.section("cr", flat).target_mode == "flow_gradient"
        assert cfgmod.section("sr", flat).beta == 0.5

    def test_encoder_config(self):
        flat = cfgmod.resolve(assignments=["model.hidden_dim=12"])
        assert cfgmod.encoder_config(flat).hidden_dim == 12

    def test_section_keys_are_dataclass_fields(self):
        sectioned = set()
        for prefix, cls in cfgmod.SECTIONS.items():
            for f in fields(cls):
                key = f"{prefix}.{f.name}"
                sectioned.add(key)
                assert cfgmod.DEFAULTS[key] == f.default, key
                assert type(cfgmod.DEFAULTS[key]) is type(f.default), key
        assert set(cfgmod.DEFAULTS) - sectioned == {
            "aug.cr_time_scale_ratio",
            "train.objective",
            "train.epochs",
            "train.batch_size",
            "train.lr",
            "train.seed",
            "train.fair_cost",
            "eval.beam",
        }

    @pytest.mark.parametrize("prefix", sorted(cfgmod.SECTIONS))
    def test_default_flat_config_builds_dataclass_defaults(self, prefix):
        flat = cfgmod.resolve()
        assert cfgmod.section(prefix, flat) == cfgmod.SECTIONS[prefix]()
