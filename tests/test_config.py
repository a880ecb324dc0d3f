"""Seed streams and configuration layering."""

import dataclasses
import logging

import numpy as np
import pytest

from gowrank.config import RunConfig, load_config, read_config_file, seed_stream
from gowrank.errors import DataFormatError


class TestSeedStream:
    def test_reproducible(self):
        a = seed_stream(7, "sampler").random(5)
        b = seed_stream(7, "sampler").random(5)
        np.testing.assert_array_equal(a, b)

    def test_name_separates_streams(self):
        a = seed_stream(7, "sampler").random(5)
        b = seed_stream(7, "init").random(5)
        assert not np.array_equal(a, b)

    def test_seed_separates_streams(self):
        a = seed_stream(7, "sampler").random(5)
        b = seed_stream(8, "sampler").random(5)
        assert not np.array_equal(a, b)

    def test_creation_order_irrelevant(self):
        g1 = seed_stream(3, "x")
        g2 = seed_stream(3, "y")
        first = (g1.random(3), g2.random(3))
        g2b = seed_stream(3, "y")
        g1b = seed_stream(3, "x")
        np.testing.assert_array_equal(first[0], g1b.random(3))
        np.testing.assert_array_equal(first[1], g2b.random(3))


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("window = 7\nlr=0.005  # fast\n\n# comment only\nsteps = 3\n")
        assert read_config_file(p) == {"window": "7", "lr": "0.005", "steps": "3"}

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # '#' starts a comment only at the start of a line or after whitespace
        p = tmp_path / "run.cfg"
        p.write_text(
            "corpus = /data/run#1/corpus.jsonl\n"
            "queries=q#2.tsv\t# tab before the comment\n"
            "  # indented comment\n"
            "stopwords = #\n"
        )
        assert read_config_file(p) == {
            "corpus": "/data/run#1/corpus.jsonl",
            "queries": "q#2.tsv",
            "stopwords": "",
        }

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("window 7\n")
        with pytest.raises(DataFormatError, match="bad.cfg:1"):
            read_config_file(p)


    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text("min_freq = 1\nwindow = 7\nmin_freq = 3\n")
        with pytest.raises(DataFormatError, match="twice.cfg:3: duplicate key 'min_freq'"):
            read_config_file(p)


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(env={})
        assert cfg.window == 5
        assert cfg.steps == 2
        assert cfg.pool_k == 40
        assert cfg.lr == 0.001
        assert cfg.batch == 16
        assert cfg.candidates == 100
        assert cfg.adjacency_mode == "graph"

    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("window = 7\nadjacency_mode = sequence\n")
        cfg = load_config(p, env={})
        assert cfg.window == 7
        assert cfg.adjacency_mode == "sequence"

    def test_env_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("window = 7\n")
        cfg = load_config(p, env={"GOWRANK_WINDOW": "9"})
        assert cfg.window == 9

    def test_flags_override_env(self, tmp_path):
        cfg = load_config(None, overrides={"window": 3}, env={"GOWRANK_WINDOW": "9"})
        assert cfg.window == 3

    def test_none_overrides_ignored(self):
        cfg = load_config(None, overrides={"window": None}, env={})
        assert cfg.window == 5

    def test_unknown_file_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("wibble = 1\n")
        with pytest.raises(DataFormatError, match="wibble"):
            load_config(p, env={})

    def test_unknown_env_ignored(self):
        cfg = load_config(None, env={"GOWRANK_WIBBLE": "1"})
        assert cfg.window == 5

    def test_validation(self):
        with pytest.raises(DataFormatError, match="adjacency_mode"):
            load_config(None, overrides={"adjacency_mode": "diagonal"}, env={})
        with pytest.raises(DataFormatError, match="window"):
            load_config(None, overrides={"window": 1}, env={})
        with pytest.raises(DataFormatError, match="steps"):
            load_config(None, overrides={"steps": -1}, env={})
        with pytest.raises(DataFormatError, match="steps must be an int >= 0"):
            load_config(None, overrides={"steps": True}, env={})

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if f.type == "int" and f.name != "seed"])
    def test_int_past_int64_is_data_error(self, key):
        # numpy takes each of these as an int64; a value past it overflowed
        # deep in `train` or ran on for minutes
        load_config(None, overrides={"folds": 2**63 - 1, key: 2**63 - 2}, env={})
        with pytest.raises(DataFormatError, match=f"{key} must be < 2\\*\\*63"):
            load_config(None, overrides={key: 2**63}, env={})

    def test_seed_is_non_negative_and_of_any_size(self):
        with pytest.raises(DataFormatError, match="seed must be >= 0, got -1"):
            load_config(None, overrides={"seed": -1}, env={})
        with pytest.raises(DataFormatError, match="seed must be >= 0"):
            load_config(None, env={"GOWRANK_SEED": "-1"})
        assert load_config(None, overrides={"seed": 10**20}, env={}).seed == 10**20
        seed_stream(10**20, "init").random()  # SeedSequence takes it

    def test_nul_in_path_is_data_error(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("corpus = a\0b\n")
        with pytest.raises(DataFormatError, match="corpus path holds a NUL byte"):
            load_config(p, env={})

    def test_off_grid_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="gowrank.config"):
            load_config(None, overrides={"window": 21}, env={})
        assert any("tuned range" in r.message for r in caplog.records)

    def test_on_grid_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="gowrank.config"):
            load_config(None, env={})
        assert not [r for r in caplog.records if "tuned range" in r.message]
