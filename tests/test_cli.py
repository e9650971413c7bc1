"""End-to-end checks for the command line interface.

Everything runs in-process through egt.cli.main so exit codes and
file outputs can be asserted directly.  Corpus and checkpoint are tiny,
built once per module.
"""

import hashlib
import importlib.metadata
import json
import os
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from egt import cli
from egt.cli import REQUIRED, SETTINGS, _config_value, build_parser, finite_float, main
from egt.data import LabeledImageSet, load_dataset, save_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def _hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _settings(command, corpus, run_dir, out):
    """Small valid settings for ``command``, keyed like its config file."""
    data = str(corpus / "dark.egtd")
    checkpoint = str(run_dir / "model.egt1")
    return {"out": str(out), **{
        "gen-data": {"classes": 3, "per_class": 6, "height": 16, "width": 16},
        "train": {"data": str(corpus / "bright.egtd"), "way": 3, "shot": 2,
                  "queries": 6, "epochs": 0, "widths": "4,8", "hidden": 8},
        "eval": {"checkpoint": checkpoint, "data": data, "way": 3, "shot": 2,
                 "queries": 6, "episodes": 2},
        "explain": {"checkpoint": checkpoint, "data": data, "way": 3, "shot": 2,
                    "queries": 6, "targets": "predicted"},
        "stats": {"checkpoint": checkpoint, "data": data, "limit": 2},
    }[command]}


def _argv(command, settings):
    argv = [command]
    for key, value in settings.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["gen-data", "--out", str(out), "--classes", "6",
                 "--per-class", "10", "--height", "16", "--width", "16",
                 "--domains", "bright,dark", "--seed", "11"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(corpus / "bright.egtd"),
                 "--out", str(out), "--head", "cosine",
                 "--way", "3", "--shot", "2", "--queries", "6",
                 "--epochs", "2", "--episodes-per-epoch", "3",
                 "--widths", "4,8", "--hidden", "8", "--seed", "5"])
    assert code == 0
    return out


class TestGenData:
    def test_writes_one_file_per_domain(self, corpus):
        assert (corpus / "bright.egtd").exists()
        assert (corpus / "dark.egtd").exists()
        assert (corpus / "gen-data.config.json").exists()

    def test_config_echo_is_complete(self, corpus):
        cfg = json.loads((corpus / "gen-data.config.json").read_text())
        assert cfg["command"] == "gen-data"
        assert cfg["classes"] == 6
        assert cfg["seed"] == 11
        assert cfg["domains"] == "bright,dark"

    def test_missing_out_dir_exits_2_without_output(self, tmp_path):
        target = tmp_path / "nope"
        code = main(["gen-data", "--out", str(target), "--classes", "4",
                     "--per-class", "8", "--height", "16", "--width", "16"])
        assert code == 2
        assert not target.exists()

    def test_config_rerun_is_bit_identical(self, corpus, tmp_path):
        cfg = json.loads((corpus / "gen-data.config.json").read_text())
        cfg["out"] = str(tmp_path)
        cfg_path = tmp_path / "regen.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        for tag in ("bright", "dark"):
            assert _hash(tmp_path / f"{tag}.egtd") == _hash(corpus / f"{tag}.egtd")

    def test_config_plus_flag_rejected(self, corpus, tmp_path):
        cfg_path = corpus / "gen-data.config.json"
        assert main(["gen-data", "--config", str(cfg_path),
                     "--seed", "99"]) == 1
        assert not (tmp_path / "bright.egtd").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"out": str(tmp_path), "classes": 4,
                                   "per_class": 8, "wat": 1}))
        assert main(["gen-data", "--config", str(bad)]) == 1

    def test_malformed_config_exits_1(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["gen-data", "--config", str(bad)]) == 1

    def test_size_past_numpys_limit_exits_1(self, tmp_path, capsys):
        # 10**24 images per class: numpy refuses the array's dimension itself
        assert main(["gen-data", "--out", str(tmp_path),
                     "--per-class", "1000000000000000000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestConfigValues:
    # name -> (command, config file content, text the error line names)
    BAD = {
        "not-an-object": ("train", [1, 2], "JSON object"),
        "int-from-bad-string": ("train", {"way": "abc"}, "'way'"),
        "eval-int-from-bad-string": ("eval", {"episodes": "x"}, "'episodes'"),
        "float-from-bad-string": ("train", {"lr": "x"}, "'lr'"),
        "eval-const-flag-from-string": ("eval", {"transductive": "no"}, "'transductive'"),
        "float-for-int": ("train", {"epochs": 1.7}, "'epochs'"),
        "bool-for-int": ("train", {"way": True}, "'way'"),
        "choice": ("train", {"head": "oracle"}, "'head'"),
        "explain-choice": ("explain", {"targets": "some"}, "'targets'"),
        "eval-data-not-a-string": ("eval", {"data": 5}, "'data'"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_value_exits_1(self, tmp_path, capsys, case):
        command, content, key = self.BAD[case]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(content))
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    # every float flag, as (command, config key); its flag is --<key with '-'>
    FLOATS = [("gen-data", "min_gap")] + [
        ("train", key) for key in ("lr", "momentum", "xi", "lam", "beta", "epsilon",
                                   "lr_decay")] + [
        ("explain", key) for key in ("epsilon", "blend")]
    # retired float options: their flag is unknown and a config value other
    # than the kept one is refused, so a non-finite value exits 1 as well
    RETIRED_FLOATS = [("train", "alpha"), ("explain", "alpha")]

    def test_float_table_covers_every_float_flag(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        types = {(name, action.dest): action.type for name, sub in commands.items()
                 for action in sub._actions if action.type in (float, finite_float)}
        assert sorted(types) == sorted(self.FLOATS)
        assert set(types.values()) == {finite_float}

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,key", FLOATS + RETIRED_FLOATS)
    def test_non_finite_float_exits_1(self, tmp_path, capsys, command, key, value, via):
        if via == "flag":
            flag = "--" + key.replace("_", "-")
            argv, named = [command, f"{flag}={value}"], flag
        else:
            # Python's json writes and reads NaN, Infinity and -Infinity
            cfg_path = tmp_path / "bad.json"
            cfg_path.write_text(json.dumps({key: float(value)}))
            argv, named = [command, "--config", str(cfg_path)], repr(key)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    # name -> (command, settings that override the valid ones, key out of range)
    OUT_OF_RANGE = {
        "eval-way-1": ("eval", {"way": 1}, "way"),
        "explain-shot-0": ("explain", {"shot": 0}, "shot"),
        "eval-episodes-0": ("eval", {"episodes": 0}, "episodes"),
        "explain-blend-above-1": ("explain", {"blend": 1.5}, "blend"),
        "relation-hidden-0": ("train", {"head": "relation", "hidden": 0}, "hidden"),
        "widths-with-0": ("train", {"widths": "0,8"}, "widths"),
        "stats-limit-negative": ("stats", {"limit": -1}, "limit"),
        "stats-limit-1": ("stats", {"limit": 1}, "limit"),
        "eval-seed-negative": ("eval", {"seed": -1}, "seed"),
    }

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_out_of_range_exits_1(self, corpus, run_dir, tmp_path, capsys, case, via):
        command, override, key = self.OUT_OF_RANGE[case]
        settings = {**_settings(command, corpus, run_dir, tmp_path), **override}
        if via == "flag":
            argv, named = _argv(command, settings), "--" + key
        else:
            cfg_path = tmp_path / "bad.json"
            cfg_path.write_text(json.dumps(settings))
            argv, named = [command, "--config", str(cfg_path)], repr(key)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "explain", "stats"])
    def test_echo_keys_are_the_flags(self, corpus, run_dir, tmp_path, command):
        # a setting left in a command's defaults after its flag is gone
        # would show up in the echo but not in the parser
        assert main(_argv(command, _settings(command, corpus, run_dir, tmp_path))) == 0
        echoed = json.loads((tmp_path / f"{command}.config.json").read_text())
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
        dests = set(vars(sub.parse_args([]))) - {"config", "parser", "func"}
        assert set(echoed) - {"command"} == dests

    @pytest.mark.parametrize("command,key", [(c, k) for c in SETTINGS for k in SETTINGS[c]])
    def test_setting_default_fits_the_setting(self, command, key):
        kind, default, check = SETTINGS[command][key]
        if default is REQUIRED:
            return
        if default is None:
            assert key in ("xi", "lam", "beta"), "only the train-resolved keys start unset"
            return
        # the default loads unchanged as a config value of the setting
        loaded = _config_value(kind, key, default)
        assert (type(loaded), loaded) == (type(default), default)
        assert check is None or check[0](default)

    # What each command resolves from only its required settings, paths
    # aside.  The defaults are read from the library's owners, so one that
    # moves there shows here.  ``train`` resolves xi and lam by head and
    # mode, and beta from the head it builds.
    _EPISODE = {"way": 5, "shot": 5, "queries": 16, "seed": 0}
    RESOLVED = {
        "gen-data": {"classes": 20, "per_class": 60, "height": 32, "width": 32,
                     "domains": "bright,dark", "seed": 0, "min_gap": 0.05,
                     "max_primitives": 3},
        "train": {**_EPISODE, "mode": "egt", "head": "cosine", "epochs": 100,
                  "episodes_per_epoch": 100, "lr": 0.001, "momentum": 0.9, "xi": 0.0,
                  "lam": 1.0, "beta": 7.0, "epsilon": 0.001, "lr_decay": 0.5,
                  "lr_decay_every": 40, "widths": "8,16,32", "hidden": 64},
        "eval": {**_EPISODE, "episodes": 2000, "transductive": False, "iterations": 2,
                 "candidates": "4,8"},
        "explain": {**_EPISODE, "query": 0, "targets": "all", "epsilon": 0.001,
                    "blend": 0.6},
        "stats": {"limit": 0},
    }
    RELATION = {**RESOLVED["train"], "head": "relation", "xi": 1.0, "beta": 1.0}

    @pytest.mark.parametrize("command,head", [
        ("gen-data", None), ("train", None), ("train", "relation"), ("eval", None),
        ("explain", None), ("stats", None)])
    def test_resolved_defaults(self, corpus, run_dir, tmp_path, monkeypatch, command, head):
        # the training loop is stubbed out: its defaults ask for 10,000 episodes
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: [])
        paths = {"out": str(tmp_path), "data": str(corpus / "dark.egtd"),
                 "checkpoint": str(run_dir / "model.egt1")}
        required = [k for k, (_, default, _) in SETTINGS[command].items() if default is REQUIRED]
        argv = [command] + [a for k in required for a in ("--" + k, paths[k])]
        assert main(argv + (["--head", head] if head else [])) == 0
        echoed = json.loads((tmp_path / f"{command}.config.json").read_text())
        assert echoed.pop("command") == command
        echoed_paths = {k: echoed.pop(k) for k in required}
        assert echoed_paths == {k: [paths[k]] if (command, k) == ("eval", "data") else paths[k]
                                for k in required}
        want = self.RELATION if head else self.RESOLVED[command]
        assert echoed == want
        assert {k: type(v) for k, v in echoed.items()} == {k: type(v) for k, v in want.items()}

    def test_config_for_another_command_exits_1(self, run_dir, tmp_path, capsys):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({
            "command": "train", "checkpoint": str(run_dir / "model.egt1"),
            "data": json.loads((run_dir / "train.config.json").read_text())["data"],
            "out": str(tmp_path)}))
        assert main(["stats", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'train'" in err and "'stats'" in err
        assert not list(tmp_path.glob("stats_*"))

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("beta", [0, -1])
    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_non_positive_beta_exits_1(self, corpus, run_dir, tmp_path, capsys,
                                       head, beta, via):
        settings = {**_settings("train", corpus, run_dir, tmp_path),
                    "head": head, "beta": beta}
        if via == "flag":
            argv = _argv("train", settings)
        else:
            cfg_path = tmp_path / "bad.json"
            cfg_path.write_text(json.dumps(settings))
            argv = ["train", "--config", str(cfg_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beta" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,key", [("train", "way"), ("train", "lr"),
                                             ("eval", "data"), ("explain", "blend"),
                                             ("stats", "limit")])
    def test_null_for_a_set_setting_exits_1(self, corpus, run_dir, tmp_path, capsys,
                                            command, key):
        settings = {**_settings(command, corpus, run_dir, tmp_path), key: None}
        cfg_path = tmp_path / "null.json"
        cfg_path.write_text(json.dumps(settings))
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err and "null" in err
        assert "missing" not in err

    def test_null_leaves_train_resolved_keys_unset(self, corpus, run_dir, tmp_path):
        settings = {**_settings("train", corpus, run_dir, tmp_path),
                    "xi": None, "lam": None, "beta": None}
        cfg_path = tmp_path / "null.json"
        cfg_path.write_text(json.dumps(settings))
        assert main(["train", "--config", str(cfg_path)]) == 0
        echoed = json.loads((tmp_path / "train.config.json").read_text())
        assert all(isinstance(echoed[k], float) for k in ("xi", "lam", "beta"))

    def test_strings_convert_like_flags(self, corpus, tmp_path):
        cfg_path = tmp_path / "strings.json"
        cfg_path.write_text(json.dumps({
            "data": str(corpus / "bright.egtd"), "out": str(tmp_path),
            "way": "3", "shot": "2", "queries": "6", "epochs": "0", "lr": "1e-2",
            "widths": "4,8"}))
        assert main(["train", "--config", str(cfg_path)]) == 0
        cfg = json.loads((tmp_path / "train.config.json").read_text())
        assert (cfg["way"], cfg["epochs"], cfg["lr"]) == (3, 0, 0.01)


class TestTrain:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "model.egt1").exists()
        assert (run_dir / "train_log.csv").exists()
        assert (run_dir / "train.config.json").exists()

    def test_log_has_one_row_per_episode(self, run_dir):
        lines = (run_dir / "train_log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,step,loss_plain,loss_lrp,loss_total,acc"
        assert len(lines) == 1 + 2 * 3

    def test_size_beyond_any_address_space_exits_1(self, corpus, run_dir, tmp_path, capsys):
        # the relation net's first dense weight would take 2**51 x 32 float64s
        # (512 PiB), more than an x86-64 address space holds
        settings = {**_settings("train", corpus, run_dir, tmp_path), "head": "relation",
                    "hidden": 2 ** 51}
        assert main(_argv("train", settings)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "train.config.json").exists()

    @pytest.mark.parametrize("key", ["hidden", "widths"])
    def test_size_past_numpys_limit_exits_1(self, corpus, run_dir, tmp_path, capsys, key):
        # a 10**18-row weight holds more bytes than numpy can address, so
        # numpy refuses it with a ValueError before any allocation
        settings = {**_settings("train", corpus, run_dir, tmp_path), "head": "relation",
                    key: {"hidden": 10 ** 18, "widths": f"4,{10 ** 18}"}[key]}
        assert main(_argv("train", settings)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "train.config.json").exists()

    def test_config_echo_resolves_loss_weights(self, run_dir):
        cfg = json.loads((run_dir / "train.config.json").read_text())
        # cosine head default: plain term off, explanation term on
        assert cfg["xi"] == 0.0
        assert cfg["lam"] == 1.0
        assert cfg["beta"] == 7.0
        assert cfg["mode"] == "egt"

    def test_config_rerun_reproduces_run(self, run_dir, tmp_path):
        cfg = json.loads((run_dir / "train.config.json").read_text())
        cfg["out"] = str(tmp_path)
        cfg_path = tmp_path / "retrain.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert _hash(tmp_path / "model.egt1") == _hash(run_dir / "model.egt1")
        assert _hash(tmp_path / "train_log.csv") == _hash(run_dir / "train_log.csv")

    # command -> the keys its config files carried, at their defaults, before
    # --explain-variant and --exact-weight-grad (train), --workers (eval) and
    # --alpha (train, explain) were removed
    OLD_KEYS = {"train": {"explain_variant": "query", "exact_weight_grad": False,
                          "alpha": 1.0},
                "eval": {"workers": 1}, "explain": {"alpha": 1.0}}

    def test_config_with_retired_keys_reruns(self, corpus, run_dir, tmp_path):
        # command -> (directory of a run, its outputs)
        runs = {"train": (run_dir, ["train_log.csv", "model.egt1"])}
        for command in ("eval", "explain"):
            done = tmp_path / command
            done.mkdir()
            assert main(_argv(command, _settings(command, corpus, run_dir, done))) == 0
            runs[command] = (done, sorted(p.name for p in done.iterdir()
                                          if p.name != f"{command}.config.json"))
        assert runs["eval"][1] == ["eval_dark.csv"] and runs["explain"][1]
        for command, (done, outputs) in runs.items():
            cfg = json.loads((done / f"{command}.config.json").read_text())
            assert not set(self.OLD_KEYS[command]) & set(cfg)
            again = tmp_path / f"{command}-again"
            again.mkdir()
            cfg_path = tmp_path / f"old-{command}.json"
            cfg_path.write_text(json.dumps({**cfg, "out": str(again),
                                            **self.OLD_KEYS[command]}))
            assert main([command, "--config", str(cfg_path)]) == 0
            for name in outputs:
                assert _hash(again / name) == _hash(done / name), (command, name)

    @pytest.mark.parametrize("key,value", [("exact_weight_grad", True),
                                           ("explain_variant", "both-normalized"),
                                           ("workers", 2), ("alpha", 2.0)])
    def test_retired_option_value_exits_1(self, corpus, run_dir, tmp_path, capsys,
                                          key, value):
        commands = [c for c, keys in self.OLD_KEYS.items() if key in keys]
        for command in commands:
            out = tmp_path / command
            out.mkdir()
            cfg_path = tmp_path / f"old-{command}.json"
            cfg_path.write_text(json.dumps({**_settings(command, corpus, run_dir, out),
                                            key: value}))
            assert main([command, "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(key) in err and "removed" in err
            assert not list(out.iterdir())
        assert len(commands) == (2 if key == "alpha" else 1)

    def test_baseline_mode_zeroes_lam(self, corpus, tmp_path):
        code = main(["train", "--data", str(corpus / "bright.egtd"),
                     "--out", str(tmp_path), "--mode", "baseline",
                     "--way", "3", "--shot", "2", "--queries", "6",
                     "--epochs", "1", "--episodes-per-epoch", "2",
                     "--widths", "4,8", "--hidden", "8"])
        assert code == 0
        cfg = json.loads((tmp_path / "train.config.json").read_text())
        assert cfg["xi"] == 1.0
        assert cfg["lam"] == 0.0

    def test_baseline_with_nonzero_lam_rejected(self, corpus, tmp_path):
        code = main(["train", "--data", str(corpus / "bright.egtd"),
                     "--out", str(tmp_path), "--mode", "baseline",
                     "--lam", "0.5", "--epochs", "0"])
        assert code == 1

    def test_bad_head_rejected(self, corpus, tmp_path):
        code = main(["train", "--data", str(corpus / "bright.egtd"),
                     "--out", str(tmp_path), "--head", "oracle"])
        assert code == 1

    def test_missing_data_file_exits_2(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "absent.egtd"),
                     "--out", str(tmp_path), "--epochs", "0"])
        assert code == 2


class TestEval:
    def test_multiple_datasets_one_call(self, corpus, run_dir, tmp_path):
        code = main(["eval", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "bright.egtd"),
                     str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--way", "3", "--shot", "2",
                     "--queries", "6", "--episodes", "8"])
        assert code == 0
        for tag in ("bright", "dark"):
            lines = (tmp_path / f"eval_{tag}.csv").read_text().strip().split("\n")
            assert lines[0] == "episode,acc"
            assert len(lines) == 1 + 8

    def test_datasets_with_one_stem_exit_1(self, corpus, run_dir, tmp_path, capsys):
        other = tmp_path / "other"
        other.mkdir()
        shutil.copy(corpus / "dark.egtd", other / "dark.egtd")
        code = main(["eval", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"), str(other / "dark.egtd"),
                     "--out", str(tmp_path), "--way", "3", "--shot", "2",
                     "--queries", "6", "--episodes", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'dark'" in err
        assert not (tmp_path / "eval_dark.csv").exists()

    # transductive settings a run without --transductive still checks
    UNUSED_TRANSDUCTIVE = {"candidates": "x,y", "iterations": -7}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(UNUSED_TRANSDUCTIVE))
    def test_bad_transductive_setting_without_the_flag_exits_1(self, corpus, run_dir,
                                                               tmp_path, capsys, key, source):
        settings = {**_settings("eval", corpus, run_dir, tmp_path),
                    key: self.UNUSED_TRANSDUCTIVE[key]}
        if source == "flag":
            code = main(_argv("eval", settings))
        else:
            cfg_path = tmp_path / "bad.json"
            cfg_path.write_text(json.dumps({"command": "eval", **settings}))
            code = main(["eval", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "eval_dark.csv").exists()
        assert not (tmp_path / "eval.config.json").exists()

    def _eval_echo(self, corpus, run_dir, out, *paths):
        assert main(["eval", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", *map(str, paths), "--out", str(out), "--way", "3",
                     "--shot", "2", "--queries", "6", "--episodes", "3"]) == 0
        return json.loads((out / "eval.config.json").read_text())

    def _rerun(self, cfg, tmp_path):
        again = tmp_path / "again"
        again.mkdir()
        cfg_path = tmp_path / "re.json"
        cfg_path.write_text(json.dumps({**cfg, "out": str(again)}))
        assert main(["eval", "--config", str(cfg_path)]) == 0
        return again

    def test_data_path_with_comma_reruns(self, corpus, run_dir, tmp_path):
        odd = tmp_path / "comma"
        odd.mkdir()
        shutil.copy(corpus / "dark.egtd", odd / "da,rk.egtd")
        cfg = self._eval_echo(corpus, run_dir, tmp_path, odd / "da,rk.egtd",
                              corpus / "bright.egtd")
        assert cfg["data"] == [str(odd / "da,rk.egtd"), str(corpus / "bright.egtd")]
        again = self._rerun(cfg, tmp_path)
        for stem in ("da,rk", "bright"):
            assert _hash(again / f"eval_{stem}.csv") == _hash(tmp_path / f"eval_{stem}.csv")
        assert json.loads((again / "eval.config.json").read_text())["data"] == cfg["data"]

    def test_comma_joined_data_echo_reruns(self, corpus, run_dir, tmp_path):
        # eval echoed its --data files as one comma-joined string before
        # it wrote a list; such a file still reruns
        paths = [corpus / "bright.egtd", corpus / "dark.egtd"]
        cfg = self._eval_echo(corpus, run_dir, tmp_path, *paths)
        again = self._rerun({**cfg, "data": ",".join(cfg["data"])}, tmp_path)
        for stem in ("bright", "dark"):
            assert _hash(again / f"eval_{stem}.csv") == _hash(tmp_path / f"eval_{stem}.csv")
        assert json.loads((again / "eval.config.json").read_text())["data"] == list(
            map(str, paths))

    def test_accuracies_parse_back(self, corpus, run_dir, tmp_path):
        code = main(["eval", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "bright.egtd"),
                     "--out", str(tmp_path), "--way", "3", "--shot", "2",
                     "--queries", "6", "--episodes", "5"])
        assert code == 0
        rows = (tmp_path / "eval_bright.csv").read_text().strip().split("\n")[1:]
        accs = [float(r.split(",")[1]) for r in rows]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_transductive_flag_round_trips(self, corpus, run_dir, tmp_path):
        code = main(["eval", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--way", "3", "--shot", "2",
                     "--queries", "6", "--episodes", "4",
                     "--transductive", "--iterations", "1",
                     "--candidates", "2"])
        assert code == 0
        cfg = json.loads((tmp_path / "eval.config.json").read_text())
        assert cfg["transductive"] is True
        assert cfg["candidates"] == "2"
        out2 = tmp_path / "again"
        out2.mkdir()
        cfg["out"] = str(out2)
        cfg_path = tmp_path / "re.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert _hash(out2 / "eval_dark.csv") == _hash(tmp_path / "eval_dark.csv")

    def test_transductive_clamp_warns_on_one_line(self, corpus, run_dir, tmp_path, capsys):
        # 4 queries: round 0 absorbs all of them, so round 1's 8 candidates
        # clamp to 0 in every block of episodes; the warning shows once
        code = main(["eval", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"), "--out", str(tmp_path),
                     "--way", "3", "--shot", "2", "--queries", "4", "--episodes", "70",
                     "--transductive", "--candidates", "4,8"])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: round 1: only 0 unabsorbed queries left, clamping candidate count 8 -> 0\n")

    def test_missing_checkpoint_exits_2(self, corpus, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "absent.egt1"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--episodes", "2"])
        assert code == 2

    def test_dataset_as_checkpoint_exits_2(self, corpus, tmp_path):
        code = main(["eval", "--checkpoint", str(corpus / "dark.egtd"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--episodes", "2"])
        assert code == 2

    # (header, payload) -> (header, payload); the header ends with "end\n"
    CORRUPTIONS = {
        "token-without-equals": lambda h, p: (h.replace(b"beta=", b"beta ", 1), p),
        "missing-beta": lambda h, p: (re.sub(rb" beta=\S+", b"", h, count=1), p),
        "beta-not-a-number": lambda h, p: (re.sub(rb"beta=\S+", b"beta=abc", h, count=1), p),
        "truncated-layer": lambda h, p: (
            re.sub(rb"layer conv2d [^\n]*", b"layer conv2d in=3", h, count=1), p),
        "bare-encoder-line": lambda h, p: (re.sub(rb"encoder [^\n]*", b"encoder", h, count=1), p),
        "payload-not-whole-floats": lambda h, p: (h, p + b"\x00\x00"),
        "all-nan-payload": lambda h, p: (h, np.full(len(p) // 4, np.nan, "<f4").tobytes()),
        "retired-explain-variant": lambda h, p: (
            re.sub(rb"(head [^\n]*)", rb"\1 variant=both-normalized", h, count=1), p),
        "unknown-head-key": lambda h, p: (
            re.sub(rb"(head [^\n]*)", rb"\1 bogus=1", h, count=1), p),
        "unknown-encoder-key": lambda h, p: (
            re.sub(rb"(encoder [^\n]*)", rb"\1 junk=2", h, count=1), p),
        "unknown-layer-key": lambda h, p: (
            h.replace(b"layer relu\n", b"layer relu extra=3\n", 1), p),
    }

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_malformed_checkpoint_exits_2(self, corpus, run_dir, tmp_path,
                                          capsys, corruption):
        raw = (run_dir / "model.egt1").read_bytes()
        cut = raw.index(b"\nend\n") + len(b"\nend\n")
        header, payload = self.CORRUPTIONS[corruption](raw[:cut], raw[cut:])
        assert header + payload != raw
        bad = tmp_path / "bad.egt1"
        bad.write_bytes(header + payload)
        code = main(["eval", "--checkpoint", str(bad),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--episodes", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


    # the run's last conv ("in=4 out=8 kernel=3x3") rewritten with an empty
    # axis, and the float32 parameters its header then asks for: the first
    # conv's 4*3*9 + 4, plus the 8 biases a 0x0 kernel keeps
    EMPTY_AXES = {"no-output-channels": (b"in=4 out=0 kernel=3x3", 112),
                  "no-kernel": (b"in=4 out=8 kernel=0x0", 120)}

    @pytest.mark.parametrize("case", sorted(EMPTY_AXES))
    def test_layer_with_an_empty_axis_exits_2(self, corpus, run_dir, tmp_path, capsys, case):
        raw = (run_dir / "model.egt1").read_bytes()
        cut = raw.index(b"\nend\n") + len(b"\nend\n")
        fields, floats = self.EMPTY_AXES[case]
        header = raw[:cut].replace(b"in=4 out=8 kernel=3x3", fields, 1)
        assert header != raw[:cut]
        bad = tmp_path / "bad.egt1"
        bad.write_bytes(header + raw[cut:cut + 4 * floats])
        code = main(["eval", "--checkpoint", str(bad),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--episodes", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "empty axis" in err
        assert f"(byte offset {header.index(b'layer conv2d ' + fields)})" in err

    @pytest.mark.parametrize("padding", [10 ** 6, 10 ** 9])
    def test_conv_padding_of_a_kernel_side_exits_2(self, corpus, run_dir, tmp_path, capsys,
                                                   padding):
        # such a padding made the encoder's map petabytes large, and eval
        # died allocating it (10**6) or shaping it (10**9)
        raw = (run_dir / "model.egt1").read_bytes()
        line = b"layer conv2d in=4 out=8 kernel=3x3 stride=1 padding=1"
        bad = tmp_path / "bad.egt1"
        bad.write_bytes(raw.replace(line, line[:-1] + str(padding).encode(), 1))
        code = main(["eval", "--checkpoint", str(bad), "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--episodes", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"padding {padding} is not below kernel 3x3" in err
        assert f"(byte offset {raw.index(line)})" in err


class TestExplain:
    def test_all_targets_write_ppm_and_npy(self, corpus, run_dir, tmp_path):
        code = main(["explain", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--way", "3", "--shot", "2",
                     "--queries", "6", "--seed", "2", "--query", "1"])
        assert code == 0
        for k in range(3):
            assert (tmp_path / f"query1_class{k}.ppm").exists()
            rel = np.load(tmp_path / f"query1_class{k}.npy")
            assert rel.shape == (3, 16, 16)
            assert np.all(np.isfinite(rel))

    def test_predicted_target_writes_single_pair(self, corpus, run_dir,
                                                 tmp_path):
        code = main(["explain", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--way", "3", "--shot", "2",
                     "--queries", "6", "--targets", "predicted"])
        assert code == 0
        ppms = sorted(p.name for p in tmp_path.glob("*.ppm"))
        assert len(ppms) == 1

    def test_query_index_out_of_range_exits_1(self, corpus, run_dir, tmp_path):
        code = main(["explain", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--way", "3", "--shot", "2",
                     "--queries", "6", "--query", "99"])
        assert code == 1


class TestStats:
    def test_per_image_and_summary_files(self, corpus, run_dir, tmp_path):
        code = main(["stats", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--limit", "7"])
        assert code == 0
        lines = (tmp_path / "stats_dark.csv").read_text().strip().split("\n")
        assert lines[0] == "image,label,s2,qdiff"
        assert len(lines) == 1 + 7
        summary = (tmp_path / "stats_dark_summary.csv").read_text().strip()
        header, row = summary.split("\n")
        assert header == "n,mean_s2,std_s2,mean_qdiff,std_qdiff"
        assert row.split(",")[0] == "7"

    def test_summary_std_uses_sample_convention(self, corpus, run_dir,
                                                tmp_path):
        code = main(["stats", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(corpus / "dark.egtd"),
                     "--out", str(tmp_path), "--limit", "5"])
        assert code == 0
        rows = (tmp_path / "stats_dark.csv").read_text().strip().split("\n")[1:]
        s2 = np.array([float(r.split(",")[2]) for r in rows])
        summary_row = (tmp_path / "stats_dark_summary.csv").read_text()
        std_s2 = float(summary_row.strip().split("\n")[1].split(",")[2])
        assert std_s2 == pytest.approx(s2.std(ddof=1), rel=1e-12)


    def test_single_image_dataset_exits_2(self, corpus, run_dir, tmp_path, capsys):
        data = load_dataset(str(corpus / "dark.egtd"))
        one = tmp_path / "one.egtd"
        save_dataset(LabeledImageSet(data.images[:1], data.labels[:1], "one"), str(one))
        code = main(["stats", "--checkpoint", str(run_dir / "model.egt1"),
                     "--data", str(one), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "holds 1" in err
        assert not (tmp_path / "stats_one_summary.csv").exists()


class TestTopLevel:
    def test_unknown_command_exits_1(self):
        assert main(["bogus"]) == 1

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        assert "gen-data" in capsys.readouterr().out

    def test_readme_commands_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [line for line in lines if line.startswith("egt ")]
        assert len(commands) == 5
        for command in commands:
            args = build_parser().parse_args(shlex.split(command)[1:])
            assert args.func is not None, command

    def test_console_script_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"egt": "egt.cli:main"}
        module, attr = scripts["egt"].split(":")
        assert getattr(importlib.import_module(module), attr) is main

    def test_console_script_installed(self):
        # the entry point and its script exist only once the distribution
        # has been installed; a checkout run from src/ has neither
        try:
            dist = importlib.metadata.distribution("egt")
        except importlib.metadata.PackageNotFoundError:
            pytest.skip("no installed 'egt' distribution")
        (entry,) = dist.entry_points.select(group="console_scripts",
                                            name="egt")
        assert entry.value == "egt.cli:main"
        assert entry.load() is main
        assert shutil.which("egt") is not None
