"""CLI tests: config parsing, manifest/summary artifacts, error paths, and
the cheap subcommands end to end."""

import json
import os
import subprocess
from dataclasses import fields

import numpy as np
import pytest

from sphere import cli, trainer
from sphere import data as datamod
from sphere import network as net
from sphere.cli import (ConfigError, load_config, main, parse_config_text, train_config_from,
                        write_summary)
from sphere.trainer import TrainConfig

# float64 blocks small enough that every training command runs in about a second
TINY = ["--set", "train.dtype=float64", "--set", "train.channels=4,8",
        "--set", "train.epochs=2", "--set", "train.batch_size=8", "--set", "train.d_proj=8",
        "--set", "data.n_per_class=2", "--set", "data.n_test_per_class=1",
        "--set", "probe.epochs=2"]


def run_train(tmp_path, name, *flags):
    """`sphere train` at TINY scale; returns (manifest text, summary dict)."""
    out = tmp_path / name
    assert main(["--out", str(out), *TINY, *flags, "train"]) == 0
    return (out / "manifest.txt").read_text(), json.loads((out / "summary.json").read_text())


def refusal(capsys, out):
    """The one-line JSON error of a refused run, which left no artifact in `out`."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    for name in ("manifest.txt", "metrics.jsonl", "summary.json"):
        assert not (out / name).exists()
    return json.loads(lines[0])


def no_synthetic_images(monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("synthetic images made for a run that must not make them")
    monkeypatch.setattr(datamod, "make_synthetic_images", generate)


class TestConfigParser:
    def test_sections_and_values(self):
        text = """
        [train]
        lr = 0.01
        channels = 8,16
        use_phi = false

        [data]
        n_per_class = 50
        """
        cfg = parse_config_text(text)
        assert cfg["train.lr"] == 0.01
        assert cfg["train.channels"] == (8, 16)
        assert cfg["train.use_phi"] is False
        assert cfg["data.n_per_class"] == 50

    def test_comments_ignored(self):
        cfg = parse_config_text("[train]\nlr = 0.5  # half\n")
        assert cfg["train.lr"] == 0.5

    def test_unknown_key_rejected_with_position(self):
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config_text("[train]\nwarp_factor = 9\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config_text("[train]\nthis is not a pair\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="lr"):
            parse_config_text("[train]\nlr = fast\n")

    def test_out_of_range_value_reports_position(self):
        # line 2, column 9: where the value -1 starts
        with pytest.raises(ConfigError, match=r":2:9: data.noise must be finite and >= 0"):
            parse_config_text("[data]\nnoise = -1\n")

    def test_overrides_win(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[train]\nlr = 0.5\n")
        cfg = load_config(str(p), ["train.lr=0.25"])
        assert cfg["train.lr"] == 0.25

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg", [])

    def test_train_config_from(self):
        cfg = load_config(None, [])
        cfg["train.channels"] = (4, 8)
        cfg["train.epochs"] = 6
        tc = train_config_from(cfg, seed=7)
        assert tc.channels == (4, 8)
        assert tc.epochs == 6
        assert tc.seed == 7

    # a valid value other than the default for every TrainConfig field
    NON_DEFAULT = {
        "channels": "8,16", "activation": "tanh", "lam": "0.5", "lr": "0.01",
        "weight_decay": "0.1", "batch_size": "64", "epochs": "6", "seed": "3",
        "use_sphere": "false", "use_oja": "true", "use_orth": "false", "use_phi": "false",
        "phi_depth": "2", "d_proj": "64", "dtype": "float32",
    }

    @pytest.mark.parametrize("field", fields(TrainConfig), ids=lambda f: f.name)
    def test_every_train_field_is_a_key(self, field):
        overrides = [f"train.{field.name}={self.NON_DEFAULT[field.name]}"]
        if field.name == "use_sphere":
            overrides.append("train.use_oja=true")  # one matching loss stays on
        value = getattr(train_config_from(load_config(None, overrides)), field.name)
        assert value != field.default
        assert type(value) is type(field.default)


class TestArtifacts:
    def test_oja_demo_writes_manifest_and_summary(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["--out", out, "oja-demo"]) == 0
        manifest = (tmp_path / "run" / "manifest.txt").read_text()
        assert "command = oja-demo" in manifest
        assert "seed = 0" in manifest
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["abs_cos"] >= 0.99

    def test_verify_lemma_summary(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["--out", out, "verify-lemma", "--M", "8", "--steps", "6000"])
        assert code == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["ratio"] <= 1.05
        assert summary["converged"] is True
        # metrics log is line-delimited json
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert all(json.loads(l) for l in lines)

    def test_identical_invocations_byte_identical_summaries(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["--out", out, "--seed", "4", "verify-lemma",
                         "--M", "4", "--steps", "4000"]) == 0
        sa = (tmp_path / "a" / "summary.json").read_bytes()
        sb = (tmp_path / "b" / "summary.json").read_bytes()
        assert sa == sb

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[train]\nbogus = 1\n")
        code = main(["--config", str(p), "--out", str(tmp_path / "r"), "oja-demo"])
        assert code == 2
        record = refusal(capsys, tmp_path / "r")
        assert record["error"] == "ConfigError"
        assert "bogus" in record["message"]

    @pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"[train]\nlr = \xff\n")
        out = tmp_path / "r"
        assert main(["--config", str(path), "--out", str(out), "oja-demo"]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "ConfigError"
        assert str(path) in record["message"]

    @pytest.mark.parametrize("argv, named", [
        (["--seed", "abc", "train"], "abc"), (["bogus"], "bogus"),
        (["train", "--nope"], "--nope"), ([], "command"),
    ], ids=["--seed abc", "bogus", "train --nope", "no command"])
    def test_bad_command_line_exit_code(self, tmp_path, capsys, argv, named):
        out = tmp_path / "r"
        assert main(["--out", str(out), *argv]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "ConfigError"
        assert named in record["message"]

    def test_impossible_allocation_exit_code(self, tmp_path, capsys):
        # block 0's head maps 24 channels to d_proj: 192 TB of float64, past
        # any process's address space, so the allocation fails at once
        out = tmp_path / "r"
        assert main(["--out", str(out), *TINY, "--set", "train.channels=48",
                     "--set", "train.d_proj=1000000000000", "train"]) == 2
        record = refusal(capsys, out)
        assert "MemoryError" in record["error"]

    def test_bad_train_value_exit_code(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "r"), *TINY, "--set", "train.dtype=float16",
                     "train"])
        assert code == 2
        record = refusal(capsys, tmp_path / "r")
        assert record["error"] == "NumericsError"
        assert "float16" in record["message"]

    @pytest.mark.parametrize("setting", [
        "train.d_proj=-3", "train.d_proj=0", "train.channels=8,0", "train.phi_depth=-1",
        "train.epochs=0", "data.n_per_class=0", "data.n_test_per_class=0",
        "data.dataset=bogus", "train.lr=-1", "train.lr=0", "train.lr=inf",
        "train.weight_decay=-5", "train.lam=nan", "probe.epochs=0", "data.noise=-1",
        "data.seed=-1", "train.seed=-1", "--seed=-1", "train.channels=2,2,2,2,2,2",
        "--out=/dev/null", "data.n_per_class=1000000000", "train.epochs=3",
    ])
    def test_invalid_value_exit_code(self, tmp_path, capsys, monkeypatch, setting):
        steps = []
        monkeypatch.setattr(net, "block_backward", lambda *a, **kw: steps.append(a))
        (tmp_path / "old").mkdir()
        out = tmp_path / "old" / "new" / "r"
        if setting == "data.n_per_class=1000000000":  # refused before any image is made
            no_synthetic_images(monkeypatch)
        flags = [setting] if setting.startswith("--") else ["--set", setting]
        if setting == "train.channels=2,2,2,2,2,2":  # six blocks need a multiple of 6 epochs
            flags += ["--set", "train.epochs=6"]
        assert main(["--out", str(out), *TINY, *flags, "train"]) == 2
        record = refusal(capsys, out)
        assert record["error"] in ("ConfigError", "NumericsError")
        assert setting.split("=")[0].split(".")[-1] in record["message"]
        assert steps == []
        # the directories made for --out go, the one that was there stays
        assert os.listdir(tmp_path) == ["old"]
        assert os.listdir(tmp_path / "old") == []

    @pytest.mark.parametrize("flags", [["--B", "8"], ["--B", "1"], ["--steps", "0"]],
                             ids=" ".join)
    def test_verify_lemma_invalid_flag_exit_code(self, tmp_path, capsys, flags):
        out = tmp_path / "r"
        assert main(["--out", str(out), "verify-lemma", "--M", "8", *flags]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "ConfigError"
        assert flags[0] in record["message"]

    @pytest.mark.parametrize("argv", [
        ["linearity", "--epochs", "0"], ["linearity", "--epochs", "-1"],
        ["knn", "--k", "0"], ["knn", "--k", "21"],  # TINY trains on 20 images
    ], ids=" ".join)
    def test_invalid_flag_refused_before_work(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        for name in ("train_greedy", "run_linearity_study"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: calls.append(name))
        out = tmp_path / "r"
        assert main(["--out", str(out), *TINY, *argv]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "ConfigError"
        assert argv[1] in record["message"]
        assert calls == []

    def test_refused_orth_without_phi_exit_code(self, tmp_path, capsys):
        # default widths: block 0's flattened output is 48 * 16 * 16 = 12288 wide
        out = tmp_path / "r"
        code = main(["--out", str(out), "--set", "data.n_per_class=2",
                     "--set", "train.use_phi=false", "train"])
        assert code == 2
        assert refusal(capsys, out)["error"] == "MemoryConstraintError"

    @pytest.mark.parametrize("error", [trainer.TrainingDivergedError, trainer.OptimizerError])
    def test_training_error_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def diverge(config, images, **kwargs):
            raise error("non-finite")
        monkeypatch.setattr(cli, "train_greedy", diverge)
        out = tmp_path / "r"
        assert main(["--out", str(out), *TINY, "train"]) == 2
        assert refusal(capsys, out) == {"error": error.__name__, "message": "non-finite"}

    def test_mutated_blocks_exit_code(self, tmp_path, capsys, monkeypatch):
        trained = []
        train_greedy, train_probe = cli.train_greedy, trainer.train_probe

        def recording_greedy(config, images, **kwargs):
            trained.append(train_greedy(config, images, **kwargs))
            return trained[-1]

        def mutating_probe(*args, **kwargs):
            blocks, _ = trained[0]
            blocks[0][0].kernel += 1.0
            return train_probe(*args, **kwargs)

        monkeypatch.setattr(cli, "train_greedy", recording_greedy)
        monkeypatch.setattr(trainer, "train_probe", mutating_probe)
        out = tmp_path / "r"
        assert main(["--out", str(out), *TINY, "train", "--probe"]) == 2
        assert refusal(capsys, out)["error"] == "FrozenBlocksMutatedError"

    def test_manifest_version_from_package_checkout(self, tmp_path, monkeypatch):
        # the version names the checkout holding the package, not the cwd's
        try:
            described = subprocess.run(["git", "describe", "--always", "--dirty"],
                                       cwd=os.path.dirname(os.path.abspath(cli.__file__)),
                                       capture_output=True, text=True, timeout=10)
        except OSError:
            pytest.skip("git is not installed")
        if described.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert main(["--out", "run", "oja-demo"]) == 0
        manifest = (tmp_path / "run" / "manifest.txt").read_text()
        assert f"version = {described.stdout.strip()}\n" in manifest

    def test_unencodable_summary_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_summary(str(tmp_path), {"blocks": object()})
        assert os.listdir(tmp_path) == []


class TestSeed:
    def test_train_seed_used_without_flag(self, tmp_path):
        manifest, summary = run_train(tmp_path, "cfg", "--set", "train.seed=3")
        _, flagged = run_train(tmp_path, "flag", "--seed", "3")
        _, default = run_train(tmp_path, "default")
        assert "seed = 3\n" in manifest
        assert summary["param_checksum"] == flagged["param_checksum"]
        assert summary["param_checksum"] != default["param_checksum"]

    def test_flag_wins_over_train_seed(self, tmp_path):
        manifest, summary = run_train(tmp_path, "both", "--seed", "5", "--set", "train.seed=3")
        _, flagged = run_train(tmp_path, "flag", "--seed", "5")
        assert "seed = 5\n" in manifest
        assert summary["param_checksum"] == flagged["param_checksum"]


def cifar_layout(root):
    """A CIFAR-10 binary layout of synthetic images, one per class in each file."""
    root.mkdir()
    for seed, name in enumerate(datamod.CIFAR_TRAIN_FILES + datamod.CIFAR_TEST_FILES):
        images = datamod.make_synthetic_images(1, seed=seed)
        (root / name).write_bytes(datamod.serialize_cifar10(images))
    return root


class TestCifar10:
    @pytest.mark.parametrize("via", ["data.dir", "SPHERE_DATA_DIR"])
    def test_reads_the_layout_directory(self, tmp_path, monkeypatch, via):
        layout = str(cifar_layout(tmp_path / "cifar"))
        no_synthetic_images(monkeypatch)
        # data.dir wins over SPHERE_DATA_DIR
        monkeypatch.setenv("SPHERE_DATA_DIR", layout if via != "data.dir" else str(tmp_path))
        flags = ["--set", f"data.dir={layout}"] if via == "data.dir" else []
        _, summary = run_train(tmp_path, "r", "--set", "data.dataset=cifar10", *flags)
        assert summary["n_train"] == 20

    @pytest.mark.parametrize("where", ["neither set", "SPHERE_DATA_DIR=empty directory",
                                       "SPHERE_DATA_DIR=file", "data.dir=file"])
    def test_without_layout_directory_refused(self, tmp_path, capsys, monkeypatch, where):
        batch = cifar_layout(tmp_path / "cifar") / "test_batch.bin"
        (tmp_path / "empty").mkdir()
        no_synthetic_images(monkeypatch)
        monkeypatch.delenv("SPHERE_DATA_DIR", raising=False)
        flags = ["--set", "data.dataset=cifar10"]
        if where.startswith("SPHERE_DATA_DIR"):
            monkeypatch.setenv("SPHERE_DATA_DIR",
                               str(batch if where.endswith("file") else tmp_path / "empty"))
        elif where == "data.dir=file":
            flags += ["--set", f"data.dir={batch}"]
        out = tmp_path / "r"
        assert main(["--out", str(out), *TINY, *flags, "train"]) == 2
        assert refusal(capsys, out)["error"] in ("ConfigError", "FormatError")


SMOKE = {
    "train": (["--probe"], {"param_checksum", "final_total", "n_train", "train_acc",
                            "test_acc"}),
    "knn": (["--k", "1"], {"k", "test_acc"}),
    "ablate": ([], {"rows"}),
    "transfer": ([], {"transfer_acc", "direct_acc", "gap"}),
    "linearity": (["--epochs", "1"], {"cka_curve", "diag20_mean", "offdiag_mean"}),
}


@pytest.mark.parametrize("command", sorted(SMOKE))
def test_command_smoke(tmp_path, command):
    """Exit 0, the command's summary keys, byte-identical float64 reruns."""
    flags, keys = SMOKE[command]
    summaries = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), "--seed", "1", *TINY, command, *flags]) == 0
        summaries.append((out / "summary.json").read_bytes())
    summary = json.loads(summaries[0])
    assert summary["schema"] == 1
    assert summary["command"] == command
    assert set(summary) == {"schema", "command"} | keys
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("argv", [["train", "--probe"], ["knn", "--k", "1"]], ids=" ".join)
def test_training_images_forwarded_once_per_block(tmp_path, forward_counts, argv):
    # TINY makes 20 training and 10 test images; blocks 0..L-2 build block
    # L-1's stage input in training, and the evaluation runs only block L-1
    # over the training images
    assert main(["--out", str(tmp_path / "r"), *TINY, "--set", "train.channels=4,8,8",
                 "--set", "train.epochs=3", *argv]) == 0
    assert forward_counts.per_block("train") == [20, 20, 0]
    assert forward_counts.per_block("eval") == [10, 10, 30]


@pytest.mark.parametrize("command", ["ablate", "transfer"])
def test_probe_epochs_reach_every_probe(tmp_path, monkeypatch, command):
    seen = []
    real_probe = trainer.train_probe

    def recording_probe(*args, epochs, **kwargs):
        seen.append(epochs)
        return real_probe(*args, epochs=epochs, **kwargs)

    monkeypatch.setattr(trainer, "train_probe", recording_probe)
    out = tmp_path / command
    assert main(["--out", str(out), *TINY, "--set", "probe.epochs=3", command]) == 0
    assert seen and all(e == 3 for e in seen)


class TestGradcheckCommand:
    def test_exit_zero_and_small_errors(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["--out", out, "gradcheck"]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["worst"] <= 1e-4
