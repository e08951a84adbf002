"""CLI tests: config parsing, manifest/summary artifacts, error paths, and
the cheap subcommands end to end."""

import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sphere
from sphere import cli, trainer
from sphere import data as datamod
from sphere import network as net
from sphere.cli import ConfigError, load_config, main, parse_config_text, train_config_from
from sphere.linalg import SphereError
from sphere.plasticity import DivergenceError
from sphere.trainer import TrainConfig

# float64 blocks small enough that every training command runs in about a second
TINY = ["--set", "train.dtype=float64", "--set", "train.channels=4,8",
        "--set", "train.epochs=2", "--set", "train.batch_size=8", "--set", "train.d_proj=8",
        "--set", "data.n_per_class=2", "--set", "data.n_test_per_class=1",
        "--set", "probe.epochs=2"]


# tiny data at a learning rate whose first step overflows block 0's weights
OVERFLOW = ["--set", "data.n_per_class=2", "--set", "data.n_test_per_class=1",
            "--set", "train.d_proj=8", "--set", "train.lr=1e300"]


def package_errors():
    """Every exception class defined in a module of the sphere package."""
    modules = [importlib.import_module(f"sphere.{m.name}")
               for m in pkgutil.iter_modules(sphere.__path__)]
    return sorted({cls for mod in modules for _, cls in inspect.getmembers(mod, inspect.isclass)
                   if cls.__module__ == mod.__name__ and issubclass(cls, BaseException)},
                  key=lambda cls: cls.__name__)


# each package error's builtin base, as it was before SphereError became their root
BUILTIN_BASES = {
    "SphereError": Exception, "ConfigError": ValueError, "FormatError": ValueError,
    "NumericsError": ValueError, "DegenerateInputError": ValueError,
    "DivergenceError": ValueError, "OptimizerError": RuntimeError,
    "TrainingDivergedError": RuntimeError, "FrozenBlocksMutatedError": RuntimeError,
    "MemoryConstraintError": RuntimeError,
}


def test_every_package_error_is_a_sphere_error():
    # cli.main ends a run in one JSON line on a SphereError; a class outside
    # the root would end it in a traceback
    errors = package_errors()
    assert {cls.__name__ for cls in errors} == set(BUILTIN_BASES)
    for cls in errors:
        assert issubclass(cls, SphereError), cls
        assert issubclass(cls, BUILTIN_BASES[cls.__name__]), cls


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
    monkeypatch.setattr(datamod, "make_texture_images", generate)


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

    def test_verify_lemma_seed_84_converges(self, tmp_path):
        # a saddle: a scaled Gaussian start leaves W on v17 in place of v16 (ratio 1.0543)
        assert main(["--out", str(tmp_path / "r"), "--seed", "84", "verify-lemma",
                     "--M", "16"]) == 0

    def test_verify_lemma_batch_below_rank_prints_nothing_to_stderr(self, tmp_path, capsys):
        # B = 10 < N = 32: X keeps 10 of the 32 singular values, as documented
        assert main(["--out", str(tmp_path / "r"), "verify-lemma", "--B", "10", "--N", "32",
                     "--M", "8", "--steps", "3000"]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("argv, named", [
        (["--set", "train.d_proj=1000000000000000000", "train"], "d_proj"),
        (["--set", "train.channels=(4,1000000000000000000)", "--set", "train.epochs=2",
          "train"], "channels"),
        (["verify-lemma", "--B", "100000000000000000000", "--steps", "1"], "--B"),
        (["verify-lemma", "--N", "100000000000000000000", "--M", "3", "--steps", "1"], "--N"),
    ], ids=["d_proj", "channels", "verify-lemma --B", "verify-lemma --N"])
    def test_size_numpy_cannot_shape_refused(self, tmp_path, capsys, argv, named):
        # past numpy's largest array, not just past memory: numpy raises a bare
        # ValueError there, so the run must refuse the size itself
        out = tmp_path / "r"
        assert main(["--out", str(out), "--set", "data.n_per_class=1",
                     "--set", "data.n_test_per_class=1", *argv]) == 2
        record = refusal(capsys, out)
        assert record["error"] in ("ConfigError", "NumericsError")
        assert named in record["message"]
        assert not out.exists()

    def test_transfer_source_split_counts_against_memory(self, tmp_path, capsys, monkeypatch):
        # TINY's float64 image arrays: uint8 and float64 copies of its 20
        # train and 10 test images plus channel_stats' float64 copy of the
        # train split; transfer adds all three for its 20 source images
        img = 3 * datamod.SIZE ** 2
        two = img * (30 * 9 + 20 * 8)
        three = two + img * 20 * 17
        have = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": (two + three) // 2}
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: have.get(name) or sysconf(name))
        assert main(["--out", str(tmp_path / "train"), *TINY, "train"]) == 0
        capsys.readouterr()
        no_synthetic_images(monkeypatch)
        out = tmp_path / "transfer"
        assert main(["--out", str(out), *TINY, "transfer"]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "ConfigError"
        assert "physical memory" in record["message"]

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
        if setting == "data.n_per_class=1000000000":  # refused before any image is made
            no_synthetic_images(monkeypatch)
        flags = [setting] if setting.startswith("--") else ["--set", setting]
        if setting == "train.channels=2,2,2,2,2,2":  # six blocks need a multiple of 6 epochs
            flags += ["--set", "train.epochs=6"]
        # a `..` past a new directory must not make that directory either
        for out in (tmp_path / "old" / "new" / "r", tmp_path / "old" / "new" / ".." / "x"):
            assert main(["--out", str(out), *TINY, *flags, "train"]) == 2
            record = refusal(capsys, out)
            assert record["error"] in ("ConfigError", "NumericsError")
            assert setting.split("=")[0].split(".")[-1] in record["message"]
            assert steps == []
            # no directory is made for --out, the one that was there stays
            assert os.listdir(tmp_path) == ["old"]
            assert os.listdir(tmp_path / "old") == []

    @pytest.mark.parametrize("out", ["", "/dev/null", "file/sub"])
    def test_unusable_out_refused_before_work(self, tmp_path, capsys, monkeypatch, out):
        steps = []
        monkeypatch.setattr(net, "block_backward", lambda *a, **kw: steps.append(a))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        assert main(["--out", out, *TINY, "train"]) == 2
        record = refusal(capsys, tmp_path)
        assert record["error"] == "ConfigError"
        assert "--out" in record["message"]
        assert steps == []
        assert os.listdir(tmp_path) == ["file"]

    def test_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch):
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(cli.tempfile, "mkstemp", denied)
        (tmp_path / "old").mkdir()
        out = tmp_path / "old" / "new" / "r"
        assert main(["--out", str(out), "oja-demo"]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "ConfigError"
        assert "Permission denied" in record["message"]
        assert os.listdir(tmp_path / "old") == []

    @pytest.mark.parametrize("flags", [["--B", "8"], ["--B", "1"], ["--steps", "0"],
                                       ["--M", "0", "--B", "1"], ["--M", "40"]],  # N is 32
                             ids=" ".join)
    def test_verify_lemma_invalid_flag_exit_code(self, tmp_path, capsys, monkeypatch, flags):
        # refused before any data is made
        def no_data(spec):
            raise AssertionError("synth_gaussian called")

        monkeypatch.setattr(datamod, "synth_gaussian", no_data)
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

    @pytest.mark.parametrize("error", package_errors())
    def test_training_error_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def diverge(config, images, **kwargs):
            raise error("non-finite")
        monkeypatch.setattr(cli, "train_greedy", diverge)
        out = tmp_path / "r"
        assert main(["--out", str(out), *TINY, "train"]) == 2
        assert refusal(capsys, out) == {"error": error.__name__, "message": "non-finite"}

    def test_oja_divergence_exit_code(self, tmp_path, capsys, monkeypatch):
        def diverge(w, x, eta):
            raise DivergenceError("weights diverged under Oja's rule")
        monkeypatch.setattr(cli, "oja_step", diverge)
        out = tmp_path / "r"
        assert main(["--out", str(out), "oja-demo"]) == 2
        assert refusal(capsys, out)["error"] == "DivergenceError"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--set", "train.channels=4,8", "--set", "train.epochs=2", "train"],
        ["--set", "train.channels=4,8", "--set", "train.epochs=2", "train", "--probe"],
        ["--set", "train.channels=4", "--set", "train.epochs=1", "train"],
        ["--set", "train.channels=4", "--set", "train.epochs=2", "train"],
        ["--set", "train.channels=4", "--set", "train.epochs=2", "train", "--probe"],
    ], ids=["train", "train --probe", "one block train", "one block, two steps train",
            "one block, two steps train --probe"])
    def test_overflowing_stage_input_exit_code(self, tmp_path, capsys, argv):
        # at lr 1e300 block 0's first step leaves weights whose squared norm
        # overflows, and a second step overflows in the aux head's matmul:
        # the run ends there, in one JSON line with no numpy warning, before
        # block 1's input Gram or the probe's optimizer
        out = tmp_path / "r"
        assert main(["--out", str(out), *OVERFLOW, *argv]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "TrainingDivergedError"
        assert "block 0" in record["message"]
        assert not out.exists()

    def test_overflowing_step_prints_one_line(self, tmp_path):
        # a fresh interpreter shows numpy's RuntimeWarnings that the suite's
        # filter would turn into errors: stderr must still be one JSON line
        out = tmp_path / "r"
        repo = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(repo / "src")
        done = subprocess.run(
            [sys.executable, "-m", "sphere.cli", "--out", str(out), *OVERFLOW,
             "--set", "train.channels=4", "--set", "train.epochs=2", "train"],
            cwd=repo, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert json.loads(lines[0])["error"] == "TrainingDivergedError"
        assert not out.exists()

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

    def test_hung_git_leaves_version_unknown(self, tmp_path, monkeypatch):
        def hung(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        monkeypatch.setattr(cli.subprocess, "run", hung)
        assert main(["--out", str(tmp_path / "run"), "oja-demo"]) == 0
        assert "version = unknown\n" in (tmp_path / "run" / "manifest.txt").read_text()

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError):
            cli._write_run(str(tmp_path), {"metrics.jsonl": "\n", "summary.json": "{}\n"})
        assert os.listdir(tmp_path) == []  # neither a target nor a .tmp- file

    def test_failed_write_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # the second artifact's temp file cannot be made: the first one's temp
        # goes, and neither --out nor an artifact is left
        made, mkstemp = [], cli.tempfile.mkstemp

        def full_on_second(*args, **kwargs):
            made.append(1)
            if len(made) == 2:
                raise OSError(28, "No space left on device")
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(cli.tempfile, "mkstemp", full_on_second)
        out = tmp_path / "new" / "run"
        assert main(["--out", str(out), "verify-lemma", "--steps", "200"]) == 2
        record = refusal(capsys, out)
        assert record["error"] == "ConfigError"
        assert "No space left" in record["message"]
        assert len(made) == 2
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
    "verify-lemma": (["--M", "4", "--steps", "4000"], {"B", "N", "M", "achieved_loss",
                                                      "oracle_loss", "ratio", "converged"}),
    "gradcheck": ([], {"ops", "worst", "pass"}),
    "train": (["--probe"], {"param_checksum", "final_total", "n_train", "train_acc",
                            "test_acc"}),
    "knn": (["--k", "1"], {"k", "test_acc"}),
    "ablate": ([], {"rows"}),
    "transfer": ([], {"transfer_acc", "direct_acc", "gap"}),
    "linearity": (["--epochs", "1"], {"cka_curve", "diag20_mean", "offdiag_mean"}),
    "oja-demo": ([], {"steps", "abs_cos"}),
}


def artifacts(command):
    """The files a finished run of `command` writes."""
    logs = {"metrics.jsonl"} if command in ("train", "verify-lemma") else set()
    return {"manifest.txt", "summary.json"} | logs


@pytest.mark.parametrize("command", sorted(SMOKE))
def test_command_smoke(tmp_path, command):
    """Exit 0, the artifacts (metrics.jsonl for the commands that log), the
    command's summary keys, byte-identical float64 reruns."""
    flags, keys = SMOKE[command]
    summaries = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), "--seed", "1", *TINY, command, *flags]) == 0
        assert set(os.listdir(out)) == artifacts(command)
        summaries.append((out / "summary.json").read_bytes())
    summary = json.loads(summaries[0])
    assert summary["schema"] == 1
    assert summary["command"] == command
    assert set(summary) == {"schema", "command"} | keys
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("use_oja", ["false", "true"])
def test_head_less_train_at_default_widths(tmp_path, use_oja):
    # block 0's Z is the flattened pooled output, 48 * 16 * 16 = 12288 wide
    out = tmp_path / "r"
    assert main(["--out", str(out), "--set", "data.n_per_class=2",
                 "--set", "data.n_test_per_class=1", "--set", "train.use_phi=false",
                 "--set", f"train.use_oja={use_oja}", "train", "--probe"]) == 0
    assert set(os.listdir(out)) == {"manifest.txt", "metrics.jsonl", "summary.json"}
    assert math.isfinite(json.loads((out / "summary.json").read_text())["final_total"])


def test_missed_target_writes_every_artifact(tmp_path):
    out = tmp_path / "r"
    assert main(["--out", str(out), "verify-lemma", "--M", "8", "--steps", "10"]) == 1
    assert set(os.listdir(out)) == {"manifest.txt", "metrics.jsonl", "summary.json"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "verify-lemma"
    assert summary["converged"] is False
    assert "command = verify-lemma\n" in (out / "manifest.txt").read_text()


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


# a value away from TINY's for every key but data.dir: NON_DEFAULT's for the
# train keys, and the partner a value needs
AWAY = {**{f"train.{k}": v for k, v in TestConfigParser.NON_DEFAULT.items()},
        "data.dataset": "texture", "data.n_per_class": "3", "data.n_test_per_class": "2",
        "data.noise": "1.0", "data.seed": "101", "probe.epochs": "5"}
PARTNERS = {"train.use_sphere": ["train.use_oja=true"]}  # one matching loss stays on


def train_outputs(out, *flags):
    """(summary, metrics records without wall_ms) of a TINY `train --probe`."""
    assert main(["--out", str(out), *TINY, *flags, "train", "--probe"]) == 0
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    for record in records:
        del record["wall_ms"]
    return json.loads((out / "summary.json").read_text()), records


@pytest.fixture(scope="module")
def tiny_train_outputs(tmp_path_factory):
    return train_outputs(tmp_path_factory.mktemp("tiny") / "r")


def test_away_values_cover_every_key():
    assert set(AWAY) == set(cli.CONFIG_SCHEMA) - {"data.dir"}


@pytest.mark.parametrize("key", sorted(AWAY))
def test_every_key_changes_the_run(tmp_path, tiny_train_outputs, key):
    items = [f"{key}={AWAY[key]}", *PARTNERS.get(key, [])]
    flags = [flag for item in items for flag in ("--set", item)]
    assert train_outputs(tmp_path / "r", *flags) != tiny_train_outputs


# each key's (TINY value or default, a value at its bound, one step past it)
EDGES = {
    "train.channels": ("4,8", "1", "0,8"),
    "train.activation": ("leaky_relu", "binary_step", "swish"),
    "train.lam": ("0.8", "0", "-0.1"),
    "train.lr": ("1e-3", "5e-324", "0"),
    "train.weight_decay": ("0.05", "0", "-0.01"),
    "train.batch_size": ("8", "2", "1"),
    "train.epochs": ("2", "1", "0"),
    "train.seed": ("0", "0", "-1"),
    "train.use_sphere": ("true", "false", "2"),
    "train.use_oja": ("false", "true", "2"),
    "train.use_orth": ("true", "false", "2"),
    "train.use_phi": ("true", "false", "2"),
    "train.phi_depth": ("1", "0", "-1"),
    "train.d_proj": ("8", "1", "0"),
    "train.dtype": ("float64", "float32", "float16"),
    "data.dataset": ("synthetic", "texture", "cifar10"),  # cifar10 with no data.dir
    "data.n_per_class": ("2", "1", "0"),
    "data.n_test_per_class": ("1", "1", "0"),
    "data.noise": ("2.2", "0", "-0.1"),
    "data.seed": ("100", "0", "-1"),
    "probe.epochs": ("2", "1", "0"),
}
# each subcommand's flags, drawn the same way
COMMAND_FLAGS = {
    "verify-lemma": {"--B": ("12", "3", "2"), "--N": ("8", "3", "2"), "--M": ("2", "1", "0"),
                     "--steps": ("200", "1", "0")},
    "gradcheck": {}, "train": {"--probe": (True, False, False)},
    "knn": {"--k": ("1", "10", "0")}, "ablate": {}, "transfer": {},
    "linearity": {"--epochs": ("1", "1", "0")}, "oja-demo": {},
}
PROPERTY_RUNS = 30


def draw_argv(rng):
    """(subcommand, argv): `--set` for every key of EDGES, then a subcommand
    and its flags.  Each value is TINY's (p 0.6), at its bound (0.37) or past
    it (0.03), so about half the runs are valid."""
    def pick(values):
        return values[rng.choice(3, p=[0.6, 0.37, 0.03])]

    argv = [flag for key, values in EDGES.items() for flag in ("--set", f"{key}={pick(values)}")]
    command = rng.choice(sorted(COMMAND_FLAGS))
    argv.append(command)
    for flag, values in COMMAND_FLAGS[command].items():
        value = pick(values)
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, value]
    return command, argv


def test_seeded_cli_runs_end_cleanly(tmp_path, capsys, monkeypatch):
    """Each drawn run exits 0 or 1 with every artifact its command writes and
    an empty stderr, or 2 with one JSON line and no --out directory."""
    monkeypatch.delenv("SPHERE_DATA_DIR", raising=False)
    rng = np.random.default_rng(25)
    runs = [draw_argv(rng) for _ in range(PROPERTY_RUNS)]
    runs.append(("verify-lemma", ["verify-lemma", "--B", "10", "--N", "32", "--M", "8"]))
    codes = []
    for i, (command, argv) in enumerate(runs):
        out = tmp_path / f"r{i}"
        codes.append(main(["--out", str(out), *argv]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1, 2), argv
        if codes[-1] == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}, argv
            assert not out.exists(), argv
        else:
            assert err == "", argv
            assert set(os.listdir(out)) == artifacts(command), argv
    assert codes[-1] == 0
    assert {0, 2} <= set(codes[:-1])  # the draws reach both valid and refused runs
