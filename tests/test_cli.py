import importlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from soke.cli import main

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "synth": {"lexicon_size": 4, "num_sentences": 3, "sentence_words": [1, 2]},
    "deto": {"code_dim": 8, "codebook_sizes": [4, 4, 4], "hidden_channels": 8},
    "deto_train": {"steps": 1},
    "amg": {"d_model": 8, "num_heads": 2, "enc_layers": 1, "dec_layers": 1, "ffn_dim": 16},
    "amg_train": {"epochs": 1},
    "eval_sentences": 1,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(TINY))
    return path


def test_run_then_verify_then_tamper(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(config_path), str(out), "--set", "seed=3"]) == 0
    assert json.loads((out / "run_config.json").read_text())["seed"] == 3
    assert main(["verify", str(out)]) == 0
    with open(out / "report.json", "a") as fh:
        fh.write(" ")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert "report.json" in capsys.readouterr().out
    assert main(["run", str(config_path), str(out), "--set", "seed=3", "--force"]) == 0
    assert main(["verify", str(out)]) == 0
    assert "ran data, deto, dict, amg, eval" in capsys.readouterr().out


def test_verify_names_each_altered_or_missing_artifact(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(config_path), str(out)]) == 0
    (out / "dict.json").unlink()
    with open(out / "amg" / "vocab.json", "a") as fh:
        fh.write(" ")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    named = capsys.readouterr().out.splitlines()
    assert "  amg/vocab.json" in named and "  dict.json" in named
    assert not any("report.json" in line for line in named)


def test_package_error_exits_2(tmp_path, config_path, capsys):
    assert main(["run", str(config_path), str(tmp_path / "run"), "--set", "amg.dropout=0.1"]) == 2
    assert "dropout" in capsys.readouterr().err


def test_unbuildable_layout_exits_2_before_any_stage(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(config_path), str(out), "--set", "synth.layout.body_joints=5"]) == 2
    assert "11 body" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_2_before_any_stage(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(config_path), str(out), "--set", "seed=-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_mode_exits_2_before_any_stage(tmp_path, config_path, capsys):
    # before, the data, deto and dict stages ran and the amg stage raised
    out = tmp_path / "run"
    assert main(["run", str(config_path), str(out), "--set", "mode=fast"]) == 2
    err = capsys.readouterr().err
    assert "'fast'" in err and "multihead" in err
    assert not out.exists()  # so no data/ either


def test_declared_version_is_the_package_version():
    import soke

    assert tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"] \
        == soke.__version__


def test_declared_console_scripts_resolve_and_run():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert "soke" in scripts
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "soke.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


def test_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    assert "manifest.json" in capsys.readouterr().err
