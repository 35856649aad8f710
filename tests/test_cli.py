import json

import pytest

from soke.cli import main

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
    assert main(["verify", str(out)]) == 1
    assert main(["run", str(config_path), str(out), "--set", "seed=3", "--force"]) == 0
    assert main(["verify", str(out)]) == 0
    assert "ran data, deto, dict, amg, eval" in capsys.readouterr().out


def test_package_error_exits_2(tmp_path, config_path, capsys):
    assert main(["run", str(config_path), str(tmp_path / "run"), "--set", "amg.dropout=0.1"]) == 2
    assert "dropout" in capsys.readouterr().err


def test_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    assert "manifest.json" in capsys.readouterr().err
