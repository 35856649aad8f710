import json
from pathlib import Path

import pytest

from soke.amg import AmgConfig, AmgTrainConfig
from soke.config import RunConfig, load_run_config, run_config_from_dict, run_config_to_dict
from soke.deto import DetoConfig
from soke.errors import ConfigError, LayoutError
from soke.motion import PartLayout, SynthConfig


class TestStrictTypes:
    @pytest.mark.parametrize("data", [
        {"retrieval": "no"},
        {"amg_train": {"lr": "fast"}},
        {"synth": {"fps": True}},
        {"seed": 1.5},
        {"mode": 3},
        {"deto": {"codebook_sizes": [96, "192", 192]}},
        {"deto": {"codebook_sizes": [96, 192]}},
        {"synth": 5},
        {"amg": {"dropout": 0.1}},
    ])
    def test_wrong_value_rejected(self, data):
        with pytest.raises(ConfigError):
            run_config_from_dict(data)

    def test_integer_accepted_for_float(self):
        config = run_config_from_dict({"synth": {"fps": 30}})
        assert config.synth.fps == 30.0 and isinstance(config.synth.fps, float)

    def test_override_string_rejected_for_bool(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 3}))
        assert load_run_config(path, ["retrieval=false"]).retrieval is False
        with pytest.raises(ConfigError):
            load_run_config(path, ["retrieval=no"])


def test_layout_the_sign_chain_cannot_build_is_rejected():
    with pytest.raises(LayoutError):
        RunConfig(synth=SynthConfig(layout=PartLayout(body_joints=5)))


class TestRoundTrip:
    @pytest.mark.parametrize("config", [
        RunConfig(),
        RunConfig(
            seed=7, mode="parallel", retrieval=False,
            synth=SynthConfig(num_sentences=9, motif_frames=(6, 9), noise_std=0.01,
                              layout=PartLayout(expression_dims=4)),
            deto=DetoConfig(code_dim=16, codebook_sizes=(8, 12, 12)),
            amg=AmgConfig(d_model=16, num_heads=2, k_max=5),
            dict_instance_noise=0.5,
        ),
    ])
    def test_to_dict_then_from_dict_is_identity(self, config):
        data = run_config_to_dict(config)
        assert run_config_from_dict(json.loads(json.dumps(data))) == config


@pytest.mark.parametrize("rates", [dict(lr=float("nan")), dict(lr=-1.0), dict(lr=0.0),
                                   dict(min_lr=float("inf")), dict(min_lr=-1e-4),
                                   dict(lr=1e-3, min_lr=2e-3)])
def test_amg_bad_learning_rates_rejected(rates):
    with pytest.raises(ConfigError, match="lr"):
        AmgTrainConfig(**rates)


@pytest.mark.parametrize("name", ["train.json", "text2sign.json"])
def test_benchmark_configs_load(name):
    path = Path(__file__).resolve().parent.parent / "benchmark" / "configs" / name
    assert isinstance(load_run_config(path), RunConfig)


@pytest.mark.parametrize("log_every", [0, -1])
def test_amg_log_interval_below_one_rejected(log_every):
    with pytest.raises(ConfigError, match="log_every"):
        AmgTrainConfig(log_every=log_every)


@pytest.mark.parametrize("sizes", [dict(num_heads=0), dict(num_heads=-4), dict(d_model=0),
                                   dict(d_model=-8, num_heads=2), dict(ffn_dim=0),
                                   dict(ffn_dim=-1), dict(enc_layers=-1), dict(dec_layers=-2)])
def test_amg_sizes_below_their_minimum_rejected(sizes):
    with pytest.raises(ConfigError):
        AmgConfig(**sizes)


def test_amg_without_encoder_or_decoder_layers_accepted():
    assert AmgConfig(enc_layers=0, dec_layers=0).enc_layers == 0
