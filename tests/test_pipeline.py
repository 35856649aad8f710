import json
from dataclasses import replace

import pytest

from soke.amg import MODES, AmgConfig, AmgTrainConfig
from soke.config import RunConfig
from soke.deto import DetoConfig, DetoTrainConfig
from soke.errors import InputError
from soke.motion import SynthConfig
from soke.pipeline import STAGES, StageError, changed_artifacts, run_pipeline


TINY = RunConfig(
    synth=SynthConfig(lexicon_size=4, num_sentences=3, sentence_words=(1, 2)),
    deto=DetoConfig(code_dim=8, codebook_sizes=(4, 4, 4), hidden_channels=8),
    deto_train=DetoTrainConfig(steps=1),
    amg=AmgConfig(d_model=8, num_heads=2, enc_layers=1, dec_layers=1, ffn_dim=16),
    amg_train=AmgTrainConfig(epochs=1),
    eval_sentences=1,
)


def test_amg_stage_failure_is_tagged(tmp_path):
    # three-word sentences tokenize to more triples than k_max = 1 leaves
    # decoder positions for
    config = RunConfig(
        synth=SynthConfig(lexicon_size=4, num_sentences=3, sentence_words=(3, 3)),
        deto=DetoConfig(code_dim=8, codebook_sizes=(4, 4, 4), hidden_channels=8),
        deto_train=DetoTrainConfig(steps=1),
        amg=AmgConfig(d_model=8, num_heads=2, enc_layers=1, dec_layers=1, ffn_dim=16, k_max=1),
        amg_train=AmgTrainConfig(epochs=1),
        eval_sentences=1,
    )
    with pytest.raises(StageError) as info:
        run_pipeline(config, tmp_path)
    assert info.value.stage == "amg"
    assert isinstance(info.value.cause, InputError)


def test_corrupt_upstream_sidecar_is_tagged_with_the_reading_stage(tmp_path):
    run_pipeline(TINY, tmp_path)
    sidecar = tmp_path / "deto" / "deto.json"
    text = sidecar.read_text()
    sidecar.write_text(text[: len(text) // 2])
    (tmp_path / "dict.json").unlink()
    with pytest.raises(StageError) as info:
        run_pipeline(TINY, tmp_path)
    assert info.value.stage == "dict"
    assert isinstance(info.value.cause, InputError)
    assert "deto.json" in str(info.value)


def test_training_logs_and_dictionary_warnings_are_manifest_artifacts(tmp_path):
    manifest = run_pipeline(TINY, tmp_path)
    for rel in ("deto/train_log.jsonl", "amg/train_log.jsonl", "dict_warnings.jsonl"):
        assert rel in manifest["artifacts"], rel
    (tmp_path / "amg" / "train_log.jsonl").unlink()
    assert changed_artifacts(tmp_path) == ["amg/train_log.jsonl"]
    rerun = run_pipeline(TINY, tmp_path)
    assert rerun["stages_run"] == ["amg"]
    assert not changed_artifacts(tmp_path)


@pytest.mark.parametrize("mode", MODES)
def test_generator_without_encoder_layers_trains_in_every_mode(tmp_path, mode):
    # the fewest layers AmgConfig accepts; Adam would raise on a parameter
    # that the loss never reaches
    config = replace(TINY, mode=mode, amg=replace(TINY.amg, enc_layers=0))
    manifest = run_pipeline(config, tmp_path)
    assert manifest["stages_run"] == [name for name, _, _ in STAGES]
    sidecar = json.loads((tmp_path / "amg" / "amg.json").read_text())
    assert (sidecar["mode"], sidecar["config"]["enc_layers"]) == (mode, 0)


def test_directory_made_with_another_config_reruns_every_stage(tmp_path):
    run_pipeline(TINY, tmp_path)
    assert run_pipeline(TINY, tmp_path)["stages_run"] == []
    manifest = run_pipeline(replace(TINY, mode="sequential"), tmp_path)
    assert manifest["stages_run"] == [name for name, _, _ in STAGES]
    sidecar = json.loads((tmp_path / "amg" / "amg.json").read_text())
    assert sidecar["mode"] == "sequential"
    (tmp_path / "run_config.json").unlink()
    assert run_pipeline(TINY, tmp_path)["stages_run"] == [name for name, _, _ in STAGES]


@pytest.mark.parametrize("content", ["{\"seed\": ", "{\"no_such_key\": 1}"])
def test_unreadable_run_config_is_named_unless_forced(tmp_path, content):
    run_pipeline(TINY, tmp_path)
    (tmp_path / "run_config.json").write_text(content)
    with pytest.raises(InputError, match="run_config.json"):
        run_pipeline(TINY, tmp_path)
    assert run_pipeline(TINY, tmp_path, force=True)["stages_run"] == [name for name, _, _ in STAGES]
    assert run_pipeline(TINY, tmp_path)["stages_run"] == []
