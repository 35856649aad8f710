"""The traced benchmark run wraps soke entry points by name; a renamed or
removed one would surface only there, so installing the tracer is tested here."""

import importlib
from pathlib import Path

from soke.amg import AmgConfig, AmgTrainConfig, GeneratorModel, PartTokenTriple, TrainPair, Vocabulary
from soke.motion import PARTS

BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "benchmark"


def test_tracer_installs_counts_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    tracer_module = importlib.import_module("tracer")
    import soke.amg.training as amg_training
    import soke.pipeline as pipeline

    originals = (amg_training.generator_loss, pipeline.generate_triples,
                 GeneratorModel.decode_hidden)
    vocab = Vocabulary(["alpha"], (4, 4, 4))
    config = AmgConfig(d_model=8, num_heads=2, enc_layers=1, dec_layers=1, ffn_dim=8, k_max=2,
                       enc_max_len=8)
    model = GeneratorModel(vocab, config, "multihead", seed=0)
    triple = PartTokenTriple(*(vocab.motion_id(part, 1) for part in PARTS))
    prompt = (vocab.lang_id("ASL"), vocab.encode_text("alpha")[0])
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert amg_training.generator_loss is not originals[0]
        amg_training.train_generator([TrainPair(prompt, (triple,), "ASL")], model,
                                     AmgTrainConfig(epochs=1))
        result = pipeline.generate_triples(model, list(prompt), "ASL")
    assert (amg_training.generator_loss, pipeline.generate_triples,
            GeneratorModel.decode_hidden) == originals
    assert tracer.calls["amg.generator_loss"] == 1
    assert tracer.calls["grad.cross_entropy"] == len(PARTS)
    assert tracer.calls["amg.generate_triples.multihead"] == 1
    assert tracer.counts["amg.forward_passes.multihead"] == result.forward_passes
    # one teacher-forced pass, then one pass per decoding step
    assert tracer.calls["amg.decode_hidden"] == 1 + result.forward_passes
