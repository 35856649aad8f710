"""End-to-end pipeline: synth -> train-deto -> build-dict -> train-amg ->
generate -> eval, with every stage resumable from its on-disk artifact.

A run directory looks like:
    run_config.json        the RunConfig
    data/train.jsonl, data/test.jsonl, data/dict_instances.jsonl
                           motions, one JSON object per line
    deto/deto.ckpt         trained tokenizer parameters
    deto/deto.json         {"layout": PartLayout, "config": DetoConfig}
    deto/train_log.jsonl   per-epoch losses and reseeded codes of each part
    dict.json              sign dictionary
    dict_warnings.jsonl    skipped dictionary instances (empty if none)
    amg/amg.ckpt           trained generator parameters (single mode per run)
    amg/amg.json           {"config": AmgConfig, "mode": str}
    amg/vocab.json         integrated vocabulary
    amg/train_log.jsonl    loss curve and prompt-truncation warnings
    report.json            EvalReport
    manifest.json          config hash + the hash of every file above except
                           run_config.json, written last

A stage counts as complete when every file it writes exists and
run_config.json already held the same config; a directory made with another
config, or with none, reruns every stage.

Every file is written atomically (to `<name>.tmp`, then renamed), so a
crash never leaves a partial file under its final name; a malformed file
read by a later stage raises InputError naming it, wrapped in StageError.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .amg import (
    GeneratorModel,
    TrainPair,
    Vocabulary,
    generate_triples,
    load_generator,
    save_generator,
    tokens_from_triples,
    train_generator,
    triples_from_tokens,
)
from .artifacts import read_json, write_json, write_jsonl
from .config import RunConfig, run_config_from_dict, run_config_to_dict, save_run_config
from .deto import load_deto, save_deto, train_tokenizer
from .errors import SokeError
from .metrics import EvalReport, evaluate_split, save_report
from .motion import (
    MotionSequence,
    build_sign_chain,
    load_motions,
    save_motions,
    sign_instances,
    synthesize_dataset,
)
from .retrieval import SignDictionary, build_dictionary, build_prompt, load_dictionary, save_dictionary


class StageError(SokeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def config_hash(config: RunConfig) -> str:
    blob = json.dumps(run_config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- stages -------------------------------------------------------------------


def stage_data(config: RunConfig, out_dir: Path) -> None:
    data_dir = out_dir / "data"
    train = synthesize_dataset(config.synth, seed=config.seed)
    test_cfg = replace(config.synth, num_sentences=config.eval_sentences)
    test = synthesize_dataset(test_cfg, seed=config.seed + config.eval_seed_offset)
    instances = sign_instances(
        config.synth, seed=config.seed,
        instances_per_word=config.dict_instances_per_word,
        instance_noise_std=config.dict_instance_noise,
    )
    save_motions(data_dir / "train.jsonl", train)
    save_motions(data_dir / "test.jsonl", test)
    save_motions(data_dir / "dict_instances.jsonl", instances)


def stage_deto(config: RunConfig, out_dir: Path) -> None:
    corpus = [seq for _, seq in load_motions(out_dir / "data" / "train.jsonl",
                                             layout=config.synth.layout)]
    deto, log = train_tokenizer(corpus, config=config.deto, train_config=config.deto_train,
                                seed=config.seed, layout=config.synth.layout)
    save_deto(out_dir / "deto", deto, log)


def stage_dict(config: RunConfig, out_dir: Path) -> None:
    deto = load_deto(out_dir / "deto")
    instances = load_motions(out_dir / "data" / "dict_instances.jsonl",
                             layout=config.synth.layout)
    chain = build_sign_chain(config.synth.layout)
    dictionary, warnings = build_dictionary(instances, deto, chain)
    save_dictionary(out_dir / "dict.json", dictionary)
    write_jsonl(out_dir / "dict_warnings.jsonl", warnings)


def build_train_pairs(
    dataset: list[tuple[str, MotionSequence]],
    deto,
    vocab: Vocabulary,
    dictionary: SignDictionary | None,
) -> list[TrainPair]:
    pairs = []
    for text, seq in dataset:
        prompt = build_prompt(text, seq.language_tag, dictionary, vocab)
        triples = triples_from_tokens(deto.encode_sequence(seq), vocab)
        pairs.append(TrainPair(tuple(prompt), triples, seq.language_tag))
    return pairs


def stage_amg(config: RunConfig, out_dir: Path) -> None:
    deto = load_deto(out_dir / "deto")
    train = load_motions(out_dir / "data" / "train.jsonl", layout=config.synth.layout)
    dictionary = load_dictionary(out_dir / "dict.json") if config.retrieval else None
    vocab = Vocabulary.from_corpus([t for t, _ in train], config.deto.codebook_sizes)
    model = GeneratorModel(vocab, config.amg, config.mode, seed=config.seed)
    pairs = build_train_pairs(train, deto, vocab, dictionary)
    _, log = train_generator(pairs, model, config.amg_train)
    save_generator(out_dir / "amg", model, log)


def make_generate_fn(model: GeneratorModel, deto, dictionary: SignDictionary | None,
                     fps: float = 25.0):
    """text -> decoded motion plus step count, via prompt construction and
    the tokenizer's part decoders."""

    def generate(text: str, lang: str):
        prompt = build_prompt(text, lang, dictionary, model.vocab)
        prompt = prompt[: model.config.enc_max_len]
        result = generate_triples(model, prompt, lang)
        if not result.triples:  # empty decode: hold a single rest frame
            frames = np.zeros((1, deto.layout.total_dims), dtype=np.float32)
            return MotionSequence(frames, fps=fps, layout=deto.layout,
                                  language_tag=lang), result.step_count
        tokens = tokens_from_triples(result.triples, model.vocab)
        motion = deto.decode_tokens(tokens, fps=fps, language_tag=lang)
        return motion, result.step_count

    return generate


def stage_eval(config: RunConfig, out_dir: Path) -> EvalReport:
    deto = load_deto(out_dir / "deto")
    model = load_generator(out_dir / "amg")
    dictionary = load_dictionary(out_dir / "dict.json") if config.retrieval else None
    test = load_motions(out_dir / "data" / "test.jsonl", layout=config.synth.layout)
    chain = build_sign_chain(config.synth.layout)
    generate = make_generate_fn(model, deto, dictionary, fps=config.synth.fps)
    report = evaluate_split(generate, test, chain, split="test")
    save_report(out_dir / "report.json", report)
    return report


STAGES = (
    ("data", stage_data, ("data/train.jsonl", "data/test.jsonl", "data/dict_instances.jsonl")),
    ("deto", stage_deto, ("deto/deto.ckpt", "deto/deto.json", "deto/train_log.jsonl")),
    ("dict", stage_dict, ("dict.json", "dict_warnings.jsonl")),
    ("amg", stage_amg, ("amg/amg.ckpt", "amg/amg.json", "amg/vocab.json",
                        "amg/train_log.jsonl")),
    ("eval", stage_eval, ("report.json",)),
)


def run_pipeline(config: RunConfig, out_dir: str | Path, force: bool = False) -> dict:
    """Run all stages, skipping any whose artifacts already exist, unless
    `force` is set or the directory's run_config.json holds another config.

    Returns the manifest. Stage failures raise StageError tagged with the
    stage name; an unreadable run_config.json raises InputError naming it,
    unless `force` is set.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "run_config.json"
    rerun = (force or not config_path.exists()
             or read_json(config_path, run_config_from_dict) != config)
    save_run_config(config_path, config)
    started = time.time()
    ran: list[str] = []
    for name, fn, artifacts in STAGES:
        complete = all((out_dir / rel).exists() for rel in artifacts)
        if complete and not rerun:
            continue
        try:
            fn(config, out_dir)
        except SokeError as exc:
            raise StageError(name, exc) from exc
        ran.append(name)
    manifest = write_manifest(config, out_dir, started, ran)
    return manifest


def write_manifest(config: RunConfig, out_dir: Path, started: float, ran: list[str]) -> dict:
    artifacts = {}
    for _, _, rels in STAGES:
        for rel in rels:
            path = out_dir / rel
            if path.exists():
                artifacts[rel] = file_hash(path)
    manifest = {
        "version": __version__,
        "config_hash": config_hash(config),
        "artifacts": artifacts,
        "stages_run": ran,
        "started": started,
        "finished": time.time(),
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def changed_artifacts(out_dir: str | Path) -> list[str]:
    """The manifest's artifact paths, in manifest order, whose file is
    missing or hashes differently from the manifest."""
    out_dir = Path(out_dir)
    artifacts = read_json(out_dir / "manifest.json", lambda manifest: dict(manifest["artifacts"]))
    return [rel for rel, digest in artifacts.items()
            if not (out_dir / rel).exists() or file_hash(out_dir / rel) != digest]
