"""The benchmark's three workloads.

Each workload builds every input from the seed in `setup`, then `run` drives
soke's public entry points. With `seconds` set, `run` cycles over its inputs
until that much time has passed (at least one full pass); with
`seconds=None` it makes exactly one pass, which is what the traced run
measures, so that its counts depend only on the seed.

- train: corpus -> train_tokenizer -> build_dictionary -> build_train_pairs +
  train_generator -> save/load, then held-out round trips. Only training
  code: no decode loop, no DTW, no pose fit.
- text2sign: generators for all three decoding modes are trained in setup;
  the timed phase generates the test sentences with make_generate_fn in every
  mode, then runs evaluate_split on replayed multihead outputs, so DTW is
  timed alone. Forward-only graphs, no backward pass.
- posefit: fit_sequence on noisy 2D observations from a perturbed start:
  many tiny float64 graphs, so the cost is per-op dispatch, not BLAS.

Quality numbers come from the first pass only, so they are identical for
every run with the same seed, traced or not.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from spec import MODES
from soke.amg import (
    GeneratorModel,
    Vocabulary,
    generate_triples,
    load_generator,
    save_generator,
    train_generator,
)
from soke.config import load_run_config
from soke.deto import PARTS, load_deto, save_deto, train_tokenizer
from soke.metrics import evaluate_split, reconstruction_pa_mpjpe
from soke.motion import MotionSequence, build_sign_chain, sign_instances, synthesize_dataset
from soke.pipeline import build_train_pairs, make_generate_fn
from soke.posefit import CameraWeakPerspective, FitConfig, fit_sequence, observe_sequence
from soke.retrieval import build_dictionary, build_prompt

CONFIGS = Path(__file__).with_name("configs")

# Smoke-test size: same code paths, a few seconds per workload.
TINY_OVERRIDES = ["synth.num_sentences=4", "deto_train.steps=8", "amg_train.epochs=60",
                  "eval_sentences=4"]


@dataclass(frozen=True)
class Sizes:
    eval_subset: int  # text2sign sentences scored by evaluate_split
    pose_sequences: int
    pose_frames: int
    pose_iters: int


SIZES = {
    "full": Sizes(eval_subset=24, pose_sequences=40, pose_frames=4, pose_iters=10),
    "tiny": Sizes(eval_subset=2, pose_sequences=2, pose_frames=3, pose_iters=3),
}
POSE_NOISE_MM = 1.0  # std of the 2D observation noise
POSE_INIT_RAD = 0.02  # std of the perturbation of the initial body rotations


def load_config(workload: str, size: str):
    """The RunConfig pinned for a workload (configs/<workload>.json)."""
    return load_run_config(CONFIGS / f"{workload}.json",
                           TINY_OVERRIDES if size == "tiny" else None)


# The reference kernel: fixed work of the same kind as the workloads' (small
# matmuls and elementwise ops dispatched one at a time from Python), built
# from numpy alone, so no change to soke can change its cost.
REF_A = np.linspace(-1.0, 1.0, 1024).reshape(32, 32)
REF_MS = 1.75  # about the kernel's mean time on the 2-vCPU VM the benchmark was built on


def reference_kernel() -> float:
    x, total = REF_A, 0.0
    for i in range(120):
        x = np.tanh((x @ REF_A) * 0.05) + REF_A
        total += float(x[i % 32].sum())
    return total


class Gauge:
    """The machine's speed over a timed phase, from the reference kernel.

    On a shared VM other tenants slow every instruction stream by up to 2x,
    in spells of 0.1 s to minutes, so the wall time of a phase tells as much
    about them as about soke. `cycle` times the kernel after every step; a
    timing multiplied by `factor()` is the time the step would take at the
    speed at which the kernel runs in REF_MS.
    """

    def __init__(self):
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.seconds.append(time.perf_counter() - start)

    def factor(self) -> float:
        return REF_MS / (float(np.mean(self.seconds)) * 1e3)

    def describe(self, name: str = "speed_factor") -> tuple[str, float, str]:
        return (name, self.factor(),
                f"REF_MS / mean reference-kernel ms, {np.mean(self.seconds) * 1e3:.3f} ms "
                f"(n={len(self.seconds)}); wall time = reported time / factor")


class Timings:
    """Seconds per repetition of each input, at the gauge's reference speed.

    An input's time is the mean of its repetitions, which are spread over the
    whole timed phase; `ms` takes percentiles over inputs, `rate` their sum.
    """

    def __init__(self, gauge: Gauge):
        self._seconds: dict = defaultdict(list)
        self.gauge = gauge

    def add(self, item, start: float) -> None:
        """Record one repetition of `item` that began at `start` (perf_counter)."""
        self._seconds[item].append(time.perf_counter() - start)

    @contextlib.contextmanager
    def time(self, item):
        """Time the block as one repetition of `item` (not recorded if it raises)."""
        start = time.perf_counter()
        yield
        self.add(item, start)

    def per_input(self) -> dict:
        factor = self.gauge.factor()
        return {item: float(np.mean(reps)) * factor for item, reps in self._seconds.items()}

    def ms(self, q: float = 50) -> float:
        """Percentile q over inputs of each input's time, in ms."""
        return float(np.percentile(list(self.per_input().values()), q)) * 1e3

    def tail(self) -> tuple[int, float]:
        """(q, ms): the highest whole percentile with at least ten inputs above it."""
        q = max(50, int(100 * (1 - 10 / len(self._seconds))))
        return q, self.ms(q)

    def rate(self, units_per_item: float = 1.0) -> float:
        """Units per second over one repetition of every input."""
        times = list(self.per_input().values())
        return units_per_item * len(times) / sum(times)

    def describe(self) -> str:
        reps = [len(r) for r in self._seconds.values()]
        return f"n={len(reps)}, {min(reps)}-{max(reps)} reps each"


@dataclass
class Report:
    metrics: dict[str, float]  # op_ms, items_per_s, quality_mm
    named: list[tuple[str, float, str]]  # the same and more, under descriptive names
    layer: dict[str, float] = field(default_factory=dict)  # layer counts known without tracing
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def guarded(self, fn, *args, **kwargs):
        """fn(*args), or None after counting a failed operation if it raises."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on and reports the failure
            traceback.print_exc(file=sys.stderr)
            self.record([f"{type(exc).__name__}: {exc}"])
            return None


def cycle(gauge: Gauge, seconds: float | None, *passes) -> None:
    """Make rounds over passes, each a (step, count), until `seconds` have
    passed; always one full round. Across rounds a pass calls step(0),
    step(1), ... so `i < count` marks the first round. After every step the
    gauge times the reference kernel once.

    Within a round the passes are interleaved evenly (ties go to the earlier
    pass), which spreads every input's repetitions over the whole window.
    """
    order = sorted((i / count, j) for j, (_, count) in enumerate(passes) for i in range(count))
    deadline = time.perf_counter() + (seconds or 0.0)
    done = [0] * len(passes)
    first_round = True
    while first_round or (seconds is not None and time.perf_counter() < deadline):
        for _, j in order:
            if not first_round and time.perf_counter() >= deadline:
                return
            passes[j][0](done[j])
            done[j] += 1
            gauge.sample()
        first_round = False


# -- train ----------------------------------------------------------------------


@dataclass
class TrainInputs:
    corpus: list
    instances: list
    held_out: list
    chain: object


class Train:
    setup_reps = 11

    def __init__(self, size: str, workdir: Path):
        self.config = load_config("train", size)
        self.workdir = workdir

    def setup(self, seed: int) -> TrainInputs:
        cfg = self.config
        return TrainInputs(
            corpus=synthesize_dataset(cfg.synth, seed=seed),
            instances=sign_instances(cfg.synth, seed=seed,
                                     instances_per_word=cfg.dict_instances_per_word,
                                     instance_noise_std=cfg.dict_instance_noise),
            held_out=synthesize_dataset(replace(cfg.synth, num_sentences=cfg.eval_sentences),
                                        seed=seed + cfg.eval_seed_offset),
            chain=build_sign_chain(cfg.synth.layout),
        )

    def _train_once(self, inputs: TrainInputs, out_dir: Path, tracer, stages: Timings):
        cfg = self.config
        with tracer.span("stage.deto", cpu=True), stages.time("deto"):
            deto, deto_log = train_tokenizer([seq for _, seq in inputs.corpus], config=cfg.deto,
                                             train_config=cfg.deto_train, seed=cfg.seed,
                                             layout=cfg.synth.layout)
        with tracer.span("retrieval.build_dictionary"), stages.time("dict"):
            dictionary, _ = build_dictionary(inputs.instances, deto, inputs.chain)
        with tracer.span("stage.amg", cpu=True), stages.time("amg"):
            vocab = Vocabulary.from_corpus([text for text, _ in inputs.corpus],
                                           cfg.deto.codebook_sizes)
            model = GeneratorModel(vocab, cfg.amg, cfg.mode, seed=cfg.seed)
            pairs = build_train_pairs(inputs.corpus, deto, vocab,
                                      dictionary if cfg.retrieval else None)
            _, amg_log = train_generator(pairs, model, cfg.amg_train)
        with tracer.span("stage.io"), stages.time("io"):
            save_deto(out_dir / "deto", deto, deto_log)
            save_generator(out_dir / "amg", model, amg_log)
            loaded = load_deto(out_dir / "deto"), load_generator(out_dir / "amg")
        return deto, model, loaded, deto_log, amg_log

    def run(self, inputs: TrainInputs, seconds: float | None, tracer) -> Report:
        report = Report(metrics={}, named=[])
        gauge = Gauge()
        stages = Timings(gauge)  # a training run's time is the sum of its stages' times
        state: dict = {}

        def train_step(i: int) -> None:
            tracer.item = i
            out_dir = self.workdir / f"run{i}"
            with tracer.span("bench.train"):
                out = report.guarded(self._train_once, inputs, out_dir, tracer, stages)
            shutil.rmtree(out_dir, ignore_errors=True)
            if out is None:
                return
            deto, model, (deto2, model2), deto_log, amg_log = out
            report.record(checks.losses_finite(deto_log, amg_log)
                          + checks.reloaded_identical(deto, deto2)
                          + checks.reloaded_identical(model, model2))
            state["deto"], state["deto_log"] = deto2, deto_log

        held_out = inputs.held_out
        trip_t = Timings(gauge)
        errors: list[float] = []
        used = {part: set() for part in PARTS}

        def round_trip(seq: MotionSequence):
            deto = state["deto"]  # the latest reloaded tokenizer; every run trains the same
            tokens = deto.encode_sequence(seq)
            recon = deto.decode_tokens(tokens, num_frames=seq.num_frames, fps=seq.fps,
                                       language_tag=seq.language_tag)
            return tokens, recon, reconstruction_pa_mpjpe(recon, seq, inputs.chain)

        def trip_step(i: int) -> None:
            k = i % len(held_out)
            tracer.item = k
            seq = held_out[k][1]
            start = time.perf_counter()
            with tracer.span("bench.round_trip"):
                out = report.guarded(round_trip, seq)
            if out is None:
                return
            trip_t.add(k, start)
            tokens, recon, error = out
            report.record(checks.round_trip(seq, recon, error))
            if i < len(held_out):
                errors.append(error)
                for part in PARTS:
                    used[part].update(tokens[part].ids)

        cycle(gauge, seconds, (train_step, 1), (trip_step, len(held_out)))
        if "deto" not in state:
            raise RuntimeError("no training run succeeded")

        report.metrics = {
            "op_ms": sum(stages.per_input().values()) * 1e3,
            "items_per_s": trip_t.rate(),
            "quality_mm": float(np.mean(errors)),
        }
        report.named = [
            ("train_s", report.metrics["op_ms"] / 1e3, f"s ({stages.describe()} stage)"),
            *((f"train_s.{stage}", seconds, "s") for stage, seconds in stages.per_input().items()),
            ("recon_pa_mpjpe_mm", report.metrics["quality_mm"], f"mm (n={len(errors)})"),
            ("held_out_round_trips_per_s", report.metrics["items_per_s"],
             f"1/s ({trip_t.describe()})"),
            gauge.describe(),
        ]
        for part, key in zip(PARTS, ("body", "lhand", "rhand")):
            report.layer[f"deto.codebook_use.{key}"] = (len(used[part])
                                                        / self.config.deto.size_for(part))
        report.layer["deto.reseeded_codes"] = sum(e["reseeded_codes"] for e in state["deto_log"])
        return report


# -- text2sign --------------------------------------------------------------------


@dataclass
class Text2SignInputs:
    test: list
    chain: object
    dictionary: object
    models: dict  # mode -> GeneratorModel
    generate: dict  # mode -> make_generate_fn(...) callable
    timed_steps: dict = field(default_factory=dict)  # (sentence, mode) -> step count


class Text2Sign:
    setup_reps = 3

    def __init__(self, size: str, workdir: Path):
        self.config = load_config("text2sign", size)
        self.sizes = SIZES[size]

    def setup(self, seed: int) -> Text2SignInputs:
        cfg = self.config
        corpus = synthesize_dataset(cfg.synth, seed=seed)
        instances = sign_instances(cfg.synth, seed=seed,
                                   instances_per_word=cfg.dict_instances_per_word,
                                   instance_noise_std=cfg.dict_instance_noise)
        test = synthesize_dataset(replace(cfg.synth, num_sentences=cfg.eval_sentences),
                                  seed=seed + cfg.eval_seed_offset)
        chain = build_sign_chain(cfg.synth.layout)
        deto, _ = train_tokenizer([seq for _, seq in corpus], config=cfg.deto,
                                  train_config=cfg.deto_train, seed=cfg.seed,
                                  layout=cfg.synth.layout)
        dictionary, _ = build_dictionary(instances, deto, chain)
        vocab = Vocabulary.from_corpus([text for text, _ in corpus], cfg.deto.codebook_sizes)
        pairs = build_train_pairs(corpus, deto, vocab, dictionary)
        models, generate = {}, {}
        for mode in MODES:
            model = GeneratorModel(vocab, cfg.amg, mode, seed=cfg.seed)
            train_generator(pairs, model, cfg.amg_train)
            models[mode] = model
            generate[mode] = make_generate_fn(model, deto, dictionary, fps=cfg.synth.fps)
        return Text2SignInputs(test, chain, dictionary, models, generate)

    def run(self, inputs: Text2SignInputs, seconds: float | None, tracer) -> Report:
        report = Report(metrics={}, named=[])
        test = inputs.test
        inputs.timed_steps.clear()
        gauge = Gauge()
        mode_t = {mode: Timings(gauge) for mode in MODES}
        multihead: dict[str, tuple] = {}

        def generate_step(i: int) -> None:
            k = i % len(test)
            tracer.item = k
            text, ref = test[k]
            for mode in MODES:
                start = time.perf_counter()
                with tracer.span("bench.generate"):
                    out = report.guarded(inputs.generate[mode], text, ref.language_tag)
                if out is None:
                    continue
                mode_t[mode].add(k, start)
                report.record(checks.motion_finite(out[0]))
                if i < len(test):
                    inputs.timed_steps[(k, mode)] = out[1]
                    if mode == "multihead":
                        multihead[text] = out

        subset = test[: self.sizes.eval_subset]
        eval_t = Timings(gauge)
        samples: dict[int, object] = {}

        def replay(text: str, lang: str):
            return multihead[text]

        def eval_step(i: int) -> None:
            k = i % len(subset)
            tracer.item = k
            start = time.perf_counter()
            with tracer.span("bench.evaluate"):
                out = report.guarded(evaluate_split, replay, subset[k: k + 1], inputs.chain)
            if out is None:
                return
            eval_t.add(k, start)
            report.record(checks.dtw_sample(out.samples[0]))
            samples.setdefault(k, out.samples[0])

        cycle(gauge, seconds, (generate_step, len(test)), (eval_step, len(subset)))
        if len(samples) < len(subset):
            raise RuntimeError("evaluate_split failed on part of the subset")

        def mean(attr: str) -> float:
            return float(np.mean([getattr(s, attr) for s in samples.values()]))

        dtw_pa_jpe_avg = (mean("dtw_pa_jpe_body") + mean("dtw_pa_jpe_hand")) / 2.0
        report.metrics = {
            "op_ms": sum(mode_t[mode].ms(50) for mode in MODES),  # a sentence in every mode
            "items_per_s": eval_t.rate(),
            "quality_mm": dtw_pa_jpe_avg,
        }
        for mode in MODES:
            detail = f"ms ({mode_t[mode].describe()})"
            report.named.append((f"generate_ms_p50.{mode}", mode_t[mode].ms(50), detail))
            q, tail_ms = mode_t[mode].tail()
            report.named.append((f"generate_ms_p{q}.{mode}", tail_ms, detail))
        report.named += [
            ("sentence_ms.all_modes", report.metrics["op_ms"], "ms (sum of the p50s)"),
            ("eval_sentences_per_s", report.metrics["items_per_s"], f"1/s ({eval_t.describe()})"),
            ("dtw_pa_jpe_avg_mm", dtw_pa_jpe_avg, f"mm (n={len(samples)})"),
            ("dtw_jpe_body_mm", mean("dtw_jpe_body"), "mm"),
            ("dtw_jpe_hand_mm", mean("dtw_jpe_hand"), "mm"),
            gauge.describe(),
        ]
        return report

    def verify(self, inputs: Text2SignInputs, report: Report) -> None:
        """Re-decode every sentence of the first pass through the public
        decoder to check the token triples that make_generate_fn consumed."""
        k_max = self.config.amg.k_max
        lengths: dict[str, list[int]] = {mode: [] for mode in MODES}
        for (k, mode), timed_steps in sorted(inputs.timed_steps.items()):
            text, ref = inputs.test[k]
            model = inputs.models[mode]
            prompt = build_prompt(text, ref.language_tag, inputs.dictionary, model.vocab)
            result = report.guarded(generate_triples, model, prompt[: model.config.enc_max_len],
                                    ref.language_tag)
            if result is None:
                continue
            problems = checks.decode(result.triples, model.vocab, k_max)
            if result.step_count != timed_steps:
                problems.append(f"sentence {k} ({mode}): {result.step_count} steps on re-decode, "
                                f"{timed_steps} when timed")
            report.record(problems)
            lengths[mode].append(len(result.triples))
        for mode in MODES:
            report.record(checks.stops_on_eos(lengths[mode], k_max))
            report.named.append((f"mean_triples.{mode}", float(np.mean(lengths[mode])),
                                 f"triples (k_max={k_max})"))


# -- posefit ------------------------------------------------------------------------


@dataclass
class PoseCase:
    init: MotionSequence
    observations: list


class PoseFit:
    setup_reps = 7

    def __init__(self, size: str, workdir: Path):
        self.synth = load_config("train", size).synth  # motions like the train corpus
        self.sizes = SIZES[size]
        self.fit_config = FitConfig(max_iters=self.sizes.pose_iters)
        self.camera = CameraWeakPerspective()
        self.chain = build_sign_chain(self.synth.layout)

    def setup(self, seed: int) -> list[PoseCase]:
        sizes = self.sizes
        rng = np.random.default_rng(seed)
        corpus = synthesize_dataset(replace(self.synth, num_sentences=sizes.pose_sequences),
                                    seed=seed)
        body = 3 * self.synth.layout.body_joints
        cases = []
        for _, seq in corpus:
            first = int(rng.integers(0, seq.num_frames - sizes.pose_frames + 1))
            truth = MotionSequence(seq.frames[first: first + sizes.pose_frames].copy(),
                                   fps=seq.fps, layout=seq.layout)
            observations = observe_sequence(truth, self.camera, self.chain,
                                            noise_std=POSE_NOISE_MM,
                                            seed=int(rng.integers(2**31)))
            frames = truth.frames.copy()
            frames[:, :body] += rng.normal(0.0, POSE_INIT_RAD, size=frames[:, :body].shape
                                           ).astype(np.float32)
            cases.append(PoseCase(MotionSequence(frames, fps=seq.fps, layout=seq.layout),
                                  observations))
        return cases

    def run(self, cases: list[PoseCase], seconds: float | None, tracer) -> Report:
        report = Report(metrics={}, named=[])
        body = 3 * self.synth.layout.body_joints
        observed = len(self.fit_config.observed_joints)
        frames = self.sizes.pose_frames
        gauge = Gauge()
        fit_t = Timings(gauge)
        rec: list[float] = []

        def fit_step(i: int) -> None:
            k = i % len(cases)
            tracer.item = k
            case = cases[k]
            start = time.perf_counter()
            with tracer.span("bench.fit"):
                result = report.guarded(fit_sequence, case.init, case.observations, self.camera,
                                        self.fit_config, self.chain)
            if result is None:
                return
            fit_t.add(k, start)
            report.record(checks.pose_fit(case.init, result, body))
            tracer.count("posefit.accepted", len(result.log) - 1)
            tracer.count("posefit.fits")
            if i < len(cases):
                rec.append(result.log[-1]["rec"] / (frames * observed))

        cycle(gauge, seconds, (fit_step, len(cases)))
        report.metrics = {
            "op_ms": fit_t.ms(),
            "items_per_s": fit_t.rate(frames),
            "quality_mm": float(np.mean(rec)),
        }
        report.named = [
            ("fit_ms_p50", report.metrics["op_ms"], f"ms ({fit_t.describe()})"),
            ("posefit_frames_per_s", report.metrics["items_per_s"], "1/s"),
            ("posefit_rec_mm", report.metrics["quality_mm"],
             f"mm per observed joint per frame (n={len(rec)})"),
            gauge.describe(),
        ]
        return report


WORKLOADS = {"train": Train, "text2sign": Text2Sign, "posefit": PoseFit}
