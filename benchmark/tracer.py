"""Spans and counters for the traced benchmark run.

`Tracer.installed()` wraps soke's layer entry points for the duration of a
`with` block and restores the originals afterwards; nothing in soke knows
about it. soke modules import names with `from ... import`, so a function is
wrapped where its caller looks it up (the importing module), and a method on
its class.

Spans hold (id, name, start, end, parent id, item id). They stay in memory and
are written once, by `write_spans`, when the run ends. A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import Counter, defaultdict

from spec import MODES, SPANS


class NullTracer:
    """Stands in for a Tracer in untraced runs: spans cost one no-op call."""

    item = None

    def span(self, name: str, cpu: bool = False):
        return contextlib.nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    def __init__(self):
        self.item = None  # id of the input being processed, stamped on spans
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.cpu_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.prompt_lengths: list[int] = []
        self._open: list[list] = []  # [id, name, start, seconds covered by children]
        self._next_id = 0

    # -- spans -----------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._open.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._open.pop()
        span_id, name, start, covered = frame
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        self.spans.append((span_id, name, start, end, parent[0] if parent else -1, self.item))

    @contextlib.contextmanager
    def span(self, name: str, cpu: bool = False):
        cpu_start = time.process_time()
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)
            if cpu:
                self.cpu_s[name] += time.process_time() - cpu_start

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def timed(self, name: str):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = self.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit(frame)

            return wrapper

        return wrap

    # -- wrappers that also count ---------------------------------------------------

    def _tensor_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def __init__(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            counts["grad.tensors"] += 1
            if tensor._parents:
                counts["grad.graph_nodes"] += 1

        return __init__

    def _nearest_code_ids(self, fn):
        timed = self.timed("deto.nearest_code_ids")(fn)

        @functools.wraps(fn)
        def nearest_code_ids(latent, codes):
            # computed size of the float64 (T, N, C) difference tensor
            t, c = latent.shape
            self.counts["deto.nearest_code_ids.bytes"] += t * codes.shape[0] * c * 8
            return timed(latent, codes)

        return nearest_code_ids

    def _dtw(self, fn):
        timed = self.timed("metrics.dtw")(fn)

        @functools.wraps(fn)
        def dtw(gen, ref, cost):
            self.counts["metrics.dtw.cells"] += len(gen) * len(ref)
            return timed(gen, ref, cost)

        return dtw

    def _build_prompt(self, fn):
        from soke.textproc import lemmatize, tokenize_words

        timed = self.timed("retrieval.build_prompt")(fn)

        @functools.wraps(fn)
        def build_prompt(text, lang, dictionary, vocab, *args, **kwargs):
            prompt = timed(text, lang, dictionary, vocab, *args, **kwargs)
            words = tokenize_words(text)
            self.counts["retrieval.words"] += len(words)
            if dictionary is not None:
                self.counts["retrieval.hits"] += sum(
                    dictionary.lookup(lang, lemmatize(w)) is not None for w in words
                )
            self.prompt_lengths.append(len(prompt))
            return prompt

        return build_prompt

    def _generate_triples(self, fn):
        @functools.wraps(fn)
        def generate_triples(model, prompt_ids, lang):
            frame = self.enter(f"amg.generate_triples.{model.mode}")
            try:
                result = fn(model, prompt_ids, lang)
            finally:
                self.exit(frame)
            self.counts[f"amg.forward_passes.{model.mode}"] += result.forward_passes
            self.counts[f"amg.step_count.{model.mode}"] += result.step_count
            return result

        return generate_triples

    def _body_fk(self, fn):
        timed = self.timed("posefit.body_fk")(fn)

        @functools.wraps(fn)
        def body_fk(theta, chain):
            # fit_sequence runs FK once per objective evaluation; the
            # gradient evaluation of each iteration is the one that tracks grads
            self.counts["posefit.evaluations"] += 1
            if theta.requires_grad:
                self.counts["posefit.iterations"] += 1
            return timed(theta, chain)

        return body_fk

    # -- installation ---------------------------------------------------------------

    def _patches(self):
        import soke.amg.training as amg_training
        import soke.deto.codebook as codebook
        import soke.deto.tokenizer as tokenizer
        import soke.deto.training as deto_training
        import soke.metrics.evaluate as evaluate
        import soke.pipeline as pipeline
        import soke.posefit as posefit
        import soke.retrieval as retrieval
        from soke.amg import GeneratorModel
        from soke.deto import DecoupledTokenizer, PartTokenizer
        from soke.grad import Adam, Tensor

        t = self.timed
        return [
            (Tensor, "__init__", self._tensor_init),
            (Tensor, "__matmul__", t("grad.matmul")),
            (Tensor, "backward", t("grad.backward")),
            (Adam, "step", t("grad.adam_step")),
            (tokenizer, "conv1d", t("grad.conv1d")),
            (amg_training, "cross_entropy", t("grad.cross_entropy")),
            (PartTokenizer, "vq_loss", t("deto.vq_loss")),
            (PartTokenizer, "encode_latents", t("deto.encode_latents")),
            (tokenizer, "nearest_code_ids", self._nearest_code_ids),
            (deto_training, "nearest_code_ids", self._nearest_code_ids),
            (codebook, "nearest_code_ids", self._nearest_code_ids),  # via quantize()
            (DecoupledTokenizer, "decode_tokens", t("deto.decode_tokens")),
            (retrieval, "reconstruction_pa_mpjpe", t("retrieval.reconstruction_pa_mpjpe")),
            (pipeline, "build_prompt", self._build_prompt),
            (amg_training, "generator_loss", t("amg.generator_loss")),
            (GeneratorModel, "encode", t("amg.encode")),
            (GeneratorModel, "decode_hidden", t("amg.decode_hidden")),
            (GeneratorModel, "head_logits", t("amg.head_logits")),
            (pipeline, "generate_triples", self._generate_triples),
            (evaluate, "dtw_joint_metrics", t("metrics.dtw_joint_metrics")),
            (evaluate, "dtw", self._dtw),
            (evaluate, "procrustes_align", t("metrics.procrustes_align")),
            (evaluate, "forward_kinematics_sequence", t("motion.fk")),
            (posefit, "body_fk", self._body_fk),
            (posefit, "loss_rec", t("posefit.loss_rec")),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrap in patches:
                setattr(owner, attr, wrap(vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Span and counter totals under their per-layer metric names."""
        out: dict[str, float] = {}
        for stage in ("deto", "amg", "io"):
            out[f"stage.{stage}.wall_s"] = self.total_s[f"stage.{stage}"]
        for stage in ("deto", "amg"):
            out[f"stage.{stage}.cpu_s"] = self.cpu_s[f"stage.{stage}"]
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.total_s[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for mode in MODES:
            span = f"amg.generate_triples.{mode}"
            passes = self.counts[f"amg.forward_passes.{mode}"]
            steps = self.counts[f"amg.step_count.{mode}"]
            out[f"amg.generate_triples.calls.{mode}"] = self.calls[span]
            out[f"amg.generate_triples.s.{mode}"] = self.total_s[span]
            out[f"amg.generate_triples.self_s.{mode}"] = self.self_s[span]
            out[f"amg.forward_passes.{mode}"] = passes
            out[f"amg.step_count.{mode}"] = steps
            out[f"amg.kept_pass_ratio.{mode}"] = steps / passes if passes else 0.0
        for name in ("grad.tensors", "grad.graph_nodes", "deto.nearest_code_ids.bytes",
                     "metrics.dtw.cells", "posefit.iterations", "posefit.evaluations"):
            out[name] = self.counts[name]
        # accepted steps over candidate evaluations: every FK evaluation except
        # each iteration's gradient evaluation and each fit's initial one
        candidates = (self.counts["posefit.evaluations"] - self.counts["posefit.iterations"]
                      - self.counts["posefit.fits"])
        out["posefit.accept_ratio"] = (self.counts["posefit.accepted"] / candidates
                                       if candidates else 0.0)
        words = self.counts["retrieval.words"]
        out["retrieval.hit_ratio"] = self.counts["retrieval.hits"] / words if words else 0.0
        lengths = self.prompt_lengths
        out["retrieval.prompt_tokens.mean"] = sum(lengths) / len(lengths) if lengths else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """gzip JSON: span rows as [id, name index, start us, end us, parent id, item]."""
        names: dict[str, int] = {}
        origin = min((span[2] for span in self.spans), default=0.0)
        rows = [
            [sid, names.setdefault(name, len(names)), round((start - origin) * 1e6),
             round((end - origin) * 1e6), parent, item]
            for sid, name, start, end, parent, item in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
