"""Names, units and directions of every metric the benchmark emits.

BENCHMARK.json at the repository root declares the same metrics (plus the
regression bound of each end-to-end metric); test_smoke.py checks that the
two lists agree and that every run emits exactly these names.

Every workload emits every end-to-end metric, so each name has one meaning
per workload (see METRICS.md):

    metric       train                    text2sign                  posefit
    op_ms        one training run         one sentence, all 3 modes  one sequence fit
    items_per_s  held-out round trips/s   evaluate_split sentences/s frames fitted/s
    quality_mm   held-out PA-MPJPE        DTW-PA-JPE avg, multihead  L1 reprojection error
"""

from __future__ import annotations

MODES = ("sequential", "parallel", "multihead")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("quality_mm", "mm", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Spans recorded around calls into soke; each gives <name>.calls, <name>.s
# (inclusive seconds) and <name>.self_s (seconds not covered by child spans).
SPANS = (
    "grad.conv1d",
    "grad.matmul",
    "grad.backward",
    "grad.cross_entropy",
    "grad.adam_step",
    "deto.vq_loss",
    "deto.encode_latents",
    "deto.nearest_code_ids",
    "deto.decode_tokens",
    "retrieval.build_dictionary",
    "retrieval.reconstruction_pa_mpjpe",
    "retrieval.build_prompt",
    "amg.generator_loss",
    "amg.encode",
    "amg.decode_hidden",
    "amg.head_logits",
    "metrics.dtw_joint_metrics",
    "metrics.dtw",
    "metrics.procrustes_align",
    "motion.fk",
    "posefit.body_fk",
    "posefit.loss_rec",
)

# Pipeline stages of one training run: wall and CPU seconds.
STAGES = (
    ("stage.deto.wall_s", "s"),
    ("stage.deto.cpu_s", "s"),
    ("stage.amg.wall_s", "s"),
    ("stage.amg.cpu_s", "s"),
    ("stage.io.wall_s", "s"),
)

COUNTERS = (
    ("grad.tensors", "count", "lower"),
    ("grad.graph_nodes", "count", "lower"),
    ("deto.nearest_code_ids.bytes", "B", "lower"),
    ("deto.codebook_use.body", "ratio", "higher"),
    ("deto.codebook_use.lhand", "ratio", "higher"),
    ("deto.codebook_use.rhand", "ratio", "higher"),
    ("deto.reseeded_codes", "count", "lower"),
    ("retrieval.hit_ratio", "ratio", "higher"),
    ("retrieval.prompt_tokens.mean", "tokens", "lower"),
    ("amg.prompt_truncations", "count", "lower"),
    ("metrics.dtw.cells", "count", "lower"),
    ("posefit.iterations", "count", "lower"),
    ("posefit.evaluations", "count", "lower"),
    ("posefit.accept_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(name, unit, "lower") for name, unit in STAGES]
    for span in SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.s", "s", "lower"),
                (f"{span}.self_s", "s", "lower")]
    for mode in MODES:
        out += [
            (f"amg.generate_triples.calls.{mode}", "count", "lower"),
            (f"amg.generate_triples.s.{mode}", "s", "lower"),
            (f"amg.generate_triples.self_s.{mode}", "s", "lower"),
            (f"amg.forward_passes.{mode}", "count", "lower"),
            (f"amg.step_count.{mode}", "count", "lower"),
            (f"amg.kept_pass_ratio.{mode}", "ratio", "higher"),
        ]
    return out + list(COUNTERS)
