"""Every trained parameter can move the loss.

After the golden run's config trains (see `conftest.train_runs`), one
teacher-forced `generator_loss` backward in each decoding mode, and one
`vq_loss` backward per tokenizer part, must give every parameter tensor a
gradient of at least `MIN_SHARE` of the largest tensor's, each compared by
max|grad|. A parameter whose exact gradient is zero (one the loss cannot
depend on, such as a bias added to every attention key, which the softmax
cancels) gets only float32 rounding noise: the attention key biases read
0.85-15e-9 of the largest in this census before they were removed.

Why 1e-5: the smallest live tensors read 5.0e-3 (`dec0.cross.bq`, parallel
mode) for the generator and 7.05e-2 (`B.enc_w2`) for the tokenizer, so the
threshold sits more than two orders of magnitude below every live tensor
and more than three above the noise.

The models are read trained: the zero-initialized output heads pass no
gradient into the generator's trunk at initialization.
"""

from __future__ import annotations

import numpy as np
import pytest

from soke.amg import MODES, generator_loss, load_generator
from soke.amg.training import _teacher_batch
from soke.config import load_run_config
from soke.deto import load_deto
from soke.motion import PARTS, load_motions, split_parts
from soke.pipeline import build_train_pairs
from soke.retrieval import load_dictionary

MIN_SHARE = 1e-5


def gradient_shares(named_params) -> dict[str, float]:
    """Each tensor's max|grad| over the largest tensor's."""
    peaks = {name: float(np.abs(p.grad).max()) if p.grad is not None else 0.0
             for name, p in named_params}
    top = max(peaks.values())
    return {name: peak / top for name, peak in peaks.items()}


def assert_every_share_at_least(shares: dict[str, float]) -> None:
    low = {name: f"{share:.3g}" for name, share in shares.items() if share < MIN_SHARE}
    assert not low, f"parameters that cannot move the loss (max|grad| share < {MIN_SHARE}): {low}"


@pytest.mark.parametrize("mode", MODES)
def test_every_generator_parameter_moves_the_loss(mode, train_runs):
    run = train_runs(mode)
    config = load_run_config(run / "run_config.json")
    model = load_generator(run / "amg")
    train = load_motions(run / "data" / "train.jsonl", layout=config.synth.layout)
    dictionary = load_dictionary(run / "dict.json") if config.retrieval else None
    pairs = build_train_pairs(train, load_deto(run / "deto"), model.vocab, dictionary)
    generator_loss(model, _teacher_batch(model, pairs, [])).backward()
    assert_every_share_at_least(gradient_shares(model.parameters()))


@pytest.mark.parametrize("part", PARTS, ids=lambda part: part.value)
def test_every_tokenizer_parameter_moves_the_loss(part, train_runs):
    run = train_runs(MODES[0])  # the tokenizer trains the same in every mode
    config = load_run_config(run / "run_config.json")
    deto = load_deto(run / "deto")
    (_, first), *_ = load_motions(run / "data" / "train.jsonl", layout=config.synth.layout)
    tokenizer = deto[part]
    total, *_ = tokenizer.vq_loss(split_parts(first)[PARTS.index(part)])
    total.backward()
    assert_every_share_at_least(gradient_shares(tokenizer.parameters()))
