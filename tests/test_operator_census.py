"""The graph nodes the package builds are the closed operator set that
`soke.grad.tensor`'s docstring lists: a tiny pipeline in every decoding
mode plus one short pose fit builds each listed node and no other."""

import re
from dataclasses import replace

import numpy as np

import soke.grad.tensor as tensor_module
from soke.amg import MODES
from soke.grad import Tensor
from soke.motion import MotionSequence, build_sign_chain
from soke.pipeline import run_pipeline
from soke.posefit import CameraWeakPerspective, FitConfig, fit_sequence, observe_sequence

from test_grad import NODE_BUILDERS
from test_pipeline import TINY


def documented_ops() -> set[str]:
    """The backquoted names in the docstring's list of nodes by `_op` name."""
    section = tensor_module.__doc__.split("by `_op` name,")[1].split("matmul is kept")[0]
    return set(re.findall(r"`(\w+)`", section))


def test_the_package_builds_exactly_the_documented_operators(monkeypatch, tmp_path):
    built = set()
    init = Tensor.__init__

    def recording_init(tensor, *args, **kwargs):
        init(tensor, *args, **kwargs)
        built.add(tensor._op)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    for mode in MODES:
        run_pipeline(replace(TINY, mode=mode), tmp_path / mode)
    chain = build_sign_chain()
    rng = np.random.default_rng(3)
    init_motion = MotionSequence(rng.normal(0.0, 0.3, size=(2, 133)).astype(np.float32))
    observations = observe_sequence(init_motion, CameraWeakPerspective(), chain, noise_std=2.0,
                                    seed=1)
    fit_sequence(init_motion, observations, config=FitConfig(max_iters=2), chain=chain)
    documented = documented_ops()
    assert "matmul" not in documented  # kept for the benchmark's tracer only
    assert built - {"leaf"} == documented


def test_the_node_policy_test_covers_every_documented_operator():
    # "gather" is a `slice` node by an integer array; matmul is the one
    # operator the package keeps without building it
    assert set(NODE_BUILDERS) - {"gather"} == documented_ops() | {"matmul"}
