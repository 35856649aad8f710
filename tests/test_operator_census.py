"""The graph nodes the package builds are the closed operator set that
`soke.grad.tensor`'s docstring lists: a tiny pipeline in every decoding
mode builds each listed node and no other. The pose fit builds none
(`tests/test_posefit.py` counts them)."""

import re
from dataclasses import replace

import soke.grad.tensor as tensor_module
from soke.amg import MODES
from soke.grad import Tensor
from soke.pipeline import run_pipeline

from test_grad import NODE_BUILDERS
from test_pipeline import TINY


def documented_ops() -> set[str]:
    """The backquoted names in the docstring's list of nodes by `_op` name."""
    section = tensor_module.__doc__.split("by `_op` name,")[1].split("Default storage")[0]
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
    assert built - {"leaf"} == documented_ops()


def test_the_node_policy_test_covers_every_documented_operator():
    # "gather" is a `slice` node by an integer array; `body_fk` is defined
    # for the tests' pose-fit oracles and the benchmark tracer, built by no
    # package code; the loss nodes are the parent-loop oracle's own
    oracle_only = {"gather", "body_fk", "loss_rec", "loss_temp", "loss_reg"}
    assert set(NODE_BUILDERS) - oracle_only == documented_ops()
