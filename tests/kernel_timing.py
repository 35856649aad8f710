"""Timings of the forward-kinematics kernels at the sizes the package runs
them at.

    PYTHONPATH=src python tests/kernel_timing.py

Times Rodrigues (`axis_angle_matrices` on the inner joints' angles, as the
pass calls it), `forward_kinematics_pass` and `forward_kinematics_vjp` at
two sizes:
- a pose fit's: the 11-joint body chain, 4 frames. `posefit.fit_sequence`
  runs the pass once per evaluated point and the VJP once per iteration;
- a tokenizer round trip's: the full 41-joint sign chain, 30 frames, where
  the pass scores the reconstruction.

For each it prints the minimum over REPEATS of the mean time of NUMBER
calls, in microseconds, on seeded angles and cotangents. The times depend
on the BLAS and its threads, so it first prints numpy's version, the
OpenBLAS kernel set, the CPUs this process may run on and the thread
variables of the environment. It writes nothing. It is not a test.
"""

from __future__ import annotations

import os
import sys
import timeit
from collections.abc import Callable

import numpy as np

from soke.motion import (axis_angle_matrices, build_sign_chain, forward_kinematics_pass,
                         forward_kinematics_vjp)
from test_golden_run import openblas_kernels

REPEATS = 7
NUMBER = 300
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "OPENBLAS_CORETYPE")


def sizes() -> dict[str, tuple]:
    """Name -> (chain, frames)."""
    chain = build_sign_chain()
    return {"posefit (body, 4 frames)": (chain.body_subchain(11), 4),
            "round trip (full, 30 frames)": (chain, 30)}


def kernels(chain, frames: int) -> dict[str, Callable[[], object]]:
    """Name -> a call of that kernel on seeded inputs of this size."""
    rng = np.random.default_rng(0)
    angles = rng.normal(scale=0.6, size=(frames, chain.num_joints, 3))
    grad = rng.normal(size=angles.shape)
    inner = np.swapaxes(angles, 0, 1)[chain.placement.inner]
    positions, rot = forward_kinematics_pass(angles, chain)
    return {
        "rodrigues": lambda: axis_angle_matrices(inner),
        "fk pass": lambda: forward_kinematics_pass(angles, chain),
        "fk vjp": lambda: forward_kinematics_vjp(grad, angles, positions, rot, chain),
    }


def main() -> int:
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    print(f"# numpy {np.__version__}, OpenBLAS kernels {openblas_kernels()}, "
          f"{len(os.sched_getaffinity(0))} CPUs, {threads}")
    print(f"# min of {REPEATS} x {NUMBER} calls, us per call")
    for size, (chain, frames) in sizes().items():
        for name, call in kernels(chain, frames).items():
            best = min(timeit.repeat(call, number=NUMBER, repeat=REPEATS))
            print(f"{size:30s}  {name:10s}  {best / NUMBER * 1e6:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
