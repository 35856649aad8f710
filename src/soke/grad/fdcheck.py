"""Central finite-difference gradient checking.

Checks run the forward pass in float64 (see `default_dtype`) so the
difference quotient is not dominated by float32 rounding.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, default_dtype


def finite_difference_grad(
    loss_fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of loss_fn with respect to `param`.

    loss_fn must rebuild the graph from current parameter values each call.
    """
    base = param.data.copy()
    grad = np.zeros(base.size, dtype=np.float64)
    flat = base.reshape(-1)
    for i in range(flat.size):
        orig = float(flat[i])
        perturbed = base.copy().reshape(-1)
        perturbed[i] = orig + eps
        param.data = perturbed.reshape(base.shape)
        plus = loss_fn().item()
        perturbed = base.copy().reshape(-1)
        perturbed[i] = orig - eps
        param.data = perturbed.reshape(base.shape)
        minus = loss_fn().item()
        grad[i] = (plus - minus) / (2.0 * eps)
    param.data = base
    return grad.reshape(base.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """max |a - n| / max(|a|, |n|, floor).

    The floor is the larger of its absolute value and 1e-3 of the gradient's
    peak magnitude, so near-zero components (which central differences cannot
    resolve against a large loss) do not produce meaningless ratios.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    if a.size == 0:
        return 0.0
    peak = max(np.abs(a).max(), np.abs(n).max(), 0.0)
    floor = max(floor, 1e-3 * peak)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: list[tuple[str, Tensor]],
    eps: float = 1e-4,
    tol: float = 1e-3,
) -> dict[str, float]:
    """Compare reverse-mode gradients of loss_fn against central differences.

    Must be called under `default_dtype(np.float64)` with float64 parameters
    for the stated tolerances to be meaningful. Returns per-parameter max
    relative error; raises AssertionError above tol.
    """
    for _, p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros(p.shape)) for name, p in params
    }
    errors: dict[str, float] = {}
    for name, p in params:
        numeric = finite_difference_grad(loss_fn, p, eps=eps)
        errors[name] = max_relative_error(analytic[name], numeric)
        if errors[name] > tol:
            raise AssertionError(
                f"gradient check failed for {name}: rel err {errors[name]:.3e} > {tol}"
            )
    return errors


__all__ = ["finite_difference_grad", "max_relative_error", "check_gradients"]
