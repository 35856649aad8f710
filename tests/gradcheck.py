"""Central finite-difference gradient checking.

`check_gradients` checks a graph's reverse-mode gradients; it runs the
forward pass in float64 (see `default_dtype`) so the difference quotient is
not dominated by float32 rounding. `check_array_gradients` checks the
gradients of a plain numpy function of float64 arrays, such as the pose
fit's objective.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from soke.grad import Tensor


def central_differences(fn: Callable[[np.ndarray], float], x: np.ndarray,
                        eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the scalar fn at the float64 array x,
    one element perturbed at a time."""
    grad = np.zeros(x.size, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = float(flat[i])
        perturbed = x.copy().reshape(-1)
        perturbed[i] = orig + eps
        plus = fn(perturbed.reshape(x.shape))
        perturbed = x.copy().reshape(-1)
        perturbed[i] = orig - eps
        minus = fn(perturbed.reshape(x.shape))
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad.reshape(x.shape)


def finite_difference_grad(
    loss_fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of loss_fn with respect to `param`.

    loss_fn must rebuild the graph from current parameter values each call.
    """
    base = param.data.copy()

    def loss_at(value: np.ndarray) -> float:
        param.data = value
        return loss_fn().item()

    try:
        return central_differences(loss_at, base, eps)
    finally:
        param.data = base


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
    numeric = {name: finite_difference_grad(loss_fn, p, eps=eps) for name, p in params}
    return _compare(analytic, numeric, tol)


def check_array_gradients(
    fn: Callable[..., float],
    arrays: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    eps: float = 1e-4,
    tol: float = 1e-3,
) -> dict[str, float]:
    """Compare the given gradients of the scalar fn(**arrays), a plain numpy
    function of float64 arrays, against central differences. Returns
    per-array max relative error; raises AssertionError above tol."""
    numeric = {name: central_differences(lambda value, name=name: fn(**{**arrays, name: value}),
                                         x, eps=eps)
               for name, x in arrays.items()}
    return _compare(analytic, numeric, tol)


def _compare(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray],
             tol: float) -> dict[str, float]:
    errors: dict[str, float] = {}
    for name, grad in numeric.items():
        errors[name] = max_relative_error(analytic[name], grad)
        if errors[name] > tol:
            raise AssertionError(
                f"gradient check failed for {name}: rel err {errors[name]:.3e} > {tol}"
            )
    return errors


__all__ = ["central_differences", "check_array_gradients", "check_gradients",
           "finite_difference_grad", "max_relative_error"]
