"""Dynamic time warping with the classic {(1,0), (0,1), (1,1)} step set."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import InputError


@dataclass(frozen=True)
class DtwResult:
    total: float
    path: tuple[tuple[int, int], ...]
    normalized: float


def dtw(gen: Sequence, ref: Sequence, cost: np.ndarray) -> DtwResult:
    """Minimal-cost monotone alignment between two sequences.

    `cost` is the (len(gen), len(ref)) matrix whose cost[i, j] is the cost
    of pairing gen[i] with ref[j]; costs must be finite. Ties between
    predecessors are broken preferring diagonal, then vertical (advance in
    `gen`), so results are deterministic. `normalized` is total / len(path).
    """
    n, m = len(gen), len(ref)
    if n == 0 or m == 0:
        raise InputError("dtw requires two nonempty sequences")

    local = np.asarray(cost, dtype=np.float64)
    if local.shape != (n, m):
        raise InputError(f"cost matrix is {local.shape}, sequences need {(n, m)}")
    if not np.isfinite(local).all():
        raise InputError("dtw costs contain NaN or infinity")

    # 0 = diagonal, 1 = vertical (i-1, j), 2 = horizontal (i, j-1)
    rows = local.tolist()
    acc = [list(itertools.accumulate(rows[0]))]
    step = [[-1] + [2] * (m - 1)]
    for i in range(1, n):
        prev, row = acc[-1], rows[i]
        cur = [prev[0] + row[0]]
        moves = [1]
        for j in range(1, m):
            diag, up, left = prev[j - 1], prev[j], cur[j - 1]
            if diag <= up and diag <= left:
                cur.append(diag + row[j])
                moves.append(0)
            elif up <= left:
                cur.append(up + row[j])
                moves.append(1)
            else:
                cur.append(left + row[j])
                moves.append(2)
        acc.append(cur)
        step.append(moves)

    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        s = step[i][j]
        if s == 0:
            i, j = i - 1, j - 1
        elif s == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()

    total = acc[n - 1][m - 1]
    return DtwResult(total=total, path=tuple(path), normalized=total / len(path))
