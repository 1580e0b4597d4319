"""Oracle 2-partitions of the response: fixed-size and varying-size optima,
and brute-force enumeration for verification.

For fixed group sizes the within-group SSE objective has exactly two
candidate minimizers: the lowest-i block of the sorted responses (with its
complement) and the highest-i block. Comparing the two losses gives the
global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Partition2, _tied, make_partition2
from .errors import SizeOutOfRange, TooLarge
from .tree import _column_split_losses, _response_pairs

__all__ = [
    "OracleFixedSize",
    "brute_force_best_2partition",
    "oracle_fixed_size",
    "oracle_varying_size",
]


@dataclass(frozen=True)
class OracleFixedSize:
    """The two fixed-size candidates and which one wins.

    ``winner`` is "prefix" or "suffix"; on an exact loss tie the prefix is
    reported with ``tie`` set.
    """

    prefix: Partition2
    suffix: Partition2
    winner: str
    tie: bool

    @property
    def best(self) -> Partition2:
        return self.prefix if self.winner == "prefix" else self.suffix


def oracle_fixed_size(y, i: int) -> OracleFixedSize:
    """Optimal 2-partition with group sizes (i, n-i).

    The prefix candidate puts the i smallest responses in the first group;
    the suffix candidate puts the i largest there. These are the only
    minimizers among all size-(i, n-i) partitions. Requires n > 4 and
    min(i, n-i) >= 2 so both group variances are defined.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n <= 4:
        raise SizeOutOfRange(f"need n > 4, got n={n}")
    if min(i, n - i) < 2:
        raise SizeOutOfRange(f"need min(i, n-i) >= 2, got i={i}, n={n}")
    order = np.argsort(y, kind="stable")
    prefix = make_partition2(y, order[:i])
    suffix = make_partition2(y, order[n - i:])
    lp, ls = prefix.total_sse, suffix.total_sse
    if _tied(lp, ls):
        return OracleFixedSize(prefix, suffix, "prefix", True)
    winner = "prefix" if lp < ls else "suffix"
    return OracleFixedSize(prefix, suffix, winner, False)


def brute_force_best_2partition(y, i: int) -> Partition2:
    """Exhaustive minimizer over all C(n, i) partitions of sizes (i, n-i).

    Independent check for :func:`oracle_fixed_size`; guarded to n <= 16.
    Loss ties are broken by lexicographic order of the first group.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n > 16:
        raise TooLarge(f"exhaustive enumeration is guarded to n <= 16, got n={n}")
    if not 1 <= i < n:
        raise SizeOutOfRange(f"need 1 <= i < n, got i={i}, n={n}")
    # 1 <= i < n, so there is at least one candidate
    return min((make_partition2(y, left) for left in combinations(range(n), i)),
               key=lambda cand: (cand.total_sse, cand.left))


def oracle_varying_size(y) -> tuple[int, Partition2]:
    """Optimal 2-partition over all contiguous splits of the sorted responses.

    Minimizes the two-group SSE over split sizes i in 1..n-1 (groups are the
    i smallest responses and the rest); returns (i*, partition). Exact loss
    ties go to the smallest i. Requires n > 4.

    These are the CART split losses of a tie-free column that ranks y, such
    as its sort positions, so the oracle partition is the best split on a
    feature that orders the responses.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n <= 4:
        raise SizeOutOfRange(f"need n > 4, got n={n}")
    order = np.argsort(y, kind="stable")
    pairs = _response_pairs(y[order])[None, :]
    losses = _column_split_losses(np.arange(n)[None, :], pairs)
    i_star = int(np.argmin(losses)) + 1  # argmin returns first minimum
    return i_star, make_partition2(y, order[:i_star])

