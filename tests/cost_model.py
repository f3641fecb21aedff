"""The paper's expected-cost model: average degree times average path length.

The paper bounds the engine's work by O(D * d_in_max) and estimates it, per
random family, as the product of the family's expected average degree and
its expected average path length.  ``tests/test_bench.py`` holds these
formulas against the modeled merges (round count × in-degree) on the
benchmark's graphs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

EULER_MASCHERONI = 0.5772156649015329


@dataclass(frozen=True)
class CostEstimate:
    """Average-degree x average-path-length product for a random family."""

    expected_avg_degree: float
    expected_avg_path_length: float

    @property
    def expected_cost(self) -> float:
        return self.expected_avg_degree * self.expected_avg_path_length


def expected_cost_er(n: int, m: int) -> CostEstimate:
    """Closed-form cost estimate for a uniform random graph with ``m`` edges.

    Average degree 2m/n; average path length
    (ln n - gamma)/ln(2m/n) + 1/2, defined only above mean degree 1.
    """
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    avg_degree = 2 * m / n
    if avg_degree <= 1.0:
        raise ValueError(f"mean degree {avg_degree} <= 1; path-length formula undefined")
    avg_path = (math.log(n) - EULER_MASCHERONI) / math.log(avg_degree) + 0.5
    return CostEstimate(avg_degree, avg_path)


def expected_cost_ba(n: int, m: int) -> CostEstimate:
    """Closed-form cost estimate for preferential attachment with ``m`` links per vertex.

    Average degree 2m; average path length
    (ln n - ln(m/2) - 1 - gamma)/(ln ln n + ln(m/2)) + 3/2.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    denom = math.log(math.log(n)) + math.log(m / 2)
    if denom <= 0.0:
        raise ValueError(f"non-positive denominator {denom:.4f} for n={n}, m={m}")
    if denom < 0.1:
        warnings.warn(
            f"near-singular path-length denominator {denom:.4f} for n={n}, m={m}",
            RuntimeWarning,
            stacklevel=2,
        )
    avg_path = (math.log(n) - math.log(m / 2) - 1 - EULER_MASCHERONI) / denom + 1.5
    return CostEstimate(2.0 * m, avg_path)


def expected_cost_ws(n: int, K: int) -> tuple[CostEstimate, CostEstimate]:
    """Limiting cost estimates for a rewired ring lattice with degree ``K``.

    Average path length tends to n/(2K) with no rewiring and to
    ln(n)/ln(K) under full rewiring; both limits are returned, and they
    bracket every rewiring probability.
    """
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    if n <= K:
        raise ValueError(f"need n > K, got n={n}, K={K}")
    lattice = CostEstimate(float(K), n / (2 * K))
    rewired = CostEstimate(float(K), math.log(n) / math.log(K))
    return lattice, rewired
