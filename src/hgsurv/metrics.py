"""Survival evaluation statistics: concordance index, Kaplan-Meier curve,
Mantel log-rank test, and median risk stratification.

Censored observations at time t stay in the risk set for events at t
(standard product-limit handling).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import add, attrgetter

import numpy as np


@dataclass
class SurvPoint:
    time: float
    event: bool
    risk: float

    def __post_init__(self):
        if not (np.isfinite(self.time) and self.time >= 0):
            raise ValueError("time must be nonnegative and finite")
        if not np.isfinite(self.risk):
            raise ValueError("risk must be finite")


def _times_events(points: list[SurvPoint]) -> tuple[np.ndarray, np.ndarray]:
    t = np.array([p.time for p in points], dtype=np.float64)
    e = np.array([p.event for p in points], dtype=bool)
    return t, e


def _risk_sets(t: np.ndarray, e: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per time u of ``grid``: patients still at risk (t >= u) and events at u."""
    at_risk = t.size - np.searchsorted(np.sort(t), grid, side="left")
    te = np.sort(t[e])
    events = np.searchsorted(te, grid, side="right") - np.searchsorted(te, grid, side="left")
    return at_risk, events


def c_index(points: list[SurvPoint]) -> float:
    """Concordant fraction over pairs (i, j) with t_i < t_j and event_i.

    Tied risks count 0.5. One sweep from the latest time down keeps the
    risks of the strictly later patients sorted, so each event's pairs are
    two bisections. Raises when no pair is comparable.
    """
    later: list[float] = []
    num = den = 0  # num counts a concordant pair twice and a tied pair once
    for _, block in groupby(sorted(points, key=attrgetter("time"), reverse=True), attrgetter("time")):
        block = list(block)
        for p in block:
            if p.event:
                lo, hi = bisect_left(later, p.risk), bisect_right(later, p.risk)
                num += lo + hi
                den += len(later)
        for p in block:
            insort(later, p.risk)
    if den == 0:
        raise ValueError("undefined C-index: no comparable pairs")
    return num / (2 * den)


@dataclass
class KMCurve:
    """Product-limit estimate: one step per distinct event time."""

    group: str
    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    n_start: int


def km_curve(points: list[SurvPoint], group: str = "") -> KMCurve:
    if not points:
        raise ValueError("at least one point required")
    t, e = _times_events(points)
    times = np.unique(t[e])
    at_risk, d = _risk_sets(t, e, times)
    return KMCurve(group, times, np.cumprod(1.0 - d / at_risk), at_risk, len(points))


def logrank_test(group_a: list[SurvPoint], group_b: list[SurvPoint]) -> tuple[float, float]:
    """Mantel-Haenszel chi-square statistic and its 1-dof p-value."""
    if not group_a or not group_b:
        raise ValueError("both groups must be nonempty")
    (ta, ea), (tb, eb) = _times_events(group_a), _times_events(group_b)
    event_times = np.unique(np.concatenate([ta[ea], tb[eb]]))
    if event_times.size == 0:
        raise ValueError("degenerate log-rank: no events")
    (n_a, d_a), (n_b, d_b) = _risk_sets(ta, ea, event_times), _risk_sets(tb, eb, event_times)
    keep = n_a + n_b >= 2  # a lone patient at risk adds 0 and would divide by n - 1 = 0
    n_a, n_b, d_a, d_b = n_a[keep], n_b[keep], d_a[keep], d_b[keep]
    n, d = n_a + n_b, d_a + d_b
    # added in time order as a loop would: np.sum is pairwise, builtin sum compensates from 3.12
    o_minus_e = reduce(add, (d_a - d * n_a / n).tolist(), 0.0)
    var = reduce(add, (d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)).tolist(), 0.0)
    if var <= 0:
        raise ValueError("degenerate log-rank: zero variance")
    chi2 = o_minus_e**2 / var
    return chi2, chi2_sf_1dof(chi2)


def chi2_sf_1dof(x: float) -> float:
    """P(X > x) for chi-square with 1 dof: Q(1/2, x/2) = erfc(sqrt(x/2))."""
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    return math.erfc(math.sqrt(x / 2.0))


def stratify_median(points: list[SurvPoint]) -> tuple[list[SurvPoint], list[SurvPoint]]:
    """Split at the median risk: strictly above -> high, rest -> low."""
    if len(points) < 2:
        raise ValueError("at least two points required")
    med = float(np.median([p.risk for p in points]))
    high = [p for p in points if p.risk > med]
    low = [p for p in points if p.risk <= med]
    return high, low


def write_km_export(path, curves: list[KMCurve]) -> None:
    """Delimited text `group,time,survival,at_risk` suitable for plotting."""
    with open(path, "w") as fh:
        fh.write("group,time,survival,at_risk\n")
        for c in curves:
            if c.times.size == 0 or c.times[0] > 0:
                fh.write(f"{c.group},0.0,1.0,{c.n_start}\n")
            for t, s, n in zip(c.times, c.survival, c.at_risk):
                fh.write(f"{c.group},{float(t)!r},{float(s)!r},{int(n)}\n")
