"""One-tailed Wilcoxon signed-rank test, summary statistics, and the bundled
news-engagement dataset.

Test variant: zero differences are dropped, tied absolute differences receive
average ranks, and the statistic is W+ (the rank sum of positive
differences).  Samples with up to 25 effective pairs use the exact sign-flip
distribution; larger samples use the normal approximation with tie-corrected
variance and no continuity correction.  Each result records the method used.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InputError, read_text

#: Statistic convention carried by every result.
W_CONVENTION = "W+ = rank sum of positive differences (x - y)"

#: Largest effective sample size handled by exact enumeration.
EXACT_LIMIT = 25

_ALTERNATIVES = ("x_less", "x_greater")


@dataclass(frozen=True)
class PairedSample:
    """Paired observations (x_i, y_i)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or x.shape != y.shape:
            raise InputError("x and y must be 1-d arrays of equal length")
        if len(x) < 1:
            raise InputError("a paired sample needs at least one pair")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError("paired sample values must be finite")
        x.setflags(write=False)
        y.setflags(write=False)

    @classmethod
    def from_pairs(cls, pairs):
        arr = np.asarray(list(pairs), dtype=np.float64).reshape(-1, 2)
        return cls(x=arr[:, 0], y=arr[:, 1])

    def __len__(self):
        return len(self.x)


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_one_tailed: float
    n_effective: int
    method: str
    convention: str = W_CONVENTION


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``a`` in ascending order; each group of ties shares the
    mean of the ranks it spans."""
    order = np.argsort(a)
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(a)]
    ranks = np.empty(len(a))
    # a group over sorted positions [start, end) spans ranks start + 1 .. end
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _exact_tail(ranks: np.ndarray, w_plus: float, alternative: str) -> float:
    """Tail probability of W+ over all 2^n equiprobable sign assignments.

    Doubling the (possibly half-integer) average ranks makes every achievable
    rank sum an integer, so the full distribution is a polynomial product.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    dist = np.zeros(total + 1)
    dist[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(dist)
        shifted[r:] = dist[: total + 1 - r]
        dist = dist + shifted
    dist /= 2.0 ** len(doubled)
    w2 = int(np.rint(2.0 * w_plus))
    if alternative == "x_greater":
        return float(dist[w2:].sum())
    return float(dist[: w2 + 1].sum())


def _normal_tail(ranks: np.ndarray, w_plus: float, alternative: str) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: each group of t tied ranks removes (t^3 - t) / 48
    _, counts = np.unique(ranks, return_counts=True)
    var -= float((counts.astype(np.float64) ** 3 - counts).sum()) / 48.0
    if var <= 0:
        raise DegenerateSampleError("all differences are tied; variance is zero")
    z = float((w_plus - mean) / np.sqrt(var))
    # the upper tail for x_greater, the lower tail for x_less
    return 0.5 * math.erfc((z if alternative == "x_greater" else -z) / math.sqrt(2.0))


def wilcoxon_one_tailed(sample: PairedSample, alternative: str) -> WilcoxonResult:
    """One-tailed Wilcoxon signed-rank test on paired differences x - y.

    ``alternative`` is ``"x_less"`` (x systematically below y) or
    ``"x_greater"``.  Up to ``EXACT_LIMIT`` effective pairs the p-value is
    exact, above it the normal approximation.  Raises
    :class:`DegenerateSampleError` when every difference is zero.
    """
    if alternative not in _ALTERNATIVES:
        raise InputError(f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}")
    d = sample.x - sample.y
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise DegenerateSampleError("all paired differences are zero")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= EXACT_LIMIT:
        p = _exact_tail(ranks, w_plus, alternative)
        used = "exact"
    else:
        p = _normal_tail(ranks, w_plus, alternative)
        used = "normal-approximation"
    return WilcoxonResult(
        statistic=w_plus,
        p_one_tailed=min(max(p, np.nextafter(0.0, 1.0)), 1.0),
        n_effective=n,
        method=used,
    )


def compare_strategies(sample: PairedSample, alternative: str) -> WilcoxonResult:
    """Paired comparison of a strategy metric column against the baseline column."""
    return wilcoxon_one_tailed(sample, alternative)


def summarize(values):
    """(arithmetic mean, median); the median of an even-length sample is the
    midpoint of the two central order statistics."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise InputError("cannot summarize an empty sequence")
    return float(arr.mean()), float(np.median(arr))


# -- bundled engagement dataset ------------------------------------------------


@dataclass(frozen=True)
class EngagementRecord:
    """User engagement of one news item: verified-true vs false counts."""

    news_id: int
    true_engagement: int
    false_engagement: int


def load_engagement(path=None):
    """Load an engagement CSV (header ``news_id,true,false``).

    With no path, loads the dataset bundled with the package (134 news items
    from three fact-checkers).
    """
    if path is None:
        resource = importlib.resources.files(__package__).joinpath("data/engagement.csv")
        text = resource.read_text(encoding="ascii")
    else:
        text = read_text(path, "engagement")
    reader = csv.DictReader(text.splitlines())
    required = {"news_id", "true", "false"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise InputError(f"engagement CSV must carry columns {sorted(required)}")
    records = []
    seen = set()
    for row in reader:
        try:
            rec = EngagementRecord(
                news_id=int(row["news_id"]),
                true_engagement=int(row["true"]),
                false_engagement=int(row["false"]),
            )
        except (TypeError, ValueError):
            raise InputError(f"malformed engagement row: {row}") from None
        if rec.news_id in seen:
            raise InputError(f"duplicate news_id {rec.news_id}")
        if rec.true_engagement < 0 or rec.false_engagement < 0:
            raise InputError(f"negative engagement in row {rec.news_id}")
        seen.add(rec.news_id)
        records.append(rec)
    if not records:
        raise InputError("engagement CSV has no data rows")
    return records


def engagement_sample(records) -> PairedSample:
    """Paired sample with x = true-news engagement, y = false-news engagement."""
    return PairedSample(
        x=np.array([r.true_engagement for r in records], dtype=np.float64),
        y=np.array([r.false_engagement for r in records], dtype=np.float64),
    )
