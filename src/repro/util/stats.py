"""Statistics helpers used by the evaluation harness.

The paper reports averages with **99% confidence intervals** (Student-t).
:func:`summarize` reproduces exactly that, plus percentiles that are handy
when inspecting tail latency.

Everything here is pure Python, and the results are pinned to the
numpy/scipy reference (``tests/property/test_stats_parity.py``):

* mean and standard deviation port numpy's float64 pairwise summation,
  so they are bit-identical to ``ndarray.mean()`` / ``ndarray.std(ddof=1)``;
* percentiles port ``numpy.percentile``'s default ``linear`` method,
  including its two-sided lerp, so they are bit-identical too;
* the Student-t quantile matches ``scipy.stats.t.ppf`` to 1e-12 relative.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add


@dataclass(frozen=True, slots=True)
class Summary:
    """Summary statistics of a sample, in the units of the input."""

    n: int
    mean: float
    std: float
    ci99: float          #: half-width of the 99% confidence interval
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @property
    def ci_lo(self) -> float:
        return self.mean - self.ci99

    @property
    def ci_hi(self) -> float:
        return self.mean + self.ci99

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.6g} ±{self.ci99:.2g} (n={self.n})"


# ------------------------------------------------------------- summation
#: numpy's pairwise-summation block (``PW_BLOCKSIZE``).
_BLOCK = 128


def _pairwise_sum(a: list[float], lo: int, n: int) -> float:
    """Sum ``a[lo:lo + n]`` in exactly numpy's float64 add-reduce order.

    Below 8 elements: a left fold from 0.0. Up to a block: 8 interleaved
    accumulators, combined as a balanced tree, then the ragged tail. Above:
    split in two at a multiple of 8 and recurse. (``sum()`` is not usable:
    from Python 3.12 it compensates, which numpy does not.)
    """
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= _BLOCK:
        m = lo + n - n % 8
        r = [reduce(add, a[lo + j:m:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(m, lo + n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


def _np_sum(a: list[float]) -> float:
    """``numpy.add.reduce`` of a float64 vector: the identity plus the
    pairwise sum of the whole (contiguous, unbuffered) array."""
    return 0.0 + _pairwise_sum(a, 0, len(a))


def _mean_std(a: list[float]) -> tuple[float, float]:
    """``(arr.mean(), arr.std(ddof=1))`` with numpy's rounding; the std of a
    single sample is 0.0 rather than numpy's nan."""
    n = len(a)
    mean = _np_sum(a) / n
    if n < 2:
        return mean, 0.0
    sq = [(x - mean) * (x - mean) for x in a]
    return mean, math.sqrt(_np_sum(sq) / (n - 1))


# ------------------------------------------------------------ percentiles
def _percentile(ordered: list[float], pct: float) -> float:
    """``numpy.percentile(arr, pct)`` (method ``linear``) of a sorted list."""
    n = len(ordered)
    virtual = (n - 1) * (pct / 100)
    if virtual >= n - 1:
        # numpy takes the last element for both neighbours and still
        # lerps, with gamma measured from index -1.
        below = above = ordered[-1]
        gamma = virtual + 1
    else:
        lower = math.floor(virtual)
        below, above = ordered[lower], ordered[lower + 1]
        gamma = virtual - lower
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


# ------------------------------------------------------- Student-t quantile
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
#: From this many degrees of freedom on (scaled up by ``z²/10`` in the far
#: tails, where the series converges more slowly) the Cornish–Fisher series
#: alone is accurate to double precision, and it is better conditioned than
#: the incomplete beta, whose ``x = df / (df + t²)`` crowds against 1.
_LARGE_DF = 1000.0


def _normal_upper(q: float) -> float:
    """``z`` with ``P(Z > z) = q`` for ``0 < q <= 0.5``: Abramowitz & Stegun
    26.2.23 (error < 4.5e-4), polished by Newton steps on ``math.erfc``."""
    w = math.sqrt(-2.0 * math.log(q))
    z = w - (2.515517 + w * (0.802853 + w * 0.010328)) / (
        1.0 + w * (1.432788 + w * (0.189269 + w * 0.001308))
    )
    for _ in range(8):
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        step = (0.5 * math.erfc(z / _SQRT2) - q) / pdf
        z += step
        if abs(step) <= 1e-16 * z:
            break
    return z


def _cornish_fisher(z: float, df: float) -> float:
    """Abramowitz & Stegun 26.7.5: the t quantile as a series in ``1/df``
    around the normal quantile ``z``."""
    z2 = z * z
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0
    g3 = z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0
    g4 = z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _log_gamma_half_ratio(a: float) -> float:
    """``lgamma(a + 1/2) - lgamma(a)`` without the cancellation of two large
    ``lgamma`` values: the Stirling series of the difference for large ``a``."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    b = a + 0.5

    def tail(z: float) -> float:
        # Stirling correction sum B_2k / (2k (2k-1) z^(2k-1)), through z^-9.
        r = 1.0 / (z * z)
        return (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r * (1.0 / 1680 - r / 1188)))) / z

    return 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + (tail(b) - tail(a))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) <= 1e-16:
            break
    return h


def _t_tail(t: float, df: float, log_beta: float) -> float:
    """``P(T > t)`` for ``t >= 0``: ``I_x(df/2, 1/2) / 2`` at
    ``x = df / (df + t²)``, with ``log_beta = log B(df/2, 1/2)``."""
    a, b = 0.5 * df, 0.5
    s = t * t / df
    x = 1.0 / (1.0 + s)
    y = s / (1.0 + s)  # 1 - x, without the rounding of a subtraction
    front = math.exp(-a * math.log1p(s) + b * math.log(y) - log_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _betacf(a, b, x) / a
    return 0.5 * (1.0 - front * _betacf(b, a, y) / b)


def _t_upper(q: float, df: float) -> float:
    """``t >= 0`` with ``P(T > t) = q`` for ``0 < q <= 0.5``."""
    if q == 0.5:
        return 0.0
    if df == 1.0:
        return 1.0 / math.tan(math.pi * q)
    if df == 2.0:
        return (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))
    z = _normal_upper(q)
    t = _cornish_fisher(z, df)
    if df >= _LARGE_DF * max(1.0, 0.1 * z * z):
        return t
    # Newton on the tail from the Cornish–Fisher start. The tail is convex
    # in t, so from the left the iterates rise monotonically to the root.
    log_ratio = _log_gamma_half_ratio(0.5 * df)
    log_beta = _LOG_SQRT_PI - log_ratio
    log_pdf_c = log_ratio - 0.5 * math.log(df * math.pi)
    for _ in range(100):
        pdf = math.exp(log_pdf_c - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        step = (_t_tail(t, df, log_beta) - q) / pdf
        nxt = t + step
        if nxt <= 0.0:
            nxt = 0.5 * t  # overshot from far right: fall back towards 0
        if abs(nxt - t) <= 4e-16 * nxt:
            return nxt
        t = nxt
    return t


def t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t distribution, ``df >= 1``.

    Matches ``scipy.stats.t.ppf(p, df)`` to 1e-12 relative for tails
    ``min(p, 1 - p)`` from 1e-15 to 0.45, df up to 1e7 (tested). Closer to
    the median it is the more accurate of the two.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    if df < 1.0:
        raise ValueError(f"need df >= 1, got {df}")
    if p > 0.5:
        return _t_upper(1.0 - p, df)  # exact: 1 - p for p in [0.5, 1)
    return -_t_upper(p, df)


# ---------------------------------------------------------------- public
def confidence_interval(samples: Sequence[float], confidence: float = 0.99) -> float:
    """Half-width of the two-sided Student-t confidence interval of the mean.

    Returns 0.0 for samples of size < 2 (no variance estimate is possible);
    the paper's experiments always have hundreds of samples.
    """
    n = len(samples)
    if n < 2:
        return 0.0
    _, std = _mean_std([float(x) for x in samples])
    return _ci(std, n, confidence)


def _ci(std: float, n: int, confidence: float) -> float:
    sem = std / math.sqrt(n)
    if sem == 0.0:
        return 0.0
    return t_quantile(0.5 + confidence / 2.0, n - 1) * sem


def summarize(samples: Sequence[float], confidence: float = 0.99) -> Summary:
    """Compute :class:`Summary` statistics for a non-empty sample."""
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample")
    values = [float(x) for x in samples]
    n = len(values)
    mean, std = _mean_std(values)
    ordered = sorted(values)
    return Summary(
        n=n,
        mean=mean,
        std=std,
        ci99=_ci(std, n, confidence),
        p50=_percentile(ordered, 50),
        p95=_percentile(ordered, 95),
        p99=_percentile(ordered, 99),
        minimum=ordered[0],
        maximum=ordered[-1],
    )
