"""Parity of the stdlib statistics with the numpy/scipy reference.

:mod:`repro.util.stats` is pure Python so that no runtime path imports
numpy or scipy. These tests pin it to the libraries it replaced, which are
test-only dependencies:

* every :class:`Summary` field except ``ci99`` is **bit-identical** to
  numpy (pairwise summation, ``std(ddof=1)``, ``percentile`` linear);
* the Student-t quantile is within 1e-12 relative of
  ``scipy.stats.t.ppf``, on small df (Newton on the incomplete beta) and
  on large df (the Cornish–Fisher path).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.util.stats import confidence_interval, summarize, t_quantile

#: Straddle numpy's pairwise-summation edges: < 8 (plain fold), 8
#: accumulators, the 128-element block, its splits, and large arrays.
SIZES = (1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 4000, 4096, 8193, 12345)

CONFIDENCES = (0.90, 0.95, 0.99, 0.999)
SMALL_DF = range(1, 201)
LARGE_DF = (1000, 1001, 1500, 2000, 5000, 10**4, 12345, 10**5, 314159, 10**6)


def numpy_summary(samples: list[float]) -> dict[str, float]:
    """The fields of the numpy implementation :func:`summarize` replaced."""
    arr = np.asarray(samples, dtype=float)
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "minimum": float(arr.min()),
        "maximum": float(arr.max()),
    }


def assert_bit_identical(summary, expected: dict[str, float]) -> None:
    # float.hex tells -0.0 from 0.0, which == does not.
    got = {field: float(getattr(summary, field)).hex() for field in expected}
    assert got == {field: float(value).hex() for field, value in expected.items()}


def scipy_ci(samples: list[float], confidence: float = 0.99) -> float:
    arr = np.asarray(samples, dtype=float)
    sem = arr.std(ddof=1) / np.sqrt(arr.size)
    if sem == 0.0:
        return 0.0
    return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1) * sem)


def draw(rng: random.Random, n: int, shape: str) -> list[float]:
    if shape == "latency":  # the harness's use: positive, skewed, ~ms
        return [rng.lognormvariate(-7.0, 1.0) for _ in range(n)]
    if shape == "signed":
        return [rng.gauss(5.0, 20.0) for _ in range(n)]
    if shape == "ties":
        return [float(rng.randint(0, 4)) for _ in range(n)]
    return [rng.expovariate(1.0) * 10.0 ** rng.randint(-6, 6) for _ in range(n)]


@pytest.mark.parametrize("shape", ["latency", "signed", "ties", "wide"])
@pytest.mark.parametrize("n", SIZES)
def test_summary_bit_identical_to_numpy(n, shape):
    rng = random.Random(f"{n}/{shape}")
    for _ in range(3):
        samples = draw(rng, n, shape)
        summary = summarize(samples)
        assert_bit_identical(summary, numpy_summary(samples))


@settings(max_examples=300, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=600,
    )
)
def test_summary_bit_identical_to_numpy_on_any_floats(samples):
    assert_bit_identical(summarize(samples), numpy_summary(samples))


@pytest.mark.parametrize("n", [n for n in SIZES if n > 1])
def test_ci99_matches_scipy(n):
    samples = draw(random.Random(n), n, "latency")
    assert summarize(samples).ci99 == pytest.approx(scipy_ci(samples), rel=1e-12)
    assert confidence_interval(samples, 0.95) == pytest.approx(
        scipy_ci(samples, 0.95), rel=1e-12
    )


def test_summary_accepts_ints():
    assert summarize([3, 1, 2]) == summarize([3.0, 1.0, 2.0])


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_t_quantile_small_df_matches_scipy(confidence):
    p = 0.5 + confidence / 2.0
    expected = scipy_stats.t.ppf(p, list(SMALL_DF))
    for df, ref in zip(SMALL_DF, expected, strict=True):
        assert t_quantile(p, df) == pytest.approx(float(ref), rel=1e-12), df


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_t_quantile_large_df_matches_scipy(confidence):
    p = 0.5 + confidence / 2.0
    expected = scipy_stats.t.ppf(p, list(LARGE_DF))
    for df, ref in zip(LARGE_DF, expected, strict=True):
        assert t_quantile(p, df) == pytest.approx(float(ref), rel=1e-12), df


@pytest.mark.parametrize("df", [1, 2, 3, 30, 999, 1000, 3000, 10**6])
def test_t_quantile_lower_and_far_tails_match_scipy(df):
    assert t_quantile(0.5, df) == 0.0
    for p in (0.05, 0.005, 1e-9, 1.0 - 1e-9):
        assert t_quantile(p, df) == pytest.approx(float(scipy_stats.t.ppf(p, df)), rel=1e-12)


@pytest.mark.parametrize("p, df", [(0.0, 5), (1.0, 5), (0.7, 0.5)])
def test_t_quantile_rejects_bad_arguments(p, df):
    with pytest.raises(ValueError):
        t_quantile(p, df)
