import tracemalloc

import numpy as np
import pytest

from jetbm import QuarticTensor, TimeMetric
from jetbm.geometry import CHUNK

# batch sizes of the tests that a point computes the same alone and in a
# batch: one point, a quarter and a half of a chunk (even and odd), a whole
# chunk, and one point past it
BATCH_SIZES = (1, CHUNK // 4, CHUNK // 4 + 1, CHUNK // 2, CHUNK // 2 + 1, CHUNK, CHUNK + 1)


@pytest.fixture
def bm():
    return QuarticTensor.berwald_moor()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def families():
    return [
        TimeMetric.constant(1.0),
        TimeMetric.constant(2.5),
        TimeMetric.exponential(1.0, 1.0),
        TimeMetric.exponential(0.7, -0.8),
        TimeMetric.power(1.0),
        TimeMetric.power(-1.3),
    ]


def cone_points(rng, n, lo=0.1, hi=10.0):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=(n, 4)))


def traced_peak(fn, *args) -> int:
    """Bytes of the largest traced allocation total (numpy's buffers
    included) that fn(*args) reaches above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def max_rel(a, b):
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    denom = np.maximum(np.abs(a), np.abs(b))
    d = np.abs(a - b)
    out = np.zeros_like(d)
    nz = denom > 0
    out[nz] = d[nz] / denom[nz]
    return float(out.max())


def assert_close(a, b, rtol, name=""):
    """Entrywise closeness at rtol, with an absolute floor of rtol times the
    overall magnitude (so exact zeros against 1e-17 round-off pass)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * scale, err_msg=name)
