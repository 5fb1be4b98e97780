import math

import numpy as np
import pytest

from sphtri.distributions import perimeter_cdf_grid
from sphtri.montecarlo import BatchKind, sample_batch
from sphtri.sphere import RngStream


@pytest.fixture(scope="session")
def primal_batch_1m():
    return sample_batch(BatchKind.PRIMAL, None, 10**6, RngStream(123))


@pytest.fixture(scope="session")
def dual_batch_1m():
    return sample_batch(BatchKind.DUAL, None, 10**6, RngStream(123, 1))


@pytest.fixture(scope="session")
def perimeter_cdf_interp():
    """Interpolated perimeter CDF (geometrically refined near 2*pi)."""
    xs, vals = perimeter_cdf_grid(steps=600)
    return lambda s: np.interp(s, xs, vals)


@pytest.fixture(scope="session")
def tail_histograms_10m():
    """sigma/tau bin counts at n = 10^7, accumulated in chunks.

    Returns (n, count sigma in [0, 0.05], count tau in [3*pi/2 - 0.005,
    3*pi/2 + 0.005]).
    """
    n_total = 10**7
    chunk = 10**6
    c_sigma = 0
    c_tau = 0
    lo_t, hi_t = 3 * math.pi / 2 - 0.005, 3 * math.pi / 2 + 0.005
    for stream in range(n_total // chunk):
        b = sample_batch(BatchKind.PRIMAL, None, chunk, RngStream(777, stream))
        c_sigma += int(np.sum(b.sigma <= 0.05))
        c_tau += int(np.sum((b.tau > lo_t) & (b.tau <= hi_t)))
    return n_total, c_sigma, c_tau
