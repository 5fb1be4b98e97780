"""Simulation oracle: triangle samplers, empirical CDFs, region tests.

Everything here is deliberately independent of the analytic formulas in
``distributions`` (the samplers construct triangles and measure them with
the vector geometry of ``sphere``), so agreement between the two modules
is evidence for both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sphere
from .coords import CoordKind, vertices
from .distributions import CONDITIONAL_LAWS, ConditionalKind, region_boundary
from .identities import bisector_angles, bisector_threshold
from .sphere import RngStream

# Rows per block of sample_batch; a block's temporaries (points, column
# copies, normals) take a few MB. At 10^6 triangles on a 2-CPU host (three
# sweeps, best of 7), blocks of 4096 to 16384 rows ran within noise of each
# other; 1024 rows were the slowest in every sweep, from per-call overhead,
# and 32768 were no faster and larger (a traced dual peak of 26 MB,
# against 18.6 MB).
BLOCK = 8192


class BatchKind(enum.Enum):
    PRIMAL = "primal"
    DUAL = "dual"
    PRIMAL_GIVEN_SIDE = "primal_given_side"
    DUAL_GIVEN_ANGLE = "dual_given_angle"


@dataclass(frozen=True)
class SampleBatch:
    """(sigma, tau) samples plus the coordinate pair used by region tests.

    For PRIMAL_GIVEN_SIDE the coordinates are (theta, rho) = (alpha, b);
    for DUAL_GIVEN_ANGLE they are (rho, theta) = (c, beta); for the
    unconditional kinds they are not defined (None).
    """

    kind: BatchKind
    kappa: float | None
    sigma: np.ndarray
    tau: np.ndarray
    coord_u: np.ndarray | None
    coord_v: np.ndarray | None

    @property
    def n(self) -> int:
        return len(self.sigma)


class EmpiricalCdf:
    """Right-continuous empirical CDF x -> rank/n over a sample.

    Raises ValueError on an empty sample or one that holds a NaN.
    """

    def __init__(self, samples):
        self.sorted = np.sort(np.asarray(samples, dtype=float))
        self.n = len(self.sorted)
        if self.n == 0:
            raise ValueError("empirical CDF of an empty sample")
        if np.isnan(self.sorted[-1]):  # np.sort puts NaN last
            raise ValueError("empirical CDF of a sample that holds NaN")

    def __call__(self, x):
        return np.searchsorted(self.sorted, x, side="right") / self.n


def sample_batch(
    kind: BatchKind, kappa: float | None, n: int, rng: RngStream
) -> SampleBatch:
    """Draw n triangles of the given kind and record (sigma, tau).

    PRIMAL, DUAL and PRIMAL_GIVEN_SIDE share one construction: A =
    (1, 0, 0), B = (cos c, sin c, 0) at arc c on the equator, and C
    uniform. sigma and tau do not change under rotation, and the side
    between two independent uniform points has P(c <= t) = (1 - cos t) / 2,
    so with cos c = 1 - 2u, u uniform, the triangle has the law of three
    independent uniform vertices: that is PRIMAL. DUAL takes the same
    triple as three uniform great-circle poles, vertices by normalized
    cross products. PRIMAL_GIVEN_SIDE fixes c = kappa. DUAL_GIVEN_ANGLE:
    fixed angle alpha = kappa, (rho, theta) drawn from the dual area element
    (rho uniform, cos theta uniform). Every kind takes sigma from
    sphere._excess: the angle sum, or on tiny triangles, where that sum can
    cancel below 0, the vertex form.

    The batch is computed in blocks of BLOCK rows: each block draws its
    points from the stream and writes its slice of the outputs. numpy's
    Generator gives the same values whether n rows are drawn at once or
    in consecutive pieces, so the samples do not depend on the block
    size. PRIMAL and DUAL read the stream as all of the sides, then the
    points C block by block: every u is drawn into tau before the first
    block, and each block reads its slice before it writes tau there.
    DUAL_GIVEN_ANGLE likewise reads all of rho, then all of theta: every
    rho is drawn into coord_u, and each block then draws its theta and
    overwrites its slice of coord_u with the side c. Peak memory is the
    outputs (16 bytes per triangle, 32 for the conditional kinds) plus a
    few MB. DUAL raises DegenerateDual if any block holds a parallel pole
    pair. A kind that is not a BatchKind raises ValueError.
    """
    if not isinstance(kind, BatchKind):
        raise ValueError(f"unknown batch kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    conditional = kind in (BatchKind.PRIMAL_GIVEN_SIDE, BatchKind.DUAL_GIVEN_ANGLE)
    if not conditional:
        kappa = None
    elif kappa is None or not 0.0 < kappa < math.pi:
        raise ValueError("conditional kinds need kappa in (0, pi)")

    A = np.array([1.0, 0.0, 0.0])
    if kind is BatchKind.PRIMAL_GIVEN_SIDE:  # else each block's B is drawn
        B = np.array([math.cos(kappa), math.sin(kappa), 0.0])

    sigma, tau = np.empty(n), np.empty(n)
    coord_u, coord_v = (np.empty(n), np.empty(n)) if conditional else (None, None)
    if kind is not BatchKind.PRIMAL_GIVEN_SIDE:
        # The stream is read as all of the first draw, then the blocks'. Every
        # rho is drawn here into coord_u, as random() values that each block
        # scales by pi; every side, as u = (1 - cos c) / 2 into tau, which
        # each block reads before it writes its tau.
        rng.generator.random(out=coord_u if conditional else tau)
    # Not quadrature._blocked, which maps an input array: each block here
    # draws its own inputs from the stream, in the stream's order.
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        m = hi - lo
        if kind is BatchKind.DUAL_GIVEN_ANGLE:
            rho = coord_u[lo:hi] * math.pi  # uniform(0, pi) is 0.0 + pi * random()
            theta = np.arccos(1.0 - 2.0 * rng.generator.uniform(0.0, 1.0, m))  # sin-weighted
            V = vertices(CoordKind.DUAL, rho, theta, kappa)
        else:
            if not conditional:  # B = (cos c, sin c, 0), its columns contiguous
                u = tau[lo:hi]
                B = np.stack([1.0 - 2.0 * u, 2.0 * np.sqrt(u * (1.0 - u)), np.zeros(m)]).T
            V = A, B, sphere.sample_uniform_points(rng, m)
            if kind is BatchKind.DUAL:
                V = sphere.dual_vertices(*V)
        a, b, c, al, be, ga = sphere.triangle_elements(*V)
        if conditional:  # (theta, rho) of the fixed-side system, (rho, theta) of the fixed-angle one
            coord_u[lo:hi], coord_v[lo:hi] = (al, b) if kind is BatchKind.PRIMAL_GIVEN_SIDE else (c, be)
        sigma[lo:hi] = sphere._excess(*V, al, be, ga)
        tau[lo:hi] = a + b + c
    return SampleBatch(kind, kappa, sigma, tau, coord_u, coord_v)


def ks_distance(emp: EmpiricalCdf, analytic: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between an empirical CDF and an analytic one."""
    F = np.asarray(analytic(emp.sorted), dtype=float)
    # d+ = max(i/n - F(x_i)) and d- = max(F(x_i) - (i-1)/n), each in one n-long temporary.
    e = np.arange(1.0, emp.n + 1)
    e /= emp.n
    d_plus = np.max(np.subtract(e, F, out=e))
    del e  # free it before the second one
    e = np.arange(0.0, emp.n)
    e /= emp.n
    return float(max(d_plus, np.max(np.subtract(F, e, out=e))))


# The batch kind that samples the laws given each element of distributions.CONDITIONAL_LAWS.
GIVEN_BATCH = {"side": BatchKind.PRIMAL_GIVEN_SIDE, "angle": BatchKind.DUAL_GIVEN_ANGLE}

_GUARD = 1e-9


def region_coverage(
    kind: ConditionalKind,
    kappa: float,
    limit: float,
    n: int,
    rng: RngStream,
) -> int:
    """Count of samples violating the region characterization of a law.

    Samples the batch of the law's fixed element and takes each point's
    signed margin to the region_boundary curve, positive inside the
    region: curve(x) - y for a curve kind, with (x, y) the batch's
    coordinates in the order of law.curve_takes_u, and for the bisector the
    least of rho - bisector_threshold, theta - f(rho) and
    pi - f(rho) - theta. A point with statistic <= limit and a margin below
    -1e-9 is a violation, as is one with a larger statistic and a margin
    above 1e-9 (the guard band). Returns the number of violations (0 when
    the curve formula and the sampler agree). A kind without a region
    boundary raises ValueError before any sampling.
    """
    curve = region_boundary(kind, limit, kappa)
    law = CONDITIONAL_LAWS[kind]
    batch = sample_batch(GIVEN_BATCH[law.element], kappa, n, rng)
    inside = getattr(batch, law.statistic) <= limit

    if kind is ConditionalKind.PERIMETER_BISECTOR:
        # Per-sample bisector decomposition of the sampled triangles.
        be = batch.coord_v  # beta
        theta, rho = bisector_angles(kappa, be, batch.sigma + math.pi - kappa - be)
        lower = curve(rho)
        margin = np.minimum(rho - bisector_threshold(limit, kappa),
                            np.minimum(theta - lower, math.pi - lower - theta))
    else:
        u, v = batch.coord_u, batch.coord_v
        margin = curve(u) - v if law.curve_takes_u else curve(v) - u
    return int(np.sum(inside & (margin < -_GUARD)) + np.sum(~inside & (margin > _GUARD)))
