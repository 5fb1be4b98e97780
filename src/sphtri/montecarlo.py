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
# other (primal 0.26-0.31 s, dual 0.32-0.35 s); 2048 rows were 10-18%
# slower and 1024 slower still, from per-call overhead; 32768 or more were
# slower and larger (a traced peak of 26 MB or more, against 19 MB).
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

    PRIMAL: three independent uniform vertices. DUAL: three independent
    uniform great-circle poles, vertices by normalized cross products.
    PRIMAL_GIVEN_SIDE: A = (1,0,0), B at arc kappa on the equator, C
    uniform. DUAL_GIVEN_ANGLE: fixed angle alpha = kappa, (rho, theta)
    drawn from the dual area element (rho uniform, cos theta uniform).
    Every kind takes sigma from sphere._excess: the angle sum, or on tiny
    triangles, where that sum can cancel below 0, the vertex form.

    The batch is computed in blocks of BLOCK rows: each block draws its
    points from the stream and writes its slice of the outputs. numpy's
    Generator gives the same values whether n rows are drawn at once or
    in consecutive pieces, so the samples do not depend on the block
    size. DUAL_GIVEN_ANGLE reads the stream as all of rho, then all of
    theta: it draws every rho into coord_u before the first block, and
    each block then draws its theta and overwrites its slice of coord_u
    with the side c. Peak memory is the outputs (16 bytes per triangle,
    32 for the conditional kinds) plus a few MB. DUAL raises
    DegenerateDual if any block holds a parallel pole pair. A kind that is
    not a BatchKind raises ValueError.
    """
    if not isinstance(kind, BatchKind):
        raise ValueError(f"unknown batch kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    conditional = kind in (BatchKind.PRIMAL_GIVEN_SIDE, BatchKind.DUAL_GIVEN_ANGLE)
    if conditional:
        if kappa is None or not 0.0 < kappa < math.pi:
            raise ValueError("conditional kinds need kappa in (0, pi)")
    else:
        kappa = None

    if kind is BatchKind.PRIMAL_GIVEN_SIDE:
        A = np.array([1.0, 0.0, 0.0])
        B = np.array([math.cos(kappa), math.sin(kappa), 0.0])

    sigma, tau = np.empty(n), np.empty(n)
    coord_u = np.empty(n) if conditional else None
    coord_v = np.empty(n) if conditional else None
    if kind is BatchKind.DUAL_GIVEN_ANGLE:
        # The stream is read as all of rho, then all of theta: every rho
        # is drawn here, as random() values that each block scales by pi.
        rng.generator.random(out=coord_u)
    # Not quadrature._blocked, which maps an input array: each block here
    # draws its own inputs from the stream, in the stream's order.
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        m = hi - lo
        if kind is BatchKind.PRIMAL:
            pts = sphere.sample_uniform_points(rng, 3 * m).reshape(m, 3, 3)
            V = pts[:, 0], pts[:, 1], pts[:, 2]
        elif kind is BatchKind.DUAL:
            pts = sphere.sample_uniform_points(rng, 3 * m).reshape(m, 3, 3)
            V = sphere.dual_vertices(pts[:, 0], pts[:, 1], pts[:, 2])
        elif kind is BatchKind.PRIMAL_GIVEN_SIDE:
            V = A, B, sphere.sample_uniform_points(rng, m)
        else:
            rho = coord_u[lo:hi] * math.pi  # uniform(0, pi) is 0.0 + pi * random()
            theta = np.arccos(1.0 - 2.0 * rng.generator.uniform(0.0, 1.0, m))  # sin-weighted
            V = vertices(CoordKind.DUAL, rho, theta, kappa)
        a, b, c, al, be, ga = sphere.triangle_elements(*V)
        if kind is BatchKind.PRIMAL_GIVEN_SIDE:
            coord_u[lo:hi], coord_v[lo:hi] = al, b  # (theta, rho) of the fixed-side system
        elif kind is BatchKind.DUAL_GIVEN_ANGLE:
            coord_u[lo:hi], coord_v[lo:hi] = c, be  # (rho, theta) of the fixed-angle system
        sigma[lo:hi] = sphere._excess(*V, al, be, ga)
        tau[lo:hi] = a + b + c
    return SampleBatch(kind, kappa, sigma, tau, coord_u, coord_v)


def ks_distance(emp: EmpiricalCdf, analytic: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between an empirical CDF and an analytic one."""
    F = np.asarray(analytic(emp.sorted), dtype=float)
    e = np.arange(0.0, emp.n)  # e_i = F(x_i) - (i - 1) / n, and i / n - F(x_i) = 1 / n - e_i
    e /= emp.n
    np.subtract(F, e, out=e)
    return float(max(1.0 / emp.n - np.min(e), np.max(e)))


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
        xcoord, ycoord = batch.coord_u, batch.coord_v
        if not law.curve_takes_u:
            xcoord, ycoord = ycoord, xcoord
        margin = curve(xcoord) - ycoord
    return int(np.sum(inside & (margin < -_GUARD)) + np.sum(~inside & (margin > _GUARD)))
