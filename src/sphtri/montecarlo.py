"""Simulation oracle: triangle samplers, empirical CDFs, region tests.

Everything here is deliberately independent of the analytic formulas in
``distributions`` (the samplers construct triangles and measure them with
the vector geometry of ``sphere``), so agreement between the two modules
is evidence for both.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sphere
from .coords import CoordKind, vertices
from .distributions import ConditionalKind, region_boundary
from .identities import bisector_angles, bisector_threshold
from .sphere import RngStream

# Rows per block of sample_batch; a block's temporaries (points, column
# copies, normals) take a few MB. At 10^6 primal triangles on a 2-CPU host,
# blocks of 2048 to 16384 rows ran within noise of each other; 1024 rows
# paid more per-call overhead, and 32768 or more were slower and larger.
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
    seed: int
    stream_id: int

    @property
    def n(self) -> int:
        return len(self.sigma)

    def summary_row(
        self,
        ks_area: float | None = None,
        ks_perimeter: float | None = None,
    ) -> list[str]:
        return [
            self.kind.value,
            "" if self.kappa is None else f"{self.kappa:.17g}",
            str(self.n),
            str(self.seed),
            f"{float(np.mean(self.sigma)):.17g}",
            f"{float(np.mean(self.tau)):.17g}",
            "" if ks_area is None else f"{ks_area:.17g}",
            "" if ks_perimeter is None else f"{ks_perimeter:.17g}",
        ]


SUMMARY_HEADER = ["kind", "kappa", "n", "seed", "mean_sigma", "mean_tau", "ks_area", "ks_perimeter"]


def summary_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


class EmpiricalCdf:
    """Right-continuous empirical CDF x -> rank/n over a sample."""

    def __init__(self, samples):
        self.sorted = np.sort(np.asarray(samples, dtype=float))
        self.n = len(self.sorted)

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

    The batch is computed in blocks of BLOCK rows: each block draws its
    points from the stream and writes its slice of the outputs. numpy's
    Generator gives the same values whether n rows are drawn at once or
    in consecutive pieces, so the samples do not depend on the block
    size. DUAL_GIVEN_ANGLE reads the stream as all of rho, then all of
    theta; it draws each block's theta from a copy of the bit generator
    advanced past the rho draws, and leaves the stream where one draw of
    all rho and then all theta would. Peak memory is the outputs (16 bytes
    per triangle, 32 for the conditional kinds) plus a few MB. DUAL raises
    DegenerateDual if any block holds a parallel pole pair.
    """
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
    elif kind is BatchKind.DUAL_GIVEN_ANGLE:
        # The stream is read as all of rho, then all of theta. uniform takes
        # one 64-bit draw per value, so a copy of the bit generator advanced
        # by n draws yields the theta draws block by block.
        gen = rng.generator
        bits = gen.bit_generator
        theta_bits = type(bits)()
        theta_bits.state = bits.state
        theta_bits.advance(n)
        theta_gen = np.random.Generator(theta_bits)

    sigma, tau = np.empty(n), np.empty(n)
    coord_u = np.empty(n) if conditional else None
    coord_v = np.empty(n) if conditional else None
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        m = hi - lo
        if kind is BatchKind.PRIMAL:
            pts = sphere.sample_uniform_points(rng, 3 * m).reshape(m, 3, 3)
            a, b, c, al, be, ga = sphere.triangle_elements(pts[:, 0], pts[:, 1], pts[:, 2])
        elif kind is BatchKind.DUAL:
            pts = sphere.sample_uniform_points(rng, 3 * m).reshape(m, 3, 3)
            a, b, c, al, be, ga = sphere.triangle_elements(
                *sphere.dual_vertices(pts[:, 0], pts[:, 1], pts[:, 2])
            )
        elif kind is BatchKind.PRIMAL_GIVEN_SIDE:
            C = sphere.sample_uniform_points(rng, m)
            a, b, c, al, be, ga = sphere.triangle_elements(A, B, C)
            coord_u[lo:hi], coord_v[lo:hi] = al, b  # (theta, rho) of the fixed-side system
        else:
            rho = gen.uniform(0.0, math.pi, m)
            theta = np.arccos(1.0 - 2.0 * theta_gen.uniform(0.0, 1.0, m))  # sin-weighted
            a, b, c, al, be, ga = sphere.triangle_elements(
                *vertices(CoordKind.DUAL, rho, theta, kappa)
            )
            coord_u[lo:hi], coord_v[lo:hi] = c, be  # (rho, theta) of the fixed-angle system
        sigma[lo:hi] = al + be + ga - math.pi
        tau[lo:hi] = a + b + c
    if kind is BatchKind.DUAL_GIVEN_ANGLE:
        # Leave the stream after the theta draws; advance cleared the
        # copy's buffered 32-bit half-draw, which uniform never touches.
        state, kept = theta_bits.state, bits.state
        state["has_uint32"], state["uinteger"] = kept["has_uint32"], kept["uinteger"]
        bits.state = state
    return SampleBatch(
        kind, kappa, sigma, tau, coord_u, coord_v, rng.seed, rng.stream_id
    )


def ks_distance(emp: EmpiricalCdf, analytic: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between an empirical CDF and an analytic one."""
    F = np.asarray(analytic(emp.sorted), dtype=float)
    d = np.arange(1.0, emp.n + 1)  # i / n - F(x_i)
    d /= emp.n
    d -= F
    d_plus = np.max(d)
    del d  # so that the second range can reuse its memory
    d = np.arange(0.0, emp.n)  # F(x_i) - (i - 1) / n
    d /= emp.n
    np.subtract(F, d, out=d)
    d_minus = np.max(d)
    return float(max(d_plus, d_minus))


# The region laws: conditional kind -> (the batch kind that samples it, the
# statistic attribute it bounds).
REGION_SETUP = {
    ConditionalKind.AREA_GIVEN_SIDE: (BatchKind.PRIMAL_GIVEN_SIDE, "sigma"),
    ConditionalKind.PERIMETER_GIVEN_SIDE: (BatchKind.PRIMAL_GIVEN_SIDE, "tau"),
    ConditionalKind.PERIMETER_GIVEN_ANGLE: (BatchKind.DUAL_GIVEN_ANGLE, "tau"),
    ConditionalKind.AREA_GIVEN_ANGLE: (BatchKind.DUAL_GIVEN_ANGLE, "sigma"),
    ConditionalKind.PERIMETER_BISECTOR: (BatchKind.DUAL_GIVEN_ANGLE, "tau"),
}

_GUARD = 1e-9


def region_coverage(
    kind: ConditionalKind,
    kappa: float,
    limit: float,
    n: int,
    rng: RngStream,
) -> int:
    """Count of samples violating the region characterization of a law.

    Samples the matching conditional batch and checks that the points
    with statistic <= limit fall on the admissible side of the boundary
    curve (within a guard band of 1e-9), and the others on the opposite
    side. Returns the number of violations (0 when the curve formula and
    the sampler agree).
    """
    if kind not in REGION_SETUP:
        raise ValueError(f"no region characterization for {kind}")
    batch_kind, stat_name = REGION_SETUP[kind]
    batch = sample_batch(batch_kind, kappa, n, rng)
    stat = getattr(batch, stat_name)
    inside = stat <= limit

    if kind is ConditionalKind.PERIMETER_BISECTOR:
        # Per-sample bisector decomposition of the sampled triangles.
        be = batch.coord_v  # beta
        theta, rho = bisector_angles(kappa, be, batch.sigma + math.pi - kappa - be)
        thres = bisector_threshold(limit, kappa)
        lower = region_boundary(kind, limit, kappa)(rho)
        upper = math.pi - lower
        in_band = (
            (rho >= thres - _GUARD)
            & (theta >= lower - _GUARD)
            & (theta <= upper + _GUARD)
        )
        out_band = (rho <= thres + _GUARD) | (theta <= lower + _GUARD) | (theta >= upper - _GUARD)
        return int(np.sum(inside & ~in_band) + np.sum(~inside & ~out_band))

    if kind in (ConditionalKind.AREA_GIVEN_SIDE, ConditionalKind.PERIMETER_GIVEN_ANGLE):
        xcoord, ycoord = batch.coord_u, batch.coord_v
    else:
        xcoord, ycoord = batch.coord_v, batch.coord_u
    curve = region_boundary(kind, limit, kappa)(xcoord)
    above = ycoord > curve + _GUARD
    below = ycoord < curve - _GUARD
    return int(np.sum(inside & above) + np.sum(~inside & below))
