"""Points on the unit sphere and spherical-triangle element computation.

``TriangleMetrics.from_vertices`` is the checked interface. The kernels it
calls check nothing, so that near-collinear dual batches pass through them.

A triangle is described by its six elements: sides ``a, b, c`` (arc lengths
of the great-circle edges, each in [0, pi]) and opposite angles ``alpha,
beta, gamma`` (dihedral angles, each in [0, pi]), together with the
spherical excess ``sigma = alpha + beta + gamma - pi`` (Girard: equals the
area on the unit sphere) and the perimeter ``tau = a + b + c``.

The vectorized kernels work on the x/y/z coordinate columns. For unit
vertices A, B, C, ``triangle_elements`` forms one normal per edge,
n_AB = A x B, n_BC = B x C, n_CA = C x A. Each side is atan2(|u x v|, u . v)
from its edge normal. The angle at a vertex is the angle between its two
edge normals, and |(A x B) x (A x C)| = |A . (B x C)| |A|, so with the one
shared triple product |det| = |n_AB x n_CA| no normal needs normalizing:

    alpha = atan2(|det|, -n_AB . n_CA)
    beta  = atan2(|det|, -n_AB . n_BC)
    gamma = atan2(|det|, -n_CA . n_BC)

|det| is taken from the normals, not as A . n_BC. When every side is within
about 1e-7 of 0 or pi (near-collinear vertices, which dual batches of 10^6
contain), |det| is near 1e-15 and A . n_BC keeps only its absolute accuracy
of about 1e-16; the cross of two normals keeps their relative accuracy. On
the triangles of a dual batch of 10^6 where the two forms differ most, the
worst angle error against a 40-digit reference was 1.4e-5 with A . n_BC
and 2.6e-10 with the normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateDual, DegenerateTriangle

# Pairs closer (or more antipodal) than this are rejected as degenerate.
# Far above double-precision noise, far below any statistically relevant event.
DEGENERACY_TOL = 1e-9

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TriangleMetrics:
    """Sides, angles, excess and perimeter: floats, or arrays of one per triangle.

    Metrics are read-only once built: identities keeps the sines and cosines
    it takes of the fields in _memo, so a field array changed in place would
    leave them stale. dataclasses.replace builds new metrics with an empty memo.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray
    sigma: float | np.ndarray
    tau: float | np.ndarray

    @classmethod
    def from_vertices(cls, A, B, C) -> TriangleMetrics:
        """Triangles with unit vertices A, B, C: arrays (..., 3) that broadcast.

        Fields have the broadcast shape (0-d for single vertices); sigma is
        Girard's alpha + beta + gamma - pi, or on tiny triangles Van
        Oosterom and Strackee's form (see _excess), and tau = a + b + c. Raises
        DegenerateTriangle if any coordinate is not finite (an infinite one
        can leave the sides finite and the angles NaN), or if any side is
        NaN or within DEGENERACY_TOL of 0 or pi.
        """
        if not all(np.isfinite(V).all() for V in (A, B, C)):
            raise DegenerateTriangle("a vertex coordinate is not finite")
        a, b, c, alpha, beta, gamma = triangle_elements(A, B, C)
        # Written as "not inside" so that a NaN side fails it too.
        if any(np.any(~((s >= DEGENERACY_TOL) & (s <= math.pi - DEGENERACY_TOL))) for s in (a, b, c)):
            raise DegenerateTriangle(
                "two vertices coincide or are antipodal within tolerance, or a side is NaN"
            )
        sigma = _excess(A, B, C, alpha, beta, gamma)
        return cls(a, b, c, alpha, beta, gamma, sigma, a + b + c)

    @cached_property
    def _memo(self) -> dict:
        # Not a dataclass field, so fields(), astuple(), == and repr see the eight elements only.
        return {}


@dataclass
class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    Identical (seed, stream_id) reproduces an identical sample sequence;
    distinct stream ids give statistically independent streams, so workers
    may each own one. A single stream must not be shared concurrently.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.default_rng(seq)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def arc_length(u, v):
    """Great-circle distance between unit vectors (arrays broadcast on ...,3).

    Uses atan2(|u x v|, u . v) rather than acos of the dot product, which
    keeps full precision for nearly coincident and nearly antipodal pairs.
    No src/ module calls it: it is the tests' oracle for triangle_elements.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cross = np.cross(u, v)
    s = np.linalg.norm(cross, axis=-1)
    d = np.einsum("...i,...i->...", u, v)
    return np.arctan2(s, d)


def _columns(V):
    """The x, y, z columns of a (..., 3) array, each one contiguous.

    A batch of vertices is copied once into coordinate-major order; a fixed
    vertex of shape (3,) yields three scalars that broadcast. The transpose
    moves the last axis to the front, the view np.moveaxis(V, -1, 0) gives,
    without that function's Python-level axis handling.
    """
    V = np.asarray(V, dtype=float)
    return tuple(np.ascontiguousarray(V.transpose(V.ndim - 1, *range(V.ndim - 1))))


def _cross(u, v):
    ux, uy, uz = u
    vx, vy, vz = v
    return uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm(u):
    """The length of column vector u, summed in np.linalg.norm's order."""
    return np.sqrt(_dot(u, u))


def triangle_elements(A, B, C):
    """Sides and angles for vertex arrays of shape (..., 3) that broadcast.

    Returns (a, b, c, alpha, beta, gamma), each of the broadcast shape.
    Vertices must be unit vectors; no degeneracy checking is done here
    (TriangleMetrics.from_vertices is the checked interface).

    With edge normals n_AB = A x B, n_BC = B x C, n_CA = C x A and
    |det| = |n_AB x n_CA| = |A . (B x C)|: a = atan2(|n_BC|, B . C) (b, c
    likewise), alpha = atan2(|det|, -n_AB . n_CA),
    beta = atan2(|det|, -n_AB . n_BC) and gamma = atan2(|det|, -n_CA . n_BC).
    """
    A, B, C = _columns(A), _columns(B), _columns(C)
    n_ab, n_bc, n_ca = _cross(A, B), _cross(B, C), _cross(C, A)
    a = np.arctan2(_norm(n_bc), _dot(B, C))
    b = np.arctan2(_norm(n_ca), _dot(C, A))
    c = np.arctan2(_norm(n_ab), _dot(A, B))
    del A, B, C  # free the column copies before the angle temporaries
    w = _cross(n_ab, n_ca)
    det = _norm(w)
    out = (
        a, b, c,
        np.arctan2(det, -_dot(n_ab, n_ca)),
        np.arctan2(det, -_dot(n_ab, n_bc)),
        np.arctan2(det, -_dot(n_ca, n_bc)),
    )
    # A side between two fixed vertices does not vary along the batch.
    shape = np.shape(det)
    return tuple(x if np.shape(x) == shape else np.full(shape, x) for x in out)


# Below this Girard's angle sum can cancel to a wrong sign (see _excess).
_GIRARD_SMALL = 1e-6


def _excess(A, B, C, alpha, beta, gamma):
    """The spherical excess of triangles with unit vertices A, B, C and angles alpha, beta, gamma.

    The vertices are arrays (..., 3) that broadcast to the angles' shape.
    The excess is Girard's alpha + beta + gamma - pi, except on rows where
    that sum is below _GIRARD_SMALL. There it cancels: on the dual of
    three independent uniform poles it fell to -2.66e-10 where the excess
    is 2.2626e-15, and in a dual batch of 10^5 (seed 26270, stream 3) it
    is 0.0 where the excess is 9.3116e-21. On those rows Van Oosterom and
    Strackee's tan(sigma/2) = |A . (B x C)| / (1 + A . B + B . C + C . A)
    (IEEE Trans. Biomed. Eng. 30, 1983) gives the excess, with the triple
    product taken as A . ((B - A) x (C - A)) so that a small triangle keeps
    its relative accuracy. It does so only where the denominator exceeds
    1: on near-lunes, two sides within 1e-5 of pi, numerator and
    denominator are both about 1e-11, the formula is 2.3e-5 off, and the
    angle sum is right. Other rows keep the angle sum's bits.
    """
    sigma = alpha + beta + gamma - math.pi
    if sigma.min() >= _GIRARD_SMALL:  # a NaN row fails this and keeps its NaN below
        return sigma
    # The sum's own array, or a 0-d one for a single triangle; C order, so that
    # flat is a view of it, through which the rows are written.
    sigma = np.asarray(sigma, order="C")
    flat = sigma.reshape(-1)
    rows = np.flatnonzero(flat < _GIRARD_SMALL)

    def picked(V):  # V's [x, y, z] on those rows as Python floats; a fixed (3,) vertex repeats
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            return [V.tolist()] * len(rows)
        if V.shape[:-1] != sigma.shape:
            V = np.broadcast_to(V, sigma.shape + (3,))
        return V.reshape(-1, 3)[rows].tolist()

    # A few rows a block: on floats, as numpy calls on arrays this short cost more than the sums.
    out = []
    for a, b, c, s in zip(picked(A), picked(B), picked(C), flat[rows].tolist()):
        ba, ca = [p - q for p, q in zip(b, a)], [p - q for p, q in zip(c, a)]
        den = 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a)
        out.append(2.0 * math.atan2(abs(_dot(a, _cross(ba, ca))), den) if den > 1.0 else s)
    flat[rows] = out
    return sigma[()]


def dual_vertices(Ap, Bp, Cp):
    """Vertices of the dual triangle with poles Ap, Bp, Cp (arrays ...,3).

    A = Bp x Cp / |Bp x Cp|, B = Ap x Cp / |Ap x Cp|, C = Ap x Bp / |Ap x Bp|;
    raises DegenerateDual when a cross product is shorter than
    DEGENERACY_TOL (parallel poles). Each returned (..., 3) array is a view
    of coordinate-major storage, so triangle_elements reads its columns
    without copying.
    """
    Ap, Bp, Cp = _columns(Ap), _columns(Bp), _columns(Cp)
    out = []
    for w in (_cross(Bp, Cp), _cross(Ap, Cp), _cross(Ap, Bp)):
        n = _norm(w)
        if np.any(n < DEGENERACY_TOL):
            raise DegenerateDual("pole pair parallel or antiparallel within tolerance")
        v = np.stack(w)
        v /= n
        out.append(v.transpose(*range(1, v.ndim), 0))
    return tuple(out)


def sample_uniform_points(rng: RngStream, n: int) -> np.ndarray:
    """(n, 3) C-contiguous array of independent uniform points on the sphere.

    Muller's method: standard normal 3-vectors, each divided by its length.
    The length is summed column by column, sqrt((x*x + y*y) + z*z), in the
    order np.linalg.norm(v, axis=1) adds, so the points are bit for bit
    those of that form, without its reduction over a 3-long axis. 10^6
    points take 0.084-0.086 s, of which the draw is 0.056-0.061 s
    (0.11 s with np.linalg.norm; 2-CPU host, best of 10).
    """
    v = rng.generator.standard_normal((n, 3))
    x, y, z = v.T
    norms = x * x
    norms += y * y
    norms += z * z
    np.sqrt(norms, out=norms)
    np.maximum(norms, _NORM_TOL, out=norms)
    v /= norms[:, None]
    return v


def lhuilier_excess(a, b, c):
    """Spherical excess from the three sides alone (L'Huilier).

    tan(sigma/4) = sqrt(tan(s/2) tan((s-a)/2) tan((s-b)/2) tan((s-c)/2)),
    s = (a+b+c)/2. Independent of the angle-based (Girard) route, so it
    serves as an oracle for it; no src/ module calls it, the tests do.
    """
    s = 0.5 * (a + b + c)
    t = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))
