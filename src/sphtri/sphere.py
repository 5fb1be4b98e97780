"""Points on the unit sphere and spherical-triangle element computation.

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

import numpy as np

from .errors import DegenerateDual, DegenerateTriangle

# Pairs closer (or more antipodal) than this are rejected as degenerate.
# Far above double-precision noise, far below any statistically relevant event.
DEGENERACY_TOL = 1e-9

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class UnitVec3:
    """A point on the unit sphere (direction cosines)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(n - 1.0) > _NORM_TOL:
            raise ValueError(f"not a unit vector (norm {n!r})")

    @classmethod
    def from_vector(cls, v) -> "UnitVec3":
        """Normalize an arbitrary 3-vector onto the sphere."""
        v = np.asarray(v, dtype=float)
        n = float(np.linalg.norm(v))
        if n < _NORM_TOL:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(float(v[0] / n), float(v[1] / n), float(v[2] / n))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class TriangleMetrics:
    """The six elements of a spherical triangle plus excess and perimeter."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float
    sigma: float
    tau: float

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


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
    vertex of shape (3,) yields three scalars that broadcast.
    """
    return tuple(np.ascontiguousarray(np.moveaxis(np.asarray(V, dtype=float), -1, 0)))


def _cross(u, v):
    ux, uy, uz = u
    vx, vy, vz = v
    return uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def triangle_elements(A, B, C):
    """Sides and angles for vertex arrays of shape (..., 3) that broadcast.

    Returns (a, b, c, alpha, beta, gamma), each of the broadcast shape.
    Vertices must be unit vectors; no degeneracy checking is done here (see
    metrics_from_vertices for the checked scalar interface).

    With edge normals n_AB = A x B, n_BC = B x C, n_CA = C x A and
    |det| = |n_AB x n_CA| = |A . (B x C)|: a = atan2(|n_BC|, B . C) (b, c
    likewise), alpha = atan2(|det|, -n_AB . n_CA),
    beta = atan2(|det|, -n_AB . n_BC) and gamma = atan2(|det|, -n_CA . n_BC).
    """
    A, B, C = _columns(A), _columns(B), _columns(C)
    n_ab, n_bc, n_ca = _cross(A, B), _cross(B, C), _cross(C, A)
    a = np.arctan2(np.sqrt(_dot(n_bc, n_bc)), _dot(B, C))
    b = np.arctan2(np.sqrt(_dot(n_ca, n_ca)), _dot(C, A))
    c = np.arctan2(np.sqrt(_dot(n_ab, n_ab)), _dot(A, B))
    del A, B, C  # free the column copies before the angle temporaries
    w = _cross(n_ab, n_ca)
    det = np.sqrt(_dot(w, w))
    out = (
        a, b, c,
        np.arctan2(det, -_dot(n_ab, n_ca)),
        np.arctan2(det, -_dot(n_ab, n_bc)),
        np.arctan2(det, -_dot(n_ca, n_bc)),
    )
    # A side between two fixed vertices does not vary along the batch.
    shape = np.shape(det)
    return tuple(x if np.shape(x) == shape else np.full(shape, x) for x in out)


def _metrics_from_elements(a, b, c, alpha, beta, gamma) -> TriangleMetrics:
    sigma = alpha + beta + gamma - math.pi
    tau = a + b + c
    return TriangleMetrics(
        float(a), float(b), float(c),
        float(alpha), float(beta), float(gamma),
        float(sigma), float(tau),
    )


def metrics_from_vertices(A: UnitVec3, B: UnitVec3, C: UnitVec3) -> TriangleMetrics:
    """All six elements of the triangle with the given vertices.

    Raises DegenerateTriangle if any two vertices coincide or are antipodal
    within DEGENERACY_TOL (the angle at such a vertex is undefined).
    """
    va, vb, vc = A.as_array(), B.as_array(), C.as_array()
    for u, v in ((va, vb), (va, vc), (vb, vc)):
        if np.linalg.norm(np.cross(u, v)) < DEGENERACY_TOL:
            raise DegenerateTriangle(
                "two vertices coincide or are antipodal within tolerance"
            )
    a, b, c, alpha, beta, gamma = triangle_elements(va, vb, vc)
    return _metrics_from_elements(a, b, c, alpha, beta, gamma)


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
        n = np.sqrt(_dot(w, w))
        if np.any(n < DEGENERACY_TOL):
            raise DegenerateDual("pole pair parallel or antiparallel within tolerance")
        v = np.stack(w)
        v /= n
        out.append(np.moveaxis(v, 0, -1))
    return tuple(out)


def dual_metrics_from_poles(Ap: UnitVec3, Bp: UnitVec3, Cp: UnitVec3) -> TriangleMetrics:
    """Metrics of the dual triangle whose great-circle sides have these poles."""
    A, B, C = dual_vertices(Ap.as_array(), Bp.as_array(), Cp.as_array())
    a, b, c, alpha, beta, gamma = triangle_elements(A, B, C)
    return _metrics_from_elements(a, b, c, alpha, beta, gamma)


def sample_uniform_point(rng: RngStream) -> UnitVec3:
    """One point uniform on the sphere (normalized Gaussian triple)."""
    g = rng.generator
    v = g.standard_normal(3)
    n = np.linalg.norm(v)
    while n < _NORM_TOL:  # pragma: no cover - probability ~ 0
        v = g.standard_normal(3)
        n = np.linalg.norm(v)
    return UnitVec3(float(v[0] / n), float(v[1] / n), float(v[2] / n))


def sample_uniform_points(rng: RngStream, n: int) -> np.ndarray:
    """(n, 3) array of independent uniform points on the sphere."""
    v = rng.generator.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    np.maximum(norms, _NORM_TOL, out=norms)
    v /= norms
    return v


def lhuilier_excess(a, b, c):
    """Spherical excess from the three sides alone (L'Huilier).

    tan(sigma/4) = sqrt(tan(s/2) tan((s-a)/2) tan((s-b)/2) tan((s-c)/2)),
    s = (a+b+c)/2. Independent of the angle-based (Girard) route, so it
    serves as an oracle for it.
    """
    s = 0.5 * (a + b + c)
    t = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))
