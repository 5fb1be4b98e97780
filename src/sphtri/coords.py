"""Four coordinate systems for spherical triangles with one fixed element.

Each system fixes one element (kappa) and varies two parameters (u, v):

  Primal  (theta=u, rho=v, c=kappa) : angle at A, side b, fixed side c
  Dual    (rho=u, theta=v, alpha=kappa) : side c, angle beta, fixed angle alpha
  Angle   (phi=u, psi=v, c=kappa)   : angles at A and B, fixed side c
  Side    (xi=u, eta=v, alpha=kappa): sides c and b, fixed angle alpha

Vertices A = (1,0,0) and B on the equator; the third point C (or, for the
Dual/Side systems, the pole of the great circle through B and C, which is
what actually carries the uniform measure) is a smooth map of (u, v) into
the sphere. ``area_element`` gives the Jacobian of that map, so that
integrals in (u, v) weighted by it are uniform-measure probabilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSuchTriangle
from .sphere import TriangleMetrics, metrics_from_vertices, UnitVec3

_EMBED_TOL = 1e-9


class CoordKind(enum.Enum):
    PRIMAL = "primal"
    DUAL = "dual"
    ANGLE = "angle"
    SIDE = "side"


@dataclass(frozen=True)
class CoordTriple:
    """Two varying parameters plus the fixed one, all in [0, pi]."""

    kind: CoordKind
    u: float
    v: float
    kappa: float

    def __post_init__(self):
        for name in ("u", "v", "kappa"):
            val = getattr(self, name)
            if not 0.0 <= val <= math.pi:
                raise ValueError(f"{name} = {val!r} outside [0, pi]")

    @property
    def interior(self) -> bool:
        return all(0.0 < t < math.pi for t in (self.u, self.v, self.kappa))


def _primal_point(theta, rho):
    return np.array([
        math.cos(rho), math.sin(rho) * math.cos(theta), math.sin(rho) * math.sin(theta)
    ])


def _dual_pole(rho, theta):
    # Pole of the great circle through B and C; this map carries the
    # uniform measure in the dual system.
    return np.array([
        -math.sin(rho) * math.sin(theta), math.cos(rho) * math.sin(theta), math.cos(theta)
    ])


def _angle_normals(phi, psi, kappa):
    V = np.array([0.0, -math.sin(phi), math.cos(phi)])
    W = np.array([
        math.sin(kappa) * math.sin(psi),
        -math.cos(kappa) * math.sin(psi),
        -math.cos(psi),
    ])
    return V, W


def _third_vertex_from_normals(V, W):
    cr = np.cross(V, W)
    n = np.linalg.norm(cr)
    if n < 1e-12:
        raise NoSuchTriangle("side planes coincide; no third vertex")
    return cr / n


def _side_pole(xi, eta, kappa):
    B = np.array([math.cos(xi), math.sin(xi), 0.0])
    C = np.array([
        math.cos(eta), math.cos(kappa) * math.sin(eta), math.sin(kappa) * math.sin(eta)
    ])
    cr = np.cross(B, C)
    n = np.linalg.norm(cr)
    if n < 1e-12:
        raise NoSuchTriangle("B and C colinear; side plane undefined")
    return cr / n


def embedding_point(coords: CoordTriple) -> np.ndarray:
    """The measure-carrying point of the embedding map at (u, v).

    Primal/Angle: the third vertex C. Dual/Side: the pole of the great
    circle through B and C. Defined on the closed parameter square.
    """
    k = coords.kind
    if k is CoordKind.PRIMAL:
        return _primal_point(coords.u, coords.v)
    if k is CoordKind.DUAL:
        return _dual_pole(coords.u, coords.v)
    if k is CoordKind.ANGLE:
        V, W = _angle_normals(coords.u, coords.v, coords.kappa)
        return _third_vertex_from_normals(V, W)
    return _side_pole(coords.u, coords.v, coords.kappa)


def _vertices(coords: CoordTriple):
    """Vertex triple (A, B, C) realizing the coordinate triple."""
    k, u, v, kappa = coords.kind, coords.u, coords.v, coords.kappa
    A = np.array([1.0, 0.0, 0.0])
    if k is CoordKind.PRIMAL:
        B = np.array([math.cos(kappa), math.sin(kappa), 0.0])
        C = _primal_point(u, v)
    elif k is CoordKind.DUAL:
        rho, theta = u, v
        B = np.array([math.cos(rho), math.sin(rho), 0.0])
        V = np.array([0.0, -math.sin(kappa), math.cos(kappa)])
        W = -_dual_pole(rho, theta)
        C = _third_vertex_from_normals(V, W)
    elif k is CoordKind.ANGLE:
        B = np.array([math.cos(kappa), math.sin(kappa), 0.0])
        V, W = _angle_normals(u, v, kappa)
        C = _third_vertex_from_normals(V, W)
    else:
        xi, eta = u, v
        B = np.array([math.cos(xi), math.sin(xi), 0.0])
        C = np.array([
            math.cos(eta), math.cos(kappa) * math.sin(eta), math.sin(kappa) * math.sin(eta)
        ])
    return A, B, C


_DEFINING = {
    # kind -> (metrics attributes matching (u, v, kappa))
    CoordKind.PRIMAL: ("alpha", "b", "c"),
    CoordKind.DUAL: ("c", "beta", "alpha"),
    CoordKind.ANGLE: ("alpha", "beta", "c"),
    CoordKind.SIDE: ("c", "b", "alpha"),
}


def defining_parameters(kind: CoordKind, m: TriangleMetrics) -> tuple[float, float, float]:
    """(u, v, kappa) of a triangle in the given coordinate system."""
    f1, f2, f3 = _DEFINING[kind]
    return (getattr(m, f1), getattr(m, f2), getattr(m, f3))


def embed(coords: CoordTriple) -> TriangleMetrics:
    """Construct the triangle defined by a strictly interior triple.

    Raises NoSuchTriangle when no triangle attains the requested
    parameters (checked by measuring the constructed triangle).
    """
    if not coords.interior:
        raise NoSuchTriangle("coordinates must be strictly interior")
    A, B, C = _vertices(coords)
    m = metrics_from_vertices(
        UnitVec3.from_vector(A), UnitVec3.from_vector(B), UnitVec3.from_vector(C)
    )
    got = defining_parameters(coords.kind, m)
    want = (coords.u, coords.v, coords.kappa)
    if max(abs(g - w) for g, w in zip(got, want)) > _EMBED_TOL:
        raise NoSuchTriangle(
            f"constraints unsatisfiable for {coords.kind.value}: "
            f"wanted {want}, constructed {got}"
        )
    return m


def _jacobian(u, v, sk, ck, one_plus_ck, one_minus_ck):
    """The Angle-system area element at fixed element sin/cos (sk, ck).

    Its denominator is 1 - c^2 with c = cos u cos v - ck sin u sin v,
    taken as the product of

        1 - c = 2 sin^2((u - v)/2) + (1 + ck) sin u sin v,
        1 + c = 2 cos^2((u + v)/2) + (1 - ck) sin u sin v,

    sums of terms that are nonnegative on the parameter square, so that
    it keeps its relative accuracy near the corners where it vanishes (as
    1 - c^2 does not). 1 + ck and 1 - ck come in from the half angle, exact
    where ck is near -1 or 1. The Side system is the same element with ck
    negated.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    su, cu = np.sin(u), np.cos(u)
    sv, cv = np.sin(v), np.cos(v)
    s = su * sv
    num = sk * sk * s * ((su * cv + ck * cu * sv) ** 2 + sk * sk * sv * sv)
    den = ((2.0 * np.sin(0.5 * (u - v)) ** 2 + one_plus_ck * s)
           * (2.0 * np.cos(0.5 * (u + v)) ** 2 + one_minus_ck * s))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.maximum(den, 1e-300) ** 2.5, 0.0)
    return out


def angle_jacobian(phi, psi, kappa):
    """Area element of the Angle system, vectorized over phi/psi arrays."""
    cos2, sin2 = 2.0 * math.cos(0.5 * kappa) ** 2, 2.0 * math.sin(0.5 * kappa) ** 2
    return _jacobian(phi, psi, math.sin(kappa), math.cos(kappa), cos2, sin2)


def side_jacobian(xi, eta, kappa):
    """Area element of the Side system, vectorized over xi/eta arrays."""
    cos2, sin2 = 2.0 * math.cos(0.5 * kappa) ** 2, 2.0 * math.sin(0.5 * kappa) ** 2
    return _jacobian(xi, eta, math.sin(kappa), -math.cos(kappa), sin2, cos2)


def area_element(coords: CoordTriple) -> float:
    """Jacobian of the embedding map (the uniform-measure weight).

    Primal: sin(rho); Dual: sin(theta); Angle and Side: closed-form
    rational expressions in the two angles/sides and kappa. Returns 0 on
    the parameter-square boundary.
    """
    k, u, v, kappa = coords.kind, coords.u, coords.v, coords.kappa
    if k is CoordKind.PRIMAL or k is CoordKind.DUAL:
        return abs(math.sin(v))
    if k is CoordKind.ANGLE:
        return float(angle_jacobian(u, v, kappa))
    return float(side_jacobian(u, v, kappa))


def jacobian_fd_check(coords: CoordTriple, h: float = 1e-5) -> float:
    """Relative error of the analytic area element vs a finite difference.

    Central differences of the embedding map over the two varying
    parameters give the surface Jacobian |dP/du x dP/dv| independently of
    the closed forms.
    """
    if not coords.interior:
        raise NoSuchTriangle("coordinates must be strictly interior")
    if not 1e-6 <= h <= 1e-3:
        raise ValueError("step size h must be in [1e-6, 1e-3]")

    def pt(u, v):
        return embedding_point(CoordTriple(coords.kind, u, v, coords.kappa))

    u, v = coords.u, coords.v
    du = (pt(u + h, v) - pt(u - h, v)) / (2.0 * h)
    dv = (pt(u, v + h) - pt(u, v - h)) / (2.0 * h)
    fd = float(np.linalg.norm(np.cross(du, dv)))
    exact = area_element(coords)
    return abs(fd - exact) / abs(exact)
