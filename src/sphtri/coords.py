"""Four coordinate systems for spherical triangles with one fixed element.

Each system fixes one element (kappa) and varies two parameters (u, v):

  Primal  (theta=u, rho=v, c=kappa) : angle at A, side b, fixed side c
  Dual    (rho=u, theta=v, alpha=kappa) : side c, angle beta, fixed angle alpha
  Angle   (phi=u, psi=v, c=kappa)   : angles at A and B, fixed side c
  Side    (xi=u, eta=v, alpha=kappa): sides c and b, fixed angle alpha

Every system fixes the side c = AB and the angle alpha at A, as kappa or
as u, so A = (1,0,0) and B = (cos c, sin c, 0) in all four. ``vertices``
finds C by one of two constructions, on floats or arrays:

  side-angle-side (Primal, Side): C = (cos b, sin b cos alpha, sin b sin alpha)
  angle-side-angle (Dual, Angle): C = unit(V x W), where
      V = (0, -sin alpha, cos alpha) is the pole of the great circle AC and
      W = (sin c sin beta, -cos c sin beta, -cos beta) that of BC

The uniform measure is carried by C in the fixed-side systems (Primal,
Angle) and by the pole unit(B x C) of BC in the fixed-angle ones (Dual,
Side). ``area_element`` gives the Jacobian of that map of (u, v) into the
sphere, so that integrals in (u, v) weighted by it are uniform-measure
probabilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSuchTriangle
from .sphere import TriangleMetrics

_EMBED_TOL = 1e-9


class CoordKind(enum.Enum):
    PRIMAL = "primal"
    DUAL = "dual"
    ANGLE = "angle"
    SIDE = "side"


@dataclass(frozen=True)
class CoordTriple:
    """Two varying parameters plus the fixed one, all in [0, pi].

    u and v may be arrays that broadcast; kappa is a float.
    """

    kind: CoordKind
    u: float | np.ndarray
    v: float | np.ndarray
    kappa: float

    def __post_init__(self):
        for name in ("u", "v", "kappa"):
            val = getattr(self, name)
            if not np.all((0.0 <= val) & (val <= math.pi)):
                raise ValueError(f"{name} = {val!r} outside [0, pi]")

    @property
    def interior(self) -> bool:
        return all(np.all((0.0 < t) & (t < math.pi)) for t in (self.u, self.v, self.kappa))


_DEFINING = {
    # kind -> (metrics attributes matching (u, v, kappa))
    CoordKind.PRIMAL: ("alpha", "b", "c"),
    CoordKind.DUAL: ("c", "beta", "alpha"),
    CoordKind.ANGLE: ("alpha", "beta", "c"),
    CoordKind.SIDE: ("c", "b", "alpha"),
}


def vertices(kind: CoordKind, u, v, kappa: float):
    """Vertices (A, B, C) of the triangle with coordinates (u, v, kappa).

    u and v are floats or arrays that broadcast. A is the fixed vertex
    (1, 0, 0) of shape (3,); B and C have the broadcast shape plus a last
    axis of 3, as views of coordinate-major storage, so that
    sphere.triangle_elements reads their columns without copying. Where
    the two great circles of the angle-side-angle construction coincide,
    C is the zero vector.
    """
    el = dict(zip(_DEFINING[kind], (u, v, kappa)))
    sc, cc = np.sin(el["c"]), np.cos(el["c"])
    sa, ca = np.sin(el["alpha"]), np.cos(el["alpha"])
    B = np.zeros((3, *np.broadcast(u, v).shape))
    B[0], B[1] = cc, sc
    if "b" in el:  # side-angle-side
        sb = np.sin(el["b"])
        C = np.stack(np.broadcast_arrays(np.cos(el["b"]), sb * ca, sb * sa))
    else:  # angle-side-angle: C = V x W
        sbe, cbe = np.sin(el["beta"]), np.cos(el["beta"])
        w = sc * sbe
        C = np.stack(np.broadcast_arrays(sa * cbe + ca * (cc * sbe), ca * w, sa * w))
        C /= np.maximum(np.sqrt(np.sum(C * C, axis=0)), 1e-300)
    return np.array([1.0, 0.0, 0.0]), np.moveaxis(B, 0, -1), np.moveaxis(C, 0, -1)


def embedding_point(coords: CoordTriple) -> np.ndarray:
    """The measure-carrying point of the embedding map at (u, v), shape (..., 3).

    Primal/Angle: the third vertex C. Dual/Side: the pole unit(B x C) of
    the great circle through B and C; raises NoSuchTriangle where B and C
    are within 1e-12 of colinear. Defined on the closed parameter square.
    """
    _, B, C = vertices(coords.kind, coords.u, coords.v, coords.kappa)
    if _DEFINING[coords.kind][2] == "c":  # a fixed side: the free vertex
        return C
    P = np.cross(B, C)
    n = np.linalg.norm(P, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise NoSuchTriangle("B and C colinear; side plane undefined")
    return P / n


def defining_parameters(kind: CoordKind, m: TriangleMetrics) -> tuple[float, float, float]:
    """(u, v, kappa) of a triangle in the given coordinate system."""
    f1, f2, f3 = _DEFINING[kind]
    return (getattr(m, f1), getattr(m, f2), getattr(m, f3))


def embed(coords: CoordTriple) -> TriangleMetrics:
    """Construct the triangle defined by a strictly interior triple of floats.

    Raises NoSuchTriangle when no triangle attains the requested
    parameters (checked by measuring the constructed triangle).
    """
    if not coords.interior:
        raise NoSuchTriangle("coordinates must be strictly interior")
    m = TriangleMetrics.from_vertices(*vertices(coords.kind, coords.u, coords.v, coords.kappa))
    got = defining_parameters(coords.kind, m)
    want = (coords.u, coords.v, coords.kappa)
    if max(abs(g - w) for g, w in zip(got, want)) > _EMBED_TOL:
        raise NoSuchTriangle(
            f"constraints unsatisfiable for {coords.kind.value}: "
            f"wanted {want}, constructed {tuple(map(float, got))}"
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


def area_element(coords: CoordTriple):
    """Jacobian of the embedding map (the uniform-measure weight).

    Primal: sin(rho); Dual: sin(theta); Angle and Side: closed-form
    rational expressions in the two angles/sides and kappa. Returns 0 on
    the parameter-square boundary; an array for array coordinates, else
    a float.
    """
    k, u, v, kappa = coords.kind, coords.u, coords.v, coords.kappa
    if k is CoordKind.PRIMAL or k is CoordKind.DUAL:
        out = np.abs(np.sin(v)) * np.ones_like(u)
    elif k is CoordKind.ANGLE:
        out = angle_jacobian(u, v, kappa)
    else:
        out = side_jacobian(u, v, kappa)
    return out if np.ndim(out) else float(out)


def jacobian_fd_check(coords: CoordTriple):
    """Relative error of the analytic area element vs a finite difference.

    Central differences of step 1e-5 of the embedding map over the two
    varying parameters give the surface Jacobian |dP/du x dP/dv|
    independently of the closed forms. An array for array coordinates,
    else a float.
    """
    if not coords.interior:
        raise NoSuchTriangle("coordinates must be strictly interior")
    h = 1e-5

    def pt(u, v):
        return embedding_point(CoordTriple(coords.kind, u, v, coords.kappa))

    u, v = coords.u, coords.v
    du = (pt(u + h, v) - pt(u - h, v)) / (2.0 * h)
    dv = (pt(u, v + h) - pt(u, v - h)) / (2.0 * h)
    fd = np.linalg.norm(np.cross(du, dv), axis=-1)
    exact = area_element(coords)
    err = np.abs(fd - exact) / np.abs(exact)
    return err if np.ndim(err) else float(err)
