import math
import re

import numpy as np
import pytest

from sphtri import coords
from sphtri.coords import (
    CoordKind,
    CoordTriple,
    angle_jacobian,
    area_element,
    defining_parameters,
    embed,
    embedding_point,
    jacobian_fd_check,
    side_jacobian,
    vertices,
)
from sphtri.errors import NoSuchTriangle, OutOfDomain
from sphtri.sphere import TriangleMetrics

PI = math.pi

INTERIOR_GRID = [
    (float(u), float(v), float(k))
    for u in np.linspace(0.3, PI - 0.3, 5)
    for v in np.linspace(0.3, PI - 0.3, 5)
    for k in np.linspace(0.5, PI - 0.5, 3)
]


def grid_by_kappa():
    """INTERIOR_GRID as (u array, v array, kappa) for each kappa."""
    for k in sorted({k for _, _, k in INTERIOR_GRID}):
        pts = [(u, v) for u, v, kk in INTERIOR_GRID if kk == k]
        yield np.array([u for u, _ in pts]), np.array([v for _, v in pts]), k


class TestCoordTriple:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            CoordTriple(CoordKind.PRIMAL, -0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            CoordTriple(CoordKind.PRIMAL, 0.1, 1.0, PI + 0.1)
        with pytest.raises(ValueError):
            CoordTriple(CoordKind.PRIMAL, np.array([0.1, -0.1]), 1.0, 1.0)

    def test_interior_flag(self):
        assert CoordTriple(CoordKind.DUAL, 0.1, 0.1, 0.1).interior
        assert not CoordTriple(CoordKind.DUAL, 0.0, 0.1, 0.1).interior
        assert CoordTriple(CoordKind.DUAL, np.array([0.1, 3.0]), 0.1, 0.1).interior
        assert not CoordTriple(CoordKind.DUAL, np.array([0.1, PI]), 0.1, 0.1).interior


class TestVertices:
    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_array_grid_equals_scalar_calls(self, kind):
        for us, vs, k in grid_by_kappa():
            A, B, C = vertices(kind, us, vs, k)
            assert B.shape == C.shape == (len(us), 3)
            for i, (u, v) in enumerate(zip(us, vs)):
                a, b, c = vertices(kind, float(u), float(v), k)
                assert np.array_equal(A, a)
                assert np.array_equal(B[i], b) and np.array_equal(C[i], c)

    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_measured_triangle_gives_back_coordinates(self, kind):
        for us, vs, k in grid_by_kappa():
            m = TriangleMetrics.from_vertices(*vertices(kind, us, vs, k))
            got_u, got_v, got_k = defining_parameters(kind, m)
            assert np.max(np.abs(got_u - us)) < 1e-9
            assert np.max(np.abs(got_v - vs)) < 1e-9
            assert np.max(np.abs(got_k - k)) < 1e-9

    @pytest.mark.parametrize("kind", [CoordKind.DUAL, CoordKind.SIDE])
    def test_pole_is_unit_and_orthogonal_to_b_and_c(self, kind):
        for us, vs, k in grid_by_kappa():
            P = embedding_point(CoordTriple(kind, us, vs, k))
            _, B, C = vertices(kind, us, vs, k)
            assert np.max(np.abs(np.linalg.norm(P, axis=-1) - 1.0)) < 1e-15
            assert np.max(np.abs(np.sum(P * B, axis=-1))) < 1e-15
            assert np.max(np.abs(np.sum(P * C, axis=-1))) < 1e-15

    def test_dual_pole_orientation(self):
        # unit(B x C) is the pole W = (sin rho sin theta, -cos rho sin theta,
        # -cos theta) of the great circle through B at angle theta.
        for rho, theta, k in INTERIOR_GRID:
            P = embedding_point(CoordTriple(CoordKind.DUAL, rho, theta, k))
            W = [math.sin(rho) * math.sin(theta), -math.cos(rho) * math.sin(theta),
                 -math.cos(theta)]
            assert np.max(np.abs(P - W)) < 1e-15


class TestEmbed:
    def test_primal_octant(self):
        m = embed(CoordTriple(CoordKind.PRIMAL, PI / 2, PI / 2, PI / 2))
        for v in (m.a, m.b, m.c, m.alpha, m.beta, m.gamma):
            assert abs(v - PI / 2) < 1e-12

    def test_primal_theta_zero_limit(self):
        # As theta -> 0 the third vertex flattens into the equator.
        rho = 1.1
        p = embedding_point(CoordTriple(CoordKind.PRIMAL, 1e-12, rho, 0.9))
        assert np.allclose(p, [math.cos(rho), math.sin(rho), 0.0], atol=1e-11)

    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_round_trip(self, kind):
        for u, v, k in INTERIOR_GRID:
            m = embed(CoordTriple(kind, u, v, k))
            got = defining_parameters(kind, m)
            assert max(abs(g - w) for g, w in zip(got, (u, v, k))) < 1e-9

    def test_boundary_rejected(self):
        with pytest.raises(NoSuchTriangle):
            embed(CoordTriple(CoordKind.ANGLE, 0.0, 1.0, 1.0))
        with pytest.raises(NoSuchTriangle, match="strictly interior"):
            jacobian_fd_check(CoordTriple(CoordKind.ANGLE, 0.0, 1.0, 1.0))
        # At the closed square's edge u = 0 the dual's B and C both fall on A.
        with pytest.raises(NoSuchTriangle, match="colinear"):
            embedding_point(CoordTriple(CoordKind.DUAL, 0.0, 1.0, 1.0))

    def test_a_wrong_construction_raises(self, monkeypatch):
        # embed measures what vertices built; no interior triple has failed
        # that check, so a construction for the wrong kappa stands in.
        right = coords.vertices
        monkeypatch.setattr(coords, "vertices",
                            lambda kind, u, v, kappa: right(kind, u, v, kappa + 0.1))
        with pytest.raises(NoSuchTriangle, match="constraints unsatisfiable"):
            embed(CoordTriple(CoordKind.PRIMAL, 1.0, 1.0, 1.0))


class TestAreaElement:
    def test_primal_equator(self):
        assert area_element(CoordTriple(CoordKind.PRIMAL, 1.0, PI / 2, 2.0)) == 1.0

    def test_dual_is_sin_theta(self):
        assert abs(area_element(CoordTriple(CoordKind.DUAL, 1.0, 0.7, 2.0)) - math.sin(0.7)) < 1e-15

    def test_angle_octant(self):
        # All cosines vanish; the rational expression collapses to 1.
        assert abs(area_element(CoordTriple(CoordKind.ANGLE, PI / 2, PI / 2, PI / 2)) - 1.0) < 1e-14

    def test_angle_vanishes_at_phi_zero(self):
        assert area_element(CoordTriple(CoordKind.ANGLE, 1e-9, 1.0, 1.5)) < 1e-8

    def test_boundary_zero(self):
        assert area_element(CoordTriple(CoordKind.SIDE, 0.0, 1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_array_for_either_array_coordinate(self, kind):
        us = np.array([0.5, 1.0, 2.0])
        for u, v in ((us, 0.7), (0.7, us)):
            got = area_element(CoordTriple(kind, u, v, 1.1))
            assert got.shape == (3,)
            for i in range(3):
                ui, vi = np.broadcast_arrays(u, v)
                want = area_element(CoordTriple(kind, float(ui[i]), float(vi[i]), 1.1))
                assert isinstance(want, float) and abs(got[i] - want) <= 1e-15 * want


class TestJacobianCheck:
    @pytest.mark.parametrize(
        "kind,u,v,k",
        [
            (CoordKind.PRIMAL, PI / 3, PI / 4, PI / 2),
            (CoordKind.SIDE, PI / 3, PI / 3, PI / 2),
            (CoordKind.DUAL, PI / 2, PI / 2, PI / 2),
            (CoordKind.ANGLE, 1.1, 2.0, 0.8),
        ],
    )
    def test_spot_points(self, kind, u, v, k):
        assert jacobian_fd_check(CoordTriple(kind, u, v, k)) < 1e-6

    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_array_triple_equals_scalar_calls(self, kind):
        # The grid at each kappa, then u and v of different shapes that
        # broadcast: 4 u with one float v, and an open grid.
        us, vs = np.linspace(0.4, 2.6, 4), np.linspace(0.5, 2.5, 3)
        for u, v, k in [*grid_by_kappa(), (us, 1.1, 1.2), (us[:, None], vs[None, :], 1.2)]:
            got = jacobian_fd_check(CoordTriple(kind, u, v, k))
            bu, bv = np.broadcast_arrays(u, v)
            assert isinstance(got, np.ndarray) and got.shape == bu.shape
            for g, a, b in zip(got.ravel(), bu.ravel(), bv.ravel()):
                want = jacobian_fd_check(CoordTriple(kind, float(a), float(b), k))
                assert isinstance(want, float)
                assert abs(g - want) < 1e-9

    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_array_kappa_equals_float_kappa_calls(self, kind):
        # The verify suite's grid: kappa of shape (5, 1, 1) against 10 x 10
        # grids of u and v that lack its axis, then one kappa per point.
        # Each element is the call at its float kappa, bit for bit.
        u, v = np.meshgrid(*[np.linspace(0.15, PI - 0.15, 10)] * 2, indexing="ij")
        ks = np.linspace(0.3, PI - 0.3, 5)
        got = jacobian_fd_check(CoordTriple(kind, u, v, ks[:, None, None]))
        assert got.shape == (5, 10, 10)
        for i, k in enumerate(ks):
            want = jacobian_fd_check(CoordTriple(kind, u, v, float(k)))
            np.testing.assert_array_equal(got[i], want)
        # Against one-element arrays: an all-float call runs numpy's scalar
        # arithmetic, which can round differently (see test_array_triple_equals_scalar_calls).
        us, kk = np.linspace(0.4, 2.6, 4), np.linspace(0.5, 2.5, 4)
        got = jacobian_fd_check(CoordTriple(kind, us, 1.1, kk))
        for j, k in enumerate(kk):
            assert got[j] == jacobian_fd_check(CoordTriple(kind, us[j:j + 1], 1.1, float(k)))[0]

    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_one_embedding_call_equals_four(self, kind):
        # The verify suite's 10 x 10 grid at one of its kappas, against the
        # finite difference of four embedding calls, one per shifted point.
        u, v = np.meshgrid(*[np.linspace(0.15, PI - 0.15, 10)] * 2, indexing="ij")
        k, h = float(np.linspace(0.3, PI - 0.3, 5)[1]), 1e-5

        def pt(a, b):
            return embedding_point(CoordTriple(kind, a, b, k))

        du = (pt(u + h, v) - pt(u - h, v)) / (2.0 * h)
        dv = (pt(u, v + h) - pt(u, v - h)) / (2.0 * h)
        exact = area_element(CoordTriple(kind, u, v, k))
        want = np.abs(np.linalg.norm(np.cross(du, dv), axis=-1) - exact) / np.abs(exact)
        np.testing.assert_array_equal(jacobian_fd_check(CoordTriple(kind, u, v, k)), want)

    @pytest.mark.parametrize("kind", list(CoordKind))
    @pytest.mark.parametrize("edge", [1e-6, PI - 1e-6])
    def test_point_within_the_step_of_the_edge_raises(self, kind, edge):
        # The stencil of step 1e-5 would leave the square there; the error names the point.
        for u, v in ((edge, 1.0), (1.0, edge)):
            with pytest.raises(OutOfDomain, match=re.escape(f"({u!r}, {v!r})")):
                jacobian_fd_check(CoordTriple(kind, u, v, 1.0))
        with pytest.raises(OutOfDomain, match=re.escape(f"({edge!r}, 1.0)")):
            jacobian_fd_check(CoordTriple(kind, np.array([1.0, 2.0, edge]), 1.0, 1.0))

    @pytest.mark.parametrize("kind", list(CoordKind))
    def test_grid(self, kind):
        worst = max(
            jacobian_fd_check(CoordTriple(kind, u, v, k))
            for u, v, k in INTERIOR_GRID
        )
        assert worst < 1e-6


def _math_jacobian(u, v, kappa, sign):
    """The area element at a float kappa, its sines and cosines from math: the float path's reference."""
    cos2, sin2 = 2.0 * math.cos(0.5 * kappa) ** 2, 2.0 * math.sin(0.5 * kappa) ** 2
    if sign < 0:
        cos2, sin2 = sin2, cos2
    return coords._jacobian(u, v, math.sin(kappa), sign * math.cos(kappa), cos2, sin2)


@pytest.mark.parametrize("jac, sign", [(angle_jacobian, 1), (side_jacobian, -1)])
def test_jacobians_take_an_array_kappa(jac, sign):
    # Each element of an array-kappa call equals the float-kappa call at its
    # kappa bit for bit, and a float kappa keeps math's sin and cos, so the
    # 2-D routes' scalar calls are unchanged. The grids reach 1e-7 from the corners.
    grid = np.concatenate([[1e-7, 3e-6], np.linspace(0.15, PI - 0.15, 6), [PI - 3e-6, PI - 1e-7]])
    u, v = np.meshgrid(grid, grid, indexing="ij")
    ks = np.array([0.01, 0.3, PI / 2, 2.8, PI - 0.01])
    got = jac(u, v, ks[:, None, None])
    assert got.shape == (5, 10, 10)
    for i, k in enumerate(ks):
        want = jac(u, v, float(k))
        np.testing.assert_array_equal(got[i], want)
        np.testing.assert_array_equal(want, _math_jacobian(u, v, float(k), sign))
    kk = np.linspace(0.01, PI - 0.01, 10)[:, None] * np.ones(10)  # one kappa per row of the grid
    got = jac(u, v, kk)
    for i in range(10):
        np.testing.assert_array_equal(got[i], jac(u[i], v[i], float(kk[i, 0])))


def test_jacobians_integrate_to_total_measure():
    # Each system's area element integrates to 2*pi over the full square
    # (the measure of the free point/pole given the fixed element).
    from sphtri.coords import angle_jacobian, side_jacobian
    from sphtri.quadrature import QuadratureSpec, integrate

    for jac in (angle_jacobian, side_jacobian):
        for kappa in (0.8, PI / 2, 2.4):
            def outer(us):
                out = []
                for u in np.atleast_1d(us):
                    r = integrate(
                        lambda v: jac(float(u), v, kappa), 0.0, PI,
                        QuadratureSpec(1e-10),
                    )
                    out.append(r.value)
                return np.array(out)

            total = integrate(outer, 0.0, PI, QuadratureSpec(1e-9))
            assert abs(total.value - 2 * PI) < 1e-7


@pytest.mark.parametrize("kappa", [0.01, 1.0, 2.0, PI - 0.01])
def test_jacobians_accurate_near_their_corners(kappa):
    # The denominator 1 - c^2 vanishes at the corners of the square. Taken
    # as 1 - (...)^2 it lost up to 100% relative within 1e-5 of them, which
    # stalled the 2-D routes' inner integrals near the wedge edge. In product
    # form the error is at rounding level near (0, 0) and (pi, pi); near
    # (0, pi) and (pi, 0) the rounding of u + v, close to pi, leaves up to
    # about 3e-10 at 1e-7 from the corner.
    mpmath = pytest.importorskip("mpmath")
    from sphtri.coords import angle_jacobian, side_jacobian

    mpmath.mp.dps = 40
    k = mpmath.mpf(kappa)
    off = [1e-7, 3e-6, 1e-4, 1e-2, 0.3]
    near = [(d, e) for d in off for e in off]
    corners = [([(d, e) for d, e in near] + [(PI - d, PI - e) for d, e in near], 1e-14),
               ([(d, PI - e) for d, e in near] + [(PI - d, e) for d, e in near], 1e-9)]
    for jac, sign in ((angle_jacobian, 1), (side_jacobian, -1)):  # side: cos(kappa) negated
        for pts, bound in corners:
            for u, v in pts:
                su, cu = mpmath.sin(u), mpmath.cos(u)
                sv, cv = mpmath.sin(v), mpmath.cos(v)
                sk, ck = mpmath.sin(k), sign * mpmath.cos(k)
                num = sk ** 2 * su * sv * ((su * cv + ck * cu * sv) ** 2 + sk ** 2 * sv ** 2)
                want = float(num / (1 - (cu * cv - ck * su * sv) ** 2) ** mpmath.mpf(2.5))
                assert abs(float(jac(u, v, kappa)) - want) <= bound * want, (jac.__name__, u, v)
