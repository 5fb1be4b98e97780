import math
from dataclasses import fields, replace

import numpy as np
import pytest

from sphtri import verify
from sphtri.errors import DegenerateTriangle, OutOfDomain
from sphtri.identities import (
    IdentityResiduals,
    SolvedFormKind,
    bisector_angles,
    bisector_decompose,
    bisector_relation_residual,
    bisector_threshold,
    identity_residuals,
    median_decompose,
    median_relation_residual,
    solved_forms,
)
from sphtri.sphere import (
    RngStream,
    TriangleMetrics,
    arc_length,
    sample_uniform_points,
)

PI = math.pi
ELEMENTS = ("a", "b", "c", "alpha", "beta", "gamma", "sigma", "tau")

OCTANT = TriangleMetrics.from_vertices(*np.eye(3))


def random_triangle_batch(n, seed=909):
    """(n, 3, 3) vertices and the metrics of their n triangles."""
    pts = sample_uniform_points(RngStream(seed), 3 * n).reshape(n, 3, 3)
    return pts, TriangleMetrics.from_vertices(pts[:, 0], pts[:, 1], pts[:, 2])


def metrics_at(m, i):
    """Triangle i of a batch, with float fields."""
    return TriangleMetrics(*(float(getattr(m, f.name)[i]) for f in fields(m)))


class TestResiduals:
    def test_octant_all_small(self):
        r = identity_residuals(OCTANT)
        assert r.max() < 1e-12

    def test_random_sweep(self):
        _, m = random_triangle_batch(10**4)
        assert identity_residuals(m).max() < 1e-10

    def test_max_keeps_a_nan(self):
        # The builtin max would drop the NaN that comes after 1e-16.
        r = IdentityResiduals(1e-16, math.nan, 0.0, 0.0, 0.0, 0.0)
        assert math.isnan(r.max())

    def test_detects_inconsistency(self):
        m = replace(OCTANT, sigma=OCTANT.sigma + 1e-3)
        assert identity_residuals(m).area_halfangle > 1e-4

    def test_relabel_invariance_fixing_c(self):
        # Swapping (a, alpha) with (b, beta) keeps every residual small.
        _, m = random_triangle_batch(50, seed=31)
        for i in range(50):
            mi = metrics_at(m, i)
            swapped = replace(mi, a=mi.b, b=mi.a, alpha=mi.beta, beta=mi.alpha)
            assert identity_residuals(swapped).max() < 1e-10

    def test_relabel_invariance_fixing_alpha(self):
        # Swapping (b, beta) with (c, gamma) keeps every residual small.
        _, m = random_triangle_batch(50, seed=32)
        for i in range(50):
            mi = metrics_at(m, i)
            swapped = replace(mi, b=mi.c, c=mi.b, beta=mi.gamma, gamma=mi.beta)
            assert identity_residuals(swapped).max() < 1e-10


class TestMedian:
    def test_octant(self):
        d = median_decompose(OCTANT)
        assert abs(d.rho - PI / 2) < 1e-12
        assert abs(d.theta - PI / 2) < 1e-12
        # The relation gives tan(sigma/2) = 1 here.
        assert abs(
            math.sin(OCTANT.c / 2) * math.sin(d.rho) * math.sin(d.theta)
            / (math.cos(OCTANT.c / 2) + math.cos(d.rho))
            - 1.0
        ) < 1e-12

    def test_isosceles_theta_is_right_angle(self):
        C = np.array([1.0, 1.0, 1.2])
        m = TriangleMetrics.from_vertices([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], C / np.linalg.norm(C))
        assert abs(m.a - m.b) < 1e-12
        d = median_decompose(m)
        assert abs(d.theta - PI / 2) < 1e-9

    def test_random_relation(self):
        _, batch = random_triangle_batch(10**4)
        worst = 0.0
        for i in range(10**4):
            m = metrics_at(batch, i)
            worst = max(worst, median_relation_residual(m, median_decompose(m)))
        assert worst < 1e-10

    def test_geometric_construction(self):
        # Midpoint of AB measured directly with the vector geometry.
        pts, batch = random_triangle_batch(10**3, seed=55)
        for i in range(10**3):
            A, B, C = pts[i]
            m = metrics_at(batch, i)
            d = median_decompose(m)
            P = (A + B) / np.linalg.norm(A + B)
            rho_geo = float(arc_length(P, C))
            nB, nC = np.cross(P, B), np.cross(P, C)
            theta_geo = math.atan2(
                float(np.linalg.norm(np.cross(nB, nC))), float(np.dot(nB, nC))
            )
            assert abs(d.rho - rho_geo) < 1e-9
            assert abs(d.theta - theta_geo) < 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangle):
            median_decompose(replace(OCTANT, c=0.0))
        # Three points of one great circle: the median from C has rho = 0.
        flat = TriangleMetrics.from_vertices([1.0, 0.0, 0.0], [math.cos(1.0), math.sin(1.0), 0.0],
                                             [math.cos(0.5), math.sin(0.5), 0.0])
        with pytest.raises(DegenerateTriangle, match="median degenerate"):
            median_decompose(flat)


class TestBisector:
    def test_octant(self):
        d = bisector_decompose(OCTANT)
        assert abs(d.rho - PI / 2) < 1e-12
        assert abs(d.theta - PI / 2) < 1e-12
        assert abs(bisector_threshold(float(OCTANT.tau), float(OCTANT.alpha)) - PI / 2) < 1e-12
        # tan(tau/2) = -1 here, i.e. tau = 3*pi/2.
        val = -(
            math.cos(OCTANT.alpha / 2) * math.sin(d.rho) * math.sin(d.theta)
            / (math.sin(OCTANT.alpha / 2) + math.cos(d.rho) * math.sin(d.theta))
        )
        assert abs(val - math.tan(3 * PI / 4)) < 1e-12

    def test_random_relation_and_threshold(self):
        _, batch = random_triangle_batch(10**4)
        worst = 0.0
        for i in range(10**4):
            m = metrics_at(batch, i)
            d = bisector_decompose(m)
            worst = max(worst, bisector_relation_residual(m, d))
            # The threshold inequality is exact in exact arithmetic; in
            # floats the angular comparison degrades for triangles within
            # ~1e-3 of covering the sphere, so compare cosines there.
            thres = bisector_threshold(float(m.tau), float(m.alpha))
            assert math.cos(d.rho) <= math.cos(thres) + 5e-9
            if min(PI - m.alpha, PI - m.beta, PI - m.gamma) > 1e-2:
                assert d.rho >= thres - 1e-10
        assert worst < 1e-10

    def test_geometric_construction(self):
        # The decomposition describes the far intersection of the bisector
        # circle with the BC circle (the antipode of the interior foot).
        pts, batch = random_triangle_batch(10**3, seed=56)
        for i in range(10**3):
            A, B, C = pts[i]
            m = metrics_at(batch, i)
            d = bisector_decompose(m)
            tAB = B - np.dot(A, B) * A
            tAC = C - np.dot(A, C) * A
            tbis = tAB / np.linalg.norm(tAB) + tAC / np.linalg.norm(tAC)
            q = np.cross(np.cross(A, tbis), np.cross(B, C))
            q /= np.linalg.norm(q)
            if abs(arc_length(B, q) + arc_length(q, C) - m.a) < 1e-9:
                q = -q  # take the intersection off the BC segment
            rho_geo = float(arc_length(A, q))
            nC, nA = np.cross(q, C), np.cross(q, A)
            theta_geo = math.atan2(
                float(np.linalg.norm(np.cross(nC, nA))), float(np.dot(nC, nA))
            )
            assert abs(d.rho - rho_geo) < 1e-9
            assert abs(d.theta - theta_geo) < 1e-9

    def test_angles_broadcast_as_the_floats(self):
        # alpha carries an axis that beta and gamma lack; each element is the float call's.
        alpha, beta, gamma = np.array([[0.5], [1.0], [2.9]]), np.array([0.3, 1.2, 1.4, 2.0]), 1.3
        theta, rho = bisector_angles(alpha, beta, gamma)
        assert theta.shape == rho.shape == (3, 4)
        for (i, j), t in np.ndenumerate(theta):
            assert (t, rho[i, j]) == bisector_angles(float(alpha[i, 0]), float(beta[j]), gamma)
        _, m = random_triangle_batch(10**3, seed=57)
        d = bisector_decompose(m)
        np.testing.assert_array_equal(bisector_angles(m.alpha, m.beta, m.gamma), (d.theta, d.rho))

    def test_degenerate(self):
        # beta = 0 and gamma = 1.6 give cos(theta) = (1 - cos 1.6) / (2 cos(pi/3)) > 1.
        m = TriangleMetrics(1.0, 1.0, 1.0, 2 * PI / 3, 0.0, 1.6, 0.1, 3.0)
        with pytest.raises(DegenerateTriangle, match="theta at 0 or pi"):
            bisector_decompose(m)

    def test_threshold_formula(self):
        # Octant: threshold numerator cos(3*pi/4) + sin(pi/4) vanishes.
        assert abs(bisector_threshold(3 * PI / 2, PI / 2) - PI / 2) < 1e-12

    @pytest.mark.parametrize("tau, alpha", [(math.nan, 1.0), (1.0, math.nan), (-0.1, 1.0),
                                            (2 * PI + 1e-9, 1.0), (1.0, -0.1), (1.0, PI + 1e-9)])
    def test_threshold_rejects_arguments_out_of_range(self, tau, alpha):
        # The clamp of the cosine drops a NaN, so an unchecked NaN gave acos(1) = 0.
        with pytest.raises(ValueError):
            bisector_threshold(tau, alpha)


class TestSolvedForms:
    def test_angle_psi_octant(self):
        assert abs(solved_forms(SolvedFormKind.ANGLE_PSI, PI / 2, 3 * PI / 2, PI / 2)) < 1e-12

    def test_side_eta_octant(self):
        assert abs(solved_forms(SolvedFormKind.SIDE_ETA, PI / 2, PI / 2, PI / 2)) < 1e-12

    def test_unit_ratio_gives_zero(self):
        # Any inputs with the bracketed ratio equal to 1 land on zero.
        # tan(x/2) sin(tau/2) / sin(tau/2 - kappa) = 1 at these values:
        x = 2 * math.atan(math.sin(0.9 - 0.4) / math.sin(0.9))
        assert abs(solved_forms(SolvedFormKind.ANGLE_PSI, x, 1.8, 0.4)) < 1e-12

    def test_embed_consistency(self):
        # The solved psi closes the triangle: embedding (phi, psi, kappa)
        # reproduces the perimeter used to solve for psi.
        from sphtri.coords import CoordKind, CoordTriple, embed

        phi, kappa = 1.2, 0.7
        tau = 3.9
        cpsi = solved_forms(SolvedFormKind.ANGLE_PSI, phi, tau, kappa)
        m = embed(CoordTriple(CoordKind.ANGLE, phi, math.acos(cpsi), kappa))
        assert abs(m.tau - tau) < 1e-9

    def test_embed_consistency_side(self):
        from sphtri.coords import CoordKind, CoordTriple, embed

        xi, kappa = 1.9, 1.4
        sigma = 1.0
        ceta = solved_forms(SolvedFormKind.SIDE_ETA, xi, sigma, kappa)
        m = embed(CoordTriple(CoordKind.SIDE, xi, math.acos(ceta), kappa))
        assert abs(m.sigma - sigma) < 1e-9

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            solved_forms(SolvedFormKind.ANGLE_PSI, 1.0, 2.0, 1.0)  # tau/2 == kappa
        with pytest.raises(OutOfDomain):
            solved_forms(SolvedFormKind.SIDE_ETA, 0.0, 1.0, 1.0)  # cot(0) diverges
        with pytest.raises(OutOfDomain):
            solved_forms(SolvedFormKind.SIDE_ETA, np.array([1.0, 0.0]), 1.0, 1.0)
        with pytest.raises(OutOfDomain, match="vanishes"):
            solved_forms(SolvedFormKind.SIDE_ETA, 1.0, 2.0, 1.0)  # kappa == sigma/2
        with pytest.raises(OutOfDomain, match="outside"):
            solved_forms(SolvedFormKind.ANGLE_PSI, math.nan, 3.0, 1.0)

    @pytest.mark.parametrize("kind, stat, kappa", [(SolvedFormKind.ANGLE_PSI, 3.9, 0.7),
                                                   (SolvedFormKind.SIDE_ETA, 1.0, 1.4)])
    def test_array_matches_floats(self, kind, stat, kappa):
        # The 2-D routes evaluate a panel's 21 nodes in one array call.
        x = np.concatenate([np.linspace(1e-9, PI - 1e-9, 50), [PI / 2]]).reshape(3, 17)
        got = solved_forms(kind, x, stat, kappa)
        assert got.shape == x.shape
        want = [solved_forms(kind, float(u), stat, kappa) for u in x.ravel()]
        assert np.max(np.abs(got.ravel() - want)) <= 4.5e-16


class TestArrayPath:
    """Batch metrics give the same numbers as one call per triangle."""

    N = 10**3

    def test_matches_scalar_calls(self):
        _, m = random_triangle_batch(self.N, seed=77)
        res = identity_residuals(m)
        med = median_decompose(m)
        bis = bisector_decompose(m)
        med_res = median_relation_residual(m, med)
        bis_res = bisector_relation_residual(m, bis)
        worst = 0.0
        for i in range(self.N):
            mi = metrics_at(m, i)
            ri = identity_residuals(mi)
            worst = max(worst, ri.max())
            for got, want in zip(res.as_tuple(), ri.as_tuple()):
                assert abs(got[i] - want) <= 1e-15
            di = median_decompose(mi)
            assert abs(med.rho[i] - di.rho) <= 1e-15
            assert abs(med.theta[i] - di.theta) <= 1e-15
            assert abs(med_res[i] - median_relation_residual(mi, di)) <= 1e-15
            di = bisector_decompose(mi)
            assert abs(bis.rho[i] - di.rho) <= 1e-15
            assert abs(bis.theta[i] - di.theta) <= 1e-15
            assert abs(bis_res[i] - bisector_relation_residual(mi, di)) <= 1e-15
        assert res.max() == worst  # the batch maximum

    @pytest.mark.parametrize("field, func", [
        ("c", median_decompose),
        ("alpha", bisector_decompose),
    ])
    def test_one_degenerate_triangle_raises(self, field, func):
        _, m = random_triangle_batch(self.N, seed=79)
        bad = getattr(m, field).copy()
        bad[self.N // 2] = 0.0
        func(m)  # the batch as drawn is fine
        with pytest.raises(DegenerateTriangle):
            func(replace(m, **{field: bad}))


def unshared(m):
    """The residuals, then each decomposition's (rho, theta) and relation residual, with
    every formula taking each sine and cosine it needs itself: the reference for the
    values the functions of identities share, which must give the same bits.
    """
    a, b, c, al, be, ga, sig, tau = (getattr(m, name) for name in ELEMENTS)
    sin, cos = np.sin, np.cos
    residuals = (
        abs(sin(al - sig / 2) * sin(b / 2) * sin(c / 2) - cos(b / 2) * cos(c / 2) * sin(sig / 2)),
        abs(sin(b) * sin(c) * cos(al) - sin(tau - c) * sin(b) - (cos(tau - c) - cos(c)) * cos(b)),
        abs(sin(tau / 2 - c) * cos(al / 2) * cos(be / 2)
            - sin(al / 2) * sin(be / 2) * sin(tau / 2)),
        abs(-sin(al) * sin(be) * cos(c) - sin(sig - al) * sin(be)
            - (cos(sig - al) - cos(al)) * cos(be)),
        abs(sin(sig / 2) * (1 + cos(a) + cos(b) + cos(c))
            - cos(sig / 2) * sin(a) * sin(b) * sin(ga)),
        abs(sin(tau / 2) * (cos(al) + cos(be) + cos(ga) - 1)
            - cos(tau / 2) * sin(al) * sin(be) * sin(c)),
    )
    cos_rho = np.clip((cos(a) + cos(b)) / (2.0 * cos(c / 2)), -1.0, 1.0)
    rho = np.arccos(cos_rho)
    cos_theta = (cos(a) - cos(b)) / (2.0 * sin(c / 2) * sin(rho))
    sin_theta = np.tan(sig / 2) * (cos(c / 2) + cos_rho) / (sin(c / 2) * sin(rho))
    theta = np.arctan2(sin_theta, cos_theta)
    median = (rho, theta, abs(sin(sig / 2) * (cos(c / 2) + cos(rho))
                              - cos(sig / 2) * sin(c / 2) * sin(rho) * sin(theta)))
    theta = np.arccos(np.clip((cos(be) - cos(ga)) / (2.0 * cos(al / 2)), -1.0, 1.0))
    rho = np.arccos(np.clip(-(cos(be) + cos(ga)) / (2.0 * sin(al / 2) * sin(theta)), -1.0, 1.0))
    bisector = (rho, theta, abs(sin(tau / 2) * (sin(al / 2) + cos(rho) * sin(theta))
                                + cos(tau / 2) * cos(al / 2) * sin(rho) * sin(theta)))
    return (*residuals, *median, *bisector)


class TestSharedValues:
    """Values shared between the functions through the memos change no bit of a result."""

    @pytest.mark.parametrize("identities_first", [True, False])
    def test_either_call_order_gives_the_unshared_values(self, identities_first):
        _, m = random_triangle_batch(10**4, seed=83)
        want = unshared(m)
        if identities_first:
            res = identity_residuals(m)
        med, bis = median_decompose(m), bisector_decompose(m)
        relations = median_relation_residual(m, med), bisector_relation_residual(m, bis)
        if not identities_first:
            res = identity_residuals(m)
        got = (*res.as_tuple(), med.rho, med.theta, relations[0], bis.rho, bis.theta, relations[1])
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("seed", [1, 606])
    def test_identity_suite_values_are_those_of_unshared_calls(self, seed):
        _, m = random_triangle_batch(10**4, seed)  # the suite's triangles
        values = unshared(m)
        want = [max(np.max(r) for r in values[:6]), np.max(values[8]), np.max(values[11])]
        assert [c.value for c in verify.identity_checks(10**4, seed)] == want
        if seed == 1:  # the values from before the sharing
            assert want == [2.2551405187698492e-15, 2.663320952667192e-14, 1.6571206212789846e-13]

    @pytest.mark.parametrize("field", ELEMENTS)
    def test_replaced_metrics_read_nothing_stale(self, field):
        _, m = random_triangle_batch(10**3, seed=85)
        identity_residuals(m)  # m's memo now holds every shared value
        median_relation_residual(m, median_decompose(m))
        bisector_relation_residual(m, bisector_decompose(m))
        changed = replace(m, **{field: getattr(m, field) * (1.0 - 1e-7)})
        fresh = TriangleMetrics(**{name: getattr(changed, name) for name in ELEMENTS})
        got, want = identity_residuals(changed), identity_residuals(fresh)
        assert got.max() > 1e3 * identity_residuals(m).max()  # the change shows
        for g, w in zip(got.as_tuple(), want.as_tuple(), strict=True):
            np.testing.assert_array_equal(g, w)
        for decompose, relation in ((median_decompose, median_relation_residual),
                                    (bisector_decompose, bisector_relation_residual)):
            np.testing.assert_array_equal(relation(changed, decompose(changed)),
                                          relation(fresh, decompose(fresh)))
