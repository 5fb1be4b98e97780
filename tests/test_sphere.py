import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtri.errors import DegenerateDual, DegenerateTriangle
from sphtri.sphere import (
    DEGENERACY_TOL,
    RngStream,
    TriangleMetrics,
    _columns,
    _cross,
    _dot,
    _excess,
    _norm,
    arc_length,
    dual_vertices,
    lhuilier_excess,
    sample_uniform_points,
    triangle_elements,
)

PI = math.pi

OCTANT = tuple(np.eye(3))


def reference_triangle_elements(A, B, C):
    """The cross-product kernel that preceded the column kernel.

    Sides from arc_length, and each angle as the angle between the two
    edge normals at its vertex, every normal built with np.cross.
    """
    A, B, C = (np.asarray(V, dtype=float) for V in (A, B, C))

    def angle_between(p, q):
        s = np.linalg.norm(np.cross(p, q), axis=-1)
        return np.arctan2(s, np.einsum("...i,...i->...", p, q))

    alpha = angle_between(np.cross(A, B), np.cross(A, C))
    beta = angle_between(np.cross(B, A), np.cross(B, C))
    gamma = angle_between(np.cross(C, A), np.cross(C, B))
    return arc_length(B, C), arc_length(A, C), arc_length(A, B), alpha, beta, gamma


def reference_dual_vertices(Ap, Bp, Cp):
    """Dual vertices from np.cross, normalized by np.linalg.norm."""
    out = []
    for w in (np.cross(Bp, Cp), np.cross(Ap, Cp), np.cross(Ap, Bp)):
        out.append(w / np.linalg.norm(w, axis=-1, keepdims=True))
    return tuple(out)


def random_vertices(n, seed):
    pts = sample_uniform_points(RngStream(seed), 3 * n).reshape(n, 3, 3)
    return pts[:, 0], pts[:, 1], pts[:, 2]


def random_metrics(n, seed=2024):
    return triangle_elements(*random_vertices(n, seed))


def at_arc(A, B, t):
    """The unit vector at arc t from A towards B, for orthogonal unit A and B."""
    return math.cos(t) * np.asarray(A) + math.sin(t) * np.asarray(B)


class TestSampling:
    def test_determinism(self):
        a = sample_uniform_points(RngStream(9, 4), 1000)
        b = sample_uniform_points(RngStream(9, 4), 1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_uniform_points(RngStream(9, 0), 100)
        b = sample_uniform_points(RngStream(9, 1), 100)
        assert not np.allclose(a, b)

    def test_coordinate_means(self):
        pts = sample_uniform_points(RngStream(42), 10**6)
        means = np.abs(pts.mean(axis=0))
        assert np.all(means < 4.0 / math.sqrt(10**6))

    def test_hemisphere_fraction(self):
        pts = sample_uniform_points(RngStream(43), 10**6)
        frac = np.mean(pts[:, 2] > 0)
        assert abs(frac - 0.5) < 0.002

    def test_draws_and_normalization_pinned(self):
        # Same generator calls in the same order, and the same division.
        n = 1000
        v = RngStream(9, 4).generator.standard_normal((n, 3))
        expected = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert sample_uniform_points(RngStream(9, 4), n).tobytes() == expected.tobytes()


class TestKernel:
    def test_matches_reference_kernel(self):
        A, B, C = random_vertices(10**5, seed=31)
        new = triangle_elements(A, B, C)
        ref = reference_triangle_elements(A, B, C)
        for x, y in zip(new, ref):
            assert np.max(np.abs(x - y)) < 1e-13

    def test_near_collinear_matches_reference(self):
        # Every side within ~1e-7 of 0 or pi: C next to A, B next to -A,
        # turned by random rotations so the coordinates carry rounding.
        # |det| is ~1e-15 here; A . (B x C) taken directly was off by 0.05.
        rng = np.random.default_rng(7)
        n = 1000
        e1, e2 = rng.uniform(1e-8, 1e-7, n), rng.uniform(1e-8, 1e-7, n)
        phi = rng.uniform(0.1, PI - 0.1, n)
        A = np.tile([1.0, 0.0, 0.0], (n, 1))
        C = np.stack([np.cos(e1), np.sin(e1), np.zeros(n)], axis=-1)
        B = -np.stack([np.cos(e2), np.sin(e2) * np.cos(phi), np.sin(e2) * np.sin(phi)], axis=-1)
        Q, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
        A, B, C = (np.einsum("nij,nj->ni", Q, V) for V in (A, B, C))
        new = triangle_elements(A, B, C)
        ref = reference_triangle_elements(A, B, C)
        for x, y in zip(new[3:], ref[3:]):
            assert np.max(np.abs(x - y)) < 1e-7
        # The angle at A, up to the rounding of the rotated vertices.
        assert np.max(np.abs(new[3] - (PI - phi))) < 1e-7

    def test_fixed_vertices_broadcast(self):
        n = 1000
        A = np.array([1.0, 0.0, 0.0])
        B = np.array([math.cos(1.1), math.sin(1.1), 0.0])
        C = sample_uniform_points(RngStream(4), n)
        fixed = triangle_elements(A, B, C)
        tiled = triangle_elements(np.tile(A, (n, 1)), np.tile(B, (n, 1)), C)
        for x, y in zip(fixed, tiled):
            assert x.shape == (n,) and x.flags.writeable
            assert np.array_equal(x, y)
        assert np.all(fixed[2] == fixed[2][0])  # the fixed side c

    def test_scalar_vertices(self):
        out = triangle_elements(*OCTANT)
        assert all(np.shape(x) == () for x in out)
        assert np.allclose(out, PI / 2, atol=1e-15)

    def test_dual_vertices_match_reference(self):
        poles = random_vertices(10**5, seed=32)
        for x, y in zip(dual_vertices(*poles), reference_dual_vertices(*poles)):
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) < 1e-15


class TestColumns:
    @staticmethod
    def moveaxis_columns(V):
        """The form _columns had before it transposed directly."""
        return tuple(np.ascontiguousarray(np.moveaxis(np.asarray(V, dtype=float), -1, 0)))

    def test_matches_moveaxis_form(self):
        pts = sample_uniform_points(RngStream(12), 3 * 40).reshape(40, 3, 3)
        grid = sample_uniform_points(RngStream(13), 5 * 7).reshape(5, 7, 3)
        for V in (
            [0.0, 0.6, 0.8],  # a fixed vertex: three scalars
            np.array([1.0, 0.0, 0.0]),
            pts[:, 1].copy(),  # (n, 3), contiguous
            pts[:, 1],  # (n, 3) slice of (m, 3, 3)
            pts[::3, 2],  # strided rows
            np.asfortranarray(pts[:, 0]),
            grid,  # (k, m, 3)
            grid[:, ::2],
            pts[:, 0].astype(np.float32),
        ):
            got, want = _columns(V), self.moveaxis_columns(V)
            assert len(got) == len(want) == 3
            for x, y in zip(got, want):
                assert type(x) is type(y) and np.shape(x) == np.shape(y)
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


class TestMetrics:
    def test_octant(self):
        m = TriangleMetrics.from_vertices(*OCTANT)
        for v in (m.a, m.b, m.c, m.alpha, m.beta, m.gamma):
            assert np.shape(v) == ()
            assert abs(v - PI / 2) < 1e-12
        assert abs(m.sigma - PI / 2) < 1e-12
        assert abs(m.tau - 3 * PI / 2) < 1e-12

    def test_batch_is_kernel_plus_sums(self):
        A, B, C = random_vertices(10**4, seed=34)
        m = TriangleMetrics.from_vertices(A, B, C)
        a, b, c, al, be, ga = triangle_elements(A, B, C)
        want = (a, b, c, al, be, ga, al + be + ga - PI, a + b + c)
        for got, x in zip((m.a, m.b, m.c, m.alpha, m.beta, m.gamma, m.sigma, m.tau), want):
            assert got.shape == (10**4,)
            assert got.tobytes() == x.tobytes()

    def test_fixed_vertices_broadcast(self):
        C = sample_uniform_points(RngStream(4), 100)
        m = TriangleMetrics.from_vertices(OCTANT[0], OCTANT[1], C)
        assert m.tau.shape == (100,)
        assert np.all(m.c == PI / 2)

    def test_degenerate_coincident(self):
        with pytest.raises(DegenerateTriangle):
            TriangleMetrics.from_vertices(OCTANT[0], OCTANT[0], OCTANT[2])

    def test_degenerate_antipodal(self):
        with pytest.raises(DegenerateTriangle):
            TriangleMetrics.from_vertices(OCTANT[0], -OCTANT[0], OCTANT[2])

    @pytest.mark.parametrize("row", [0, 5000, 9999])
    @pytest.mark.parametrize("antipodal", [False, True])
    def test_one_degenerate_row_in_a_batch(self, row, antipodal):
        A, B, C = (V.copy() for V in random_vertices(10**4, seed=35))
        TriangleMetrics.from_vertices(A, B, C)  # the batch as drawn is fine
        C[row] = -A[row] if antipodal else A[row]
        with pytest.raises(DegenerateTriangle):
            TriangleMetrics.from_vertices(A, B, C)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_nan_vertex_raises(self, axis):
        # A NaN side is neither below nor above the tolerance band.
        C = OCTANT[2].copy()
        C[axis] = math.nan
        with pytest.raises(DegenerateTriangle):
            TriangleMetrics.from_vertices(OCTANT[0], OCTANT[1], C)
        A, B, C = (V.copy() for V in random_vertices(100, seed=36))
        C[42, axis] = math.nan
        with pytest.raises(DegenerateTriangle):
            TriangleMetrics.from_vertices(A, B, C)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_infinite_vertex_raises(self, value, axis):
        # An infinite coordinate can leave every side finite and the angles
        # NaN, so the side check alone would pass it.
        A, B, C = (V.copy() for V in random_vertices(100, seed=37))
        C[17, axis] = value
        with pytest.raises(DegenerateTriangle):
            TriangleMetrics.from_vertices(A, B, C)
        with pytest.raises(DegenerateTriangle):
            TriangleMetrics.from_vertices(A[17], B[17], C[17])

    def test_tolerance_decides_from_the_side(self):
        # A side of 2 DEGENERACY_TOL is a triangle, one of DEGENERACY_TOL / 2 is not.
        A, B, C = OCTANT
        for near in (at_arc(A, B, 2 * DEGENERACY_TOL), at_arc(-A, B, 2 * DEGENERACY_TOL)):
            TriangleMetrics.from_vertices(A, near, C)
        for near in (at_arc(A, B, DEGENERACY_TOL / 2), at_arc(-A, B, DEGENERACY_TOL / 2)):
            with pytest.raises(DegenerateTriangle):
                TriangleMetrics.from_vertices(A, near, C)

    def test_relabeling_permutes_consistently(self):
        A, B, C = random_vertices(1000, seed=5)
        m = TriangleMetrics.from_vertices(A, B, C)
        mp = TriangleMetrics.from_vertices(B, C, A)
        assert np.max(np.abs(mp.a - m.b)) < 1e-12 and np.max(np.abs(mp.alpha - m.beta)) < 1e-12
        assert np.max(np.abs(mp.sigma - m.sigma)) < 1e-12
        assert np.max(np.abs(mp.tau - m.tau)) < 1e-12

    def test_girard_vs_lhuilier(self):
        # L'Huilier (sides only) is the independent oracle for the
        # angle-based excess.
        m = TriangleMetrics.from_vertices(*random_vertices(10**4, seed=2024))
        assert np.max(np.abs(m.sigma - lhuilier_excess(m.a, m.b, m.c))) < 1e-10

    def test_girard_vs_van_oosterom_strackee(self):
        # tan(sigma/2) = |A.(B x C)| / (1 + A.B + B.C + C.A) (Van Oosterom
        # and Strackee 1983): vertices only, independent of the angles.
        A, B, C = random_vertices(10**5, seed=33)
        dot = lambda u, v: np.einsum("ij,ij->i", u, v)
        sigma_vos = 2.0 * np.arctan2(
            np.abs(dot(A, np.cross(B, C))), 1.0 + dot(A, B) + dot(B, C) + dot(C, A)
        )
        sigma = TriangleMetrics.from_vertices(A, B, C).sigma
        assert np.max(np.abs(sigma - sigma_vos)) < 1e-11

    @pytest.mark.parametrize("eps", [1e-4, 1e-7, 1e-9])
    def test_tiny_right_triangle_excess(self, eps):
        # Legs eps along two orthogonal great circles: the excess is
        # eps^2/2 (1 + O(eps^2)), where Girard's angle sum keeps only about
        # 1e-16 absolute.
        A = np.array([1.0, 0.0, 0.0])
        B = np.array([math.cos(eps), math.sin(eps), 0.0])
        C = np.array([math.cos(eps), 0.0, math.sin(eps)])
        m = TriangleMetrics.from_vertices(A, B, C)
        assert abs(m.sigma / (eps * eps / 2) - 1.0) < 1e-6

    def test_tiny_triangles_in_every_vertex_layout(self):
        # _excess takes its tiny rows by index from each vertex: a fixed (3,)
        # vertex, a full array, and one that broadcasts from (1, 3). Right
        # triangles with legs eps (along y) and 1e-7 (along z): excess eps 1e-7 / 2.
        eps = np.array([1e-4, 1e-7, 1e-9])
        A = np.array([1.0, 0.0, 0.0])
        B = np.stack([np.cos(eps), np.sin(eps), np.zeros(3)], axis=1)
        C = np.array([[math.cos(1e-7), 0.0, math.sin(1e-7)]])
        want = TriangleMetrics.from_vertices(np.tile(A, (3, 1)), B, np.tile(C, (3, 1))).sigma
        assert np.max(np.abs(want / (eps * 1e-7 / 2) - 1.0)) < 1e-6
        assert np.array_equal(TriangleMetrics.from_vertices(A, B, C).sigma, want)
        stacked = TriangleMetrics.from_vertices(A, np.stack([B, B]), C).sigma  # shape (2, 3)
        assert np.array_equal(stacked, np.stack([want, want]))

    def test_vertex_form_rows_match_the_array_form(self):
        # _excess takes its few vertex-form rows on Python floats. The same
        # sums on arrays give each of them within one ulp (math.atan2 against
        # np.arctan2), and every other row keeps the angle sum. The tiny
        # triangles of a dual batch, then two near-lunes of angle 1e-8 and
        # 3e-8 whose denominators are below 1, so that they keep the sum.
        pts = sample_uniform_points(RngStream(8, 3), 3 * 10**5).reshape(-1, 3, 3)
        e = 1e-6
        lunes = [[[1.0, 0.0, 0.0], [-math.cos(e), math.sin(e), 0.0],
                  [-math.cos(e), math.sin(e) * math.cos(d), math.sin(e) * math.sin(d)]]
                 for d in (1e-8, 3e-8)]
        dual = dual_vertices(pts[:, 0], pts[:, 1], pts[:, 2])
        A, B, C = (np.concatenate([V, W]) for V, W in zip(dual, np.transpose(lunes, (1, 0, 2))))
        _, _, _, al, be, ga = triangle_elements(A, B, C)
        got, girard = _excess(A, B, C, al, be, ga), al + be + ga - PI
        rows = girard < 1e-6
        A, B, C = (_columns(V[rows]) for V in (A, B, C))
        num = np.abs(_dot(A, _cross([p - q for p, q in zip(B, A)], [p - q for p, q in zip(C, A)])))
        den = 1.0 + _dot(A, B) + _dot(B, C) + _dot(C, A)
        want = np.where(den > 1.0, 2.0 * np.arctan2(num, den), girard[rows])
        assert np.count_nonzero(rows) > 20 and np.count_nonzero(den <= 1.0) == 2
        assert np.all(np.abs(got[rows] - want) <= np.spacing(want))
        assert np.array_equal(got[~rows], girard[~rows])

    def test_law_of_sines(self):
        # Cleared form: the quotient form amplifies noise when the common
        # ratio is large (thin triangles), the product form is bounded.
        a, b, c, al, be, ga = random_metrics(10**4)
        assert np.max(np.abs(np.sin(a) * np.sin(be) - np.sin(b) * np.sin(al))) < 1e-10
        assert np.max(np.abs(np.sin(b) * np.sin(ga) - np.sin(c) * np.sin(be))) < 1e-10

    def test_law_of_cosines_for_sides(self):
        a, b, c, al, be, ga = random_metrics(10**4)
        lhs = np.cos(a)
        rhs = np.cos(b) * np.cos(c) + np.sin(b) * np.sin(c) * np.cos(al)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_ranges(self):
        a, b, c, al, be, ga = random_metrics(10**4)
        for arr in (a, b, c, al, be, ga):
            assert np.all(arr >= 0.0) and np.all(arr <= PI)

    def test_mean_excess(self, primal_batch_1m):
        b = primal_batch_1m
        se = np.std(b.sigma) / math.sqrt(b.n)
        assert abs(np.mean(b.sigma) - PI / 2) < 3 * se


class TestDual:
    def test_orthogonal_cross(self):
        va, _, _ = dual_vertices(
            np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        )
        assert np.allclose(va, [0.0, 0.0, 1.0], atol=1e-15)

    def test_degenerate_dual(self):
        p = OCTANT[0]
        with pytest.raises(DegenerateDual):
            dual_vertices(p, p, OCTANT[2])

    def test_dual_metrics_valid(self):
        m = TriangleMetrics.from_vertices(*dual_vertices(*random_vertices(1000, seed=11)))
        assert np.all((0 <= m.sigma) & (m.sigma <= 2 * PI))
        assert np.all((0 <= m.tau) & (m.tau <= 2 * PI))

    def test_duality_distribution(self, primal_batch_1m, dual_batch_1m):
        # (dual area) matches (2*pi - primal perimeter) in distribution.
        x = np.sort(2 * PI - dual_batch_1m.sigma)
        y = np.sort(primal_batch_1m.tau)
        grid = np.sort(np.concatenate([x[::97], y[::97]]))
        fx = np.searchsorted(x, grid, side="right") / len(x)
        fy = np.searchsorted(y, grid, side="right") / len(y)
        assert np.max(np.abs(fx - fy)) < 0.003


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
)
def test_arc_length_properties(x1, y1, z1, x2, y2, z2):
    u = np.array([x1, y1, z1])
    v = np.array([x2, y2, z2])
    if np.linalg.norm(u) < 1e-3 or np.linalg.norm(v) < 1e-3:
        return
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    d = float(arc_length(u, v))
    assert 0.0 <= d <= PI + 1e-15
    assert abs(d - float(arc_length(v, u))) < 1e-15
    assert abs(float(arc_length(u, u))) < 1e-7


@pytest.mark.parametrize("shape", [(3,), (7, 3), (4, 5, 3)])
def test_column_cross_and_norm_match_numpy(shape):
    # The column forms that triangle_elements and coords use, bit for bit.
    P, Q = np.random.default_rng(5).standard_normal((2, *shape))
    assert np.array_equal(np.stack(_cross(_columns(P), _columns(Q)), axis=-1), np.cross(P, Q))
    assert np.array_equal(_norm(_columns(P)), np.linalg.norm(P, axis=-1))
