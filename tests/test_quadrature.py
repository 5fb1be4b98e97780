import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtri import quadrature
from sphtri.coords import angle_jacobian, side_jacobian
from sphtri.errors import Divergent, NonFiniteIntegrand, SphtriError, ToleranceNotMet
from sphtri.quadrature import (
    _AGM_BLOCK,
    _NODES,
    _PANEL_BUDGET,
    QuadratureResult,
    QuadratureSpec,
    _agm_KE,
    _integrate_rows,
    carlson_rf_rd,
    ellip_E,
    ellip_K,
    integrate,
)

PI = math.pi
LEMNISCATIC_K = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(PI))


def quad_oracle(f, a, b, tol=1e-13):
    return integrate(f, a, b, QuadratureSpec(tol)).value


class TestEllipticK:
    def test_zero_modulus(self):
        assert abs(ellip_K(0.0) - PI / 2) < 1e-15

    def test_lemniscatic_value(self):
        # K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi))
        assert abs(ellip_K(math.sqrt(0.5)) - LEMNISCATIC_K) < 1e-15

    def test_divergent_at_one(self):
        with pytest.raises(Divergent):
            ellip_K(1.0)
        with pytest.raises(Divergent):
            ellip_K(1.0 - 1e-16)

    def test_domain(self):
        with pytest.raises(ValueError):
            ellip_K(1.5)
        with pytest.raises(ValueError):
            ellip_K(-0.1)
        with pytest.raises(ValueError):
            ellip_K(math.nan)
        with pytest.raises(ValueError):
            ellip_K(np.array([0.5, math.nan]))

    def test_vs_defining_integral(self):
        for z in (0.1, 0.5, 0.9, 0.99):
            target = quad_oracle(lambda t: 1.0 / np.sqrt(1 - z * z * np.sin(t) ** 2), 0, PI / 2)
            assert abs(ellip_K(z) - target) < 1e-12

    def test_monotone_increasing(self):
        zs = np.linspace(0.0, 0.99, 100)
        vals = ellip_K(zs)
        assert np.all(np.diff(vals) > 0)

    def test_array_input(self):
        out = ellip_K(np.array([0.0, 0.5]))
        assert out.shape == (2,)


class TestEllipticE:
    def test_zero_modulus(self):
        assert abs(ellip_E(0.0) - PI / 2) < 1e-15

    def test_unit_modulus(self):
        assert ellip_E(1.0) == 1.0

    def test_lemniscatic_value(self):
        # Legendre's relation at k = k' = 1/sqrt 2: E = K/2 + pi^(3/2) / Gamma(1/4)^2
        target = LEMNISCATIC_K / 2 + PI**1.5 / math.gamma(0.25) ** 2
        assert abs(ellip_E(math.sqrt(0.5)) - target) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            ellip_E(1.5)
        with pytest.raises(ValueError):
            ellip_E(-0.1)
        with pytest.raises(ValueError):
            ellip_E(math.nan)
        with pytest.raises(ValueError):
            ellip_E(np.array([0.5, math.nan]))

    def test_vs_defining_integral(self):
        for z in (0.1, math.sqrt(2) / 2, 0.9, 0.999):
            target = quad_oracle(lambda t: np.sqrt(1 - z * z * np.sin(t) ** 2), 0, PI / 2)
            assert abs(ellip_E(z) - target) < 1e-12

    def test_monotone_decreasing(self):
        zs = np.linspace(0.0, 1.0, 100)
        vals = ellip_E(zs)
        assert np.all(np.diff(vals) < 0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99))
def test_legendre_relation(z):
    zp = math.sqrt(1.0 - z * z)
    res = ellip_E(z) * ellip_K(zp) + ellip_E(zp) * ellip_K(z) - ellip_K(z) * ellip_K(zp)
    assert abs(res - PI / 2) < 1e-12


@pytest.mark.parametrize("f, at_one", [(ellip_K, []), (ellip_E, [1.0 - 1e-15, 1.0 - 1e-16, 1.0])])
def test_array_calls_equal_scalar_calls(f, at_one):
    # Every modulus of an array call takes the steps its block's slowest one needs.
    z = np.concatenate([np.linspace(0.0, 0.999999, 501), [1.0 - 1e-12, 1.0 - 2e-15], at_one])
    assert np.array_equal(f(z), [f(float(x)) for x in z])
    # Four blocks, with moduli within 1e-15..1e-1 of 1 in the second only, so
    # that the blocks take different step counts. Scalar calls at every 25th
    # modulus and at all those near 1.
    rng = np.random.default_rng(3)
    z = rng.uniform(0.0, 0.9, 3 * _AGM_BLOCK + 100)
    near = slice(_AGM_BLOCK + 7, _AGM_BLOCK + 507)
    z[near] = np.concatenate([1.0 - 10.0 ** rng.uniform(-14.9, -1.0, 500 - len(at_one)), at_one])
    idx = np.concatenate([np.arange(0, z.size, 25), np.arange(z.size)[near]])
    assert np.array_equal(f(z)[idx], [f(float(x)) for x in z[idx]])
    square = z[: 2 * _AGM_BLOCK].reshape(128, -1)
    out = f(square)
    assert out.shape == square.shape
    assert np.array_equal(out.ravel(), f(square.ravel()))
    assert f(np.array([])).shape == (0,)


def test_agm_on_a_2d_array_equals_scalar_calls():
    # The stopping test reads the smallest k' by its flat index; here it is
    # the slowest modulus by far and not at flat index 0.
    rng = np.random.default_rng(5)
    z = rng.uniform(0.0, 0.9, (7, 9))
    z[4, 6] = 1.0 - 1e-12
    k2 = z * z
    kp = np.sqrt(1.0 - k2)
    K, E = _agm_KE(k2, kp)
    assert K.shape == E.shape == z.shape
    for j in np.ndindex(z.shape):
        assert (K[j], E[j]) == _agm_KE(float(k2[j]), float(kp[j]))


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_agm_on_an_empty_array(shape):
    K, E = _agm_KE(np.empty(shape), np.empty(shape))
    assert K.shape == E.shape == shape


def test_legendre_relation_grid():
    for z in np.linspace(0.02, 0.98, 20):
        zp = math.sqrt(1.0 - z * z)
        res = ellip_E(z) * ellip_K(zp) + ellip_E(zp) * ellip_K(z) - ellip_K(z) * ellip_K(zp)
        assert abs(res - PI / 2) < 1e-12


class TestRule:
    """The G10/K21 panel of both engines, summed as _rule_sums folds it."""

    def test_nodes_are_symmetric(self):
        assert _NODES.size == 21 and np.all(np.diff(_NODES) > 0.0)
        assert np.array_equal(_NODES, -_NODES[::-1])

    def test_weights_sum_to_two(self):
        assert abs(2.0 * quadrature._WK[:-1].sum() + quadrature._WK[-1] - 2.0) < 1e-15
        assert abs(2.0 * quadrature._WG.sum() - 2.0) < 1e-15

    def test_gauss_part_is_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(10)
        assert np.max(np.abs(_NODES[1::2] - x)) < 1e-15
        assert np.max(np.abs(np.concatenate([quadrature._WG, quadrature._WG[::-1]]) - w)) < 1e-15

    @pytest.mark.parametrize("k", range(34))
    def test_degrees_of_exactness(self, k):
        # K21 integrates x^k over [-1, 1] exactly up to k = 31 and G10 up to
        # k = 19; an odd power folds to 0 exactly at any degree.
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod, gauss = quadrature._rule_sums(_NODES ** k)
        assert (abs(kronrod - exact) < 1e-15) == (k <= 31 or k % 2 == 1)
        assert (abs(gauss - exact) < 1e-15) == (k <= 19 or k % 2 == 1)


class TestIntegrate:
    def test_sine(self):
        r = integrate(np.sin, 0.0, PI, QuadratureSpec(1e-13))
        assert abs(r.value - 2.0) < 1e-12
        assert r.err_estimate >= 0
        assert r.evaluations >= _NODES.size

    def test_inverse_sqrt_left(self):
        spec = QuadratureSpec(1e-12, singular_left=True)
        r = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, spec)
        assert abs(r.value - 2.0) < 1e-10

    def test_inverse_sqrt_right(self):
        spec = QuadratureSpec(1e-12, singular_right=True)
        r = integrate(lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0, spec)
        assert abs(r.value - 2.0) < 1e-10

    def test_both_singular(self):
        spec = QuadratureSpec(1e-12, singular_left=True, singular_right=True)
        r = integrate(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0, spec)
        assert abs(r.value - PI) < 1e-10

    def test_defining_integral_matches_agm(self):
        z = 0.5
        r = integrate(
            lambda t: 1.0 / np.sqrt(1 - z * z * np.sin(t) ** 2), 0.0, PI / 2,
            QuadratureSpec(1e-12),
        )
        assert abs(r.value - ellip_K(z)) < 1e-10

    @pytest.mark.parametrize("left, right", [(False, False), (True, False), (False, True),
                                             (True, True)])
    def test_empty_interval(self, left, right):
        # A piece of zero width is not evaluated.
        r = integrate(np.sin, 1.0, 1.0, QuadratureSpec(1e-10, left, right))
        assert r == QuadratureResult(0.0, 0.0, 0)

    def test_adjacent_floats_with_both_flags(self):
        # The midpoint rounds to an end, so one of the two pieces has zero width.
        r = integrate(np.cos, 1.0, math.nextafter(1.0, 2.0), QuadratureSpec(1e-10, True, True))
        assert r.evaluations == _NODES.size
        assert 0.0 < r.value < 1e-15

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate(np.sin, 1.0, 0.0)

    def test_tolerance_not_met(self):
        # A jump discontinuity leaves an error of about 2e-21 at the width
        # floor, so a tolerance of 1e-30 is out of reach.
        spec = QuadratureSpec(1e-30)
        with pytest.raises(ToleranceNotMet) as info:
            integrate(lambda x: np.where(x < math.e / 3, 0.0, 1.0), 0.0, 1.0, spec)
        assert isinstance(info.value.result, QuadratureResult)
        assert abs(info.value.result.value - (1.0 - math.e / 3)) < 0.01

    @pytest.mark.parametrize("f", [lambda t: np.tan(0.5 * PI * t), lambda t: np.sin(1.0 / t) / t])
    def test_non_integrable_hits_the_panel_budget(self, f):
        # The integrands of TestIntegrateRows.test_non_integrable_row_hits_the_panel_budget.
        # tan(pi t / 2) diverges like 1/(1 - t) at t = 1. 1/t on [0, 1] is no
        # case here: the heap resolves it down to the width floor (10,101
        # evaluations), while the batched engine exhausts its budget.
        t0 = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match="panel budget") as info:
            integrate(f, 0.0, 1.0)
        assert time.perf_counter() - t0 < 1.0
        assert info.value.result.evaluations <= _NODES.size * _PANEL_BUDGET

    def test_unmet_tolerance_estimates_the_whole_integral(self):
        # Both flags split [0, 1] at 1/2. The left piece ends at the width
        # floor, as it does alone; the right piece, seeded in the same heap,
        # adds its ln 2 while the call runs on to the panel budget.
        both = QuadratureSpec(singular_left=True, singular_right=True)
        with pytest.raises(ToleranceNotMet) as whole:
            integrate(lambda t: 1.0 / t, 0.0, 1.0, both)
        with pytest.raises(ToleranceNotMet) as left:
            integrate(lambda t: 1.0 / t, 0.0, 0.5, QuadratureSpec(singular_left=True))
        gap = whole.value.result.value - left.value.result.value
        assert abs(gap - math.log(2.0)) < 1e-9
        assert whole.value.result.evaluations <= _NODES.size * _PANEL_BUDGET

    def test_nan_integrand_raises(self):
        with pytest.raises(NonFiniteIntegrand):
            integrate(lambda t: np.full_like(t, np.nan), 0.0, 1.0)
        assert issubclass(NonFiniteIntegrand, SphtriError)

    def test_infinite_integrand_raises(self):
        with pytest.raises(NonFiniteIntegrand):
            integrate(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                      (0.0, math.nan)])
    def test_non_finite_bounds(self, a, b):
        with pytest.raises(ValueError):
            integrate(np.sin, a, b)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(math.nan)


class TestIntegrateRows:
    """The batched engine: each row is the integral integrate would give."""

    # Row r integrates cos(c_r t) over [a_r, b_r], divided by the square
    # root of the distance to each flagged end (so the flags are needed).
    C = np.linspace(0.5, 6.0, 9)
    A = np.linspace(-1.0, 2.0, 9)
    B = A + np.geomspace(1e-3, 3.0, 9)

    @pytest.mark.parametrize("left, right", [(False, False), (True, False), (False, True),
                                             (True, True)])
    def test_rows_match_scalar_integrate(self, left, right):
        def f(i, t):
            y = np.cos(self.C[i] * t)
            if left:
                y = y / np.sqrt(np.maximum(t - self.A[i], 0.0))
            if right:
                y = y / np.sqrt(np.maximum(self.B[i] - t, 0.0))
            return y

        spec = QuadratureSpec(1e-12, singular_left=left, singular_right=right)
        values, errors = _integrate_rows(f, self.A, self.B, spec)
        assert values.shape == errors.shape == self.A.shape
        for r in range(self.A.size):
            want = integrate(lambda t: f(np.array([[r]]), t[None, :])[0],
                             float(self.A[r]), float(self.B[r]), spec)
            assert abs(values[r] - want.value) <= 1e-11 * max(1.0, abs(want.value))
            assert 0.0 <= errors[r] <= 1e-12 * max(1.0, abs(values[r]))

    def test_flagged_rows_match_bessel(self):
        # Both ends flagged away from 0, where t = a + u^2 rounds: the integral
        # of cos(c t) / sqrt((t - a)(b - t)) over [a, b] is
        # pi cos(c (a + b) / 2) J0(c (b - a) / 2).
        mpmath = pytest.importorskip("mpmath")

        def f(i, t):
            return np.cos(self.C[i] * t) / np.sqrt((t - self.A[i]) * (self.B[i] - t))

        spec = QuadratureSpec(1e-12, singular_left=True, singular_right=True)
        values, errors = _integrate_rows(f, self.A, self.B, spec)
        for c, a, b, v, e in zip(self.C, self.A, self.B, values, errors):
            exact = PI * math.cos(c * (a + b) / 2) * float(mpmath.besselj(0, c * (b - a) / 2))
            assert abs(v - exact) <= 1e-11 * max(1.0, abs(exact))
            assert e <= 1e-12 * max(1.0, abs(v))

    def test_accepted_row_is_retired(self):
        # Row 0 is a constant, accepted on its first panel; row 1 peaks sharply
        # at t = 0.3 and refines for many steps.
        seen = []

        def f(i, t):
            i = np.broadcast_to(i, t.shape)
            seen.append(i.ravel().copy())
            return np.where(i == 0, 2.0, 1.0 / (1e-6 + (t - 0.3) ** 2))

        values, _ = _integrate_rows(f, np.zeros(2), np.ones(2), QuadratureSpec(1e-12))
        assert values[0] == 2.0
        assert len(seen) > 3
        assert np.count_nonzero(np.concatenate(seen) == 0) == _NODES.size

    def test_marked_panels_split_in_quarters(self):
        panels = []

        def f(i, t):
            # The panel [centre - half width, centre + half width] of each line.
            mid = t[:, _NODES.size // 2]
            half = (t[:, -1] - mid) / _NODES[-1]
            panels.append(np.stack([mid - half, mid + half], axis=1))
            return 1.0 / (1e-6 + (t - 0.3) ** 2)

        _integrate_rows(f, np.zeros(1), np.ones(1), QuadratureSpec(1e-12))
        assert len(panels[0]) == 1 and len(panels) > 3
        for new in panels[1:]:
            quads = new[np.argsort(new[:, 0])].reshape(-1, 4, 2)  # each parent's four panels
            widths = quads[:, :, 1] - quads[:, :, 0]
            assert np.allclose(widths, widths[:, :1], rtol=1e-9, atol=0.0)
            assert np.allclose(quads[:, 1:, 0], quads[:, :-1, 1], rtol=0.0, atol=1e-12)

    def test_both_flags_never_pass_an_empty_piece(self):
        # One half of [0, 1] is accepted steps before the other; the finished
        # half must not be evaluated on no abscissae.
        sizes = []

        def f(i, t):
            sizes.append(t.size)
            return np.exp(3.0 * t) / np.sqrt(t * (1.0 - t))

        spec = QuadratureSpec(1e-12, singular_left=True, singular_right=True)
        values, _ = _integrate_rows(f, np.zeros(1), np.ones(1), spec)
        assert abs(values[0] - PI * math.exp(1.5) * float(np.i0(1.5))) < 1e-11
        assert _integrate_rows(f, np.ones(2), np.ones(2), spec)[0].tolist() == [0.0, 0.0]
        assert min(sizes) > 0

    def test_empty_rows_give_zero(self):
        calls = []

        def f(i, t):
            calls.append(i.ravel().copy())
            return np.exp(t) / np.sqrt(t)  # infinite at t = 0 = a = b of the empty rows

        a = np.array([0.0, 1.0, 0.0, 2.0])
        b = np.array([0.0, 2.0, 0.0, 2.0])
        spec = QuadratureSpec(1e-12, singular_left=True)
        values, errors = _integrate_rows(f, a, b, spec)
        assert values[0] == values[2] == values[3] == 0.0 and errors[3] == 0.0
        assert abs(values[1] - integrate(lambda t: np.exp(t) / np.sqrt(t), 1.0, 2.0, spec).value) < 1e-11
        assert set(np.concatenate(calls)) == {1}
        assert _integrate_rows(f, np.ones(2), np.ones(2))[0].tolist() == [0.0, 0.0]

    def test_nan_row_raises(self):
        with pytest.raises(NonFiniteIntegrand):
            _integrate_rows(lambda i, t: np.where(i == 1, np.nan, t), np.zeros(3), np.ones(3))

    def test_step_row_raises_with_estimate(self):
        # As TestIntegrate.test_tolerance_not_met, in the second of three rows.
        spec = QuadratureSpec(1e-30)

        def f(i, t):
            return np.where(i == 1, np.where(t < math.e / 3, 0.0, 1.0), t)

        with pytest.raises(ToleranceNotMet) as info:
            _integrate_rows(f, np.zeros(3), np.ones(3), spec)
        assert isinstance(info.value.result, QuadratureResult)
        assert abs(info.value.result.value - (1.0 - math.e / 3)) < 0.01

    @pytest.mark.parametrize("f", [lambda i, t: np.tan(0.5 * PI * t),
                                   lambda i, t: np.sin(1.0 / t) / t])
    def test_non_integrable_row_hits_the_panel_budget(self, f):
        t0 = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match="panel budget") as info:
            _integrate_rows(f, np.zeros(2), np.ones(2))
        assert time.perf_counter() - t0 < 1.0
        assert info.value.result.evaluations <= _NODES.size * _PANEL_BUDGET

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            _integrate_rows(lambda i, t: t, np.zeros(2), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            _integrate_rows(lambda i, t: t, np.zeros(2), np.array([1.0, math.inf]))

    @pytest.mark.parametrize("jac", [angle_jacobian, side_jacobian])
    @pytest.mark.parametrize("kappa", [0.8, PI / 2, 2.4])
    def test_jacobians_over_the_square(self, jac, kappa):
        # The measure of the free point, 2*pi, with the Jacobian's four
        # singular corners inside the inner rows; the scalar reference is
        # test_coords.py::test_jacobians_integrate_to_total_measure.
        def outer(us):
            return _integrate_rows(lambda i, v: jac(us[i], v, kappa), np.zeros_like(us),
                                   np.full_like(us, PI),
                                   QuadratureSpec(1e-10))[0]

        total = integrate(outer, 0.0, PI, QuadratureSpec(1e-9))
        assert abs(total.value - 2 * PI) < 1e-7


class TestOneEndpointMap:
    """A flagged right end b is the left-end map of t -> f(-t) at -b, in both engines.

    So a right-flagged integral is the mirrored left-flagged one bit for
    bit, with the cos(c t) / sqrt(distance to each flagged end) integrands
    of TestIntegrateRows (row 1 has a = -0.625).
    """

    C, A, B = TestIntegrateRows.C, TestIntegrateRows.A, TestIntegrateRows.B

    @pytest.mark.parametrize("left", [False, True])
    @pytest.mark.parametrize("row", [1, 8])  # 8 refines, on [2, 5]
    def test_integrate(self, left, row):
        c, a, b = self.C[row], self.A[row], self.B[row]

        def f(t):
            y = np.cos(c * t) / np.sqrt(b - t)
            return y / np.sqrt(t - a) if left else y

        right = integrate(f, a, b, QuadratureSpec(1e-12, left, True))
        mirrored = integrate(lambda s: f(-s), -b, -a, QuadratureSpec(1e-12, True, left))
        assert right.value.hex() == mirrored.value.hex()
        assert right.err_estimate.hex() == mirrored.err_estimate.hex()
        assert right.evaluations == mirrored.evaluations

    @pytest.mark.parametrize("left", [False, True])
    def test_integrate_rows(self, left):
        def f(i, t):
            y = np.cos(self.C[i] * t) / np.sqrt(self.B[i] - t)
            return y / np.sqrt(t - self.A[i]) if left else y

        right = _integrate_rows(f, self.A, self.B, QuadratureSpec(1e-12, left, True))
        mirrored = _integrate_rows(lambda i, s: f(i, -s), -self.B, -self.A,
                                   QuadratureSpec(1e-12, True, left))
        for got, want in zip(right, mirrored):
            assert got.tobytes() == want.tobytes()

    def test_both_flags_call_f_once_per_step(self, monkeypatch):
        # Each _row_panels call is the first evaluation or one step, and it
        # evaluates the panels of both pieces in a single call of f.
        panels, calls = [], []
        row_panels = quadrature._row_panels

        def counted(g, j, a, b):
            panels.append(j.size)
            return row_panels(g, j, a, b)

        def f(i, t):
            calls.append(t.shape[0])
            return np.cos(self.C[i] * t) / np.sqrt((t - self.A[i]) * (self.B[i] - t))

        monkeypatch.setattr(quadrature, "_row_panels", counted)
        _integrate_rows(f, self.A, self.B, QuadratureSpec(1e-15, True, True))
        assert len(panels) > 2
        assert calls == panels


class TestOneAcceptanceRule:
    """integrate and _integrate_rows accept on err <= tol * max(1, |value|).

    So the tolerance is absolute for a value below 1 (c = 1 gives 1/21
    below) and relative above it (c = 210 gives 10), where an estimate
    larger than tol itself passes.
    """

    @staticmethod
    def tols(err, value):
        """The tolerances just above and just below the one at which err passes for value."""
        scale = max(1.0, abs(value))
        return 1.01 * err / scale, 0.99 * err / scale

    @pytest.mark.parametrize("c", [210.0, 1.0])
    def test_integrate(self, c):
        def f(t):
            return c * t ** 20  # beyond the degree 19 that G10 integrates exactly

        first = integrate(f, 0.0, 1.0, QuadratureSpec(1.0))
        assert first.evaluations == _NODES.size and first.err_estimate > 0.0
        accept, refine = self.tols(first.err_estimate, first.value)
        assert (first.err_estimate > accept) == (c > 21.0)
        assert integrate(f, 0.0, 1.0, QuadratureSpec(accept)).evaluations == _NODES.size
        assert integrate(f, 0.0, 1.0, QuadratureSpec(refine)).evaluations > _NODES.size

    @staticmethod
    def lopsided(t):
        """Both ends singular; the right piece carries the oscillation."""
        return (1.0 + np.cos(40.0 * t) * (t > 0.2)) / np.sqrt((t + 0.625) * (1.0 - t))

    @pytest.mark.parametrize("tol, evaluations", [(1e-12, 1218), (1e-9, 924)])
    def test_integrate_with_both_flags(self, tol, evaluations):
        # The two pieces are held to tol together, not to tol / 2 each: the
        # estimate of this lopsided integrand takes more than half of the
        # whole allowance.
        r = integrate(self.lopsided, -0.625, 1.0, QuadratureSpec(tol, True, True))
        allowed = tol * max(1.0, abs(r.value))
        assert 0.5 * allowed < r.err_estimate <= allowed
        assert r.evaluations == evaluations

    @pytest.mark.parametrize("tol, evaluations, share", [(1e-11, 1134, 0.3), (1e-9, 882, 0.15)])
    def test_integrate_rows_with_both_flags(self, tol, evaluations, share):
        # The batched engine too accepts the row on the sum of its pieces.
        # Pieces held to tol / 2 each take 1,302 evaluations at 1e-11 and 966
        # at 1e-9, with estimates of 0.023 and 0.036 of the allowance. (At
        # 1e-12 both ways take 1,302, with the same estimate.)
        sizes = []

        def f(i, t):
            sizes.append(t.size)
            return self.lopsided(t)

        values, errors = _integrate_rows(f, np.array([-0.625]), np.ones(1),
                                         QuadratureSpec(tol, True, True))
        allowed = tol * max(1.0, abs(values[0]))
        assert share * allowed < errors[0] <= allowed
        assert sum(sizes) == evaluations

    @pytest.mark.parametrize("c", [210.0, 1.0])
    def test_integrate_rows(self, c):
        calls = []

        def f(i, t):  # row 1 is a constant, accepted on its first panel at every tol here
            calls.append(i.size)
            return np.where(i == 0, c * t ** 20, 1.0)

        values, errors = _integrate_rows(f, np.zeros(2), np.ones(2), QuadratureSpec(1.0))
        accept, refine = self.tols(errors[0], values[0])
        for tol, steps in ((accept, 1), (refine, 2)):
            calls.clear()
            _integrate_rows(f, np.zeros(2), np.ones(2), QuadratureSpec(tol))
            assert min(len(calls), 2) == steps


def _step(t):
    """A unit step 3.3e-14 into [1, 1 + 1e-13]."""
    return np.where(t < 1.0 + 3.3e-14, 0.0, 1.0)


@pytest.mark.parametrize("engine", [
    lambda spec: integrate(_step, 1.0, 1.0 + 1e-13, spec),
    lambda spec: _integrate_rows(lambda i, t: _step(t), np.ones(1), np.full(1, 1.0 + 1e-13), spec),
], ids=["integrate", "_integrate_rows"])
def test_width_floor_stops_both_engines(engine):
    # Every panel next to the step narrows to the width floor before the
    # error reaches 1e-30. Both engines stop there with the same estimate,
    # 1e-13 - 3.3e-14 as the panels resolve it.
    with pytest.raises(ToleranceNotMet, match="no panel wider than the floor left to split") as info:
        engine(QuadratureSpec(1e-30))
    assert info.value.result.value == pytest.approx(6.689056776485204e-14, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(alpha, beta):
    spec = QuadratureSpec(1e-12)
    f = lambda x: np.sin(x)
    g = lambda x: x * x
    combined = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, spec).value
    separate = alpha * integrate(f, 0.0, 2.0, spec).value + beta * integrate(g, 0.0, 2.0, spec).value
    assert abs(combined - separate) < 1e-10 * (1 + abs(alpha) + abs(beta))


def legendre_f_e(phi, z):
    """F(phi, k) and E(phi, k) from Carlson's forms at the Legendre arguments."""
    s, c = np.sin(phi), np.cos(phi)
    rf, rd = carlson_rf_rd(c * c, c * c + (1.0 - z) * (1.0 + z) * s * s, 1.0)  # 1 - k^2 sin^2 phi
    return s * rf, s * rf - (z * z / 3.0) * s ** 3 * rd


class TestCarlson:
    def test_complete_integrals_match_agm(self):
        z = np.linspace(0.0, 0.999, 2001)
        kp2 = (1.0 - z) * (1.0 + z)
        rf, rd = carlson_rf_rd(0.0, kp2, 1.0)
        K, E = ellip_K(z), ellip_E(z)
        assert np.max(np.abs(rf - K) / K) < 1e-13
        assert np.max(np.abs(rf - z * z / 3.0 * rd - E)) < 1e-13
        F, E_inc = legendre_f_e(PI / 2, z)
        assert np.max(np.abs(F - K) / K) < 1e-13
        assert np.max(np.abs(E_inc - E)) < 1e-13

    def test_lemniscatic_values(self):
        # R_F(0, 1, 2) = Gamma(1/4)^2 / (4 sqrt(2 pi)); R_D(0, 2, 1) = 3 Gamma(3/4)^2 / sqrt(2 pi)
        rf, _ = carlson_rf_rd(0.0, 1.0, 2.0)
        _, rd = carlson_rf_rd(0.0, 2.0, 1.0)
        assert abs(rf - math.gamma(0.25) ** 2 / (4.0 * math.sqrt(2.0 * PI))) < 1e-15
        assert abs(rd - 3.0 * math.gamma(0.75) ** 2 / math.sqrt(2.0 * PI)) < 1e-14

    def test_scalar_and_array(self):
        rf, rd = carlson_rf_rd(0.5, 1.0, 2.0)
        assert isinstance(rf, float) and isinstance(rd, float)
        arr, _ = carlson_rf_rd(np.array([0.5, 0.5]), 1.0, 2.0)
        assert arr.shape == (2,) and arr[0] == rf

    def test_incomplete_odd_and_zero(self):
        assert legendre_f_e(0.0, 0.7) == (0.0, 0.0)
        assert legendre_f_e(-0.9, 0.7)[0] == -legendre_f_e(0.9, 0.7)[0]
        F, E = legendre_f_e(1.0, 0.0)
        assert abs(F - 1.0) < 1e-15
        assert abs(E - 1.0) < 1e-15

    def test_incomplete_vs_defining_integrals(self):
        spec = QuadratureSpec(1e-14)
        for phi, z in ((0.4, 0.2), (1.2, 0.8), (1.5, 0.97)):
            f = integrate(lambda t: 1.0 / np.sqrt(1 - z * z * np.sin(t) ** 2), 0.0, phi, spec)
            e = integrate(lambda t: np.sqrt(1 - z * z * np.sin(t) ** 2), 0.0, phi, spec)
            F, E = legendre_f_e(phi, z)
            assert abs(F - f.value) < 1e-13
            assert abs(E - e.value) < 1e-13

    def test_incomplete_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20)
        phi = rng.uniform(-PI / 2, PI / 2, 400)
        z = rng.uniform(0.0, 1.0, 400)
        F, E = legendre_f_e(phi, z)
        for p, k, f, e in zip(phi, z, F, E):
            m = float(k) ** 2
            ref_f = float(mpmath.ellipf(float(p), m))
            ref_e = float(mpmath.ellipe(float(p), m))
            assert abs(f - ref_f) <= 1e-13 * max(1.0, abs(ref_f))
            assert abs(e - ref_e) <= 1e-13 * max(1.0, abs(ref_e))

    @staticmethod
    def float_triples():
        # Arguments like the fixed-side perimeter law's (cos^2 theta1,
        # 1 - k'^2 sin^2 theta1, 1), complete ones (x = 0) and y down to 1e-20.
        rng = np.random.default_rng(7)
        n = 300
        x = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.8)
        y = 10.0 ** rng.uniform(-20.0, 0.5, n)
        z = np.where(rng.uniform(size=n) < 0.5, 1.0, rng.uniform(0.05, 2.0, n))
        return x, y, z

    def test_float_path_is_the_array_call(self):
        # Three floats run on Python floats; in an array every element takes
        # the steps its slowest one needs, so the two can differ in the last
        # bits (measured at most 4.9e-16 relative).
        x, y, z = self.float_triples()
        rf_a, rd_a = carlson_rf_rd(x, y, z)
        for i in range(x.size):
            rf, rd = carlson_rf_rd(float(x[i]), float(y[i]), float(z[i]))
            assert type(rf) is float and type(rd) is float
            assert abs(rf - rf_a[i]) <= 1e-15 * rf_a[i] and abs(rd - rd_a[i]) <= 1e-15 * rd_a[i]

    def test_float_path_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x, y, z = self.float_triples()
        with mpmath.workdps(40):
            for args in zip(x.tolist(), y.tolist(), z.tolist()):
                rf, rd = carlson_rf_rd(*args)
                ref_f, ref_d = float(mpmath.elliprf(*args)), float(mpmath.elliprd(*args))
                assert abs(rf - ref_f) <= 1e-15 * ref_f and abs(rd - ref_d) <= 1e-15 * ref_d, args

    def test_domain(self):
        with pytest.raises(ValueError):
            carlson_rf_rd(math.nan, 1.0, 1.0)
        with pytest.raises(ValueError):
            carlson_rf_rd(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            carlson_rf_rd(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            carlson_rf_rd(1.0, 1.0, 0.0)
