import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtri.coords import angle_jacobian, side_jacobian
from sphtri.distributions import _two_order_rule
from sphtri.errors import Divergent, NonFiniteIntegrand, SphtriError, ToleranceNotMet
from sphtri.quadrature import (
    _PANEL_BUDGET,
    QuadratureResult,
    QuadratureSpec,
    _integrate_rows,
    carlson_rf_rd,
    ellip_E,
    ellip_K,
    integrate,
)

PI = math.pi


def quad_oracle(f, a, b, tol=1e-13):
    return integrate(f, a, b, QuadratureSpec(tol)).value


class TestEllipticK:
    def test_zero_modulus(self):
        assert abs(ellip_K(0.0) - PI / 2) < 1e-15

    def test_lemniscatic_value(self):
        # Frozen from the defining-integral oracle (and classical tables).
        assert abs(ellip_K(math.sqrt(2) / 2) - 1.8540746773013719) < 1e-12

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
    # An array call's AGM runs until its slowest modulus has converged.
    z = np.concatenate([np.linspace(0.0, 0.999999, 501), [1.0 - 1e-12, 1.0 - 2e-15], at_one])
    assert np.array_equal(f(z), [f(float(x)) for x in z])


def test_legendre_relation_grid():
    for z in np.linspace(0.02, 0.98, 20):
        zp = math.sqrt(1.0 - z * z)
        res = ellip_E(z) * ellip_K(zp) + ellip_E(zp) * ellip_K(z) - ellip_K(z) * ellip_K(zp)
        assert abs(res - PI / 2) < 1e-12


class TestIntegrate:
    def test_sine(self):
        r = integrate(np.sin, 0.0, PI, QuadratureSpec(1e-13))
        assert abs(r.value - 2.0) < 1e-12
        assert r.err_estimate >= 0
        assert r.evaluations >= 15

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

    def test_empty_interval(self):
        r = integrate(np.sin, 1.0, 1.0)
        assert r.value == 0.0

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

    @pytest.mark.parametrize("f", [lambda t: 1.0 / t, lambda t: np.sin(1.0 / t) / t])
    def test_non_integrable_hits_the_panel_budget(self, f):
        # The integrands of TestIntegrateRows.test_non_integrable_row_hits_the_panel_budget.
        t0 = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match="panel budget") as info:
            integrate(f, 0.0, 1.0)
        assert time.perf_counter() - t0 < 1.0
        assert info.value.result.evaluations <= 15 * _PANEL_BUDGET

    def test_unmet_tolerance_estimates_the_whole_integral(self):
        # Both flags split [0, 1] at 1/2. The left piece exhausts the budget as
        # it does alone; the right piece still runs and adds its ln 2.
        both = QuadratureSpec(singular_left=True, singular_right=True)
        with pytest.raises(ToleranceNotMet) as whole:
            integrate(lambda t: 1.0 / t, 0.0, 1.0, both)
        with pytest.raises(ToleranceNotMet) as left:
            integrate(lambda t: 1.0 / t, 0.0, 0.5, QuadratureSpec(singular_left=True))
        gap = whole.value.result.value - left.value.result.value
        assert abs(gap - math.log(2.0)) < 1e-9
        assert whole.value.result.evaluations <= 15 * _PANEL_BUDGET

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

    @pytest.mark.parametrize("f", [lambda i, t: 1.0 / t, lambda i, t: np.sin(1.0 / t) / t])
    def test_non_integrable_row_hits_the_panel_budget(self, f):
        t0 = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match="panel budget") as info:
            _integrate_rows(f, np.zeros(2), np.ones(2))
        assert time.perf_counter() - t0 < 1.0
        assert info.value.result.evaluations <= 15 * _PANEL_BUDGET

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


class TestOneAcceptanceRule:
    """integrate, _integrate_rows and _two_order_rule accept on err <= tol * max(1, |value|).

    So the tolerance is absolute for a value below 1 (c = 1 gives 1/15
    below) and relative above it (c = 150 gives 10), where an estimate
    larger than tol itself passes.
    """

    @staticmethod
    def tols(err, value):
        """The tolerances just above and just below the one at which err passes for value."""
        scale = max(1.0, abs(value))
        return 1.01 * err / scale, 0.99 * err / scale

    @pytest.mark.parametrize("c", [150.0, 1.0])
    def test_integrate(self, c):
        def f(t):
            return c * t ** 14  # beyond the degree 13 that G7 integrates exactly

        first = integrate(f, 0.0, 1.0, QuadratureSpec(1.0))
        assert first.evaluations == 15 and first.err_estimate > 0.0
        accept, refine = self.tols(first.err_estimate, first.value)
        assert (first.err_estimate > accept) == (c > 15.0)
        assert integrate(f, 0.0, 1.0, QuadratureSpec(accept)).evaluations == 15
        assert integrate(f, 0.0, 1.0, QuadratureSpec(refine)).evaluations > 15

    @pytest.mark.parametrize("c", [150.0, 1.0])
    def test_integrate_rows(self, c):
        calls = []

        def f(i, t):  # row 1 is a constant, accepted on its first panel at every tol here
            calls.append(i.size)
            return np.where(i == 0, c * t ** 14, 1.0)

        values, errors = _integrate_rows(f, np.zeros(2), np.ones(2), QuadratureSpec(1.0))
        accept, refine = self.tols(errors[0], values[0])
        for tol, steps in ((accept, 1), (refine, 2)):
            calls.clear()
            _integrate_rows(f, np.zeros(2), np.ones(2), QuadratureSpec(tol))
            assert min(len(calls), 2) == steps

    @pytest.mark.parametrize("c", [150.0, 1.0])
    def test_two_order_rule(self, c):
        def integrand(x, v):
            return c * x * v ** 6  # beyond the degree 5 that orders 2 and 3 integrate exactly

        xs = np.array([1.0])
        with pytest.raises(ToleranceNotMet) as info:
            _two_order_rule(integrand, xs, (2, 3), 1e-15)
        gap, value = info.value.result.err_estimate, info.value.result.value
        accept, refine = self.tols(gap, value)
        assert _two_order_rule(integrand, xs, (2, 3), accept)[0] == value
        with pytest.raises(ToleranceNotMet):
            _two_order_rule(integrand, xs, (2, 3), refine)


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

    def test_domain(self):
        with pytest.raises(ValueError):
            carlson_rf_rd(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            carlson_rf_rd(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            carlson_rf_rd(1.0, 1.0, 0.0)
