import math
import time
import warnings

import numpy as np
import pytest

from sphtri import distributions
from sphtri.distributions import (
    ConditionalKind,
    DensityCurve,
    DensityKind,
    EllipticReduction,
    area_cdf,
    area_density,
    conditional_cdf,
    crofton_kernel,
    density_via_double_integral,
    elliptic_reduction_gap,
    perimeter_cdf,
    perimeter_cdf_grid,
    perimeter_density,
    radicand_perimeter,
    region_boundary,
)
from sphtri.distributions import (
    _DENSITY_ORDERS, _perimeter_cdf_integrand, _perimeter_density_integrand, _sqrt_inner,
    _two_order_rule,
)
from sphtri.errors import OutOfDomain, ToleranceNotMet
from sphtri.identities import bisector_threshold
from sphtri.quadrature import QuadratureSpec, ellip_E, ellip_K, integrate

PI = math.pi
TWO_PI = 2.0 * PI
PERIM_AT_PI = 3.0 * math.sqrt(2.0) / 32.0


def sqrt_inner(x, kappa, tol, dual=False):
    """The primal-perimeter (or negated dual-area) inner integral at one kappa."""
    f, bounds = _sqrt_inner(x, dual)
    return integrate(lambda t: f(kappa, t), *bounds(kappa), QuadratureSpec(tol, True, True)).value


class TestAreaDensity:
    def test_at_pi(self):
        assert abs(area_density(PI) - 1.0 / (4 * PI)) < 1e-14

    def test_at_zero(self):
        assert abs(area_density(0.0) - (3 * PI**2 + 12) / (16 * PI)) < 1e-13

    def test_at_half_pi(self):
        assert abs(area_density(PI / 2) - (5 * PI**2 / 2 + 6 - 9 * PI) / (4 * PI)) < 1e-13

    def test_at_two_pi(self):
        assert abs(area_density(TWO_PI) - (12 - PI**2) / (16 * PI)) < 1e-13

    def test_continuous_through_pi(self):
        # |slope| at pi is about 1/30; allow that plus float noise.
        ref = area_density(PI)
        for d in (1e-3, 1e-6, 1e-9, 1e-12):
            assert abs(area_density(PI - d) - ref) < 0.05 * d + 1e-13
            assert abs(area_density(PI + d) - ref) < 0.05 * d + 1e-13

    def test_nonnegative_grid(self):
        xs = np.linspace(0.0, TWO_PI, 200)
        assert np.all(area_density(xs) >= 0.0)

    def test_normalizes(self):
        r = integrate(area_density, 0.0, TWO_PI, QuadratureSpec(1e-11))
        assert abs(r.value - 1.0) < 1e-10

    def test_mean_is_half_pi(self):
        f = lambda s: s * area_density(s)
        r = integrate(f, 0.0, TWO_PI, QuadratureSpec(1e-11))
        assert abs(r.value - PI / 2) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            area_density(-0.1)
        with pytest.raises(ValueError):
            area_density(TWO_PI + 0.1)

    def test_mc_histogram_near_zero(self, tail_histograms_10m):
        n, c_sigma, _ = tail_histograms_10m
        p = integrate(area_density, 0.0, 0.05, QuadratureSpec(1e-12)).value
        se = math.sqrt(p * (1 - p) / n)
        assert abs(c_sigma / n - p) < 3 * se


class TestAreaCdf:
    def test_endpoints(self):
        assert area_cdf(0.0) == 0.0
        assert area_cdf(TWO_PI) == 1.0
        assert abs(area_cdf(TWO_PI - 1e-12) - 1.0) < 1e-10

    def test_derivative_matches_density(self):
        h = 1e-5
        fd = (area_cdf(1.0 + h) - area_cdf(1.0 - h)) / (2 * h)
        assert abs(fd - area_density(1.0)) < 1e-6

    def test_integral_of_density(self):
        for x in np.linspace(0.3, TWO_PI - 0.3, 20):
            r = integrate(area_density, 0.0, float(x), QuadratureSpec(1e-11))
            assert abs(r.value - area_cdf(float(x))) < 1e-7

    def test_monotone(self):
        xs = np.linspace(0.0, TWO_PI, 100)
        vals = area_cdf(xs)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [1e-8, 1e-6, 1.84e-5, 5e-5, 1e-3, 0.3, 1.0, PI, 5.0,
                                   TWO_PI - 1e-3, TWO_PI - 1e-8])
    def test_matches_density_integral(self, x):
        # Below x ~ 5e-5 adaptive_area_cdf misses this by up to 3e-5 relative.
        # The reference is x times the integral of area_density(x s) over
        # s in [0, 1], so that one tolerance is relative to the CDF at every x.
        ref = x * integrate(lambda s: area_density(x * s), 0.0, 1.0, QuadratureSpec(1e-15)).value
        assert abs(area_cdf(x) - ref) <= 1e-13 * ref

    def test_no_adaptive_quadrature(self, monkeypatch):
        import sphtri.distributions as dist

        def forbidden(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(dist, "integrate", forbidden)
        dist.area_cdf(2.0)
        dist.area_cdf(np.linspace(0.0, TWO_PI, 50))


# 1000 random points plus 0, pi, 2*pi and |sigma - pi| = 0.5 and 0.7, where
# branches of series-switching forms of the area law would meet.
AREA_XS = np.concatenate([
    [0.0, PI, TWO_PI, PI - 0.5, PI + 0.5, PI - 0.7, PI + 0.7, 1e-300],
    np.random.default_rng(9).uniform(0.0, TWO_PI, 1000),
])


class TestAreaLawArrays:
    @pytest.mark.parametrize("f", [area_density, area_cdf, crofton_kernel])
    def test_array_equals_scalar_bit_for_bit(self, f):
        vals = f(AREA_XS)
        assert isinstance(f(2.0), float) and isinstance(f(np.float64(2.0)), float)
        assert vals.shape == AREA_XS.shape
        assert np.array_equal(vals, [f(float(x)) for x in AREA_XS])

    @pytest.mark.parametrize("f", [area_density, area_cdf, crofton_kernel])
    def test_shapes_and_empty_input(self, f):
        xs = np.linspace(0.5, 5.5, 12)
        assert np.array_equal(f(xs.reshape(3, 4)), f(xs).reshape(3, 4))
        assert f(np.array(2.0)) == f(2.0)
        assert f(np.array([])).shape == (0,)
        assert f([1.0, 2.0]).shape == (2,)

    @pytest.mark.parametrize("f, bad", [
        (area_density, -1e-12), (area_density, TWO_PI + 1e-9), (area_density, float("nan")),
        (area_cdf, -1e-12), (area_cdf, TWO_PI + 1e-9), (area_cdf, float("nan")),
        (crofton_kernel, -1e-12), (crofton_kernel, TWO_PI + 1e-9), (crofton_kernel, float("nan")),
    ])
    def test_one_value_out_of_domain_raises(self, f, bad):
        with pytest.raises(ValueError):
            f(bad)
        with pytest.raises(ValueError):
            f(np.array([1.0, bad, 2.0]))

    def test_cdf_ends_are_exact(self):
        assert np.array_equal(area_cdf(np.array([0.0, TWO_PI])), [0.0, 1.0])

    def test_density_matches_mpmath(self):
        # The raw closed form at 40 digits, -N / (16 pi cos^4(sigma/2)) with
        # N = -(d^2 - 2 pi d - 6) cos d + 6 (d - pi) sin d - 2 d^2 + 4 pi d - 6
        # and d = sigma - pi; the even grid keeps |d| above 3e-3, where the
        # fourth-order cancellation costs 10 of the 40 digits.
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(0.01, TWO_PI - 0.01, 996)
        vals = area_density(xs)
        with mpmath.workdps(40):
            pi = mpmath.pi
            for x, v in zip(xs, vals):
                s = mpmath.mpf(float(x))
                d = s - pi
                n = (-(d * d - 2 * pi * d - 6) * mpmath.cos(d) + 6 * (d - pi) * mpmath.sin(d)
                     - 2 * d * d + 4 * pi * d - 6)
                ref = -n / (16 * pi * mpmath.cos(s / 2) ** 4)
                assert abs(v - ref) <= 2e-14 * ref

    def test_tabulated_tables_are_fast(self):
        # One array call each: about 0.25 ms on a 2-CPU host, against 50 ms for
        # one adaptive integral a point.
        xs = np.linspace(0.0, TWO_PI, 500)
        start = time.perf_counter()
        pdf = DensityCurve(xs, area_density(xs))
        cdf = DensityCurve(xs, area_cdf(xs))
        assert time.perf_counter() - start < 0.05
        assert pdf.values[250] == area_density(float(xs[250]))
        assert cdf.values[250] == area_cdf(float(xs[250]))


class TestPerimeterDensity:
    def test_at_pi(self):
        assert abs(perimeter_density(PI) - PERIM_AT_PI) < 1e-9

    def test_small_tau(self):
        assert perimeter_density(0.01) < 1e-3
        assert perimeter_density(0.005) < perimeter_density(0.01)

    def test_grows_near_two_pi(self):
        assert perimeter_density(TWO_PI - 1e-6) > perimeter_density(TWO_PI - 1e-2)

    def test_domain(self):
        with pytest.raises(ValueError):
            perimeter_density(0.0)
        with pytest.raises(ValueError):
            perimeter_density(TWO_PI)

    def test_normalizes(self):
        f = lambda s: np.array(
            [perimeter_density(min(max(float(v), 1e-12), TWO_PI - 1e-9), tol=1e-10)
             for v in np.atleast_1d(s)]
        )
        spec = QuadratureSpec(1e-7, singular_right=True)
        r = integrate(f, 0.0, TWO_PI, spec)
        assert abs(r.value - 1.0) < 1e-5

    def test_radicand_product_form(self):
        # The factored radicand equals the literal difference of squares, on
        # the primal-perimeter rho-band and on the dual-area theta-band.
        for tau in (1.0, PI, 5.0):
            bands = [(kappa, tau / 2 - kappa, tau / 2) for kappa in (0.2 * tau / 2, 0.7 * tau / 2)]
            bands += [(kappa, tau / 2, PI - kappa + tau / 2)
                      for kappa in (tau / 2 + 0.2 * (PI - tau / 2), tau / 2 + 0.7 * (PI - tau / 2))]
            for kappa, lo, hi in bands:
                rho = np.linspace(lo + 0.01, hi - 0.01, 7)
                lit = (
                    np.sin(kappa) ** 2 * np.sin(rho) ** 2
                    - (np.cos(kappa) * np.cos(rho) - np.cos(tau - kappa - rho)) ** 2
                )
                assert np.max(np.abs(radicand_perimeter(tau, kappa, rho) - lit)) < 1e-12

    def test_integrand_radical_identity(self):
        # cos^2(t/2) - cos^2((tau-t)/2) == sin(tau/2 - t) sin(tau/2).
        tau = 2.6
        t = np.linspace(0.05, tau / 2 - 0.05, 9)
        lit = np.cos(t / 2) ** 2 - np.cos((tau - t) / 2) ** 2
        assert np.max(np.abs(lit - np.sin(tau / 2 - t) * math.sin(tau / 2))) < 1e-14

    def test_mc_histogram_at_three_half_pi(self, tail_histograms_10m):
        n, _, c_tau = tail_histograms_10m
        lo, hi = 3 * PI / 2 - 0.005, 3 * PI / 2 + 0.005
        f = lambda s: np.array([perimeter_density(float(v), tol=1e-10) for v in np.atleast_1d(s)])
        p = integrate(f, lo, hi, QuadratureSpec(1e-10)).value
        se = math.sqrt(p * (1 - p) / n)
        assert abs(c_tau / n - p) < 3 * se

    def test_cdf_endpoints(self):
        assert perimeter_cdf(0.0) == 0.0
        assert perimeter_cdf(TWO_PI) == 1.0
        v = perimeter_cdf(PI, tol=1e-7)
        assert 0.0 < v < 1.0


def adaptive_perimeter_density(tau: float, tol: float = 1e-12) -> float:
    """The perimeter density by adaptive Gauss-Kronrod, with K and E at k = sin(t/2).

    The library's route before the fixed two-order rule; kept as an
    independent oracle for it.
    """
    s_half = math.sin(tau / 2)

    def integrand(t):
        z = np.sin(t / 2)
        num = ellip_E(z) - np.cos((tau - t) / 2) ** 2 * ellip_K(z)
        rad = np.sin(tau / 2 - t) * s_half
        return num / np.sqrt(rad) * np.sin(t)

    spec = QuadratureSpec(tol, singular_right=True)
    return integrate(integrand, 0.0, tau / 2, spec).value / (4.0 * math.pi)


def nested_perimeter_cdf(tau: float, tol: float = 1e-9) -> float:
    """The perimeter CDF as quadrature of perimeter_density, itself a quadrature.

    The library's route before the single-integral form; kept as an
    independent oracle for it.
    """
    def density(t):
        return np.array([perimeter_density(float(x), tol=tol / 100) for x in np.atleast_1d(t)])

    return integrate(density, 0.0, tau, QuadratureSpec(tol)).value


def adaptive_perimeter_cdf(tau: float, tol: float = 1e-9) -> float:
    """The perimeter CDF's single integral by adaptive Gauss-Kronrod in v.

    The library's route before the fixed two-order rule; kept as an
    independent quadrature of the same integrand.
    """
    from sphtri.distributions import _perimeter_cdf_integrand

    spec = QuadratureSpec(tol)
    return integrate(lambda v: _perimeter_cdf_integrand(tau, v), 0.0, 1.0, spec).value


def adaptive_area_cdf(sigma: float, tol: float = 1e-12) -> float:
    """P{area <= sigma} by adaptive quadrature over the fixed side.

    The library's route before the closed form; kept as an independent
    oracle for it. Below sigma ~ 5e-5 it misses its tolerance by up to
    3e-5 relative.
    """
    from sphtri.distributions import _arctan_band

    if sigma <= 0.0:
        return 0.0
    if sigma >= TWO_PI:
        return 1.0

    def integrand(kappa):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = np.hypot(1.0, np.tan(kappa / 2) / math.sin(sigma / 2))
            bracket = math.pi / w - _arctan_band(sigma / 2, w)
        return (sigma / 2 + np.nan_to_num(bracket)) * np.sin(kappa)

    res = integrate(integrand, 0.0, math.pi, QuadratureSpec(tol))
    return min(1.0, max(0.0, res.value / TWO_PI))


# (sqrt(2)/4pi) Integral_0^pi [E(k) - k'^2 K(k)] sqrt(sin t) dt with k = sin(t/2),
# by mpmath at 45 digits: the limit of sqrt(2 pi - tau) f(tau) at 2 pi. It
# equals 3 pi^2 / (sqrt(2) Gamma(1/4)^4) to 2.6e-67 at 70 digits.
TAIL_CONSTANT = 0.12116625978620570455
ORACLE_XS = tuple(np.linspace(0.01, 6.2, 13)) + (6.28, TWO_PI - 1e-3, TWO_PI - 1e-6, TWO_PI - 1e-9)


class TestPerimeterDensityRule:
    @pytest.mark.parametrize("x", ORACLE_XS)
    def test_matches_adaptive_oracle(self, x):
        ref = adaptive_perimeter_density(x, tol=1e-14)
        assert abs(perimeter_density(x) - ref) <= 1e-11 * ref

    def test_array_equals_scalar(self):
        xs = np.array(ORACLE_XS + (PI, 1e-12))
        vals = perimeter_density(xs)
        assert isinstance(perimeter_density(PI), float)
        assert vals.shape == xs.shape
        assert all(v == perimeter_density(float(x)) for x, v in zip(xs, vals))
        grid = perimeter_density(xs[:16].reshape(4, 4))
        assert grid.shape == (4, 4) and np.array_equal(grid.ravel(), vals[:16])
        assert perimeter_density(np.array([])).shape == (0,)

    def test_no_adaptive_quadrature(self, monkeypatch):
        import sphtri.distributions as dist

        def forbidden(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(dist, "integrate", forbidden)
        dist.perimeter_density(PI)
        dist.perimeter_density(np.linspace(0.1, 6.2, 50))

    def test_small_tau_asymptote(self):
        # f(tau) ~ tau^3 / 168, so F(tau) ~ tau^4 / 672.
        for x, bound in ((1e-4, 1e-8), (1e-3, 1e-7)):
            assert abs(168.0 * perimeter_density(x) / x ** 3 - 1.0) < bound

    def test_tiny_tau_without_warnings(self):
        # The rule returned 0.0 from 1e-8 down, was off by 8.9e-5 relative
        # at 1e-6 and warned at 1e-200. tau^3/168 underflows below about
        # 7.5e-108, where 0.0 is the rounded value.
        xs = np.geomspace(1e-300, 0.3, 600)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = perimeter_density(xs)
            scalars = [perimeter_density(float(x)) for x in xs[::50]]
        assert np.array_equal(vals[::50], scalars)
        assert np.all(vals >= 0.0) and np.all(vals[xs >= 1e-107] > 0.0)
        for x in (1e-100, 1e-8, 1e-6):
            assert abs(168.0 * perimeter_density(x) / x ** 3 - 1.0) <= 1e-12

    def test_series_meets_rule_at_crossover(self):
        x = distributions._SERIES_BELOW
        below = perimeter_density(np.nextafter(x, 0.0))  # the series
        rule = _two_order_rule(_perimeter_density_integrand, np.array([x]), _DENSITY_ORDERS, 1e-12)[0]
        assert perimeter_density(x) == rule
        assert abs(below / rule - 1.0) <= 1e-13

    def test_tail_asymptote(self):
        # sqrt(delta) f(2 pi - delta) -> c. delta is read back from sin(tau/2):
        # TWO_PI falls 2.4e-16 short of 2 pi, and TWO_PI - 1e-9 is rounded, so
        # the true distance there is 3.3e-7 relative larger than 1e-9.
        for d in (1e-9, 1e-8):
            x = TWO_PI - d
            delta = 2.0 * math.sin(x / 2)
            assert abs(math.sqrt(delta) * perimeter_density(x) - TAIL_CONSTANT) < 5e-9

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
    def test_invalid_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            perimeter_density(PI, tol=tol)

    def test_unmet_tolerance_names_tau_and_gap(self):
        with pytest.raises(ToleranceNotMet, match=r"differ by .* at tau = 6\.28\b"):
            perimeter_density(np.array([1.0, 6.28]), tol=1e-17)

    def test_array_domain(self):
        for bad in ([1.0, 0.0], [1.0, TWO_PI], [float("nan")]):
            with pytest.raises(ValueError):
                perimeter_density(np.array(bad))

    def test_tabulated_table_is_fast(self):
        # One array call: about 15 ms on a 2-CPU host, against 0.6-8 ms a point
        # for the adaptive route.
        xs = np.linspace(0.0, TWO_PI - 1e-6, 500)
        start = time.perf_counter()
        curve = DensityCurve(xs, perimeter_density(np.maximum(xs, 1e-12)))
        assert time.perf_counter() - start < 0.5
        assert curve.values[250] == perimeter_density(float(xs[250]))


CDF_CHECK_XS = (0.5, 2.0, PI, 4.5, 6.0, 6.28, TWO_PI - 1e-3)


class TestPerimeterCdf:
    @pytest.mark.parametrize("x", CDF_CHECK_XS)
    def test_matches_nested_density_integral(self, x):
        assert abs(perimeter_cdf(x) - nested_perimeter_cdf(x)) < 1e-9

    @pytest.mark.parametrize("x", np.concatenate([
        np.geomspace(1e-6, 1.0, 6), np.linspace(1.5, 6.0, 8),
        [6.2, 6.28] + [TWO_PI - d for d in (1e-3, 1e-6, 1e-9, 1e-12)],
    ]))
    def test_matches_adaptive_oracle(self, x):
        assert abs(perimeter_cdf(x) - adaptive_perimeter_cdf(x, tol=1e-13)) <= 1e-12

    def test_no_adaptive_quadrature_nor_density(self, monkeypatch):
        import sphtri.distributions as dist

        def forbidden(*args, **kwargs):
            raise AssertionError("adaptive quadrature or perimeter_density called")

        monkeypatch.setattr(dist, "integrate", forbidden)
        monkeypatch.setattr(dist, "perimeter_density", forbidden)
        dist.perimeter_cdf(TWO_PI - 1e-3)
        dist.perimeter_cdf(np.linspace(0.0, TWO_PI, 50))

    def test_array_matches_scalar(self):
        xs = np.array(CDF_CHECK_XS + (0.0, 1e-3, TWO_PI - 1e-9, TWO_PI, 1e-90, 1e-60, 0.3))
        vals = perimeter_cdf(xs)
        assert isinstance(perimeter_cdf(PI), float)
        assert vals.shape == xs.shape
        assert all(v == perimeter_cdf(float(x)) for x, v in zip(xs, vals))
        many = np.random.default_rng(3).uniform(0.0, TWO_PI, 3 * distributions._SERIES_BATCH)
        picks = np.arange(0, many.size, 97)
        assert np.array_equal(perimeter_cdf(many)[picks], [perimeter_cdf(float(x)) for x in many[picks]])
        grid = perimeter_cdf(xs[:10].reshape(2, 5))
        assert grid.shape == (2, 5) and np.array_equal(grid.ravel(), vals[:10])
        assert perimeter_cdf(np.array([])).shape == (0,)

    @pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-160, 1e-100])
    def test_tiny_tau_is_zero(self, x):
        # F(tau) <= sin^4(tau/4); below about 1e-155 the integrand underflows.
        assert perimeter_cdf(x) == 0.0
        assert np.array_equal(perimeter_cdf(np.array([x, 0.0])), [0.0, 0.0])

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
    def test_invalid_tolerance(self, tol):
        for x in (PI, 0.0, np.array([1.0, 2.0])):
            with pytest.raises(ValueError, match="tolerance"):
                perimeter_cdf(x, tol=tol)

    def test_unmet_tolerance_names_tau_and_bound(self):
        # The series is held to 1e-14; the exact ends need no tolerance.
        with pytest.raises(ToleranceNotMet, match=r"accurate to 1e-14, above tol 1\.0e-16, at tau = 6\.28\b"):
            perimeter_cdf(np.array([0.0, 6.28, 1.0]), tol=1e-16)
        assert perimeter_cdf(np.array([0.0, 1e-90, TWO_PI]), tol=1e-16).tolist() == [0.0, 0.0, 1.0]

    def test_unmet_tolerance_carries_value_and_bound(self):
        with pytest.raises(ToleranceNotMet) as info:
            perimeter_cdf(6.28, tol=9e-15)
        assert info.value.result.value == perimeter_cdf(6.28)
        assert info.value.result.err_estimate == distributions._CDF_SERIES_ERROR == 1e-14
        assert perimeter_cdf(6.28, tol=1e-14) == perimeter_cdf(6.28)

    def test_domain(self):
        for bad in (-1e-12, TWO_PI + 1e-9, float("nan"), np.array([1.0, 7.0])):
            with pytest.raises(ValueError):
                perimeter_cdf(bad)

    def test_tabulated_table_is_fast(self):
        # One array call: about 0.1 ms on a 2-CPU host, against 47 ms for the
        # Gauss-Legendre rule over the integral and 0.35 s for one adaptive
        # integral a point.
        xs = np.linspace(0.0, TWO_PI - 1e-6, 500)
        start = time.perf_counter()
        curve = DensityCurve(xs, perimeter_cdf(xs))
        assert time.perf_counter() - start < 0.5
        assert curve.values.tobytes() == perimeter_cdf(xs).tobytes()

    def test_million_points_and_scalar_calls_are_fast(self):
        # About 0.1 s for 10^6 points and 6 us a scalar call on a 2-CPU host;
        # the best of three runs guards against a slow spell.
        xs = np.sort(np.random.default_rng(4).uniform(0.0, TWO_PI, 10**6))
        best_array = best_scalar = math.inf
        for _ in range(3):
            start = time.perf_counter()
            perimeter_cdf(xs)
            best_array = min(best_array, time.perf_counter() - start)
            start = time.perf_counter()
            for x in xs[:1000]:
                perimeter_cdf(float(x))
            best_scalar = min(best_scalar, (time.perf_counter() - start) / 1000)
        assert best_array <= 0.15
        assert best_scalar <= 20e-6

    def test_tail_constant_matches_density(self):
        # density ~ c / sqrt(2 pi - tau) and 1 - F ~ 2 c sqrt(2 pi - tau)
        d = 1e-6
        from_cdf = (1.0 - perimeter_cdf(TWO_PI - d, tol=1e-12)) / (2.0 * math.sqrt(d))
        from_density = math.sqrt(d) * perimeter_density(TWO_PI - d)
        assert abs(from_cdf - from_density) < 1e-5 * from_density
        assert abs(from_density - TAIL_CONSTANT) < 1e-6
        closed_form = 3.0 * PI ** 2 / (math.sqrt(2.0) * math.gamma(0.25) ** 4)
        assert abs(closed_form - TAIL_CONSTANT) < 1e-16  # 5.6e-17 of rounding in Gamma^4


def tau2_perimeter_cdf(tau):
    """The perimeter CDF's tau^2 series, the density's integrated term by term."""
    coeffs = tuple(a / (2 * j + 4) for j, a in enumerate(distributions._DENSITY_TAU2))
    z = tau * tau
    return z * z * distributions._horner(coeffs, z)


def perimeter_cdf_series_coefficients(n: int = 28) -> np.ndarray:
    """The Chebyshev coefficients of the perimeter CDF's series, from n node values.

    R(s) = F(tau) / sin^4(tau/4) at the n Chebyshev nodes of s in
    [0, sqrt(2 pi)], with F from tau2_perimeter_cdf below the crossover and
    from the orders-96/128 rule over _perimeter_cdf_integrand above it.
    The literals in distributions._CDF_CHEB are this function's output,
    printed from the root of the checkout by

        PYTHONPATH=src:tests python -c "import test_distributions as t; print(t.perimeter_cdf_series_coefficients().tolist())"
    """
    theta = PI * (np.arange(n) + 0.5) / n
    s = (np.cos(theta) + 1.0) / distributions._U_PER_S
    tau = (distributions.TWO_PI - s * s) + distributions._TWO_PI_SHORTFALL
    small = tau < distributions._SERIES_BELOW
    F = np.empty(n)
    F[small] = tau2_perimeter_cdf(tau[small])
    F[~small] = _two_order_rule(_perimeter_cdf_integrand, tau[~small], _DENSITY_ORDERS, 1e-12)
    q2 = np.sin(0.25 * tau) ** 2
    R = F / (q2 * q2)
    c = np.array([2.0 / n * np.sum(R * np.cos(k * theta)) for k in range(n)])
    c[0] /= 2.0
    return c


class TestPerimeterCdfSeries:
    def test_literals_regenerate(self):
        c = perimeter_cdf_series_coefficients(len(distributions._CDF_CHEB))
        assert np.max(np.abs(c - np.array(distributions._CDF_CHEB))) <= 1e-15

    def test_anchor_at_pi(self):
        # F(pi) to about 25 digits, by mpmath on the CDF integrand.
        assert abs(perimeter_cdf(PI) - 0.1169785022373650048) <= 1e-13

    def test_small_tau_series(self):
        xs = np.geomspace(1e-75, 0.1, 300)
        assert np.max(np.abs(perimeter_cdf(xs) / tau2_perimeter_cdf(xs) - 1.0)) <= 1e-12

    def test_within_stated_bound_of_the_rule(self):
        xs = np.concatenate([np.linspace(0.3, 6.2, 300), TWO_PI - np.geomspace(1e-12, 0.1, 100)])
        rule = _two_order_rule(_perimeter_cdf_integrand, xs, _DENSITY_ORDERS, 1e-12)
        assert np.max(np.abs(perimeter_cdf(xs) - rule)) <= distributions._CDF_SERIES_ERROR

    def test_monotone(self):
        xs = np.concatenate([np.geomspace(1e-79, 0.3, 400), np.linspace(0.3, 6.28, 4000),
                             TWO_PI - np.geomspace(0.003, 1e-15, 400), [TWO_PI]])
        assert np.all(np.diff(perimeter_cdf(xs)) >= 0.0)


class TestPerimeterCdfGrid:
    @pytest.mark.parametrize("steps", [256, 600])
    def test_nodes_match_perimeter_cdf(self, steps):
        # The nodes are perimeter_cdf values by construction, so they are
        # checked against the adaptive quadrature (worst gap 1.0e-11).
        xs, vals = perimeter_cdf_grid(steps)
        assert xs[0] == 0.0 and xs[-1] == TWO_PI
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        worst = max(abs(v - adaptive_perimeter_cdf(x, tol=1e-12))
                    for x, v in zip(xs[1:-1], vals[1:-1]))
        assert worst < 1e-9

    def test_no_quadrature_per_node(self, monkeypatch):
        import sphtri.distributions as dist

        def forbidden(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(dist, "integrate", forbidden)
        xs, vals = dist.perimeter_cdf_grid(64)
        assert len(xs) == len(vals) == 64


class TestDoubleIntegrals:
    def test_perimeter_primal_at_pi(self):
        v = density_via_double_integral(DensityKind.PERIMETER_PRIMAL, PI, tol=1e-9)
        assert abs(v - PERIM_AT_PI) < 1e-7

    def test_area_dual_mirrors_perimeter_at_pi(self):
        v = density_via_double_integral(DensityKind.AREA_DUAL, TWO_PI - PI, tol=1e-9)
        assert abs(v - PERIM_AT_PI) < 1e-7

    def test_area_primal_at_pi(self):
        v = density_via_double_integral(DensityKind.AREA_PRIMAL, PI, tol=1e-10)
        assert abs(v - 1.0 / (4 * PI)) < 1e-8

    @pytest.mark.parametrize("x", [0.5, 1.5, 2.5])
    def test_area_primal_matches_closed_form(self, x):
        v = density_via_double_integral(DensityKind.AREA_PRIMAL, x, tol=1e-9)
        assert abs(v - area_density(x)) < 1e-7

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [2.0, 1e-310, 1e-200, 1e-100, 1e-80, 1e-78, 1e-77])
    def test_perimeter_dual_mirrors_area(self, x):
        # At tiny x the squares of sin(x/2) and sin(x/2 - rho) underflow
        # unless the inner integrand is divided through by sin(x/2).
        v = density_via_double_integral(DensityKind.PERIMETER_DUAL, x, tol=1e-9)
        assert abs(v - area_density(TWO_PI - x)) < 1e-7

    def test_perimeter_dual_where_sin_half_x_is_zero(self):
        with pytest.raises(OutOfDomain):
            density_via_double_integral(DensityKind.PERIMETER_DUAL, 5e-324)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [DensityKind.PERIMETER_PRIMAL, DensityKind.AREA_DUAL])
    def test_unreachable_tolerance(self, kind):
        # The inner integrals refine into the band ends until t = end -+ u^2
        # rounds onto an end, or the radicand rounds to 0 next to one.
        with pytest.raises(ToleranceNotMet):
            density_via_double_integral(kind, 2.0, tol=1e-16)

    def test_duality_grid(self):
        for x in np.linspace(0.5, TWO_PI - 0.5, 10):
            a = density_via_double_integral(DensityKind.PERIMETER_PRIMAL, float(x), tol=1e-8)
            b = density_via_double_integral(DensityKind.AREA_DUAL, float(TWO_PI - x), tol=1e-8)
            assert abs(a - b) < 1e-7
            assert abs(a - perimeter_density(float(x))) < 1e-7


class TestEllipticReductions:
    def test_perimeter_case_at_pi(self):
        gap = elliptic_reduction_gap(EllipticReduction.PERIMETER_GIVEN_SIDE, PI, PI / 4)
        assert gap < 1e-8

    def test_area_case_at_pi(self):
        gap = elliptic_reduction_gap(EllipticReduction.AREA_GIVEN_ANGLE, PI, 3 * PI / 4)
        assert gap < 1e-8

    def test_vanishes_as_kappa_to_zero(self):
        # Both sides carry a sin(kappa) factor.
        x = PI
        lhs = sqrt_inner(x, 1e-4, tol=1e-12)
        assert abs(lhs) < 1e-3
        gap = elliptic_reduction_gap(EllipticReduction.PERIMETER_GIVEN_SIDE, x, 1e-4)
        assert gap < 1e-8

    def test_preconditions(self):
        with pytest.raises(ValueError):
            elliptic_reduction_gap(EllipticReduction.PERIMETER_GIVEN_SIDE, 1.0, 0.9)
        with pytest.raises(ValueError):
            elliptic_reduction_gap(EllipticReduction.AREA_GIVEN_ANGLE, 2.0, 0.5)


class TestCroftonKernel:
    def test_value_at_pi_matches_one_sided_limits(self):
        v = crofton_kernel(PI)
        approx = 0.5 * (crofton_kernel(PI - 1e-4) + crofton_kernel(PI + 1e-4))
        assert abs(v - approx) < 1e-6
        assert abs(v - 2 * PI / 3) < 1e-12

    def test_derivative_reproduces_density(self):
        h = 1e-5
        for y in (1.0, 2.0, 4.5):
            fd = (crofton_kernel(y + h) - crofton_kernel(y - h)) / (2 * h)
            assert abs((1.0 + fd) - TWO_PI * area_density(y)) < 1e-7

    def test_derivative_consistent_at_pi(self):
        # Wide Richardson stencil; the kernel itself is smooth across pi.
        h = 0.1
        d1 = (crofton_kernel(PI + h) - crofton_kernel(PI - h)) / (2 * h)
        d2 = (crofton_kernel(PI + h / 2) - crofton_kernel(PI - h / 2)) / h
        fd = (4 * d2 - d1) / 3
        assert abs((1.0 + fd) - TWO_PI * area_density(PI)) < 1e-4

    def test_matches_pre_substitution_integral(self):
        # Direct quadrature of the original integrand over the fixed side.
        y = PI / 2

        def f(x):
            w = np.sqrt(np.tan(x / 2) ** 2 / math.sin(y / 2) ** 2 + 1.0)
            return (PI - np.arctan(w * math.tan(y / 2))) / w * np.sin(x)

        r = integrate(f, 0.0, PI, QuadratureSpec(1e-12))
        assert abs(r.value - crofton_kernel(y)) < 1e-10

    def test_continuous_across_series_window(self):
        # An earlier kernel switched to a series for |y - pi| < 0.7 and jumped there.
        for edge in (PI - 0.7, PI + 0.7):
            assert abs(crofton_kernel(edge - 1e-13) - crofton_kernel(edge + 1e-13)) < 1e-12

    def test_series_window_matches_area_cdf(self):
        # (sigma + kernel) / 2pi is the area CDF, here by the arctan quadrature,
        # through |y - pi| <= 0.75, where the closed form cancels most.
        for y in np.linspace(PI - 0.75, PI + 0.75, 61):
            assert abs((y + crofton_kernel(y)) / TWO_PI - adaptive_area_cdf(y, tol=1e-14)) <= 1e-14

    def test_matches_pre_substitution_integral_above_pi(self):
        y = 4.2

        def f(x):
            w = np.sqrt(np.tan(x / 2) ** 2 / math.sin(y / 2) ** 2 + 1.0)
            return -np.arctan(w * math.tan(y / 2)) / w * np.sin(x)

        r = integrate(f, 0.0, PI, QuadratureSpec(1e-12))
        assert abs(r.value - crofton_kernel(y)) < 1e-10


GRID_X = np.linspace(0.8, TWO_PI - 0.8, 5)
GRID_K = np.linspace(0.4, PI - 0.4, 5)


class TestConditionalCdf:
    @pytest.mark.parametrize("x", [0.3, 2.0, PI, 5.0, 6.2])
    def test_perimeter_routes_at_zero_kappa(self, x):
        side_limit = (1.0 - math.cos(x / 2)) / 2.0
        angle_limit = x / TWO_PI
        assert abs(conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, x, 0.0) - side_limit) < 1e-15
        assert conditional_cdf(ConditionalKind.PERIMETER_GIVEN_ANGLE, x, 0.0) == angle_limit
        near_side = conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, x, 1e-9)
        near_angle = conditional_cdf(ConditionalKind.PERIMETER_GIVEN_ANGLE, x, 1e-9)
        assert abs(near_side - side_limit) < 3e-10
        assert abs(near_angle - angle_limit) < 3e-10

    # Points where x/2, or a product with sin(x/2), underflows. Each value is
    # the one a sibling route, or the same route at a neighbouring point,
    # gives: PERIMETER_BISECTOR gives 0.0 at the first two, and the same
    # route gives x/(2 pi) at (1e-200, 0); AREA_MEDIAN gives 0.0 at
    # (5e-324, 1); both fixed-side area routes give 1.0 at (1e-300, 0).
    # At (5e-324, 1e-300) the fixed-side area law depends on
    # tan(kappa/2)/(x/2), which no route resolves. The fixed-side
    # perimeter law is 0.0 on the diagonal kappa = x/2, since tau >= 2c
    # with equality only for degenerate triangles.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind,x,kappa,want", [
        (ConditionalKind.PERIMETER_GIVEN_ANGLE, 5e-324, 1.0, 0.0),
        (ConditionalKind.PERIMETER_GIVEN_ANGLE, 5e-324, 1e-300, 0.0),
        (ConditionalKind.PERIMETER_GIVEN_ANGLE, 1e-200, 1e-300, 1e-200 / TWO_PI),
        (ConditionalKind.AREA_GIVEN_SIDE, 5e-324, 1.0, 0.0),
        (ConditionalKind.AREA_GIVEN_SIDE, 5e-324, 0.0, 1.0),
        (ConditionalKind.AREA_GIVEN_SIDE, 5e-324, 1e-300, OutOfDomain),
        (ConditionalKind.AREA_GIVEN_ANGLE, 5e-324, 0.0, 1.0),
        (ConditionalKind.AREA_MEDIAN, 5e-324, 1e-300, OutOfDomain),
        (ConditionalKind.AREA_MEDIAN, 5e-324, 0.0, 1.0),
        (ConditionalKind.AREA_MEDIAN, 1e-300, 0.0, 1.0),
        (ConditionalKind.AREA_MEDIAN, 1e-200, 1e-300, 1.0),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 1e-323, 5e-324, 0.0),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 2e-323, 1e-323, 0.0),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 1e-320, 5e-321, 0.0),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 1e-310, 5e-311, 0.0),
    ])
    def test_smallest_x(self, kind, x, kappa, want):
        if want is OutOfDomain:
            with pytest.raises(OutOfDomain):
                conditional_cdf(kind, x, kappa)
        else:
            assert conditional_cdf(kind, x, kappa) == want

    def test_perimeter_given_side_zero_below_double_side(self):
        for x, kappa in ((1.0, 0.9), (1.0, 0.5), (6.0, 3.0)):  # kappa = x/2 included
            assert conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, x, kappa) == 0.0

    # (2.0, 1.5) and (2.0, 0.5) are either side of the fixed-side perimeter
    # law's kappa = x/2 branch; x = 0 and 2 pi are the endpoint branches.
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
    @pytest.mark.parametrize("kind", list(ConditionalKind))
    def test_invalid_tolerance(self, kind, tol):
        for x, kappa in ((2.0, 1.5), (2.0, 0.5), (0.0, 1.0), (TWO_PI, 1.0)):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                conditional_cdf(kind, x, kappa, tol=tol)

    def test_area_given_angle_one_above_double_area(self):
        assert conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, 2.0, 0.5) == 1.0

    def test_area_given_angle_at_straight_angle(self):
        # At kappa = pi the theta band [x/2, pi - (kappa - x/2)] is empty,
        # and rounding can put its computed upper end below x/2.
        for x in np.linspace(1e-6, TWO_PI - 1e-6, 401):
            x = float(x)
            at = conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, x, PI)
            near = conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, x, PI - 1e-8)
            assert abs(at - near) < 1e-8, x

    @pytest.mark.parametrize("kind", list(ConditionalKind))
    def test_bounds_and_endpoints(self, kind):
        assert conditional_cdf(kind, 0.0, 1.0) == 0.0
        assert conditional_cdf(kind, TWO_PI, 1.0) == 1.0
        for x in (0.9, 2.0, 4.0):
            v = conditional_cdf(kind, x, 1.0, tol=1e-7)
            assert -1e-12 <= v <= 1.0 + 1e-12

    @pytest.mark.parametrize("kind", [
        ConditionalKind.AREA_GIVEN_SIDE,
        ConditionalKind.PERIMETER_GIVEN_ANGLE,
        ConditionalKind.PERIMETER_GIVEN_SIDE,
        ConditionalKind.AREA_GIVEN_ANGLE,
        ConditionalKind.AREA_MEDIAN,
        ConditionalKind.PERIMETER_BISECTOR,
    ])
    def test_monotone_fast_kinds(self, kind):
        for kappa in np.linspace(0.4, PI - 0.4, 5):
            vals = [conditional_cdf(kind, float(x), float(kappa), tol=1e-9)
                    for x in np.linspace(0.0, TWO_PI, 50)]
            assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", [
        ConditionalKind.PERIMETER_ANGLE_COORDS,
        ConditionalKind.AREA_SIDE_COORDS,
    ])
    def test_monotone_2d_kinds(self, kind):
        for kappa in np.linspace(0.5, PI - 0.5, 5):
            vals = [conditional_cdf(kind, float(x), float(kappa), tol=1e-6)
                    for x in np.linspace(0.0, TWO_PI, 50)]
            assert all(b >= a - 1e-5 for a, b in zip(vals, vals[1:]))

    def test_median_matches_given_side(self):
        for x in GRID_X:
            for k in GRID_K:
                a = conditional_cdf(ConditionalKind.AREA_GIVEN_SIDE, float(x), float(k))
                b = conditional_cdf(ConditionalKind.AREA_MEDIAN, float(x), float(k))
                assert abs(a - b) < 1e-6

    def test_median_continuous_across_pi(self):
        for k in GRID_K:
            lo = conditional_cdf(ConditionalKind.AREA_MEDIAN, PI - 1e-6, float(k))
            hi = conditional_cdf(ConditionalKind.AREA_MEDIAN, PI + 1e-6, float(k))
            assert abs(hi - lo) < 1e-5

    def test_bisector_matches_given_angle(self):
        for x in GRID_X:
            for k in GRID_K:
                a = conditional_cdf(ConditionalKind.PERIMETER_GIVEN_ANGLE, float(x), float(k))
                b = conditional_cdf(ConditionalKind.PERIMETER_BISECTOR, float(x), float(k))
                assert abs(a - b) < 1e-6

    def test_angle_coords_matches_given_side(self):
        for x in GRID_X:
            for frac in (0.25, 0.6, 0.9):
                k = float(frac * x / 2 * 0.95)
                a = conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, float(x), k, tol=1e-8)
                b = conditional_cdf(ConditionalKind.PERIMETER_ANGLE_COORDS, float(x), k, tol=1e-7)
                assert abs(a - b) < 1e-5

    def test_side_coords_matches_given_angle(self):
        for x in GRID_X:
            for frac in (0.25, 0.6, 0.9):
                k = float(x / 2 + frac * (PI - x / 2))
                if k >= PI:
                    continue
                a = conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, float(x), k, tol=1e-8)
                b = conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, float(x), k, tol=1e-7)
                assert abs(a - b) < 1e-5

    @pytest.mark.parametrize("kind", [
        ConditionalKind.PERIMETER_ANGLE_COORDS,
        ConditionalKind.AREA_SIDE_COORDS,
    ])
    @pytest.mark.parametrize("kappa", [0.0, 1e-8, 1e-3, PI - 1e-3, PI])
    def test_2d_routes_raise_near_kappa_edges(self, kind, kappa):
        # Unguarded, the nested quadrature takes seconds here (kappa = 1e-3)
        # or returns values off by up to 0.99 (kappa = 1e-8).
        for x in (0.5, 3.0, 6.0):
            t0 = time.perf_counter()
            with pytest.raises(OutOfDomain):
                conditional_cdf(kind, x, kappa)
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("kind, sibling", [
        (ConditionalKind.PERIMETER_ANGLE_COORDS, ConditionalKind.PERIMETER_GIVEN_SIDE),
        (ConditionalKind.AREA_SIDE_COORDS, ConditionalKind.AREA_GIVEN_ANGLE),
    ])
    @pytest.mark.parametrize("kappa", [1e-2, PI - 1e-2])
    def test_2d_routes_agree_at_domain_edges(self, kind, sibling, kappa):
        for x in np.linspace(0.05, 6.28, 12):
            a = conditional_cdf(kind, float(x), kappa)
            b = conditional_cdf(sibling, float(x), kappa)
            assert abs(a - b) < 1e-8

    def test_closed_form_duality(self):
        # Fixed-angle perimeter law is the mirrored fixed-side area law.
        for x in GRID_X:
            for k in GRID_K:
                a = conditional_cdf(ConditionalKind.PERIMETER_GIVEN_ANGLE, float(x), float(k))
                b = 1.0 - conditional_cdf(ConditionalKind.AREA_GIVEN_SIDE, float(TWO_PI - x), float(PI - k))
                assert abs(a - b) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            conditional_cdf(ConditionalKind.AREA_GIVEN_SIDE, -0.1, 1.0)
        with pytest.raises(ValueError):
            conditional_cdf(ConditionalKind.AREA_GIVEN_SIDE, 1.0, PI + 0.1)


# The edge matrix of the 2-D routes: 1e-3 and 1e-6 (relative) either side
# of the kappa = x/2 wedge edge, where their work peaks, and both ends of
# their kappa domain. Each call answers as its 1-D sibling does or raises
# ToleranceNotMet, and in either case within 2 s.
EDGE_SIBLINGS = {
    ConditionalKind.PERIMETER_ANGLE_COORDS: ConditionalKind.PERIMETER_GIVEN_SIDE,
    ConditionalKind.AREA_SIDE_COORDS: ConditionalKind.AREA_GIVEN_ANGLE,
}
# A silent wrong value: 0.99999999907 against 0.999364 from AREA_GIVEN_ANGLE
# (and 0.999347 +- 1.3e-5 from 4e6 DUAL_GIVEN_ANGLE samples). The outer
# integrand drops from 2 to 0 within about 3e-3 of u = pi, where the
# boundary crosses the Jacobian's ridge v = u, and the outer integral over
# [0, pi] accepts its first panel without a node there.
EDGE_WRONG = (ConditionalKind.AREA_SIDE_COORDS, 0.05, 0.05 / 2 * (1 + 1e-6))


def _edge_matrix():
    for kind in EDGE_SIBLINGS:
        for x in (0.05, 0.3, 0.85, 2.0, PI, 5.0, 6.2):
            for kappa in (x / 2 * (1 - 1e-3), x / 2 * (1 + 1e-3), x / 2 * (1 - 1e-6),
                          x / 2 * (1 + 1e-6), 1e-2, PI - 1e-2):
                marks = ()
                if (kind, x, kappa) == EDGE_WRONG:
                    marks = pytest.mark.xfail(strict=True, reason="outer integral misses a step")
                yield pytest.param(kind, x, kappa, marks=marks,
                                   id=f"{kind.value}-{x:.4g}-{kappa:.10g}")


@pytest.mark.parametrize("kind, x, kappa", _edge_matrix())
def test_2d_route_edge_matrix(kind, x, kappa):
    t0 = time.perf_counter()
    try:
        value = conditional_cdf(kind, x, kappa)
    except ToleranceNotMet:
        value = None
    assert time.perf_counter() - t0 < 2.0
    if value is not None:
        want = conditional_cdf(EDGE_SIBLINGS[kind], x, kappa, tol=1e-12)
        assert abs(value - want) < 1e-8


ONE_D_ROUTES = (
    ConditionalKind.AREA_GIVEN_SIDE,
    ConditionalKind.PERIMETER_GIVEN_ANGLE,
    ConditionalKind.PERIMETER_GIVEN_SIDE,
    ConditionalKind.AREA_GIVEN_ANGLE,
    ConditionalKind.AREA_MEDIAN,
    ConditionalKind.PERIMETER_BISECTOR,
)


class TestNestedQuadratureStructure:
    """The nested routes take one engine call per outer panel; the 1-D routes none."""

    def test_one_engine_call_per_outer_panel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the fixed two-order rule was called")

        outer, engine = [], []
        real_integrate, real_rows = distributions.integrate, distributions._integrate_rows

        def counted_integrate(*args, **kwargs):
            res = real_integrate(*args, **kwargs)
            outer.append(res.evaluations // 15)
            return res

        def counted_rows(f, a, b, spec=None):
            engine.append(np.size(a))
            return real_rows(f, a, b, spec)

        monkeypatch.setattr(distributions, "_two_order_rule", refuse)
        monkeypatch.setattr(distributions, "integrate", counted_integrate)
        monkeypatch.setattr(distributions, "_integrate_rows", counted_rows)
        calls = [lambda: conditional_cdf(ConditionalKind.PERIMETER_ANGLE_COORDS, 2.0, 0.6),
                 lambda: conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, 2.0, 1.6)]
        calls += [lambda kind=kind: density_via_double_integral(kind, 2.0) for kind in DensityKind]
        for call in calls:
            outer.clear()
            engine.clear()
            call()
            assert len(outer) == 1  # the outer integral only
            assert len(engine) == outer[0] and set(engine) == {15}  # 15 Kronrod nodes a panel

    def test_one_dimensional_routes_skip_the_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the batched engine was called")

        monkeypatch.setattr(distributions, "_integrate_rows", refuse)
        for kind in ONE_D_ROUTES:
            for x, kappa in ((0.5, 0.2), (2.0, 0.6), (2.0, 1.6), (5.0, 2.9)):
                assert 0.0 <= conditional_cdf(kind, x, kappa) <= 1.0


def curve_cdf(kind, x, kappa):
    """A region law's CDF as the measure of the region under its region_boundary curve."""
    f = region_boundary(kind, x, kappa)
    spec = QuadratureSpec(1e-12, singular_left=True, singular_right=True)

    def pieces(g, lo, breaks):
        ends = [lo] + sorted(b for b in breaks if lo < b < PI) + [PI]
        return sum(integrate(g, a, b, spec).value for a, b in zip(ends, ends[1:]))

    if kind in (ConditionalKind.AREA_GIVEN_SIDE, ConditionalKind.PERIMETER_GIVEN_ANGLE):
        return pieces(lambda t: 1.0 - np.cos(f(t)), 0.0, [x / 2]) / TWO_PI
    if kind in (ConditionalKind.PERIMETER_GIVEN_SIDE, ConditionalKind.AREA_GIVEN_ANGLE):
        breaks = [x / 2 - kappa, x / 2, PI - kappa + x / 2]
        return pieces(lambda t: f(t) * np.sin(t), 0.0, breaks) / TWO_PI
    return pieces(lambda r: np.cos(f(r)), bisector_threshold(x, kappa), []) / PI


REGION_KINDS = (
    ConditionalKind.AREA_GIVEN_SIDE,
    ConditionalKind.PERIMETER_GIVEN_ANGLE,
    ConditionalKind.PERIMETER_GIVEN_SIDE,
    ConditionalKind.AREA_GIVEN_ANGLE,
    ConditionalKind.PERIMETER_BISECTOR,
)


class TestRegionBoundary:
    @pytest.mark.parametrize("kind", REGION_KINDS)
    def test_cdf_is_measure_under_curve(self, kind):
        # For the two closed-form laws this is an independent route.
        for x in np.linspace(0.5, 5.8, 9):
            for kappa in np.linspace(0.3, 2.8, 7):
                x, kappa = float(x), float(kappa)
                got = conditional_cdf(kind, x, kappa, tol=1e-11)
                assert abs(got - curve_cdf(kind, x, kappa)) < 1e-9, (x, kappa)

    @pytest.mark.parametrize("kind,x,kappa", [
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 3.0, 1.2),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 5.0, 0.6),
        (ConditionalKind.AREA_GIVEN_ANGLE, 2.0, 1.9),
        (ConditionalKind.AREA_GIVEN_ANGLE, 1.0, 2.6),
    ])
    def test_statistic_derivative_is_density_kernel(self, kind, x, kappa):
        # d/dx of the measure under the curve is the inner integral of the
        # double-integral density, weighted by the fixed element's sin(kappa).
        h = 1e-5
        fd = (conditional_cdf(kind, x + h, kappa, tol=1e-13)
              - conditional_cdf(kind, x - h, kappa, tol=1e-13)) / (2 * h)
        inner = sqrt_inner(x, kappa, tol=1e-13, dual=kind is ConditionalKind.AREA_GIVEN_ANGLE)
        want = inner / (TWO_PI * math.sin(kappa))
        assert abs(fd - want) <= 1e-7 * abs(want)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            region_boundary(ConditionalKind.AREA_MEDIAN, 2.0, 1.0)

    @pytest.mark.parametrize("x,kappa", [
        (-1e-12, 1.0), (TWO_PI + 1e-9, 1.0), (float("nan"), 1.0), (2.0, -1e-12), (2.0, PI + 1e-9),
    ])
    def test_domain(self, x, kappa):
        for kind in REGION_KINDS:
            with pytest.raises(ValueError):
                region_boundary(kind, x, kappa)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", REGION_KINDS)
    def test_finite_at_the_domain_edges(self, kind):
        edges = (0.0, 5e-324, 1e-300, 1.0, PI, TWO_PI)
        args = np.concatenate([[5e-324, 1e-300], np.linspace(0.0, PI, 9)])
        lowest = -PI / 2 if kind is ConditionalKind.PERIMETER_BISECTOR else 0.0
        for x in edges:
            for kappa in (k for k in edges if k <= PI):
                curve = region_boundary(kind, x, kappa)(args)
                assert np.all((curve >= lowest) & (curve <= PI)), (x, kappa)

    @pytest.mark.parametrize("kind", [
        ConditionalKind.PERIMETER_GIVEN_SIDE, ConditionalKind.PERIMETER_GIVEN_ANGLE,
    ])
    def test_zero_kappa_is_the_limit_curve(self, kind):
        # pi below x/2 and 0 above it, which the conditional route integrates too.
        rho = np.linspace(0.0, PI, 9)
        for x in (0.5, 2.0, 5.0):
            want = np.where(rho < x / 2, PI, 0.0)
            assert np.array_equal(region_boundary(kind, x, 0.0)(rho), want)
            assert abs(curve_cdf(kind, x, 0.0) - conditional_cdf(kind, x, 0.0)) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [2.0, 1e-323, 1e-310])
    def test_perimeter_given_side_empty_on_the_diagonal(self, x):
        # tau >= 2c, equal only for degenerate triangles: at kappa = x/2
        # the region is empty, so the curve is 0 for every rho.
        rho = np.linspace(0.0, PI, 9)
        curve = region_boundary(ConditionalKind.PERIMETER_GIVEN_SIDE, x, x / 2)(rho)
        assert np.array_equal(curve, np.zeros_like(rho))


class TestDensityCurve:
    def test_csv_schema_and_precision(self):
        xs = np.array([0.5, 1.0, 1.5])
        curve = DensityCurve(xs, area_density(xs))
        text = curve.to_csv_string()
        lines = text.strip().split("\n")
        assert lines[0] == "x,value"
        assert len(lines) == 4
        x, v = lines[1].split(",")
        assert float(x) == 0.5
        assert float(v) == area_density(0.5)  # 17 digits round-trip

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityCurve((1.0, 1.0), (0.1, 0.2))
        with pytest.raises(ValueError):
            DensityCurve((1.0, 2.0), (0.1, -0.2))
        with pytest.raises(ValueError):
            DensityCurve((1.0, 9.0), (0.1, 0.2))

    def test_conditional_table(self):
        xs = [1.0, 2.0, 3.0]
        curve = DensityCurve(xs, [conditional_cdf(ConditionalKind.AREA_GIVEN_SIDE, x, 1.0)
                                  for x in xs])
        assert all(0 <= v <= 1 for v in curve.values)
