import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sphtri import coords, distributions, quadrature
from sphtri.distributions import (
    ConditionalKind,
    DensityKind,
    area_cdf,
    area_density,
    conditional_cdf,
    crofton_kernel,
    density_via_double_integral,
    elliptic_reduction_gap,
    perimeter_cdf,
    perimeter_cdf_grid,
    perimeter_density,
    region_boundary,
)
from sphtri.coords import side_jacobian
from sphtri.distributions import (
    CONDITIONAL_LAWS, SMOOTH_KINDS_EDGE, _perimeter_cdf_integrand, _perimeter_density_integrand,
    _polar, _polar_point, _radicand, _sqrt_inner,
)
from sphtri.errors import Divergent, OutOfDomain, SphtriError, ToleranceNotMet
from sphtri.identities import SolvedFormKind, bisector_threshold, solved_forms
from sphtri.montecarlo import sample_batch
from sphtri.quadrature import _BLOCK, _NODES, _PANEL_BUDGET, QuadratureSpec, ellip_E, ellip_K, integrate
from sphtri.sphere import RngStream

PI = math.pi
TWO_PI = 2.0 * PI
PERIM_AT_PI = 3.0 * math.sqrt(2.0) / 32.0
# The 2-D Jacobian routes; the other kinds run one integral or none.
TWO_D_ROUTES = (ConditionalKind.PERIMETER_ANGLE_COORDS, ConditionalKind.AREA_SIDE_COORDS)
ONE_D_ROUTES = tuple(kind for kind in ConditionalKind if kind not in TWO_D_ROUTES)
# PERIMETER_GIVEN_SIDE and AREA_GIVEN_ANGLE, the elliptic closed form _side_law.
ELLIPTIC_KINDS = tuple(CONDITIONAL_LAWS[kind].closed_form for kind in TWO_D_ROUTES)
# The kinds whose row narrows kappa's domain, and the closed forms, whose rows do not.
EDGED_KINDS = tuple(kind for kind, law in CONDITIONAL_LAWS.items() if law.kappa_edge > 0.0)
CLOSED_FORMS = tuple(kind for kind, law in CONDITIONAL_LAWS.items() if law.closed_form is kind)


def theta_band_inner(x, kappa, tol):
    """The library's square-root inner integral, the dual area's theta-band, at one kappa."""
    f, bounds = _sqrt_inner(np.array([x]))  # x is its index 0
    spec = QuadratureSpec(tol, True, True)
    a, b, _ = bounds(0, kappa)
    return integrate(lambda t: f(0, kappa, t), a, b, spec).value


def rho_band_inner(x, kappa, tol):
    """The primal perimeter's inner integral over the rho-band [x/2 - kappa, x/2], at one kappa.

    The library evaluates it as theta_band_inner at the polar point
    (2*pi - x, pi - kappa); this is the primal form, kept as an independent
    reference for that map.
    """
    def f(t):
        return (np.sin(x - kappa - t) * np.sin(kappa) * np.sin(t)
                / np.sqrt(_radicand(x / 2, math.sin(x / 2), kappa, t)))

    return integrate(f, x / 2 - kappa, x / 2, QuadratureSpec(tol, True, True)).value


def cond_band(x, kappa, tol):
    """The fixed-angle area law by quadrature over its band curve: the closed form's oracle.

    The boundary curve is pi below the band [x/2, pi - kappa + x/2], 0
    above it and pi minus _cot_arccos on it, so the CDF is
    (pi (1 - cos lo) + Integral_lo^hi curve(t) sin t dt) / (2 pi). At
    _polar_point(x, kappa) it is 1 minus the fixed-side perimeter law. Both
    laws were this integral before their elliptic closed form; next to the
    kappa = x/2 edge it misses by up to 1.2e-10 (see TestSideLawClosedForm).
    """
    if kappa <= x / 2:  # area <= 2*alpha always
        return 1.0
    lo, hi = x / 2, PI - (kappa - x / 2)
    base = PI * (1.0 - math.cos(lo))
    if hi <= lo:  # kappa = pi can round hi below x/2
        return base / TWO_PI
    band = distributions._cot_arccos(x, kappa)
    inner = integrate(lambda t: (PI - band(t)) * np.sin(t), lo, hi, QuadratureSpec(tol, True, True))
    return (base + inner.value) / TWO_PI


def band_oracle(kind, x, kappa, tol=1e-13):
    """PERIMETER_GIVEN_SIDE or AREA_GIVEN_ANGLE by cond_band, clipped to [0, 1] as the library clips."""
    if kind is ConditionalKind.AREA_GIVEN_ANGLE:
        value = cond_band(x, kappa, tol)
    else:
        value = 1.0 - cond_band(*distributions._polar_point(x, kappa), tol)
    return min(1.0, max(0.0, value))


def mpmath_side_law(kind, x, kappa):
    """PERIMETER_GIVEN_SIDE or AREA_GIVEN_ANGLE at the floats (x, kappa) by 50-digit mpmath.

    The fixed-side perimeter law in mpmath's Legendre integrals, with k =
    sin(kappa/2), k' = cos(kappa/2) and sin(theta1) = cos((x - kappa)/2) / k',
    {E(k) [K(k') - F(theta1, k')] - K(k) [(K - E)(k') - (F - E)(theta1, k')]} / pi;
    the fixed-angle area law is 1 minus it at the exact polar point.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x, kappa = mpmath.mpf(x), mpmath.mpf(kappa)
        if kind is ConditionalKind.AREA_GIVEN_ANGLE:
            if kappa <= x / 2:
                return 1.0
            x, kappa, sign, base = 2 * mpmath.pi - x, mpmath.pi - kappa, -1, 1
        elif kappa >= x / 2:
            return 0.0
        else:
            sign, base = 1, 0
        m, mc = mpmath.sin(kappa / 2) ** 2, mpmath.cos(kappa / 2) ** 2
        theta1 = mpmath.asin(mpmath.cos((x - kappa) / 2) / mpmath.cos(kappa / 2))
        K, E = mpmath.ellipk(m), mpmath.ellipe(m)
        Kc, Ec = mpmath.ellipk(mc), mpmath.ellipe(mc)
        F, Et = mpmath.ellipf(theta1, mc), mpmath.ellipe(theta1, mc)
        law = (E * (Kc - F) - K * ((Kc - Ec) - (F - Et))) / mpmath.pi
        return float(base + sign * law)


def side_coords_cdf(x, kappa, tol):
    """The fixed-angle area law by the two-side 2-D integral, independent of the polar map.

    The side Jacobian over eta <= h(xi), with h from SIDE_ETA; the library
    evaluates this law as 1 minus the two-angle integral at the polar point.
    """
    if kappa <= x / 2:
        return 1.0

    def bounds(_, us):
        cos_eta = solved_forms(SolvedFormKind.SIDE_ETA, us, x, kappa)
        return 0.0, np.arccos(np.clip(cos_eta, -1.0, 1.0)), us

    value = distributions._nested(lambda _, u, v: side_jacobian(u, v, kappa), bounds,
                                  np.zeros(1), QuadratureSpec(tol), distributions._OUTER_ROWS)
    return float(value[0]) / TWO_PI


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
        pdf, cdf = area_density(xs), area_cdf(xs)
        assert time.perf_counter() - start < 0.05
        assert pdf[250] == area_density(float(xs[250]))
        assert cdf[250] == area_cdf(float(xs[250]))


class TestPerimeterDensity:
    def test_at_pi(self):
        assert abs(perimeter_density(PI) - PERIM_AT_PI) < 1e-9

    def test_small_tau(self):
        assert perimeter_density(0.01) < 1e-3
        assert perimeter_density(0.005) < perimeter_density(0.01)

    def test_grows_near_two_pi(self):
        assert perimeter_density(TWO_PI - 1e-6) > perimeter_density(TWO_PI - 1e-2)

    def test_domain(self):
        # 0 gives the limit 0.0, as area_density(0) does; 2*pi, where the density diverges, raises.
        assert perimeter_density(0.0) == 0.0
        assert np.array_equal(perimeter_density(np.array([0.0, PI])), [0.0, perimeter_density(PI)])
        with pytest.raises(Divergent):
            perimeter_density(TWO_PI)
        with pytest.raises(Divergent):
            perimeter_density(np.array([PI, TWO_PI]))
        for outside in (-1e-300, math.nextafter(TWO_PI, 7.0)):
            with pytest.raises(ValueError):
                perimeter_density(outside)

    def test_normalizes(self):
        f = lambda s: np.array(
            [perimeter_density(min(max(float(v), 1e-12), TWO_PI - 1e-9))
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
                got = _radicand(tau / 2, math.sin(tau / 2), kappa, rho)
                assert np.max(np.abs(got - lit)) < 1e-12

    def test_integrand_radical_identity(self):
        # cos^2(t/2) - cos^2((tau-t)/2) == sin(tau/2 - t) sin(tau/2).
        tau = 2.6
        t = np.linspace(0.05, tau / 2 - 0.05, 9)
        lit = np.cos(t / 2) ** 2 - np.cos((tau - t) / 2) ** 2
        assert np.max(np.abs(lit - np.sin(tau / 2 - t) * math.sin(tau / 2))) < 1e-14

    def test_mc_histogram_at_three_half_pi(self, tail_histograms_10m):
        n, _, c_tau = tail_histograms_10m
        lo, hi = 3 * PI / 2 - 0.005, 3 * PI / 2 + 0.005
        f = lambda s: np.array([perimeter_density(float(v)) for v in np.atleast_1d(s)])
        p = integrate(f, lo, hi, QuadratureSpec(1e-10)).value
        se = math.sqrt(p * (1 - p) / n)
        assert abs(c_tau / n - p) < 3 * se

    def test_cdf_endpoints(self):
        assert perimeter_cdf(0.0) == 0.0
        assert perimeter_cdf(TWO_PI) == 1.0
        v = perimeter_cdf(PI)
        assert 0.0 < v < 1.0


def adaptive_perimeter_density(tau: float, tol: float = 1e-12) -> float:
    """The perimeter density by adaptive Gauss-Kronrod, with K and E at k = sin(t/2).

    The library's route before the fixed two-order rule and the series;
    kept as an independent oracle for the series.
    """
    s_half = math.sin(tau / 2)

    def integrand(t):
        z = np.sin(t / 2)
        num = ellip_E(z) - np.cos((tau - t) / 2) ** 2 * ellip_K(z)
        rad = np.sin(tau / 2 - t) * s_half
        return num / np.sqrt(rad) * np.sin(t)

    spec = QuadratureSpec(tol, singular_right=True)
    return integrate(integrand, 0.0, tau / 2, spec).value / (4.0 * math.pi)


def _legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [0, 1].

    Newton's method on P_n from the asymptotic node guesses; numpy's own
    rule lives in numpy.polynomial, whose import costs about 1 MB.
    """
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)  # P_n'(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * dp * dp)


# Orders 96 and 128 on [0, 1]: their nodes concatenated, and each rule's
# weights. K's logarithm at t -> pi enters the perimeter integrals as tau
# approaches 2*pi; there the relative gap at tol 1e-12 measured 2.5e-11 for
# orders 48/64, 3.7e-12 for 64/96 and 2.0e-13 for 96/128. (numpy's
# leggauss nodes regenerate distributions._CDF_CHEB only to 3.7e-15.)
(_V96, _W96), (_V128, _W128) = _legendre_01(96), _legendre_01(128)
_RULE_NODES = np.concatenate([_V96, _V128])


def legendre_rule(integrand, xs, tol: float = 1e-12) -> np.ndarray:
    """Integral_0^1 integrand(x, v) dv for each x of xs, by the order-128 Gauss-Legendre rule.

    The order-96 rule checks it: the two must agree to tol * max(1, |value|).
    Rows of xs are taken 9 at a time (within 2,048 integrand elements), which is
    how the literals of distributions._CDF_CHEB were generated: Carlson's
    duplication stops when a whole batch has converged, so the batching
    moves values by rounding.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    vals = np.empty(xs.size)
    rows = 2048 // _RULE_NODES.size
    for start in range(0, xs.size, rows):
        y = integrand(xs[start:start + rows, None], _RULE_NODES)
        coarse = (y[:, :_W96.size] * _W96).sum(axis=1)
        fine = (y[:, _W96.size:] * _W128).sum(axis=1)
        gap = np.abs(fine - coarse)
        assert np.all(gap <= tol * np.maximum(1.0, np.abs(fine))), (xs[start:start + rows], gap)
        vals[start:start + rows] = fine
    return vals


def nested_perimeter_cdf(tau: float, tol: float = 1e-9) -> float:
    """The perimeter CDF as adaptive quadrature of the paper's density integral.

    The density at each node is legendre_rule over _perimeter_density_integrand,
    with K and E by the AGM, so this route shares nothing with the series,
    which was fitted to the Carlson form of the CDF's integral.
    """
    def density(t):
        return legendre_rule(_perimeter_density_integrand, t, tol / 100)

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
        many = np.random.default_rng(5).uniform(1e-9, TWO_PI - 1e-9, 3 * _BLOCK)
        picks = np.arange(0, many.size, 97)
        assert np.array_equal(perimeter_density(many)[picks],
                              [perimeter_density(float(x)) for x in many[picks]])

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

    def test_matches_tau2_series(self):
        # One expression on all of (0, 2 pi): no crossover at 0.3. The
        # differentiated series, summed exactly, is 1.0e-14 off the tau^2
        # series near 0.29 (rounded, up to 1.03e-14), and 5.1e-15 below 0.1.
        xs = np.concatenate([np.geomspace(1e-100, 0.3, 3000), np.linspace(0.25, 0.3, 2000)])
        tau2 = xs ** 3 * distributions._horner(DENSITY_TAU2, xs * xs)
        assert np.max(np.abs(perimeter_density(xs) / tau2 - 1.0)) <= 1.1e-14

    def test_within_stated_bound_of_the_rule(self):
        xs = np.linspace(0.3, TWO_PI - 1e-9, 3000)
        f = perimeter_density(xs)
        rule = legendre_rule(_perimeter_density_integrand, xs)
        assert np.max(np.abs(f - rule) / np.maximum(1.0, f)) <= distributions._DENSITY_SERIES_ERROR

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def density(tau):  # the paper's integral under t = tau/2 (1 - v^2), at 30 digits
            with mpmath.workdps(30):
                x = mpmath.mpf(tau)

                def g(v):
                    t = x / 2 * (1 - v * v)
                    m = mpmath.sin(t / 2) ** 2
                    num = mpmath.ellipe(m) - mpmath.cos(x / 4 * (1 + v * v)) ** 2 * mpmath.ellipk(m)
                    rad = mpmath.sin(x * v * v / 2) * mpmath.sin(x / 2)
                    return num * mpmath.sin(t) * x * v / mpmath.sqrt(rad)

                return float(mpmath.quad(g, [0, 1]) / (4 * mpmath.pi))

        # The series' worst point is 2 pi - 8.8e-5, at 1.2e-12.
        for x in (PI, 6.25, 6.27, 6.28, TWO_PI - 1e-3, TWO_PI - 8.8e-5, TWO_PI - 1e-5, TWO_PI - 1e-6):
            ref = density(x)
            assert abs(perimeter_density(x) - ref) <= distributions._DENSITY_SERIES_ERROR * max(1.0, ref)

    def test_series_tail_constant(self):
        # As s -> 0 the density is -R'(-1) _U_PER_S / (2 s): the series' own c.
        c = -distributions._clenshaw(distributions._CDF_CHEB_DU, -1.0) * distributions._U_PER_S / 2
        assert abs(c / TAIL_CONSTANT - 1.0) <= 2e-13

    def test_tail_asymptote(self):
        # sqrt(delta) f(2 pi - delta) -> c. delta is read back from sin(tau/2):
        # TWO_PI falls 2.4e-16 short of 2 pi, and TWO_PI - 1e-9 is rounded, so
        # the true distance there is 3.3e-7 relative larger than 1e-9.
        for d in (1e-9, 1e-8):
            x = TWO_PI - d
            delta = 2.0 * math.sin(x / 2)
            assert abs(math.sqrt(delta) * perimeter_density(x) - TAIL_CONSTANT) < 5e-9

    def test_finite_and_nonnegative_on_the_open_interval(self):
        xs = np.concatenate([[1e-300, 5e-324], np.geomspace(1e-300, 1.0, 200),
                             np.linspace(1.0, 6.28, 200), TWO_PI - np.geomspace(1e-15, 1e-2, 200),
                             [np.nextafter(TWO_PI, 0.0)]])
        vals = perimeter_density(xs)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        assert perimeter_density(float(xs[-1])) == vals[-1]

    def test_array_domain(self):
        for bad in ([1.0, -0.5], [1.0, 7.0], [float("nan")]):
            with pytest.raises(ValueError):
                perimeter_density(np.array(bad))
        with pytest.raises(Divergent):
            perimeter_density(np.array([1.0, TWO_PI]))
        assert perimeter_density(np.array([1.0, 0.0]))[1] == 0.0

    def test_tabulated_table_is_fast(self):
        # One array call: about 0.13 ms on a 2-CPU host, against 0.6-8 ms a
        # point for the adaptive route.
        xs = np.linspace(0.0, TWO_PI - 1e-6, 500)
        start = time.perf_counter()
        values = perimeter_density(np.maximum(xs, 1e-12))
        assert time.perf_counter() - start < 0.5
        assert values[250] == perimeter_density(float(xs[250]))

    def test_million_points_and_scalar_calls_are_fast(self):
        # About 0.11 s for 10^6 points and 5 us a scalar call on a 2-CPU
        # host; the best of three runs guards against a slow spell.
        xs = np.sort(np.random.default_rng(4).uniform(1e-9, TWO_PI - 1e-9, 10**6))
        best_array = best_scalar = math.inf
        for _ in range(3):
            start = time.perf_counter()
            perimeter_density(xs)
            best_array = min(best_array, time.perf_counter() - start)
            start = time.perf_counter()
            for x in xs[:1000]:
                perimeter_density(float(x))
            best_scalar = min(best_scalar, (time.perf_counter() - start) / 1000)
        assert best_array <= 0.2
        assert best_scalar <= 20e-6


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
        # From 6.2 up the adaptive integral is off by up to 6.1e-13; the
        # orders-96/128 rule over the same integrand is within 6e-16 of
        # mpmath there.
        if x >= 6.2:
            ref = legendre_rule(_perimeter_cdf_integrand, x)[0]
        else:
            ref = adaptive_perimeter_cdf(x, tol=1e-13)
        assert abs(perimeter_cdf(x) - ref) <= 1e-12

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
        many = np.random.default_rng(3).uniform(0.0, TWO_PI, 3 * _BLOCK)
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
        values = perimeter_cdf(xs)
        assert time.perf_counter() - start < 0.5
        assert values.tobytes() == perimeter_cdf(xs).tobytes()

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
        from_cdf = (1.0 - perimeter_cdf(TWO_PI - d)) / (2.0 * math.sqrt(d))
        from_density = math.sqrt(d) * perimeter_density(TWO_PI - d)
        assert abs(from_cdf - from_density) < 1e-5 * from_density
        assert abs(from_density - TAIL_CONSTANT) < 1e-6
        closed_form = 3.0 * PI ** 2 / (math.sqrt(2.0) * math.gamma(0.25) ** 4)
        assert abs(closed_form - TAIL_CONSTANT) < 1e-16  # 5.6e-17 of rounding in Gamma^4


# The density's Taylor coefficients, f = tau^3 * sum_j a_j tau^(2j), found
# by PSLQ on 90-digit values. The six-term series is within 8e-19 relative
# of 40-digit mpmath at 0.3 and 3.7e-16 at 0.5.
DENSITY_TAU2 = (1 / 168, -1 / 5280, 1 / 480480, -461 / 42664527360,
                59 / 1186167628800, 1 / 3855044793600)
# Below this tau the series' nodes take the tau^2 series: there the elliptic
# integrands cancel (E - cos^2 K at small t). At 0.3 the sixth term is
# 2.6e-16 of the first.
SERIES_BELOW = 0.3


def tau2_perimeter_cdf(tau):
    """The perimeter CDF's tau^2 series, the density's integrated term by term."""
    coeffs = tuple(a / (2 * j + 4) for j, a in enumerate(DENSITY_TAU2))
    z = tau * tau
    return z * z * distributions._horner(coeffs, z)


def perimeter_cdf_series_coefficients(n: int = 28) -> np.ndarray:
    """The Chebyshev coefficients of the perimeter CDF's series, from n node values.

    R(s) = F(tau) / sin^4(tau/4) at the n Chebyshev nodes of s in
    [0, sqrt(2 pi)], with F from tau2_perimeter_cdf below SERIES_BELOW and
    from legendre_rule over _perimeter_cdf_integrand above it.
    The literals in distributions._CDF_CHEB are this function's output,
    printed from the root of the checkout by

        PYTHONPATH=src:tests python -c "import test_distributions as t; print(t.perimeter_cdf_series_coefficients().tolist())"
    """
    theta = PI * (np.arange(n) + 0.5) / n
    s = (np.cos(theta) + 1.0) / distributions._U_PER_S
    tau = (distributions.TWO_PI - s * s) + distributions._TWO_PI_SHORTFALL
    small = tau < SERIES_BELOW
    F = np.empty(n)
    F[small] = tau2_perimeter_cdf(tau[small])
    F[~small] = legendre_rule(_perimeter_cdf_integrand, tau[~small])
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
        rule = legendre_rule(_perimeter_cdf_integrand, xs)
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
    @pytest.mark.parametrize("kind, x, tol, message", [
        (DensityKind.PERIMETER_PRIMAL, 2.0, 1e-16, None),
        (DensityKind.AREA_DUAL, 2.0, 1e-16, None),
        # 4.7e-15 below 2*pi the radicand rounds to 0 at the default tol too.
        (DensityKind.AREA_DUAL, 6.283185307179582, 1e-9,
         "the radicand at x = 6.283185307179582 rounds to 0 inside the band"),
    ], ids=["DensityKind.PERIMETER_PRIMAL", "DensityKind.AREA_DUAL", "AREA_DUAL-next-to-2pi"])
    def test_unreachable_tolerance(self, kind, x, tol, message):
        # The inner integrals refine into the band ends until t = end -+ u^2
        # rounds onto an end, or the radicand rounds to 0 next to one.
        with pytest.raises(ToleranceNotMet) as info:
            density_via_double_integral(kind, x, tol)
        assert message is None or str(info.value) == message

    @pytest.mark.parametrize("kind, tol", [(DensityKind.PERIMETER_PRIMAL, 1e-14),
                                           (DensityKind.AREA_DUAL, 1e-13)])
    def test_tight_tolerance_answers_or_raises_tolerance_not_met(self, kind, tol):
        # A point of a tolerance sweep at these tolerances' limit: the inner
        # rows (both ends flagged) refine into the band ends, where the
        # radicand's rounding leaves noise, so PERIMETER_PRIMAL exhausts its
        # budget and AREA_DUAL answers. A wrong value is the one outcome barred.
        x = 2.88395993245731
        try:
            v = density_via_double_integral(kind, x, tol)
        except ToleranceNotMet:
            return
        assert abs(v - self.closed_form(kind, x)) < 1e-8

    @staticmethod
    def closed_form(kind, x):
        if kind is DensityKind.AREA_PRIMAL:
            return area_density(x)
        if kind is DensityKind.PERIMETER_PRIMAL:
            return perimeter_density(x)
        if kind is DensityKind.AREA_DUAL:
            return perimeter_density(TWO_PI - x)
        return area_density(TWO_PI - x)

    @pytest.mark.parametrize("kind", list(DensityKind))
    @pytest.mark.parametrize("x", [1e-3, 2e-3, 5e-3, 1e-2, 0.1,
                                   TWO_PI - 1e-3, TWO_PI - 2e-3, TWO_PI - 5e-3,
                                   TWO_PI - 1e-2, TWO_PI - 0.1])
    def test_near_the_ends(self, kind, x):
        v = density_via_double_integral(kind, x)
        assert abs(v - self.closed_form(kind, x)) < 1e-8

    @pytest.mark.parametrize("x", np.geomspace(1e-6, 1e-3, 8))
    def test_smooth_kinds_close_to_their_ends(self, x):
        # AREA_PRIMAL's theta-integrand peaks next to theta = x/2 at small x;
        # the inner rule resolves the peak only with that end flagged.
        x = float(x)
        if x < SMOOTH_KINDS_EDGE:
            for kind, at in ((DensityKind.AREA_PRIMAL, x), (DensityKind.PERIMETER_DUAL, TWO_PI - x)):
                with pytest.raises(OutOfDomain):
                    density_via_double_integral(kind, at)
            return
        v = density_via_double_integral(DensityKind.AREA_PRIMAL, x)
        assert abs(v - area_density(x)) < 1e-8
        v = density_via_double_integral(DensityKind.PERIMETER_DUAL, TWO_PI - x)
        assert abs(v - area_density(x)) < 1e-8

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("kind", [DensityKind.AREA_PRIMAL, DensityKind.PERIMETER_DUAL])
    def test_smooth_kinds_answer_within_ten_tol_or_raise(self, kind, tol):
        # A log grid of distances d from the hard end, x = d for AREA_PRIMAL
        # and 2*pi - d for PERIMETER_DUAL. Every d answers within 10 tol or
        # raises, and at and above the edge one array call answers at every d.
        ds = np.geomspace(1e-9, 1e-3, 49)
        xs = ds if kind is DensityKind.AREA_PRIMAL else TWO_PI - ds
        for d, x in zip(ds, xs):
            if d >= SMOOTH_KINDS_EDGE:
                continue
            try:
                v = density_via_double_integral(kind, float(x), tol)
            except SphtriError:
                continue
            assert abs(v - area_density(float(d))) <= 10 * tol
        near = ds >= SMOOTH_KINDS_EDGE
        got = density_via_double_integral(kind, xs[near], tol)
        assert np.all(np.abs(got - area_density(ds[near])) <= 10 * tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("kind", [DensityKind.PERIMETER_PRIMAL, DensityKind.AREA_DUAL])
    def test_square_root_kinds_answer_within_ten_tol_or_raise(self, kind, tol):
        # Log grids of distances d from each end: x = 2*pi - d and d for
        # PERIMETER_PRIMAL, whose density diverges at 2*pi, and the polar
        # images d and 2*pi - d for AREA_DUAL. Every call answers within
        # 10 tol max(1, |ref|) or raises, against references that take d
        # itself: the tau^3 series next to the zero end, and next to the
        # singular one the perimeter series at the float next to 2*pi - d,
        # carried to d along the tail. perimeter_density(2*pi - d) alone is
        # off by 1.6e-7 relative at d = 1e-9, and the tail alone by 2.1e-7
        # at d = 1e-3, where its d^2 term is missing.
        ds = np.geomspace(1e-9, 1e-3, 25)
        primal = kind is DensityKind.PERIMETER_PRIMAL
        points = [(float(x), singular) for singular in (True, False)
                  for x in (TWO_PI - ds if primal == singular else ds)]
        if not primal:  # 5.9e-13 below 2*pi: its radicand rounds to 0 if the outer start is 4 rows
            points.append((6.283185307179, False))
        answered = []
        for x, singular in points:
            try:
                v = density_via_double_integral(kind, x, tol)
            except SphtriError:
                continue
            if singular:
                near, d = (x, _polar(x)) if primal else (_polar(x), x)
                ref = perimeter_density(near) * sqrt_tail(d) / sqrt_tail(_polar(near))
            else:
                tau = x if primal else _polar(x)
                ref = tau ** 3 * distributions._horner(DENSITY_TAU2, tau * tau)
            assert abs(v - ref) <= 10 * tol * max(1.0, abs(ref)), (x, v, ref)
            answered.append(x)
        assert primal or 6.283185307179 in answered

    def test_duality_grid(self):
        for x in np.linspace(0.5, TWO_PI - 0.5, 10):
            a = density_via_double_integral(DensityKind.PERIMETER_PRIMAL, float(x), tol=1e-8)
            b = density_via_double_integral(DensityKind.AREA_DUAL, float(TWO_PI - x), tol=1e-8)
            assert abs(a - b) < 1e-7
            assert abs(a - perimeter_density(float(x))) < 1e-7


# The square-root pair's tail: f ~ c / sqrt(d) (1 + TAIL_SLOPE d) at the
# distance d from 2*pi, with c = 3 pi^2 / (sqrt(2) Gamma(1/4)^4) and the
# slope read off the perimeter series' derivative (1.99551 at d = 1e-4).
TAIL_C = 3 * PI ** 2 / (math.sqrt(2) * math.gamma(0.25) ** 4)
TAIL_SLOPE = 1.99552


def sqrt_tail(d):
    """The square-root pair's tail form at the distance d from 2*pi."""
    return TAIL_C / math.sqrt(d) * (1.0 + TAIL_SLOPE * d)


# The polar pairs, each as its shared body and one call of each kind: the
# dual kind at (x, kappa) = (2.0, 1.6), the primal one at its polar point.
POLAR_X, POLAR_KAPPA = 2.0, 1.6
POLAR_PAIRS = [
    ("_sqrt_inner",
     lambda x, k: density_via_double_integral(DensityKind.PERIMETER_PRIMAL, x),
     lambda x, k: density_via_double_integral(DensityKind.AREA_DUAL, x)),
    ("_smooth_density_inner",
     lambda x, k: density_via_double_integral(DensityKind.AREA_PRIMAL, x),
     lambda x, k: density_via_double_integral(DensityKind.PERIMETER_DUAL, x)),
    ("_side_law",
     lambda x, k: conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, x, k),
     lambda x, k: conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, x, k)),
    ("_cot_arccos",
     lambda x, k: region_boundary(ConditionalKind.PERIMETER_GIVEN_SIDE, x, k),
     lambda x, k: region_boundary(ConditionalKind.AREA_GIVEN_ANGLE, x, k)),
    ("angle_jacobian",
     lambda x, k: conditional_cdf(ConditionalKind.PERIMETER_ANGLE_COORDS, x, k),
     lambda x, k: conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, x, k)),
]


class TestPolarDuality:
    """Each polar pair is one implementation: sides are pi minus angles, areas 2*pi minus perimeters."""

    def test_polar_map_measures_from_the_true_two_pi(self):
        true_two_pi = Fraction(TWO_PI) + Fraction(distributions._TWO_PI_SHORTFALL)
        xs = np.concatenate([np.linspace(PI, TWO_PI, 1001), TWO_PI - np.geomspace(1e-15, 1e-3, 50)])
        for x in xs:
            assert _polar(float(x)) == float(true_two_pi - Fraction(float(x))), x
        assert _polar(TWO_PI) == distributions._TWO_PI_SHORTFALL
        assert _polar(0.0) == TWO_PI

    def test_band_edge_maps_onto_itself(self):
        # kappa = x/2: perimeter >= 2c and area <= 2*alpha, with equality
        # only for degenerate triangles. pi - kappa taken from the float pi
        # would put the polar point next to the edge instead of on it.
        rho = np.linspace(0.0, PI, 9)
        for x in np.linspace(0.05, TWO_PI - 0.05, 401):
            x = float(x)
            y, k = distributions._polar_point(x, x / 2)
            assert k == y / 2, x
            assert conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, x, x / 2) == 0.0, x
            curve = region_boundary(ConditionalKind.PERIMETER_GIVEN_SIDE, x, x / 2)
            assert np.all(curve(rho) == 0.0), x
        assert conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, PI, PI / 2) == 1.0

    def test_area_given_angle_where_both_elements_are_small(self):
        # There the law depends on x/kappa and is of order 1: 1/2 at
        # x = kappa, 1/3 at x = kappa/2, from kappa = 1e-3 down. So the band
        # pair keeps the area form; at the polar point 2*pi - x and
        # pi - kappa would round x and kappa away (1.0 at (1e-20, 1e-20)).
        for kappa in (1e-300, 1e-20, 1e-10):
            for ratio, want in ((1.0, 0.5), (0.5, 1.0 / 3.0)):
                got = conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, ratio * kappa, kappa)
                assert abs(got - want) < 1e-12, (kappa, ratio)

    @pytest.mark.parametrize("name, primal, dual", POLAR_PAIRS)
    def test_both_kinds_reach_one_body(self, monkeypatch, name, primal, dual):
        calls = []
        real = getattr(distributions, name)

        def recorded(*args):
            # The floats, and the one-element x array of a double integral's float call.
            calls.append([float(np.ravel(a)[0]) for a in args
                          if isinstance(a, (float, np.ndarray)) and np.size(a) == 1])
            return real(*args)

        monkeypatch.setattr(distributions, name, recorded)
        primal(_polar(POLAR_X), PI - POLAR_KAPPA)
        primal_args = calls[:]
        calls.clear()
        dual(POLAR_X, POLAR_KAPPA)
        assert primal_args and calls
        # The same point, to the rounding of mapping there and back.
        assert np.allclose(primal_args[0], calls[0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("kind", [k for k, law in CONDITIONAL_LAWS.items()
                                      if law.element == "side"])
    def test_each_kind_is_one_minus_its_partner(self, kind, tol):
        # P_kind(x, kappa) is 1 - P_partner at the polar point, for each
        # pair of CONDITIONAL_LAWS. AREA_MEDIAN and PERIMETER_BISECTOR are
        # two different integrals, theta over [0, pi] against rho over
        # [threshold, pi]; their measured worst gaps on this grid are 6.0e-13
        # at tol 1e-9 and 7.8e-16 at tol 1e-12. The other pairs' are below 1e-15.
        partner = CONDITIONAL_LAWS[kind].partner
        for x in np.linspace(0.05, TWO_PI - 0.05, 15):
            for kappa in np.linspace(0.05, PI - 0.05, 9):
                a = conditional_cdf(kind, float(x), float(kappa), tol=tol)
                b = conditional_cdf(partner, *distributions._polar_point(float(x), float(kappa)),
                                    tol=tol)
                assert abs(a - (1.0 - b)) <= 10 * tol, (x, kappa)

    @pytest.mark.parametrize("x, kappa", [(2.0, 0.6), (PI, 1.2), (5.0, 0.4), (6.2, 3.0)])
    def test_rho_band_is_the_theta_band_at_the_polar_point(self, x, kappa):
        want = rho_band_inner(x, kappa, tol=1e-13)
        got = theta_band_inner(_polar(x), PI - kappa, tol=1e-13)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("x, kappa", [(1.0, 2.0), (2.0, 1.6), (4.0, 2.5), (5.5, 3.0)])
    def test_side_coords_integral_is_the_mirrored_angle_coords_route(self, x, kappa):
        want = side_coords_cdf(x, kappa, tol=1e-11)
        got = conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, x, kappa, tol=1e-11)
        assert abs(got - want) <= 1e-10

    @pytest.mark.parametrize("x", [distributions._BELOW_TWO_PI, TWO_PI - 1e-12, TWO_PI - 1e-8])
    def test_area_primal_next_to_two_pi(self, x):
        v = density_via_double_integral(DensityKind.AREA_PRIMAL, x)
        assert abs(v - area_density(x)) < 1e-8

    @pytest.mark.parametrize("x", [1e-8, 1e-300])
    def test_area_primal_next_to_zero_answers_or_raises(self, x):
        # Below SMOOTH_KINDS_EDGE, in the caller's x, not in its polar image.
        with pytest.raises(OutOfDomain, match=f"got x = {x!r}$"):
            density_via_double_integral(DensityKind.AREA_PRIMAL, x)
        with pytest.raises(OutOfDomain):
            density_via_double_integral(DensityKind.PERIMETER_DUAL,
                                        min(TWO_PI - x, distributions._BELOW_TWO_PI))

    @pytest.mark.parametrize("delta", [1e-300, 1e-100, 1e-12, 1e-8])
    def test_square_root_pair_at_its_singular_end(self, delta):
        v = density_via_double_integral(DensityKind.AREA_DUAL, delta)
        assert abs(v / sqrt_tail(delta) - 1.0) <= 1e-12
        # The primal kind at the float nearest 2*pi - delta below TWO_PI,
        # against the tail at that float's exact distance from 2*pi.
        x = min(TWO_PI - delta, distributions._BELOW_TWO_PI)
        exact = float(Fraction(TWO_PI) - Fraction(x) + Fraction(distributions._TWO_PI_SHORTFALL))
        v = density_via_double_integral(DensityKind.PERIMETER_PRIMAL, x)
        assert abs(v / sqrt_tail(exact) - 1.0) <= 1e-12


# The reduction grid of verify.reduction_checks: 5 x, 10 fractions of (x/2, pi).
REDUCTION_X = np.linspace(0.6, TWO_PI - 0.6, 5)[:, None]
REDUCTION_KAPPA = REDUCTION_X / 2 + np.array([0.15, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.85,
                                              0.9]) * (PI - REDUCTION_X / 2)


class TestArrayX:
    """density_via_double_integral and elliptic_reduction_gap take arrays of x as their floats."""

    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_double_integral_array_equals_scalar_calls(self, kind):
        xs = np.array([0.3, 1.7, PI, 4.4, 6.0])
        got = density_via_double_integral(kind, xs, tol=1e-9)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        for g, x in zip(got, xs):
            assert abs(g - density_via_double_integral(kind, float(x), tol=1e-9)) <= 1e-9
        grid = density_via_double_integral(kind, xs.reshape(5, 1))
        assert grid.shape == (5, 1) and np.array_equal(grid[:, 0], got)

    def test_reduction_grid_equals_scalar_calls(self):
        got = elliptic_reduction_gap(REDUCTION_X, REDUCTION_KAPPA)
        assert got.shape == REDUCTION_KAPPA.shape == (5, 10)
        x = np.broadcast_to(REDUCTION_X, REDUCTION_KAPPA.shape)
        for g, xi, k in zip(got.ravel(), x.ravel(), REDUCTION_KAPPA.ravel()):
            assert abs(g - elliptic_reduction_gap(float(xi), float(k))) <= 1e-15
        assert got.max() < 1e-8

    def test_a_float_gives_a_float(self):
        for x in (2.0, np.float64(2.0), np.array(2.0)):
            assert type(density_via_double_integral(DensityKind.AREA_DUAL, x)) is float
            assert type(elliptic_reduction_gap(x, 1.6)) is float
        assert density_via_double_integral(DensityKind.AREA_DUAL, np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, TWO_PI, -1.0, math.nan])
    def test_one_x_out_of_domain_raises(self, bad):
        for kind in DensityKind:
            with pytest.raises(ValueError):
                density_via_double_integral(kind, np.array([2.0, bad, 3.0]))
        with pytest.raises(ValueError):
            elliptic_reduction_gap(np.array([2.0, 2.0]), np.array([1.6, 0.9]))  # kappa < x/2
        with pytest.raises(ValueError):
            elliptic_reduction_gap(np.array([2.0, bad]), 1.6)

    def test_radicand_check_names_its_x(self):
        # Row 1's node t = 1.5 is the band end x/2 of x = 3.0, where the radicand is 0.
        f, _ = _sqrt_inner(np.array([2.0, 3.0]))
        with pytest.raises(ToleranceNotMet, match="radicand at x = 3.0 "):
            f(np.array([[0], [1]]), np.full((2, 1), 1.6), np.array([[1.2, 1.3], [1.5, 1.6]]))

    def test_an_x_that_misses_raises_for_the_whole_array(self):
        # PERIMETER_PRIMAL at 2.0 and tol 1e-14 exhausts the panel budget of
        # its own call, and at 0.5 it answers; the array raises too, with the
        # same estimate, rather than return the 0.5 entry.
        kind = DensityKind.PERIMETER_PRIMAL
        assert math.isfinite(density_via_double_integral(kind, 0.5, 1e-14))
        with pytest.raises(ToleranceNotMet) as alone:
            density_via_double_integral(kind, 2.0, 1e-14)
        for xs in ([0.5, 2.0], [2.0, 0.5]):
            with pytest.raises(ToleranceNotMet, match="panel budget") as info:
                density_via_double_integral(kind, np.array(xs), 1e-14)
            assert info.value.result == alone.value.result

    @pytest.mark.parametrize("kind, xs, tol, at", [
        (DensityKind.AREA_DUAL, [3.0, 2.0], 1e-16, 2.0),
        (DensityKind.PERIMETER_PRIMAL, [1.0, 2.0], 1e-14, 2.0),  # the caller's x, not its polar image
    ])
    def test_a_miss_names_its_x(self, kind, xs, tol, at):
        # The engine fails in an inner call; the error names the x of that
        # call's group, not its inner row, and keeps that x's estimate.
        with pytest.raises(ToleranceNotMet, match=f"^at x = {at!r}: ") as info:
            density_via_double_integral(kind, np.array(xs), tol=tol)
        with pytest.raises(ToleranceNotMet) as alone:
            density_via_double_integral(kind, at, tol=tol)
        assert info.value.result == alone.value.result

    def test_each_x_gets_its_own_panel_budget(self, monkeypatch):
        # At 5e-5 and 6e-5 and tol 3e-15 an inner call of AREA_PRIMAL evaluates
        # 10,108 and 6,984 panels: together more than one budget, each within its own.
        xs, tol = np.array([5e-5, 6e-5]), 3e-15
        want = [density_via_double_integral(DensityKind.AREA_PRIMAL, float(x), tol) for x in xs]
        panels = []
        real = distributions._integrate_rows

        def counted(f, a, b, spec, groups=None):
            count = [0]

            def g(i, t):
                count[0] += t.shape[0]
                return f(i, t)
            try:
                return real(g, a, b, spec, groups)
            finally:
                panels.append(count[0])

        monkeypatch.setattr(distributions, "_integrate_rows", counted)
        got = density_via_double_integral(DensityKind.AREA_PRIMAL, xs, tol)
        assert max(panels) > _PANEL_BUDGET
        assert np.all(np.abs(got - want) <= 1e-9)


class TestEllipticReductions:
    def test_perimeter_case_at_pi(self):
        # The fixed-side reduction is the fixed-angle equation at the polar point.
        gap = elliptic_reduction_gap(*distributions._polar_point(PI, PI / 4))
        assert gap < 1e-8

    def test_area_case_at_pi(self):
        gap = elliptic_reduction_gap(PI, 3 * PI / 4)
        assert gap < 1e-8

    def test_vanishes_as_kappa_to_zero(self):
        # Both sides carry a sin(kappa) factor.
        x = PI
        lhs = rho_band_inner(x, 1e-4, tol=1e-12)
        assert abs(lhs) < 1e-3
        gap = elliptic_reduction_gap(*distributions._polar_point(x, 1e-4))
        assert gap < 1e-8

    def test_preconditions(self):
        for x, kappa in ((2.0, 0.5), (2.0, 1.0), (1.0, PI), (0.0, 1.0)):
            with pytest.raises(ValueError):
                elliptic_reduction_gap(x, kappa)


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

    @pytest.mark.parametrize("kind", ONE_D_ROUTES)
    def test_monotone_fast_kinds(self, kind):
        for kappa in np.linspace(0.4, PI - 0.4, 5):
            vals = [conditional_cdf(kind, float(x), float(kappa), tol=1e-9)
                    for x in np.linspace(0.0, TWO_PI, 50)]
            assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", TWO_D_ROUTES)
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

    @pytest.mark.parametrize("kind", EDGED_KINDS)
    @pytest.mark.parametrize("at_pi", [False, True])
    @pytest.mark.parametrize("share", [0.0, 1e-6, 0.1, 0.99, 1.0 - 1e-9])
    def test_2d_routes_raise_near_kappa_edges(self, kind, at_pi, share):
        # kappa is share * kappa_edge from 0 or pi, inside the row's edge.
        # Unguarded, the 2-D routes' nested quadrature takes seconds at
        # kappa = 1e-3 or returns values off by up to 0.99 at kappa = 1e-8.
        # x = 0 and 2*pi answer before the kappa check, as on every route.
        edge = CONDITIONAL_LAWS[kind].kappa_edge
        kappa = PI - share * edge if at_pi else share * edge
        for x in (0.5, 3.0, 6.0):
            t0 = time.perf_counter()
            with pytest.raises(OutOfDomain):
                conditional_cdf(kind, x, kappa)
            assert time.perf_counter() - t0 < 1.0
        assert conditional_cdf(kind, 0.0, kappa) == 0.0
        assert conditional_cdf(kind, TWO_PI, kappa) == 1.0

    @pytest.mark.parametrize("kind", EDGED_KINDS)
    @pytest.mark.parametrize("at_pi", [False, True])
    def test_2d_routes_agree_at_domain_edges(self, kind, at_pi):
        law = CONDITIONAL_LAWS[kind]
        kappa = PI - law.kappa_edge if at_pi else law.kappa_edge
        for x in np.linspace(0.05, 6.28, 12):
            a = conditional_cdf(kind, float(x), kappa)
            b = conditional_cdf(law.closed_form, float(x), kappa)
            assert abs(a - b) < 1e-8

    @pytest.mark.parametrize("kind", CLOSED_FORMS)
    def test_closed_forms_answer_at_kappa_ends(self, kind):
        # Their rows set no edge. At kappa = 0 and pi each answers in [0, 1],
        # 1e-9 from its value 1e-9 inside, and is its partner's complement at
        # the polar point.
        law = CONDITIONAL_LAWS[kind]
        assert law.kappa_edge == 0.0
        for kappa, inside in ((0.0, 1e-9), (PI, PI - 1e-9)):
            for x in (0.5, 3.0, 6.0):
                v = conditional_cdf(kind, x, kappa)
                assert 0.0 <= v <= 1.0
                assert abs(v - conditional_cdf(kind, x, inside)) < 1e-9
                assert abs(v - 1.0 + conditional_cdf(law.partner, *_polar_point(x, kappa))) < 1e-15

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


def test_the_table_of_conditional_laws():
    # One row per kind. The partner map is an involution that swaps the fixed
    # element and the statistic, and each kind shares both with its closed
    # form, which is its own closed form; so the partners' closed forms are
    # partners too.
    assert set(CONDITIONAL_LAWS) == set(ConditionalKind)
    for kind, law in CONDITIONAL_LAWS.items():
        partner, closed = CONDITIONAL_LAWS[law.partner], CONDITIONAL_LAWS[law.closed_form]
        assert partner.partner is kind
        assert {law.element, partner.element} == {"side", "angle"}
        assert {law.statistic, partner.statistic} == {"sigma", "tau"}
        assert (closed.element, closed.statistic) == (law.element, law.statistic)
        assert closed.closed_form is law.closed_form
        assert partner.closed_form is closed.partner
    # The edge tests read their kinds from the rows; so far only the 2-D routes narrow kappa.
    assert EDGED_KINDS == TWO_D_ROUTES


@pytest.mark.parametrize("call", [
    lambda: conditional_cdf("area_given_side", 2.0, 1.5),
    lambda: density_via_double_integral("area_primal", 2.0),
    lambda: sample_batch("primal", None, 10, RngStream(0)),
], ids=["conditional_cdf", "density_via_double_integral", "sample_batch"])
def test_an_unknown_kind_raises(call):
    # A kind's value in place of the kind itself ran another kind's route.
    with pytest.raises(ValueError, match="unknown"):
        call()


# The edge matrix of the 2-D routes: 1e-3 and 1e-6 (relative) either side
# of the kappa = x/2 wedge edge, where their work peaks, and both ends of
# their kappa domain. Each call answers as its closed form does or raises
# ToleranceNotMet, and in either case within 2 s.
def _edge_matrix():
    for kind in TWO_D_ROUTES:
        for x in (0.05, 0.3, 0.85, 2.0, PI, 5.0, 6.2):
            for kappa in (x / 2 * (1 - 1e-3), x / 2 * (1 + 1e-3), x / 2 * (1 - 1e-6),
                          x / 2 * (1 + 1e-6), 1e-2, PI - 1e-2):
                yield pytest.param(kind, x, kappa, id=f"{kind.value}-{x:.4g}-{kappa:.10g}")


@pytest.mark.parametrize("kind, x, kappa", _edge_matrix())
def test_2d_route_edge_matrix(kind, x, kappa):
    t0 = time.perf_counter()
    try:
        value = conditional_cdf(kind, x, kappa)
    except ToleranceNotMet:
        value = None
    assert time.perf_counter() - t0 < 2.0
    if value is not None:
        want = conditional_cdf(CONDITIONAL_LAWS[kind].closed_form, x, kappa, tol=1e-12)
        assert abs(value - want) < 1e-8


# 1e-9 and 1e-7 (relative) either side of the wedge edge, where the outer
# integral must resolve h falling from pi to 0 within about that distance
# of phi = 0: with an unstretched outer variable 8 of the 1e-9 points away
# from the x-ends returned values up to 2.0e-5 off. At the x-ends (x = 0.05
# and 6.2, 6.26), where the polar point's kappa nears pi, an inner map that
# did not cut the rows at psi = phi missed the Jacobian's ridge there by up
# to 2.0e-7 (PERIMETER_ANGLE_COORDS at x = 6.26, 1e-9 below the edge).
@pytest.mark.parametrize("kind", TWO_D_ROUTES, ids=lambda k: k.value)
@pytest.mark.parametrize("x", [0.05, 0.3, 0.85, 2.0, PI, 5.0, 6.2, 6.26])
@pytest.mark.parametrize("side", [1 - 1e-9, 1 + 1e-9, 1 - 1e-7, 1 + 1e-7],
                         ids=["below", "above", "below-1e-7", "above-1e-7"])
def test_2d_route_at_the_wedge_edge(kind, x, side):
    kappa = x / 2 * side
    want = conditional_cdf(CONDITIONAL_LAWS[kind].closed_form, x, kappa)
    for tol in (1e-9, 1e-12):
        try:
            value = conditional_cdf(kind, x, kappa, tol=tol)
        except ToleranceNotMet:
            continue
        assert abs(value - want) < 1e-8, tol


# Next to the kappa = x/2 edge the band oracle is the one that misses:
# AREA_GIVEN_ANGLE at (pi, pi/2 + ulp) by 1.16e-10 and PERIMETER_GIVEN_SIDE
# at (2.2021, x/2 (1 - 1e-9)) by 1.4e-13 at tol 1e-13.
WEDGE_POINTS = [
    (ConditionalKind.AREA_GIVEN_ANGLE, PI, math.nextafter(PI / 2, 4.0)),
    (ConditionalKind.PERIMETER_GIVEN_SIDE, 2.2021, 2.2021 / 2 * (1 - 1e-9)),
]


class TestSideLawClosedForm:
    """PERIMETER_GIVEN_SIDE and AREA_GIVEN_ANGLE in elliptic closed form, against their band integral."""

    def test_matches_the_band_oracle(self):
        # The 2-D routes' edge matrix and a 41 x 41 interior grid. A point
        # where the two differ by more than 1e-13 is settled by mpmath:
        # there the closed form is measured within 5.9e-16 of it.
        points = sorted({p.values[1:] for p in _edge_matrix()})
        points += [(float(x), float(k)) for x in np.linspace(0.05, TWO_PI - 0.05, 41)
                   for k in np.linspace(0.02, PI - 0.02, 41)]
        misses = []
        for kind in ELLIPTIC_KINDS:
            for x, kappa in points:
                got = conditional_cdf(kind, x, kappa)
                if abs(got - band_oracle(kind, x, kappa)) > 1e-13:
                    misses.append((kind, x, kappa, got))
        assert len(misses) < 20, misses
        for kind, x, kappa, got in misses:
            assert abs(got - mpmath_side_law(kind, x, kappa)) <= 1e-15, (kind, x, kappa)

    @pytest.mark.parametrize("kind, x, kappa", WEDGE_POINTS)
    def test_wedge_points_against_mpmath(self, kind, x, kappa):
        assert abs(conditional_cdf(kind, x, kappa) - mpmath_side_law(kind, x, kappa)) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_area_given_angle_where_half_kappa_underflows(self):
        # At (5e-324, 5e-324) kappa/2 and sin(kappa/2) are 0; the law is 1/2
        # at x = kappa, as at (1e-300, 1e-300) and (1e-20, 1e-20).
        for x in (5e-324, 1e-300, 1e-20):
            assert conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, x, x) == 0.5

    @pytest.mark.filterwarnings("error")
    def test_perimeter_given_side_where_its_squares_underflow(self):
        # The law is at most sin^2(x/4); where sin^2((x - kappa)/2) underflows
        # it is 0.0, and Carlson's arguments would both be 0.
        for x in (2e-323, 1e-310, 2.2e-308, 1e-300, 1e-200):
            for kappa in (0.0, 5e-324, x / 4, x / 2 * (1 - 1e-9)):
                assert conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, x, kappa) == 0.0

    def test_no_quadrature_and_no_traced_elliptic_call(self, monkeypatch):
        def refuse(name):
            def refused(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return refused

        for name in ("integrate", "_integrate_rows", "ellip_K", "ellip_E"):
            monkeypatch.setattr(distributions, name, refuse(name))
        for kind in ELLIPTIC_KINDS:
            for x, kappa in ((0.5, 0.2), (2.0, 0.6), (2.0, 1.6), (5.0, 2.9), (1e-20, 1e-20),
                             (PI, PI / 2), (6.2, 1e-9), (0.3, 0.0), (1.0, PI)):
                assert 0.0 <= conditional_cdf(kind, x, kappa) <= 1.0

    def test_scalar_calls_are_fast(self):
        # About 10 us a call on a 2-CPU host where it integrates, against
        # 45 us for the band integral it replaced; the best of three runs
        # guards against a slow spell.
        points = [(float(x), float(k)) for x in np.linspace(0.5, 5.8, 10) for k in (0.2, 1.1, 2.9)]
        for kind in ELLIPTIC_KINDS:
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(10):
                    for x, kappa in points:
                        conditional_cdf(kind, x, kappa)
                best = min(best, (time.perf_counter() - start) / (10 * len(points)))
            assert best <= 30e-6, kind


class TestNestedQuadratureStructure:
    """The nested routes nest two engine calls; the 1-D routes make none."""

    def test_one_inner_call_per_outer_step(self, monkeypatch):
        def refuse(name):
            def refused(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return refused

        rows, outer_steps = [], []
        real_rows = distributions._integrate_rows

        def counted_rows(f, a, b, spec, groups=None):
            rows.append(np.size(a))
            if len(rows) == 1:  # the outer integral: count the steps of its integrand
                def stepped(i, t):
                    outer_steps.append(t.shape)
                    return f(i, t)
                return real_rows(stepped, a, b, spec, groups)
            return real_rows(f, a, b, spec, groups)

        monkeypatch.setattr(distributions, "integrate", refuse("integrate"))
        monkeypatch.setattr(distributions, "_integrate_rows", counted_rows)
        # The 2-D routes cut each node's inner integral into two pieces at
        # psi = phi. They and the smooth kinds start from 4 outer rows, the
        # square-root kinds from 1.
        calls = [(2, 4, lambda: conditional_cdf(ConditionalKind.PERIMETER_ANGLE_COORDS, 2.0, 0.6)),
                 (2, 4, lambda: conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, 2.0, 1.6))]
        calls += [(1, 1 if kind in (DensityKind.PERIMETER_PRIMAL, DensityKind.AREA_DUAL) else 4,
                   lambda kind=kind: density_via_double_integral(kind, 2.0))
                  for kind in DensityKind]
        assert distributions._OUTER_ROWS == 4
        for pieces, start, call in calls:
            rows.clear()
            outer_steps.clear()
            call()
            outer, inner = rows[0], rows[1:]
            assert outer == start
            assert len(inner) == len(outer_steps)  # one inner call per outer step
            # An inner call's rows are the pieces at the Kronrod nodes of
            # each outer panel of the step.
            assert inner == [pieces * m * _NODES.size for m, _ in outer_steps]
            assert inner[0] == pieces * start * _NODES.size

    def test_two_d_routes_keep_a_float_kappa(self, monkeypatch):
        # angle_jacobian takes an array kappa too; the 2-D routes pass a
        # float, which still goes through math's sin and cos, so their values
        # are those of the float-only Jacobian bit for bit.
        points = [(2.0, 0.6), (0.85, 0.424575), (5.0, 2.4975)]
        kinds = (ConditionalKind.PERIMETER_ANGLE_COORDS, ConditionalKind.AREA_SIDE_COORDS)
        got = [conditional_cdf(kind, x, k) for kind in kinds for x, k in points]

        def float_only(u, v, kappa):
            cos2, sin2 = 2.0 * math.cos(0.5 * kappa) ** 2, 2.0 * math.sin(0.5 * kappa) ** 2
            return coords._jacobian(u, v, math.sin(kappa), math.cos(kappa), cos2, sin2)

        monkeypatch.setattr(distributions, "angle_jacobian", float_only)
        assert got == [conditional_cdf(kind, x, k) for kind in kinds for x, k in points]

    def test_edge_probe_cost(self, monkeypatch):
        # The slowest conditional-routes benchmark probe: 1e-3 (relative)
        # past the kappa = x/2 wedge edge, where the Jacobian peaks.
        # The route runs the two-angle Jacobian at the polar point. Its
        # stretched variables take 7 steps of the engine (each the first
        # panels or one refinement of an inner or outer call) and 18,543
        # points; with G7/K15 panels they took 12 steps and 14,235 points,
        # and unstretched 34 steps and 12,960 points.
        points, steps = [], []
        real, real_panels = distributions.angle_jacobian, quadrature._row_panels

        def counted(u, v, kappa):
            points.append(np.broadcast(u, v).size)
            return real(u, v, kappa)

        def counted_panels(*args):
            steps.append(1)
            return real_panels(*args)

        monkeypatch.setattr(distributions, "angle_jacobian", counted)
        monkeypatch.setattr(quadrature, "_row_panels", counted_panels)
        conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, 0.85, 0.85 / 2 * (1 + 1e-3))
        assert 0 < sum(points) <= 90_000
        assert 0 < len(steps) <= 8

    def test_2d_boundary_once_per_outer_step(self, monkeypatch):
        # bounds takes h(phi) and the map constants at all of an outer
        # step's nodes in one solved_forms call; the inner integrand reads
        # them by row and never calls it.
        sizes, outer_nodes, calls = [], [], []
        real_forms, real_rows = distributions.solved_forms, distributions._integrate_rows

        def counted_forms(kind, x, *args):
            sizes.append(np.size(x))
            return real_forms(kind, x, *args)

        def counted_rows(f, a, b, spec, groups=None):
            calls.append(1)
            if len(calls) == 1:  # the outer integral: record each step's nodes
                def stepped(i, t):
                    outer_nodes.append(t.size)
                    return f(i, t)
                return real_rows(stepped, a, b, spec, groups)
            return real_rows(f, a, b, spec, groups)

        monkeypatch.setattr(distributions, "solved_forms", counted_forms)
        monkeypatch.setattr(distributions, "_integrate_rows", counted_rows)
        steps = []
        for kind, x, kappa in ((ConditionalKind.PERIMETER_ANGLE_COORDS, 2.0, 0.6),
                               (ConditionalKind.AREA_SIDE_COORDS, 0.85, 0.85 / 2 * (1 + 1e-3))):
            for record in (sizes, outer_nodes, calls):
                record.clear()
            conditional_cdf(kind, x, kappa)
            assert sizes == outer_nodes
            steps.append(len(outer_nodes))
        assert steps[0] >= 1 and steps[1] > 1

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

    if kind is ConditionalKind.PERIMETER_BISECTOR:
        return pieces(lambda r: np.cos(f(r)), bisector_threshold(x, kappa), []) / PI
    if CONDITIONAL_LAWS[kind].curve_takes_u:  # the uniform one: theta given c, rho given alpha
        return pieces(lambda t: 1.0 - np.cos(f(t)), 0.0, [x / 2]) / TWO_PI
    breaks = [x / 2 - kappa, x / 2, PI - kappa + x / 2]
    return pieces(lambda t: f(t) * np.sin(t), 0.0, breaks) / TWO_PI


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
        band = theta_band_inner if kind is ConditionalKind.AREA_GIVEN_ANGLE else rho_band_inner
        inner = band(x, kappa, tol=1e-13)
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
    def test_area_given_side_at_kappa_pi_is_the_limit_curve(self):
        # pi below x/2 and 0 above it: the exact limit, which the perimeter
        # given an angle reads at the polar point of kappa = 0.
        theta = np.linspace(0.0, PI, 9)
        for x in (0.5, 2.0, 5.0):
            want = np.where(theta < x / 2, PI, 0.0)
            assert np.array_equal(region_boundary(ConditionalKind.AREA_GIVEN_SIDE, x, PI)(theta), want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [2.0, 1e-323, 1e-310])
    def test_perimeter_given_side_empty_on_the_diagonal(self, x):
        # tau >= 2c, equal only for degenerate triangles: at kappa = x/2
        # the region is empty, so the curve is 0 for every rho.
        rho = np.linspace(0.0, PI, 9)
        curve = region_boundary(ConditionalKind.PERIMETER_GIVEN_SIDE, x, x / 2)(rho)
        assert np.array_equal(curve, np.zeros_like(rho))
