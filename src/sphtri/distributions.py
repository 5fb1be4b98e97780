"""Analytic area/perimeter distributions of random spherical triangles.

The area sigma of a triangle with independent uniform vertices has a
closed-form density; the perimeter tau has a one-dimensional
elliptic-integral density. Both are also available through exact double
integrals over a (coordinate, fixed-element) pair, and conditionally on a
fixed side or fixed angle through several independent routes. The
redundant routes exist on purpose: agreement between them (and with the
Monte Carlo oracle in ``montecarlo``) is the defense against
transcription errors in the long formulas. Copies of one formula are not
such redundancy: region_boundary writes the two area curves and the
bisector curve once, and takes each perimeter curve from its polar
partner's area curve; the Monte Carlo region test uses them, and the
conditional CDF routes are the measure under them, in closed form or by
quadrature.

Polar duality is written once too: the polar triangle has sides pi minus
the angles and area 2*pi minus the perimeter, so where two routes are one
integral, one kind runs its partner's body at _polar_point(x, kappa).
Each pair keeps the form that takes x itself, not 2*pi - x, at its hard end.

Sign convention: the area-density closed form is sometimes quoted with
the opposite overall sign, which makes it negative; this module fixes the
sign so the density is nonnegative and integrates to 1, and the test
suite pins both properties.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .coords import angle_jacobian
from .identities import SolvedFormKind, bisector_threshold, solved_forms
from .errors import OutOfDomain, ToleranceNotMet
from .quadrature import (
    QuadratureSpec, _agm_KE, _blocked, _check_tol, _integrate_rows,
    carlson_rf_rd, ellip_E, ellip_K, integrate,
)

TWO_PI = 2.0 * math.pi
_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)
_TWO_PI_SHORTFALL = 2.4492935982947064e-16  # the true 2*pi - TWO_PI
# The 2-D Jacobian routes need kappa this far from 0 and pi (their rows'
# kappa_edge). Nearer, the Jacobian's peak narrows like kappa (or pi -
# kappa), and the quadrature ran for seconds or returned wrong values. At
# the edge itself, on x in {0.05, 0.3, 0.85, 2, pi, 5, 6.2, 6.26}, both
# routes are within 3.4e-12 of their closed forms at tol 1e-9 to 1e-11; at
# tol 1e-12 one of the 32 calls raises ToleranceNotMet, and at 1e-13 four
# raise and two miss by up to 12.6 tol. So the edge serves tol >= 1e-11.
COORDS_KAPPA_EDGE = 1e-2
# AREA_PRIMAL and PERIMETER_DUAL need x this far from their hard end, 0
# and 2*pi. Their inner integral falls from pi to 0 within about x of
# kappa = pi (at x = 1e-7: 3.09 at pi - 1e-6, 1.11 at pi - 1e-7, 0 at
# pi - 1e-8), and the outer panels there can miss that step. On log grids
# of x from 1e-9, at tol from 1e-4 to 1e-12, they missed area_density with
# no error raised by up to 8.8e-4 at tol 1e-6 and 7.6e-6 at tol 1e-9, and
# by more than 10 tol up to x = 1.42e-5 (at tol 1.2e-6); from the edge up,
# by at most 7.3 tol.
SMOOTH_KINDS_EDGE = 2e-5


def _polar(x):
    """The true 2*pi minus x, a float or an array: rounded once for x >= pi."""
    return (TWO_PI - x) + _TWO_PI_SHORTFALL


def _polar_point(x: float, kappa: float) -> tuple[float, float]:
    """(2*pi - x, pi - kappa), pi - kappa as _polar(2 kappa)/2: kappa = x/2 maps onto itself."""
    return _polar(x), 0.5 * _polar(2.0 * kappa)


class DensityKind(enum.Enum):
    AREA_PRIMAL = "area_primal"
    AREA_DUAL = "area_dual"
    PERIMETER_PRIMAL = "perimeter_primal"
    PERIMETER_DUAL = "perimeter_dual"


class ConditionalKind(enum.Enum):
    AREA_GIVEN_SIDE = "area_given_side"
    PERIMETER_GIVEN_ANGLE = "perimeter_given_angle"
    PERIMETER_GIVEN_SIDE = "perimeter_given_side"
    AREA_GIVEN_ANGLE = "area_given_angle"
    AREA_MEDIAN = "area_median"
    PERIMETER_BISECTOR = "perimeter_bisector"
    PERIMETER_ANGLE_COORDS = "perimeter_angle_coords"
    AREA_SIDE_COORDS = "area_side_coords"


# ---------------------------------------------------------------------------
# The area law. With sigma = pi + d its closed forms are 0/0 to fourth
# order at d = 0. Each cancelling remainder is one fixed Taylor polynomial
# in z = d^2: for |d| <= pi its terms shrink monotonically (by at most
# pi^2/30 a step) and the 14th is below 4e-20, so no branch is needed and
# the same arithmetic runs on a float and on an array. Powers are written
# as products, because numpy's power can round a scalar and an array
# element differently.

# Coefficients of z^j in C(d) = (cos d - 1 + d^2/2)/d^4,
# S(d)/d = (sin d - d + d^3/6)/d^5 and sin(d/2)/(d/2).
_COS_REM = tuple((-1) ** j / math.factorial(2 * j + 4) for j in range(14))
_SIN_REM = tuple((-1) ** j / math.factorial(2 * j + 5) for j in range(14))
_SINC_HALF = tuple((-1) ** j / (4 ** j * math.factorial(2 * j + 1)) for j in range(14))


def _horner(coeffs: tuple[float, ...], z):
    """Sum of coeffs[j] * z^j; z may be a float or an array."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _law_argument(value, name: str = "sigma", ends: bool = True):
    """value as a float (from a scalar) or a float array in [0, 2*pi], or in (0, 2*pi) without ends.

    A scalar is checked in Python: a numpy ufunc on it costs more than the series.
    """
    lo, hi = (0.0, TWO_PI) if ends else (5e-324, _BELOW_TWO_PI)  # the open ends as closed ones
    x = np.asarray(value, dtype=float)
    x = float(x) if x.ndim == 0 else x
    if not (lo <= x <= hi if isinstance(x, float) else ((x >= lo) & (x <= hi)).all()):
        raise ValueError(f"{name} must lie in {'[0, 2*pi]' if ends else '(0, 2*pi)'}")
    return x


def area_density(sigma):
    """Closed-form density of the spherical excess at sigma in [0, 2*pi].

    sigma may be a float or an array; a float gives a float and an array an
    array of the same shape, equal bit for bit to the scalar calls. The
    raw closed form is a 0/0 at sigma = pi (numerator and cos^4(sigma/2)
    both vanish to fourth order). Writing sigma = pi + d and subtracting
    the cancelling Taylor pieces of cos and sin exactly leaves

        N/d^4 = -1/2 - (d^2 - 2*pi*d - 6) C(d) + 6 (d - pi) S(d)

    with C(d) = (cos d - 1 + d^2/2)/d^4 and S(d) = (sin d - d + d^3/6)/d^4,
    so the density N/(16 pi cos^4(sigma/2)) evaluates stably everywhere,
    including exactly 1/(4 pi) at sigma = pi. It is within 7e-15 relative
    of 40-digit mpmath on [0.01, 2*pi - 0.01].
    """
    return _blocked(_area_density, _law_argument(sigma))


def _area_density(x):
    d = x - math.pi
    z = d * d
    s = d * _horner(_SIN_REM, z)
    n_ratio = -0.5 - (z - TWO_PI * d - 6.0) * _horner(_COS_REM, z) + 6.0 * (d - math.pi) * s
    q = _horner(_SINC_HALF, z)  # sin(d/2) / (d/2)
    q2 = q * q
    return -n_ratio / (math.pi * (q2 * q2))  # 16 pi sin^4(d/2) / d^4


def crofton_kernel(y):
    """Elementary one-integral reduction of the area law, for y in [0, 2*pi].

    Equals 4 tan(y/2)/cos^2(y/2) * Integral_{y/2}^{pi/2} (pi - z) cos^2 z dz
    in closed form; 1 + d/dy of it is 2*pi times the area density, and
    (y + kernel)/(2*pi) is the area CDF. The prefactor pole and the
    vanishing integral cancel at y = pi, where the value is 2*pi/3; the
    implementation factors (y - pi)^3 out of both, with the remainders of
    area_density, so the whole range evaluates stably. y may be a float or
    an array, as for area_density.
    """
    return _blocked(_crofton_kernel, _law_argument(y))


def _crofton_kernel(x):
    d = x - math.pi
    z = d * d
    # G(y) = closed-form integral; G = A/16 - (pi/8)(d - sin d) with
    # A = 2(1 - cos d) + d^2 - 2 d sin d; both vanish to third order:
    # A = d^4 (1/3 - 2C - 2dS) and d - sin d = d^3 (1/6 - dS).
    ds = z * _horner(_SIN_REM, z)
    a_ratio = d * (1.0 / 3.0 - 2.0 * _horner(_COS_REM, z) - 2.0 * ds)  # A / d^3
    g_ratio = a_ratio / 16.0 - (math.pi / 8.0) * (1.0 / 6.0 - ds)
    # 4 tan(y/2)/cos^2(y/2) * G = -32 sin(y/2) * (G/d^3) / (sin(d/2)/(d/2))^3
    q = _horner(_SINC_HALF, z)
    return -32.0 * np.sin(0.5 * x) * g_ratio / (q * q * q)


def area_cdf(sigma):
    """P{area <= sigma} in closed form, (sigma + crofton_kernel(sigma)) / (2*pi).

    sigma may be a float or an array, as for area_density. F(0) = 0
    exactly (the kernel carries a factor sin(sigma/2)) and F(2*pi) = 1.
    It is within 1e-15 relative of an adaptive integral of area_density
    from sigma = 1e-8 to 2*pi - 1e-8.
    """
    return _blocked(_area_cdf, _law_argument(sigma))


def _area_cdf(x):
    v = (x + _crofton_kernel(x)) / TWO_PI
    if isinstance(x, float):
        return 1.0 if x >= TWO_PI else min(1.0, max(0.0, v))
    return np.where(x >= TWO_PI, 1.0, np.clip(v, 0.0, 1.0))


# ---------------------------------------------------------------------------
# The perimeter law: one Chebyshev series for the CDF, whose derivative is
# the density.

# F(tau) <= P{b <= tau/2, c <= tau/2} = sin^4(tau/4), which is below
# 4e-323 (a few subnormal units) for tau up to this; the CDF is 0.0 there.
_CDF_ZERO_BELOW = 1e-80
_U_PER_S = 2.0 / math.sqrt(TWO_PI)  # u = s * _U_PER_S - 1 maps s in [0, sqrt(2*pi)] onto [-1, 1]
# Chebyshev coefficients, in u, of R(s) = F(tau) / sin^4(tau/4), with
# s = sqrt(2*pi - tau): the factor carries F's tau^4 start and s its
# sqrt(2*pi - tau) end, so R is analytic on the whole interval. They
# interpolate R at the 28 Chebyshev nodes u_j = cos(pi (j + 1/2) / 28), taken
# from the density's tau^2 series integrated below tau = 0.3 and from the
# orders-96/128 Gauss-Legendre rule over _perimeter_cdf_integrand above it,
# both in tests/test_distributions.py, whose perimeter_cdf_series_coefficients
# regenerates these literals.
_CDF_CHEB = (
    0.6531615145577833, -0.33178291510177105, 0.03826555379978804,
    0.023506906007460547, -0.001677663250141673, -0.0012200083360935127,
    0.0007468058103632697, -3.5279975120705576e-05, -2.0950321250759858e-05,
    7.92109624378875e-06, 8.657056983258598e-07, -4.5664929947714885e-07,
    6.882380853318841e-08, 2.3642553438816905e-08, -5.079420891832394e-09,
    -1.830195677549844e-10, 4.4564045311089116e-10, -3.034714543151803e-11,
    -1.6535582427122465e-11, 5.92372976068337e-12, 4.0711481804781406e-13,
    -3.5917697387739213e-13, 5.725578741281164e-14, 1.7109329825919824e-14,
    -4.910754342850915e-15, 3.6280502411857793e-16, 5.699805706780937e-16,
    1.37290972241593e-15,
)
# The CDF series' absolute error bound: measured at most 4e-15 against
# 30-digit mpmath values (45 points) and against the orders-96/128 rule
# (4000 points in [0.3, 2*pi - 1e-12]).
_CDF_SERIES_ERROR = 1e-14
# The density's error bound, in units of max(1, |f|): measured at most 1.2e-12
# against 30-digit mpmath (worst at 2*pi - 8.8e-5). R refitted from 30 to 96
# nodes, or truncated, gave its derivative 2.2e-12 to 8e-11.
_DENSITY_SERIES_ERROR = 2e-12
# dR/du, by c'_{k-1} = c'_{k+1} + 2k c_k from the top down with c'_0 halved
# (Trefethen, Approximation Theory and Approximation Practice, 2013, ch. 21).
_dc = [0.0] * (len(_CDF_CHEB) + 1)
for _k in range(len(_CDF_CHEB) - 1, 0, -1):
    _dc[_k - 1] = _dc[_k + 1] + 2 * _k * _CDF_CHEB[_k]
_CDF_CHEB_DU = (_dc[0] / 2.0, *_dc[1:-2])
del _dc, _k


def _clenshaw(coeffs: tuple[float, ...], u):
    """Sum of coeffs[k] T_k(u) by Clenshaw's recurrence; u may be a float or an array."""
    u2 = u + u
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + u2 * b1 - b2, b1
    return coeffs[0] + u * b1 - b2


def _series_at(x):
    """q = sin(x/4), s = sqrt(2*pi - x) and u of the perimeter series, at a float or an array x."""
    q, s = np.sin(0.25 * x), np.sqrt(_polar(x))
    if isinstance(x, float):  # the rest then runs on Python floats, 3x faster than on np.float64
        q, s = float(q), float(s)
    return q, s, s * _U_PER_S - 1.0


def _perimeter_cdf_series(x):
    """The perimeter CDF q^4 R(u) on a float or an array of x in [0, 2*pi], ends included."""
    q, s, u = _series_at(x)
    q2 = q * q
    v = q2 * q2 * _clenshaw(_CDF_CHEB, u)
    if isinstance(x, float):
        return 1.0 if x >= TWO_PI else 0.0 if x <= _CDF_ZERO_BELOW else min(1.0, max(0.0, v))
    return np.where(x >= TWO_PI, 1.0, np.where(x <= _CDF_ZERO_BELOW, 0.0, np.clip(v, 0.0, 1.0)))


def _perimeter_density_series(x):
    """d/dx of q^4 R(u) at a float or an array x in (0, 2*pi); q^3 goes last, to underflow alone."""
    q, s, u = _series_at(x)
    c = float(np.cos(0.25 * x)) if isinstance(x, float) else np.cos(0.25 * x)
    slope = c * _clenshaw(_CDF_CHEB, u) - q * _clenshaw(_CDF_CHEB_DU, u) * (0.5 * _U_PER_S) / s
    return q * q * (q * slope)


def perimeter_density(tau):
    """Density of the perimeter at tau in (0, 2*pi); tau may be a float or an array.

    The paper's density is (1/4pi) Integral_0^{tau/2} [E(k) - cos^2((tau-t)/2) K(k)]
    sin t / sqrt(sin(tau/2 - t) sin(tau/2)) dt with k = sin(t/2). It is
    evaluated as F' of perimeter_cdf's series F = q^4 R(u), with
    q = sin(tau/4), s = sqrt(2*pi - tau) and u = s * _U_PER_S - 1:
    f = q^3 cos(tau/4) R(u) - q^4 R'(u) _U_PER_S / (2 s), one expression on
    all of (0, 2*pi), R' being the Chebyshev derivative of the same
    coefficients. It is within 1.2e-12 relative of 30-digit mpmath (worst
    at 2*pi - 8.8e-5), 4.4e-13 of the orders-96/128 Gauss-Legendre rule
    over the integral on [0.3, 2*pi - 1e-9], 1.1e-14 of the Taylor series
    tau^3 (1/168 - tau^2/5280 + ...) from 1e-100 to 0.3, and 1.6e-15 from
    3 sqrt(2)/32 at pi. It is positive wherever tau^3/168 is (tau above
    about 7.5e-108), 0.0 below. It diverges like c/sqrt(2*pi - tau),
    c = 3 pi^2 / (sqrt(2) Gamma(1/4)^4) = 0.12116625978620570, which the
    series' -R'(-1) _U_PER_S / 2 matches to 1.7e-13. Floats and arrays are
    as for perimeter_cdf; 10^6 points take about 0.11 s on a 2-CPU host,
    a scalar call about 5 us.

    Like area_density it takes no tolerance: its error is the series'
    fixed bound, _DENSITY_SERIES_ERROR = 2e-12 times max(1, |f|), which
    the tests hold it to.
    """
    return _blocked(_perimeter_density_series, _law_argument(tau, "tau", ends=False))


def perimeter_cdf(tau):
    """P{perimeter <= tau} for tau in [0, 2*pi]; tau may be a float or an array.

    F(tau) = sin^4(tau/4) R(s), with s = sqrt(2*pi - tau) and R a fixed
    28-term Chebyshev series in s (_CDF_CHEB), summed by Clenshaw's
    recurrence and clipped to [0, 1]. Nothing is built at import or on the
    first call. The series is within 4e-15 absolute of 30-digit mpmath
    values from tau = 0.3 to 2*pi - 1e-12, and within 7.3e-15 relative of
    the tau^2 series F = tau^4 (1/672 - tau^2/31680 + tau^4/3843840 - ...)
    from 1e-75 to 0.3. tau = 0 and tau <= 1e-80 give 0.0 (the CDF is
    below 4e-323 there), and tau = 2*pi gives 1.0. A float gives a float
    and an array an array of the same shape, equal bit for bit to the
    scalar calls. 10^6 points in one call take about 0.1 s on a 2-CPU
    host, a scalar call about 6 us.

    Like area_cdf it takes no tolerance: its absolute error is the series'
    fixed bound, _CDF_SERIES_ERROR = 1e-14, which the tests hold it to.
    """
    return _blocked(_perimeter_cdf_series, _law_argument(tau, "tau"))


def _perimeter_density_integrand(x, v):
    """perimeter_density's integrand at t = x/2 (1 - v^2), times dt/dv = x v.

    Broadcasts x against v. With x/2 - t = x v^2 / 2, the factor
    v / sqrt(sin(x v^2 / 2)) stays bounded as v approaches 0. No law calls
    it: it is the paper's integral, kept as the tests' oracle for the
    series' derivative by a route, K and E by the AGM, that the series was
    not fitted from.
    """
    t = 0.5 * x * (1.0 - v * v)
    K, E = _agm_KE(np.sin(0.5 * t) ** 2, np.cos(0.5 * t))
    num = E - np.cos(0.25 * x * (1.0 + v * v)) ** 2 * K
    rad = np.sin(0.5 * x * v * v) * np.sin(0.5 * x)
    return num * np.sin(t) * (x * v) / (np.sqrt(rad) * (4.0 * math.pi))


def _perimeter_cdf_integrand(x, v):
    """The perimeter CDF's integrand at t = x/2 (1 - v^2), times dt/dv = x v.

    Broadcasts x against v. Swapping the order of integration in the CDF
    of perimeter_density leaves an inner integral in closed form, the
    fixed-side perimeter law _side_law at (x, t):

        F(x) = (1/2) Integral_0^{x/2} sin t P(tau <= x | c = t) dt.

    The law vanishes like sqrt(x/2 - t) at t = x/2, which the substitution
    makes smooth in v. No law calls it: it is the paper's integral, kept as
    the source of the series' coefficients and the tests' oracle.
    """
    t = 0.5 * x * (1.0 - v * v)
    return np.sin(t) * _side_law(*_side_arguments(x, t, np.sin, np.cos)) * (0.5 * x * v)


def _side_arguments(x, kappa, sin=math.sin, cos=math.cos):
    """_side_law's arguments at the fixed-side point (x, kappa); arrays take sin=np.sin, cos=np.cos."""
    k, kp = sin(0.5 * kappa), cos(0.5 * kappa)
    d = sin(0.5 * (x - kappa))
    return k * k, kp, cos(0.5 * (x - kappa)) / kp, sin(0.5 * x - kappa) * sin(0.5 * x) / (kp * kp), d * d


def _side_law(k2, kp, s, c2, d2):
    """The fixed-side perimeter law P(tau <= x | c = kappa) in elliptic integrals,

        {E(k) [K(k') - F(theta1, k')] - K(k) [(K - E)(k') - (F - E)(theta1, k')]} / pi
      = 1/2 - [E(k) F(theta1, k') - K(k) (F - E)(theta1, k')] / pi

    by Legendre's relation E(k) K(k') + E(k') K(k) - K(k) K(k') = pi/2
    (DLMF 19.7.1), with k = sin(kappa/2), k' = cos(kappa/2) and
    s = sin(theta1) = cos((x - kappa)/2) / k'. K(k) and E(k) come from one
    AGM on k2 = k^2 and k', F(theta1, k') = s R_F(c2, d2, 1) and
    (F - E)(theta1, k') = (k'^2/3) s^3 R_D(c2, d2, 1) from one Carlson
    duplication, where c2 = cos^2(theta1) = sin(x/2 - kappa) sin(x/2) / k'^2
    and d2 = 1 - k'^2 s^2 = sin^2((x - kappa)/2) come in these product
    forms, free of cancellation. Floats or arrays, with the same operations.
    """
    K, E = _agm_KE(k2, kp)
    rf, rd = carlson_rf_rd(c2, d2, 1.0)
    return 0.5 - s * (E * rf - K * (kp * kp / 3.0) * (s * s) * rd) / math.pi


def perimeter_cdf_grid(steps: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Perimeter CDF nodes (xs, perimeter_cdf(xs)) suitable for interpolation.

    The grid is uniform up to 2*pi - 0.1, then refined geometrically toward
    2*pi, where the density diverges and a uniform grid would make
    interpolation overshoot. The nodes are perimeter_cdf values, 256 of
    them in about 0.1 ms, but linear interpolation between them (np.interp)
    is not that accurate near 2*pi: between 2*pi - 0.1 and 2*pi - 0.05,
    where the density rises like c/sqrt(2*pi - tau), it is off by up to
    8.3e-4 (at tau ~ 6.21) for 256 and 600 steps alike. perimeter_cdf
    itself evaluates 10^6 sorted samples in about 0.1 s, so a KS distance
    needs no interpolant. The grid is the benchmark's KS reference, to be
    deleted under ROADMAP item 8.
    """
    xs = np.concatenate([
        np.linspace(0.0, TWO_PI - 0.1, max(steps - 25, 8)),
        TWO_PI - 0.1 * 0.5 ** np.arange(1, 25),
        [TWO_PI],
    ])
    return xs, perimeter_cdf(xs)


# ---------------------------------------------------------------------------
# The double integrals, by nested quadrature.


# Equal rows of [lo, pi] that _nested's outer integral starts from, so that
# the stragglers of different outer panels refine side by side. The 2-D
# routes and double integrals at the seed-5 conditional-routes benchmark
# points took a median 0.072 s with 4 rows, 0.070 s with 2, 0.112 s with 8
# and 0.092 s with 1 (2-CPU host, six runs each), but with 2 rows their
# slowest call took 2.8 ms against 1.9 ms with 4 (best of 7, seeds 1 and 5).
# With G7/K15 panels, integrate's heap as the outer engine took 1.7 times
# as long as 4 rows.
_OUTER_ROWS = 4


def _nested(f, bounds, lo, spec: QuadratureSpec, inner_singular: bool = False) -> np.ndarray:
    """For each k, the integral over u in [lo[k], pi] of the integral of f(k, p, t) dt over bounds(k, u).

    lo is a 1-D array, one element k per x of an array call (a float call
    passes one); u, a side or an angle, ends at pi. Both integrals run on
    _integrate_rows (Shampine, J. Comput. Appl. Math. 211, 2008). The outer rows are
    (k, quarter): _OUTER_ROWS equal rows of each [lo[k], pi]. The
    quarters are separate rows, each accepted on its own test, so each is
    held to spec.tol / _OUTER_ROWS, and together they are held to about spec.tol.
    Each carries spec's singular flags (at a row's interior end a flag
    only adds a u^2 map). Each outer step makes one inner call,
    whose rows are all the (k, u) nodes of that step, held to spec.tol / 10
    so that their errors stay below the outer tolerance, with both ends
    flagged singular when inner_singular. bounds(k, us) takes the 1-D
    arrays of a step's nodes, once per outer step, and returns (a, b, p):
    the inner bounds, floats or arrays that broadcast against us, and p,
    an array whose last axes run as the bounds' (us itself, or the
    constants of a row's change of variable stacked on a first axis).
    Bounds of shape (pieces, nodes) cut each node's integral into pieces,
    integrated as separate rows and summed, each held to 1/pieces of the
    node's tolerance, as the outer quarters are. f(k, p, t) gets, against
    rows of abscissae t, columns of the indices k and of p at those rows.
    Each k is a budget group of both calls: it gets the panels its scalar
    call would, whatever the others spend.

    Each step of either integral quarters the panels it refines (see
    _integrate_rows): AREA_SIDE_COORDS 1e-3 past the wedge edge at
    x = 0.85, the slowest benchmark probe, evaluates 18,543 Jacobian
    points in 7 steps as the two-angle integral at its polar point.
    """
    n = lo.size

    def outer(i, us):
        k = np.repeat(i.ravel() // _OUTER_ROWS, us.shape[1])
        a, b, p = bounds(k, us.ravel())
        shape = np.broadcast(a, b, k).shape  # (nodes,) or (pieces, nodes)
        a, b = np.full(shape, a).ravel(), np.full(shape, b).ravel()
        pieces = a.size // k.size
        rows, p = np.concatenate([k] * pieces), p.reshape(p.shape[:p.ndim - len(shape)] + a.shape)
        inner_spec = QuadratureSpec(spec.tol / (10.0 * pieces), inner_singular, inner_singular)
        values = _integrate_rows(lambda r, t: f(rows[r], p[..., r], t), a, b, inner_spec, rows)[0]
        return values.reshape(pieces, k.size).sum(axis=0).reshape(us.shape)

    # np.linspace(lo, pi, _OUTER_ROWS + 1) of each x, in its arithmetic.
    edges = np.arange(_OUTER_ROWS + 1) * ((math.pi - lo) / _OUTER_ROWS)[:, None] + lo[:, None]
    edges[:, -1] = math.pi
    outer_spec = QuadratureSpec(spec.tol / _OUTER_ROWS, spec.singular_left, spec.singular_right)
    values = _integrate_rows(outer, edges[:, :-1].ravel(), edges[:, 1:].ravel(), outer_spec,
                             np.repeat(np.arange(n), _OUTER_ROWS))[0]
    return values.reshape(n, _OUTER_ROWS).sum(axis=1)


def _radicand(half, sx, kappa, rho):
    """The square-root kinds' radicand at x, from half = x/2 and sx = sin(x/2), in factored form.

    Equals sin^2(kappa) sin^2(rho) - [cos(kappa) cos(rho) - cos(x - kappa - rho)]^2,
    but without the cancellation that the difference of squares suffers
    near its endpoint zeros. The polar map (x, kappa, rho) -> (2*pi - x,
    pi - kappa, pi - rho) flips two of its four factors, so the dual-area
    radicand in theta is the primal-perimeter one in rho. half and sx
    broadcast against kappa and rho.
    """
    return 4.0 * np.sin(half - rho) * np.sin(half - kappa) * sx * np.sin(rho + kappa - half)


def _sqrt_inner(x: np.ndarray):
    """Inner integral of the square-root double integrals, at the dual areas x: (f, bounds).

    It integrates -sin(x - kappa - t) sin(kappa) sin(t) / sqrt(radicand) dt
    over the theta-band [x/2, pi - kappa + x/2], whose ends a quadrature
    must flag as singular. The primal perimeter's rho-band [x/2 - kappa, x/2]
    is its polar image, so PERIMETER_PRIMAL runs it at _polar(x); this form
    takes x itself at the singular end x -> 0. x is a 1-D array; f(k, kappa, t)
    and bounds(k, kappa) take the index k of x, with x/2 and sin(x/2) of
    each x computed here once and gathered by k, and bounds hands kappa on
    to f as _nested's p.
    """
    half = 0.5 * x
    sx = np.sin(half)

    def f(k, kappa, t):
        h = half[k]
        rad = _radicand(h, sx[k], kappa, t)
        # The radicand can round to 0 or below at a node next to a band end,
        # and underflows at tiny x; the integrand is then not resolved.
        if not rad.min() > 0.0:  # NaN fails too
            at = float(x[np.broadcast_to(k, rad.shape)[~(rad > 0.0)][0]])
            raise ToleranceNotMet(f"the radicand at x = {at!r} rounds to 0 inside the band")
        return -np.sin(x[k] - kappa - t) * np.sin(kappa) * np.sin(t) / np.sqrt(rad)

    def bounds(k, kappa):
        h = half[k]
        return h, math.pi - (kappa - h), kappa

    return f, bounds


def elliptic_reduction_gap(x, kappa):
    """|quadrature - elliptic closed form| of the fixed-angle inner integral, 0 < x/2 < kappa < pi.

        Integral_{x/2}^{pi-kappa+x/2} -sin(x-kappa-theta) sin(kappa) sin(theta)
            / sqrt(radicand) d theta
      = [E(cos(kappa/2)) - sin^2((x-kappa)/2) K(cos(kappa/2))]
            / sqrt(sin(x/2) sin(kappa - x/2)) * sin(kappa)

    x and kappa are floats or arrays that broadcast; two floats give a
    float. The integrals at all points are the rows of one _integrate_rows
    call, at tol 1e-11 with both ends flagged, and each point gets the
    panel budget of its own call. Raises ValueError when any point lies
    outside the domain.

    The fixed-side reduction, the rho-integral over [x/2 - kappa, x/2] for
    0 < kappa < x/2 < pi against E(sin(kappa/2)) and K(sin(kappa/2)), is
    this equation at _polar_point(x, kappa), so it has no gap of its own.

    No symbolic proof of this evaluation is known; driving the gap below
    tolerance on a grid is the numerical settlement.
    """
    x, kappa = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(kappa, dtype=float))
    shape = x.shape
    x, kappa = x.ravel(), kappa.ravel()
    if not np.all((0.0 < x / 2) & (x / 2 < kappa) & (kappa < math.pi)):
        raise ValueError("requires 0 < x/2 < kappa < pi")
    z = np.cos(kappa / 2)
    rhs = ((ellip_E(z) - np.sin((x - kappa) / 2) ** 2 * ellip_K(z))
           / np.sqrt(np.sin(x / 2) * np.sin(kappa - x / 2)) * np.sin(kappa))
    f, bounds = _sqrt_inner(x)
    rows = np.arange(x.size)
    a, b, _ = bounds(rows, kappa)
    lhs = _integrate_rows(lambda r, t: f(r, kappa[r], t), a, b,
                          QuadratureSpec(1e-11, True, True), rows)[0]
    gap = np.abs(lhs - rhs)
    return float(gap[0]) if not shape else gap.reshape(shape)


def _smooth_density_inner(x: np.ndarray):
    """Inner integral of the arctan-form double integrals, at the dual perimeters x: (f, bounds).

    It runs over rho in [0, x/2] with s = sin(x/2 - rho), taken in
    t = rho / (x/2) over [0, 1], with every sine divided by sin(x/2),
    because at tiny x the squares of the sines underflow; where sin(x/2) is
    0 that raises OutOfDomain. The primal area's theta-form is its polar
    image, so AREA_PRIMAL runs it at _polar(x). The sin(kappa) density
    weight of the fixed element is folded in, so the outer integral is
    unweighted. x is a 1-D array, taken by index as in _sqrt_inner.
    """
    half = 0.5 * x
    sx = np.sin(half)
    if not sx.all():
        raise OutOfDomain(f"sin(x/2) is 0 at x = {float(x[sx == 0.0][0])!r}")
    weight = half / sx  # d rho / dt, over the 1/sin(x/2) that the divided sines leave out

    def f(k, kappa, t):
        h, s_x = half[k], sx[k]
        ck = np.cos(kappa)
        s, st = np.sin(h * (1.0 - t)) / s_x, np.sin(h * t) / s_x
        d = (1.0 - ck) + (1.0 + ck) * s ** 2
        return np.sin(kappa) * ((1.0 - ck) * (1.0 + ck) * weight[k]) * s * st / d ** 2

    return f, lambda k, kappa: (0.0, 1.0, kappa)


def density_via_double_integral(kind: DensityKind, x, tol: float = 1e-9):
    """The unconditional density by nested quadrature of its exact double integral.

    x is a float or an array in (0, 2*pi); a float gives a float and an
    array an array of its shape. The outer variable is the fixed element
    (side or angle), weighted by its own density sin(kappa)/2; the inner
    integral is the conditional density for that fixed element. Slower
    than the closed/1-D forms by construction; exists to cross-check them.
    PERIMETER_PRIMAL and AREA_PRIMAL are AREA_DUAL and PERIMETER_DUAL at
    _polar(x). An array runs as one _nested call whose outer rows are
    (x, quarter), and each x gets the panel budget of its own call. Each
    integral is accepted at tol * max(1, |value|), a bound that is absolute
    below 1, so a tiny density carries no relative guarantee: PERIMETER_PRIMAL
    at x = 1e-8 is 5.9522e-27, 2.4e-5 relative from x^3/168. Raises
    ToleranceNotMet, naming that x, where an integral at any x misses its
    tolerance, and where the square-root kinds' radicand rounds to 0
    inside a band (at tol 1e-16, tiny x or AREA_DUAL's x = 6.283185307179,
    5.9e-13 below 2*pi, say). Raises OutOfDomain, naming that x, where
    AREA_PRIMAL's x or PERIMETER_DUAL's 2*pi - x is below SMOOTH_KINDS_EDGE,
    2e-5: nearer that hard end these two returned wrong values with no error.
    Raises ValueError for a kind that is not a DensityKind.
    """
    if not isinstance(kind, DensityKind):
        raise ValueError(f"unknown density kind {kind!r}")
    x = _law_argument(x, "x", ends=False)
    xs = np.array(x, dtype=float).ravel()
    if kind is DensityKind.AREA_PRIMAL or kind is DensityKind.PERIMETER_DUAL:
        end = xs if kind is DensityKind.AREA_PRIMAL else _polar(xs)  # distance to the hard end
        if not (end >= SMOOTH_KINDS_EDGE).all():
            raise OutOfDomain(f"{kind.value} needs x at least {SMOOTH_KINDS_EDGE} from its hard "
                              f"end, got x = {float(xs[~(end >= SMOOTH_KINDS_EDGE)][0])!r}")
    if kind is DensityKind.PERIMETER_PRIMAL or kind is DensityKind.AREA_PRIMAL:
        xs = _polar(xs)
    # The inner integral of the two square-root kinds itself diverges like
    # an inverse square root as kappa approaches x/2 (visible in the
    # elliptic evaluation, whose denominator carries sqrt(sin|x/2 - kappa|)),
    # so the outer integral needs the endpoint substitution there too.
    if kind is DensityKind.PERIMETER_PRIMAL or kind is DensityKind.AREA_DUAL:
        f, bounds = _sqrt_inner(xs)
        lo, scale, ends = xs / 2, 1.0 / (4.0 * math.pi), (True, False)
    else:
        f, bounds = _smooth_density_inner(xs)
        lo, scale, ends = np.zeros_like(xs), 1.0 / (2.0 * math.pi), (False, False)
    # Both inner ends are flagged for every kind. The square-root kinds'
    # radicand vanishes at both band ends. The smooth kinds' integrand peaks
    # next to t = 1 as x nears 2*pi, which the unmapped rule missed by 1.5e-6
    # (AREA_PRIMAL at x = 1e-4).
    try:
        values = scale * _nested(f, bounds, lo, QuadratureSpec(tol, *ends), True)
    except ToleranceNotMet as err:  # each x is a budget group: name the x that missed
        if err.group is None:
            raise
        raise ToleranceNotMet(f"at x = {float(np.ravel(x)[err.group])!r}: {err}", err.result) from None
    return float(values[0]) if isinstance(x, float) else values.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# Region boundary curves. Each region law's CDF is the measure of the region
# on one side of a curve; the conditional routes take the measure, and
# montecarlo.region_coverage tests samples against the curve.


def _cot_arccos(x: float, kappa: float) -> Callable[[np.ndarray], np.ndarray]:
    """t -> arccos(clip(A + B cot t, -1, 1)); pi minus it bounds the fixed-angle area region.

    A = sin(x - kappa)/sin(kappa) and B = (cos(x - kappa) - cos(kappa))/sin(kappa).
    Only region_boundary's AREA_GIVEN_ANGLE curve uses it; the fixed-side
    perimeter curve is that curve's polar image. Unmasked: valid on the
    band where the curve lies strictly inside (0, pi). kappa must not be 0.
    """
    sk = math.sin(kappa)
    A = math.sin(x - kappa) / sk
    B = (math.cos(x - kappa) - math.cos(kappa)) / sk

    def curve(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.arccos(np.clip(A + B / np.tan(t), -1.0, 1.0))

    return curve


def _bisector_sine(x: float, kappa: float) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> sin(x/2) sin(kappa/2) / (sin(x/2) cos rho + cos(x/2) cos(kappa/2) sin rho).

    Minus its value is the sine of the bisector boundary theta = f(rho).
    Unmasked and unclipped; a zero denominator gives an infinity.
    """
    sx = math.sin(x / 2)
    cx = math.cos(x / 2)
    skh = math.sin(kappa / 2)
    ckh = math.cos(kappa / 2)

    def sine(rho):
        den = sx * np.cos(rho) + cx * ckh * np.sin(rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            return sx * skh / den

    return sine


def _check_x_kappa(x: float, kappa: float) -> None:
    if not 0.0 <= x <= TWO_PI:
        raise ValueError("x must lie in [0, 2*pi]")
    if not 0.0 <= kappa <= math.pi:
        raise ValueError("kappa must lie in [0, pi]")


def region_boundary(
    kind: ConditionalKind, x: float, kappa: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The boundary curve f of the region {statistic <= x} of a region law.

    The returned function takes an array of the curve's argument. The
    coordinates are those of montecarlo.SampleBatch: (theta, rho) =
    (alpha, b) given the side c = kappa, and (rho, theta) = (c, beta) given
    the angle alpha = kappa.

    - AREA_GIVEN_SIDE and AREA_GIVEN_ANGLE: the region is rho <= f(theta).
    - PERIMETER_GIVEN_SIDE and PERIMETER_GIVEN_ANGLE: it is theta <= f(rho), not written
      here: f(rho) = pi - g(pi - rho), g the partner's curve at _polar_point(x, kappa).
    - PERIMETER_BISECTOR, in the coordinates of identities.bisector_decompose:
      it is the band f(rho) <= theta <= pi - f(rho) with
      rho >= bisector_threshold(x, kappa).

    Outside the range of its argument over which the boundary runs, f is 0
    or pi, so that the same comparison still decides membership. The
    conditional CDF routes are the measures under the same curves. At
    kappa = 0 the perimeter curves take their limit, pi up to x/2 and 0
    above it (where x/2 is 0, the empty region's), from the area curves' exact kappa = pi
    limit. x outside [0, 2*pi], kappa outside [0, pi] and other kinds raise ValueError.
    The perimeter curves take x as 2*pi - x: PERIMETER_GIVEN_ANGLE's at (1e-10, 1) is
    2.14159059 at rho = 0, not pi - 1, and from x = 3e-16 down both are 0 everywhere.
    """
    _check_x_kappa(x, kappa)
    if kind in (ConditionalKind.PERIMETER_GIVEN_SIDE, ConditionalKind.PERIMETER_GIVEN_ANGLE):
        # The polar image of the partner's area region.
        f = region_boundary(CONDITIONAL_LAWS[kind].partner, *_polar_point(x, kappa))
        return lambda t: math.pi - f(math.pi - np.asarray(t, dtype=float))
    if kind is ConditionalKind.AREA_GIVEN_SIDE:
        sx = math.sin(x / 2)
        tk = math.tan(kappa / 2) if kappa < math.pi else math.inf  # exact: tan(pi/2) is 1.6e16

        def curve(theta):
            theta = np.asarray(theta, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = sx / (tk * np.sin(theta - x / 2))
                mid = 2.0 * np.arctan(t)
            return np.where(theta < x / 2, math.pi, np.nan_to_num(mid, nan=math.pi))

        return curve

    if kind is ConditionalKind.PERIMETER_BISECTOR:
        sine = _bisector_sine(x, kappa)

        def curve(rho):
            # A 0/0 sine, where sin(x/2) sin(kappa/2) is 0, is 0 as at its neighbours.
            f = np.arcsin(np.clip(-sine(np.asarray(rho, dtype=float)), -1.0, 1.0))
            return np.nan_to_num(f, nan=0.0)

        return curve

    if kind is not ConditionalKind.AREA_GIVEN_ANGLE:
        raise ValueError(f"no region boundary for {kind}")
    if kappa <= x / 2:  # area <= 2*alpha: the region is everything
        return lambda t: np.full_like(np.asarray(t, dtype=float), math.pi)
    band = _cot_arccos(x, kappa)
    lo, hi = x / 2, math.pi - (kappa - x / 2)

    def curve(t):
        t = np.asarray(t, dtype=float)
        mid = np.where(t > hi, 0.0, math.pi - band(t))
        # The curve is NaN only at t = lo, from B / tan(0) = 0/0 where x/2
        # is 0. It takes the value pi of the curve below lo.
        return np.where(t < lo, math.pi, np.nan_to_num(mid, nan=math.pi))

    return curve


# ---------------------------------------------------------------------------
# Conditional CDFs.


def _arctan_band(x_half: float, w):
    """Integral_0^{x_half} dt / (1 + (w^2-1) sin^2 t), for x_half in [0, pi].

    w may be a float or an array.
    """
    t = np.tan(x_half)
    if x_half < math.pi / 2:
        return np.arctan(w * t) / w
    if x_half > math.pi / 2:
        return (math.pi + np.arctan(w * t)) / w
    return (math.pi / 2) / w


def _cond_area_given_side(x: float, kappa: float) -> float:
    sx = math.sin(x / 2)
    tk = math.tan(kappa / 2)
    if sx == 0.0:  # x/2 underflows to 0: x is the smallest subnormal
        if kappa == 0.0:
            return 1.0  # the kappa -> 0 limit, 1 at every x > 0
        # The law depends on tan(kappa/2) / (x/2). Unless that ratio
        # overflows, as it does from kappa ~ 1e-15 up, no route resolves it.
        if math.isfinite(2.0 * tk / x):
            raise OutOfDomain(f"area given side at x = {x!r}, kappa = {kappa!r} "
                              "is below the resolution of the routes")
    omega = tk / sx if sx > 0.0 else math.inf
    if math.isinf(omega):  # the bracket vanishes
        return x / TWO_PI
    w = np.hypot(1.0, omega)
    bracket = float(math.pi / w - _arctan_band(x / 2, w))
    return (x + 2.0 * bracket) / TWO_PI


def _cond_perimeter_given_angle(x: float, kappa: float) -> float:
    den = math.tan(kappa / 2) * math.sin(x / 2)
    w = float(np.hypot(1.0, 1.0 / den)) if den > 0.0 else math.inf
    if not math.isfinite(w):  # kappa = 0, or den below ~1e-308: the kappa -> 0 limit
        return x / TWO_PI
    band = float(_arctan_band(x / 2, w))
    return (x - 2.0 * band) / TWO_PI


def _cond_perimeter_given_side(x: float, kappa: float) -> float:
    if kappa >= x / 2:  # tau >= 2c always
        return 0.0
    args = _side_arguments(x, kappa)
    # The law is at most P(b <= x/2) = sin^2(x/4) <= d2; where d2 underflows, so does the law.
    return _side_law(*args) if args[4] > 0.0 else 0.0


def _cond_area_given_angle(x: float, kappa: float) -> float:
    """1 minus _side_law at _polar_point(x, kappa), its arguments written from x and kappa themselves.

    At the polar point k = cos(kappa/2), k' = sin(kappa/2), s = sin((x - kappa)/2) / k',
    c2 = [sin(kappa - x/2) / k'] [sin(x/2) / k'] and d2 = cos^2((x - kappa)/2). No square of
    k' is formed, so they keep x/kappa where both are small and the law depends on that
    ratio; 2*pi - x and pi - kappa would round it away.
    """
    if kappa <= x / 2:  # area <= 2*alpha always
        return 1.0
    if kappa < 1e-300:  # the law is a function of x/kappa there; 2^600 scales both exactly
        x, kappa = x * 2.0 ** 600, kappa * 2.0 ** 600
    k, kp, d = math.cos(0.5 * kappa), math.sin(0.5 * kappa), math.cos(0.5 * (x - kappa))
    return 1.0 - _side_law(k * k, kp, math.sin(0.5 * (x - kappa)) / kp,
                           (math.sin(kappa - 0.5 * x) / kp) * (math.sin(0.5 * x) / kp), d * d)


def median_region_cos(x: float, kappa: float, theta) -> np.ndarray:
    """cos of the median-construction boundary curve, continuous across x = pi.

    Multiplying the two sign branches of the raw arccos argument through
    by cos^2(x/2) merges them into one expression (the branch sign always
    pairs with |cos(x/2)|), removing both the branch switch and the
    csc^2(theta) blowups at the ends of the theta range.
    """
    theta = np.asarray(theta, dtype=float)
    s2 = math.sin(x / 2) ** 2
    c2 = math.cos(x / 2)
    kh = kappa / 2
    st = np.sin(theta)
    root = np.sqrt(c2 * c2 * st * st + s2)
    num = math.cos(kh) * s2 - math.sin(kh) ** 2 * st * c2 * root
    den = math.sin(kh) ** 2 * st * st * c2 * c2 + s2
    return -num / den


def _cond_area_median(x: float, kappa: float, tol: float) -> float:
    """The fixed-side area law by the median construction: an integral over theta in [0, pi].

    It is 1 minus _cond_perimeter_bisector at _polar_point(x, kappa), but
    the two are different integrals, over theta here and over rho above
    the bisector threshold there, so both stay, each the other's check
    (on a 15 x 9 grid they agree to 6.0e-13 at tol 1e-9).
    """
    if math.sin(x / 2) ** 2 < sys.float_info.min:
        # Below x ~ 3e-154 sin^2(x/2) is subnormal, and the boundary cosine
        # loses its precision (0/0 where sin^2(kappa/2) underflows too). The
        # fixed-side closed form, which divides by sin(x/2) itself, holds.
        return _cond_area_given_side(x, kappa)

    def f(theta):
        return 1.0 - median_region_cos(x, kappa, theta)

    res = integrate(f, 0.0, math.pi, QuadratureSpec(tol))
    return res.value / TWO_PI


def _cond_perimeter_bisector(x: float, kappa: float, tol: float) -> float:
    """The fixed-angle perimeter law by the bisector construction, an integral over rho."""
    thres = bisector_threshold(x, kappa)
    sine = _bisector_sine(x, kappa)

    def f(rho):
        r = sine(rho)
        return np.sqrt(np.maximum(0.0, 1.0 - r * r))

    res = integrate(f, thres, math.pi, QuadratureSpec(tol, singular_left=True))
    return res.value / math.pi


def _cond_2d(x: float, kappa: float, tol: float) -> float:
    """The two-angle route of the fixed-side perimeter law, by nested Jacobian-weighted quadrature.

    The Jacobian is integrated over psi in [0, h(phi)] and then over phi in
    [0, pi] by _nested, both in tanh-stretched variables (Vinokur,
    J. Comput. Phys. 50, 1983), so that G10/K21 panels of equal width in
    the new variable resolve the two boundary layers:

    - The inner integral at phi = u is cut at psi = m = min(u, h) into
      the pieces [0, m] and [m, h], which _nested integrates as separate
      rows. Next to the corners (0, 0) and (0, pi) the Jacobian is
      homogeneous of degree -1, about sin^2(kappa) u v / (u^2 +
      2 cos(kappa) u v + v^2)^(3/2) at (0, 0): it peaks within about u of
      a corner, and as kappa nears pi the peak narrows to a ridge along
      psi = phi about u sin(kappa) wide. A piece of length l runs over s
      in [0, 1] with psi = start + l w(s), w(s) = [1 + tanh(beta (2s - 1))
      / tanh(beta)] / 2, which clusters nodes at both of its ends; beta =
      max(log1p(l / (sin(kappa) min(u, pi - u))) / 2, 0.05) makes the
      first panel there about u sin(kappa) wide.
    - The outer integral runs over s in [0, pi] with
      u = pi [1 + tanh(b0 (s/pi - 1)) / tanh(b0)], which clusters nodes
      at u = 0, where h falls from pi to 0 within about u* =
      2 atan(sin(x/2 - kappa) / sin(x/2)), the node where h = pi/2:
      b0 = log1p(pi / u*) / 2. As kappa nears x/2, u* shrinks to 0.

    Both maps are written as sinh / cosh products, with their derivatives
    through sech^2, so nothing cancels where tanh saturates. bounds takes
    h(u) from one array call of solved_forms per outer step and returns
    each piece's map constants with it; an empty piece is not evaluated.
    A call that integrates took a median 0.59 ms (PERIMETER_ANGLE_COORDS)
    and 0.62 ms (AREA_SIDE_COORDS), at most 1.7 ms, on the seed-1
    conditional-routes benchmark points, against 0.71, 0.71 and 1.8 ms
    with G7/K15 panels (best of 30, 2-CPU host, two runs each). With
    G7/K15 panels the unstretched routes took 1.2 times as long at the
    median and 1.7 times at the slowest point. 1e-9 (relative) from the wedge
    edge kappa = x/2 the unstretched routes were up to 2.0e-5 off. Without
    the cut at psi = phi a row could pass its test on panels whose nodes
    all missed the ridge: 1.4e-8 off at x = 6.2, 1e-9 below the edge.
    """
    if kappa >= x / 2:
        return 0.0
    sin_k = math.sin(kappa)
    # u* < pi, so b0 > log(2) / 2: a floor such as the inner map's 0.05 would never bind.
    b0 = 0.5 * math.log1p(math.pi / (2.0 * math.atan(math.sin(x / 2 - kappa) / math.sin(x / 2))))
    u_scale, du_scale = math.pi / math.sinh(b0), b0 / math.tanh(b0)

    def bounds(_, s):
        z = (b0 / math.pi) * s
        c = np.cosh(z - b0)
        u = u_scale * np.sinh(z) / c  # u(s), and du/ds below
        cos_psi = solved_forms(SolvedFormKind.ANGLE_PSI, u, x, kappa)
        h = np.arccos(np.clip(cos_psi, -1.0, 1.0))  # the boundary psi = h(phi)
        m = np.minimum(u, h)
        start, length = np.stack([np.zeros_like(m), m]), np.stack([m, h - m])  # the two pieces
        with np.errstate(divide="ignore", invalid="ignore"):  # u rounded to pi: h is 0 there
            beta = np.maximum(0.5 * np.log1p(length / (sin_k * np.minimum(u, math.pi - u))), 0.05)
        # psi = start + scale sinh(2 beta s) / cosh(beta (2s - 1)), and
        # d psi/ds du/ds = weight / cosh^2(beta (2s - 1)).
        scale = length / (2.0 * np.sinh(beta))
        weight = length * beta * du_scale / (np.tanh(beta) * c * c)
        return 0.0, np.where(length > 0.0, 1.0, 0.0), np.stack([np.stack([u, u]), start, beta,
                                                                scale, weight])

    def f(_, p, s):
        u, start, beta, scale, weight = p
        z = 2.0 * beta * s
        c = np.cosh(z - beta)
        return angle_jacobian(u, start + scale * np.sinh(z) / c, kappa) * (weight / (c * c))

    value = _nested(f, bounds, np.zeros(1), QuadratureSpec(tol))
    return float(value[0]) / TWO_PI


class ConditionalLaw(NamedTuple):
    """A conditional kind's row of CONDITIONAL_LAWS."""

    element: str  # the fixed element kappa: "side" (the side c) or "angle" (the angle alpha)
    statistic: str  # "sigma" (area) or "tau" (perimeter), as montecarlo.SampleBatch names them
    partner: ConditionalKind  # P(x, kappa) = 1 - P_partner(_polar_point(x, kappa))
    closed_form: ConditionalKind  # the closed-form route of the same law; itself for a closed form
    route: Callable[..., float]  # (x, kappa) for a closed form, (x, kappa, tol) for an integral
    # conditional_cdf raises OutOfDomain for kappa within this of 0 or pi; the
    # 2-D routes' COORDS_KAPPA_EDGE serves tol >= 1e-11.
    kappa_edge: float = 0.0

    @property
    def curve_takes_u(self) -> bool:
        """Whether region_boundary's curve takes SampleBatch.coord_u, not coord_v."""
        return (self.statistic == "sigma") == (self.element == "side")


# Each kind once: closed forms, then integral routes; each group two side laws, then their partners.
CONDITIONAL_LAWS: dict[ConditionalKind, ConditionalLaw] = {
    ConditionalKind.AREA_GIVEN_SIDE: ConditionalLaw(
        "side", "sigma", ConditionalKind.PERIMETER_GIVEN_ANGLE, ConditionalKind.AREA_GIVEN_SIDE,
        _cond_area_given_side),
    ConditionalKind.PERIMETER_GIVEN_SIDE: ConditionalLaw(
        "side", "tau", ConditionalKind.AREA_GIVEN_ANGLE, ConditionalKind.PERIMETER_GIVEN_SIDE,
        _cond_perimeter_given_side),
    ConditionalKind.PERIMETER_GIVEN_ANGLE: ConditionalLaw(
        "angle", "tau", ConditionalKind.AREA_GIVEN_SIDE, ConditionalKind.PERIMETER_GIVEN_ANGLE,
        _cond_perimeter_given_angle),
    ConditionalKind.AREA_GIVEN_ANGLE: ConditionalLaw(
        "angle", "sigma", ConditionalKind.PERIMETER_GIVEN_SIDE, ConditionalKind.AREA_GIVEN_ANGLE,
        _cond_area_given_angle),
    ConditionalKind.AREA_MEDIAN: ConditionalLaw(
        "side", "sigma", ConditionalKind.PERIMETER_BISECTOR, ConditionalKind.AREA_GIVEN_SIDE,
        _cond_area_median),
    ConditionalKind.PERIMETER_ANGLE_COORDS: ConditionalLaw(
        "side", "tau", ConditionalKind.AREA_SIDE_COORDS, ConditionalKind.PERIMETER_GIVEN_SIDE,
        _cond_2d, COORDS_KAPPA_EDGE),
    ConditionalKind.PERIMETER_BISECTOR: ConditionalLaw(
        "angle", "tau", ConditionalKind.AREA_MEDIAN, ConditionalKind.PERIMETER_GIVEN_ANGLE,
        _cond_perimeter_bisector),
    ConditionalKind.AREA_SIDE_COORDS: ConditionalLaw(
        "angle", "sigma", ConditionalKind.PERIMETER_ANGLE_COORDS, ConditionalKind.AREA_GIVEN_ANGLE,
        lambda x, kappa, tol: 1.0 - _cond_2d(*_polar_point(x, kappa), tol), COORDS_KAPPA_EDGE),
}


def conditional_cdf(
    kind: ConditionalKind, x: float, kappa: float, tol: float = 1e-9
) -> float:
    """P{statistic <= x | fixed element = kappa} by the route of kind.

    CONDITIONAL_LAWS gives each kind's fixed element, statistic, polar
    partner and closed form, which the tests hold every route to. A closed
    form runs no quadrature and ignores tol; the elliptic pair (_side_law)
    is within 1.1e-15 absolute of 50-digit mpmath on a 45 x 47 grid and
    next to the kappa = x/2 edge. The integral routes are accurate to
    tol * max(1, |value|). Both bounds are absolute, so a tiny probability
    carries no relative guarantee: PERIMETER_GIVEN_SIDE at (1e-4, 2e-5) is
    3.8729758e-10, 1.9e-6 relative from mpmath. Each route's kappa domain
    comes from its row: for 0 < x < 2*pi a kappa within kappa_edge of 0 or
    pi raises OutOfDomain. An unknown kind, and a tol that is not positive
    (NaN included), raise ValueError.
    """
    law = CONDITIONAL_LAWS.get(kind)
    if law is None:
        raise ValueError(f"unknown conditional kind {kind!r}")
    _check_x_kappa(x, kappa)
    _check_tol(tol)
    if x <= 0.0:
        return 0.0
    if x >= TWO_PI:
        return 1.0
    if not law.kappa_edge <= kappa <= math.pi - law.kappa_edge:
        raise OutOfDomain(f"{kind.value} needs kappa in [{law.kappa_edge}, "
                          f"pi - {law.kappa_edge}], got {kappa!r}")
    val = law.route(x, kappa) if law.closed_form is kind else law.route(x, kappa, tol)
    return min(1.0, max(0.0, val))
