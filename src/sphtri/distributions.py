"""Analytic area/perimeter distributions of random spherical triangles.

The area sigma of a triangle with independent uniform vertices has a
closed-form density; the perimeter tau has a one-dimensional
elliptic-integral density. Both are also available through exact double
integrals over a (coordinate, fixed-element) pair, and conditionally on a
fixed side or fixed angle through several independent routes. The
redundant routes exist on purpose: agreement between them (and with the
Monte Carlo oracle in ``montecarlo``) is the defense against
transcription errors in the long formulas. Copies of one formula are not
such redundancy: each region law's boundary curve is written once, in
region_boundary and its two helpers, and both its conditional CDF route
and the Monte Carlo region test use it.

Sign convention: the area-density closed form is sometimes quoted with
the opposite overall sign, which makes it negative; this module fixes the
sign so the density is nonnegative and integrates to 1, and the test
suite pins both properties.
"""

from __future__ import annotations

import enum
import io
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coords import angle_jacobian, side_jacobian
from .identities import SolvedFormKind, bisector_threshold, solved_forms
from .errors import OutOfDomain, ToleranceNotMet
from .quadrature import (
    QuadratureResult, QuadratureSpec, _agm_KE, _check_tol, _integrate_rows, carlson_rf_rd,
    ellip_E, ellip_K, integrate,
)

TWO_PI = 2.0 * math.pi
COORDS_KAPPA_EDGE = 1e-2  # the 2-D Jacobian routes need kappa this far from 0 and pi


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


class EllipticReduction(enum.Enum):
    """The two inner integrals with known elliptic-integral evaluations."""

    PERIMETER_GIVEN_SIDE = "perimeter_given_side"
    AREA_GIVEN_ANGLE = "area_given_angle"


@dataclass(frozen=True)
class DensityCurve:
    """A sampled (x, value) table of a density or CDF, as float arrays."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("xs", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        xs = self.xs
        if xs.shape != self.values.shape or xs.ndim != 1:
            raise ValueError("xs and values must be 1-D of equal length")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if xs.size and (xs[0] < -1e-12 or xs[-1] > TWO_PI + 1e-12):
            raise ValueError("xs must lie within [0, 2*pi]")
        if np.any(self.values < -1e-12):
            raise ValueError("curve values must be nonnegative")

    def to_csv_string(self) -> str:
        """`x,value` rows at full round-trip precision (17 digits), under that header."""
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([self.xs, self.values]), fmt="%.17g",
                   delimiter=",", header="x,value", comments="")
        return buf.getvalue()


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


def _law_argument(value, name: str = "sigma"):
    """value as a float (from a scalar) or a float array, checked to lie in [0, 2*pi].

    A scalar is checked in Python: a numpy ufunc on it costs more than the series.
    """
    x = np.asarray(value, dtype=float)
    if x.ndim == 0:
        x = float(x)
        inside = 0.0 <= x <= TWO_PI
    else:
        inside = ((x >= 0.0) & (x <= TWO_PI)).all()
    if not inside:
        raise ValueError(f"{name} must lie in [0, 2*pi]")
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
    x = _law_argument(sigma)
    d = x - math.pi
    z = d * d
    s = d * _horner(_SIN_REM, z)
    n_ratio = -0.5 - (z - TWO_PI * d - 6.0) * _horner(_COS_REM, z) + 6.0 * (d - math.pi) * s
    q = _horner(_SINC_HALF, z)  # sin(d/2) / (d/2)
    q2 = q * q
    v = -n_ratio / (math.pi * (q2 * q2))  # 16 pi sin^4(d/2) / d^4
    return float(v) if isinstance(x, float) else v


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
    x = _law_argument(y)
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
    v = -32.0 * np.sin(0.5 * x) * g_ratio / (q * q * q)
    return float(v) if isinstance(x, float) else v


def area_cdf(sigma):
    """P{area <= sigma} in closed form, (sigma + crofton_kernel(sigma)) / (2*pi).

    sigma may be a float or an array, as for area_density. F(0) = 0
    exactly (the kernel carries a factor sin(sigma/2)) and F(2*pi) = 1.
    It is within 1e-15 relative of an adaptive integral of area_density
    from sigma = 1e-8 to 2*pi - 1e-8.
    """
    x = _law_argument(sigma)
    v = (x + crofton_kernel(x)) / TWO_PI
    if isinstance(x, float):
        return 1.0 if x >= TWO_PI else min(1.0, max(0.0, v))
    return np.where(x >= TWO_PI, 1.0, np.clip(v, 0.0, 1.0))


# Below this tau the perimeter density takes its tau^2 series, and the
# CDF series' nodes take its integral: there the elliptic integrands
# cancel (E - cos^2 K at small t). At 0.3 the sixth term is 2.6e-16 of
# the first.
_SERIES_BELOW = 0.3
# The density's Taylor coefficients, f = tau^3 * sum_j a_j tau^(2j), found
# by PSLQ on 90-digit values. The six-term series is within 8e-19 relative
# of 40-digit mpmath at 0.3 and 3.7e-16 at 0.5.
_DENSITY_TAU2 = (1 / 168, -1 / 5280, 1 / 480480, -461 / 42664527360,
                 59 / 1186167628800, 1 / 3855044793600)


def perimeter_density(tau, tol: float = 1e-12):
    """Density of the perimeter at tau in (0, 2*pi); tau may be a float or an array.

    The density is the one-dimensional integral

        f(tau) = (1/4pi) Integral_0^{tau/2} [E(k) - cos^2((tau-t)/2) K(k)]
                 sin t / sqrt(sin(tau/2 - t) sin(tau/2)) dt,  k = sin(t/2),

    whose radicand cos^2(t/2) - cos^2((tau-t)/2) is written in product
    form. Under t = tau/2 (1 - v^2) the inverse-square-root end at
    t = tau/2 becomes smooth, and fixed Gauss-Legendre rules of orders 96
    and 128 in v serve every tau at once; K and E come from one AGM pass
    started at k' = cos(t/2), which stays accurate as t approaches pi. The
    value of the higher order is returned; where the two orders differ by
    more than tol * max(1, |value|) at some tau, ToleranceNotMet is
    raised naming that tau and the gap. Measured against the adaptive
    integral at tol 1e-14: within 8e-14 relative for tau from 0.3 to
    2*pi - 1e-9, and 6e-17 from 3*sqrt(2)/32 at pi.

    Below tau = 0.3, where E - cos^2 K cancels, the value is the series
    tau^3 (1/168 - tau^2/5280 + tau^4/480480 - 461 tau^6/42664527360 + ...)
    to six terms, which is exact to rounding there and needs no tol; the
    two routes agree to 5e-16 relative at 0.3. It is positive wherever
    tau^3/168 is (tau above about 7.5e-108) and underflows to 0.0 below.
    A float gives a float and an array an array of the same shape,
    equal bit for bit to the scalar calls. Diverges like
    c/sqrt(2*pi - tau) as tau approaches 2*pi, with
    c = 3 pi^2 / (sqrt(2) Gamma(1/4)^4) = 0.12116625978620570
    (so 1 - CDF ~ 2c sqrt(2*pi - tau)).
    """
    x = np.asarray(tau, dtype=float)
    if not np.all((x > 0.0) & (x < TWO_PI)):
        raise ValueError("tau must lie strictly inside (0, 2*pi)")
    flat = x.ravel()
    small = flat < _SERIES_BELOW
    vals = np.empty(flat.size)
    z = flat[small]
    vals[small] = z * z * z * _horner(_DENSITY_TAU2, z * z)
    vals[~small] = _two_order_rule(_perimeter_density_integrand, flat[~small], _DENSITY_ORDERS, tol)
    return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


def _perimeter_density_integrand(x, v):
    """perimeter_density's integrand at t = x/2 (1 - v^2), times dt/dv = x v.

    Broadcasts x against v. With x/2 - t = x v^2 / 2, the factor
    v / sqrt(sin(x v^2 / 2)) stays bounded as v approaches 0.
    """
    t = 0.5 * x * (1.0 - v * v)
    K, E = _agm_KE(np.sin(0.5 * t) ** 2, np.cos(0.5 * t))
    num = E - np.cos(0.25 * x * (1.0 + v * v)) ** 2 * K
    rad = np.sin(0.5 * x * v * v) * np.sin(0.5 * x)
    return num * np.sin(t) * (x * v) / (np.sqrt(rad) * (4.0 * math.pi))


def _perimeter_cdf_integrand(x, v):
    """The perimeter CDF's integrand at t = x/2 (1 - v^2), times dt/dv = x v.

    Broadcasts x against v. Swapping the order of integration in the CDF
    of perimeter_density leaves an inner integral in closed form:

        F(x) = (1/2pi) Integral_0^{x/2} sin t {E(k) [K(k') - F(theta1, k')]
               - K(k) [(K(k') - E(k')) - (F(theta1, k') - E(theta1, k'))]} dt

    with moduli k = sin(t/2), k' = cos(t/2) and
    sin(theta1) = cos((x-t)/2) / cos(t/2). Every elliptic integral is
    written through Carlson's forms, whose arguments then take product
    forms free of cancellation: cos^2(theta1) = sin(x/2 - t) sin(x/2) / k'^2
    and 1 - k'^2 sin^2(theta1) = sin^2((x-t)/2). The bracket vanishes like
    sqrt(x/2 - t) at t = x/2, which the substitution makes smooth in v.

    perimeter_cdf does not call it: this is the paper's integral, kept as
    the source of the series' coefficients and as the tests' oracle.
    """
    t = 0.5 * x * (1.0 - v * v)
    k2 = np.sin(0.5 * t) ** 2
    kp = np.cos(0.5 * t)
    kp2 = kp * kp
    s = np.cos(0.5 * (x - t)) / kp
    c2 = np.sin(0.5 * x - t) * np.sin(0.5 * x) / kp2
    d2 = np.sin(0.5 * (x - t)) ** 2
    zero = np.zeros_like(c2)
    # One duplication for the three argument pairs: modulus k (complete),
    # modulus k' (complete) and modulus k' at amplitude theta1.
    rf, rd = carlson_rf_rd(np.stack([zero, zero, c2]), np.stack([kp2 + zero, k2 + zero, d2]), 1.0)
    K_k = rf[0]
    E_k = rf[0] - (k2 / 3.0) * rd[0]
    k_minus_f = rf[1] - s * rf[2]  # K(k') - F(theta1, k')
    second = (kp2 / 3.0) * (rd[1] - s ** 3 * rd[2])  # (K - E)(k') - (F - E)(theta1, k')
    return np.sin(t) * (E_k * k_minus_f - K_k * second) / TWO_PI * (x * v)


# F(tau) <= P{b <= tau/2, c <= tau/2} = sin^4(tau/4), which is below
# 4e-323 (a few subnormal units) for tau up to this; the CDF is 0.0 there.
_CDF_ZERO_BELOW = 1e-80
# 2*pi - TWO_PI, so that s is measured from the true 2*pi.
_TWO_PI_SHORTFALL = 2.4492935982947064e-16
_U_PER_S = 2.0 / math.sqrt(TWO_PI)  # u = s * _U_PER_S - 1 maps s in [0, sqrt(2*pi)] onto [-1, 1]
# Chebyshev coefficients, in u, of
# R(s) = F(tau) / sin^4(tau/4) with s = sqrt(2*pi - tau). The factor
# carries F's tau^4 start and s its sqrt(2*pi - tau) end, so R is analytic
# on the whole interval. They interpolate R at the 28 Chebyshev nodes
# u_j = cos(pi (j + 1/2) / 28), whose values are the tau^2 series of
# _DENSITY_TAU2 integrated below _SERIES_BELOW and the orders-96/128
# rule over _perimeter_cdf_integrand above it;
# tests/test_distributions.py::perimeter_cdf_series_coefficients
# regenerates them.
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
# The series' absolute error bound: measured at most 4e-15 against
# 30-digit mpmath values (45 points) and against the orders-96/128 rule
# (4000 points in [0.3, 2*pi - 1e-12]).
_CDF_SERIES_ERROR = 1e-14
# Points per chunk of an array call, which bounds the working memory.
_SERIES_BATCH = 1 << 14


def _clenshaw(coeffs: tuple[float, ...], u):
    """Sum of coeffs[k] T_k(u) by Clenshaw's recurrence; u may be a float or an array."""
    u2 = u + u
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + u2 * b1 - b2, b1
    return coeffs[0] + u * b1 - b2


def _perimeter_cdf_series(x):
    """The perimeter CDF on a float or an array of x in [0, 2*pi], ends included."""
    s = np.sqrt((TWO_PI - x) + _TWO_PI_SHORTFALL)
    q = np.sin(0.25 * x)
    scalar = isinstance(x, float)
    if scalar:  # the same arithmetic on Python floats, a third of the time of numpy scalars
        s, q = float(s), float(q)
    q2 = q * q
    v = q2 * q2 * _clenshaw(_CDF_CHEB, s * _U_PER_S - 1.0)
    if scalar:
        return 1.0 if x >= TWO_PI else 0.0 if x <= _CDF_ZERO_BELOW else min(1.0, max(0.0, v))
    return np.where(x >= TWO_PI, 1.0, np.where(x <= _CDF_ZERO_BELOW, 0.0, np.clip(v, 0.0, 1.0)))


def perimeter_cdf(tau, tol: float = 1e-9):
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

    tol bounds the absolute error as for the quadratures: the series is
    held to _CDF_SERIES_ERROR = 1e-14, so a tol below that raises
    ToleranceNotMet for any tau strictly between the exact ends, naming
    the first such tau, with its value and the bound attached. A tol that
    is not positive (NaN included) raises ValueError.
    """
    _check_tol(tol)
    x = _law_argument(tau, "tau")
    if tol < _CDF_SERIES_ERROR:
        flat = np.ravel(x)
        inside = np.flatnonzero((flat > _CDF_ZERO_BELOW) & (flat < TWO_PI))
        if inside.size:
            at = float(flat[inside[0]])
            raise ToleranceNotMet(f"the perimeter CDF series is accurate to {_CDF_SERIES_ERROR:.0e}, "
                                  f"above tol {tol:.1e}, at tau = {at!r}",
                                  QuadratureResult(_perimeter_cdf_series(at), _CDF_SERIES_ERROR, 0))
    if isinstance(x, float):
        return _perimeter_cdf_series(x)
    flat = x.ravel()
    vals = np.empty(flat.size)
    for start in range(0, flat.size, _SERIES_BATCH):
        vals[start:start + _SERIES_BATCH] = _perimeter_cdf_series(flat[start:start + _SERIES_BATCH])
    return vals.reshape(x.shape)


# Gauss-Legendre orders of the perimeter density: the higher order gives
# the values, and its gap to the lower one is checked against the
# tolerance. K's logarithm at t -> pi enters the interval as tau
# approaches 2*pi: there the relative gap at tol 1e-12 measured 2.5e-11
# for orders 48/64, 3.7e-12 for 64/96 and 2.0e-13 for 96/128.
_DENSITY_ORDERS = (96, 128)
# Integrand elements per batch, which bounds the working memory.
_RULE_BATCH = 2048


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


@lru_cache(maxsize=None)
def _legendre_pair(orders: tuple[int, int]):
    """Two Gauss-Legendre rules on [0, 1]: their nodes concatenated, and each rule's weights.

    Computed on first use and shared read-only.
    """
    (v_lo, w_lo), (v_hi, w_hi) = (_legendre_01(n) for n in orders)
    rule = (np.concatenate([v_lo, v_hi]), w_lo, w_hi)
    for a in rule:
        a.setflags(write=False)
    return rule


def _two_order_rule(integrand, xs: np.ndarray, orders: tuple[int, int], tol: float) -> np.ndarray:
    """Integral_0^1 integrand(x, v) dv for every x of the 1-D array xs.

    Both Gauss-Legendre orders are evaluated together, on as many rows of
    xs at a time as fit in _RULE_BATCH elements; the higher order's values
    are returned. Raises ToleranceNotMet at the first x where the orders
    differ by more than tol * max(1, |value|), the acceptance of
    QuadratureSpec(tol), with that x's higher-order
    value and the gap attached as a QuadratureResult. Each row is summed on its
    own; a value depends on the other entries of xs only where an
    iteration inside the integrand stops when its whole batch has
    converged (Carlson's duplication), and then by rounding. A tol that is
    not positive (NaN included) raises ValueError, even for empty xs.
    """
    _check_tol(tol)
    v, w_lo, w_hi = _legendre_pair(orders)
    vals = np.empty(xs.size)
    rows = max(1, _RULE_BATCH // v.size)
    for start in range(0, xs.size, rows):
        x = xs[start:start + rows, None]
        y = integrand(x, v)
        coarse = (y[:, :w_lo.size] * w_lo).sum(axis=1)
        fine = (y[:, w_lo.size:] * w_hi).sum(axis=1)
        gap = np.abs(fine - coarse)
        bad = ~(gap <= tol * np.maximum(1.0, np.abs(fine)))  # NaN fails too
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ToleranceNotMet(f"Gauss-Legendre rules of orders {orders} differ by "
                                  f"{gap[i]:.3e} at tau = {float(x[i, 0])!r} (tol {tol:.1e})",
                                  QuadratureResult(float(fine[i]), float(gap[i]), v.size))
        vals[start:start + rows] = fine
    return vals


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
    needs no interpolant; the library no longer uses this grid, which the
    benchmark keeps as its KS reference.
    """
    xs = np.concatenate([
        np.linspace(0.0, TWO_PI - 0.1, max(steps - 25, 8)),
        TWO_PI - 0.1 * 0.5 ** np.arange(1, 25),
        [TWO_PI],
    ])
    return xs, perimeter_cdf(xs)


# ---------------------------------------------------------------------------
# The double integrals, by nested quadrature.


def _nested(f, bounds, lo: float, hi: float, spec: QuadratureSpec,
            inner_singular: bool = False) -> float:
    """Integral over u in [lo, hi] of the integral of f(u, t) dt over bounds(u) = (a, b).

    The outer integral is integrate's, to spec; the inner integrals at each
    outer panel's 15 nodes us are the rows of one _integrate_rows call
    (Shampine, J. Comput. Appl. Math. 211, 2008), held to spec.tol / 10 so
    that their errors stay below the outer tolerance, with both ends
    flagged singular when inner_singular. So f(u, t) gets a column of
    nodes u against rows of abscissae t, and bounds(us) returns floats or
    arrays that broadcast against us.
    """
    inner_spec = QuadratureSpec(spec.tol / 10.0, inner_singular, inner_singular)

    def outer(us):
        a, b = (np.broadcast_to(v, us.shape) for v in bounds(us))
        return _integrate_rows(lambda i, t: f(us[i], t), a, b, inner_spec)[0]

    return integrate(outer, lo, hi, spec).value


def radicand_perimeter(x: float, kappa, rho) -> np.ndarray:
    """The square-root kinds' radicand, in factored (product-of-sines) form.

    Equals sin^2(kappa) sin^2(rho) - [cos(kappa) cos(rho) - cos(x - kappa - rho)]^2,
    but without the cancellation that the difference of squares suffers
    near its endpoint zeros. The dual-area radicand in theta is the same
    expression: its two sign flips cancel exactly.
    """
    rho = np.asarray(rho, dtype=float)
    return (4.0 * np.sin(x / 2 - rho) * np.sin(x / 2 - kappa) * math.sin(x / 2)
            * np.sin(rho + kappa - x / 2))


def _sqrt_inner(x: float, dual: bool):
    """Inner integral of the primal-perimeter or dual-area double integral: (f, bounds).

    Both integrate sin(x - kappa - t) sin(kappa) sin(t) / sqrt(radicand)
    dt, the primal one over the rho-band [x/2 - kappa, x/2] and the dual
    one, negated, over the theta-band [x/2, pi - kappa + x/2]; the radicand
    vanishes at both ends of either band, which a quadrature must flag as
    singular. f and bounds take floats or arrays.
    """
    sign = -1.0 if dual else 1.0

    def f(k, t):
        rad = radicand_perimeter(x, k, t)
        # The radicand can round to 0 or below at a node next to a band end,
        # and underflows at tiny x; the integrand is then not resolved.
        if not rad.min() > 0.0:  # NaN fails too
            raise ToleranceNotMet(f"the radicand at x = {x!r} rounds to 0 inside the band")
        return np.sin(x - k - t) * (sign * np.sin(k)) * np.sin(t) / np.sqrt(rad)

    bounds = (lambda k: (x / 2, math.pi - (k - x / 2))) if dual else (lambda k: (x / 2 - k, x / 2))
    return f, bounds


def elliptic_reduction_gap(kind: EllipticReduction, x: float, kappa: float) -> float:
    """|quadrature - elliptic closed form| for the two reducible inner integrals.

    PERIMETER_GIVEN_SIDE (requires 0 < kappa < x/2 < pi):
        Integral_{x/2-kappa}^{x/2} sin(x-kappa-rho) sin(kappa) sin(rho)
            / sqrt(radicand) d rho
      = [E(sin(kappa/2)) - cos^2((x-kappa)/2) K(sin(kappa/2))]
            / sqrt(sin(x/2) sin(x/2 - kappa)) * sin(kappa)

    AREA_GIVEN_ANGLE (requires 0 < x/2 < kappa < pi): the mirrored
    theta-integral against E(cos(kappa/2)), K(cos(kappa/2)).

    No symbolic proof of these evaluations is known; driving the gap
    below tolerance on a grid is the numerical settlement.
    """
    dual = kind is EllipticReduction.AREA_GIVEN_ANGLE
    if dual:
        if not 0.0 < x / 2 < kappa < math.pi:
            raise ValueError("requires 0 < x/2 < kappa < pi")
        z, c, gap = math.cos(kappa / 2), math.sin((x - kappa) / 2), kappa - x / 2
    else:
        if not 0.0 < kappa < x / 2 < math.pi:
            raise ValueError("requires 0 < kappa < x/2 < pi")
        z, c, gap = math.sin(kappa / 2), math.cos((x - kappa) / 2), x / 2 - kappa
    rhs = ((ellip_E(z) - c ** 2 * ellip_K(z)) / math.sqrt(math.sin(x / 2) * math.sin(gap))
           * math.sin(kappa))
    f, bounds = _sqrt_inner(x, dual)
    lhs = integrate(lambda t: f(kappa, t), *bounds(kappa), QuadratureSpec(1e-11, True, True)).value
    return abs(lhs - rhs)


def _smooth_density_inner(x: float, perimeter: bool):
    """Inner integral of the regular (arctan-form) double integrals: (f, bounds).

    The primal-area one runs over theta in [x/2, pi] with s = sin(theta - x/2).
    The dual-perimeter one runs over rho in [0, x/2] with s = sin(x/2 - rho)
    and the two squares of the denominator swapped; it is taken in
    t = rho / (x/2) over [0, 1], with every sine divided by sin(x/2),
    because at tiny x the squares of the sines underflow. Where sin(x/2)
    is 0 that raises OutOfDomain. The sin(kappa) density weight of the
    fixed element is folded in here, so the outer integral is unweighted.
    """
    sx = math.sin(x / 2)
    if not perimeter:
        def f(k, t):
            ck = np.cos(k)
            s = np.sin(t - x / 2)
            d = (1.0 - ck) * s ** 2 + (1.0 + ck) * sx ** 2
            num = (1.0 - ck) * (1.0 + ck) * s * sx * np.sin(t)
            return np.sin(k) * num / d ** 2

        return f, lambda k: (x / 2, math.pi)
    if sx == 0.0:
        raise OutOfDomain(f"sin(x/2) is 0 at x = {x!r}")
    weight = (x / 2) / sx  # d rho / dt, over the 1/sin(x/2) that the divided sines leave out

    def f(k, t):
        ck = np.cos(k)
        s, st = np.sin(x / 2 * (1.0 - t)) / sx, np.sin(x / 2 * t) / sx
        d = (1.0 - ck) + (1.0 + ck) * s ** 2
        return np.sin(k) * ((1.0 - ck) * (1.0 + ck) * weight) * s * st / d ** 2

    return f, lambda k: (0.0, 1.0)


def density_via_double_integral(kind: DensityKind, x: float, tol: float = 1e-9) -> float:
    """The unconditional density by nested quadrature of its exact double integral.

    The outer variable is the fixed element (side or angle), weighted by
    its own density sin(kappa)/2; the inner integral is the conditional
    density for that fixed element. Slower than the closed/1-D forms by
    construction; exists to cross-check them. Raises ToleranceNotMet where
    an integral misses its tolerance, and where the square-root kinds'
    radicand rounds to 0 inside a band (at tol 1e-16 or tiny x, say).
    """
    if not 0.0 < x < TWO_PI:
        raise ValueError("x must lie strictly inside (0, 2*pi)")

    # The inner integral of the two square-root kinds itself diverges like
    # an inverse square root as kappa approaches x/2 (visible in the
    # elliptic evaluation, whose denominator carries sqrt(sin|x/2 - kappa|)),
    # so the outer integral needs the endpoint substitution there too.
    singular = kind is DensityKind.PERIMETER_PRIMAL or kind is DensityKind.AREA_DUAL
    if not singular:
        f, bounds = _smooth_density_inner(x, kind is DensityKind.PERIMETER_DUAL)
        lo, hi, scale, ends = 0.0, math.pi, 1.0 / (2.0 * math.pi), (False, False)
    else:
        dual = kind is DensityKind.AREA_DUAL
        f, bounds = _sqrt_inner(x, dual)
        lo, hi = (x / 2, math.pi) if dual else (0.0, x / 2)
        scale, ends = 1.0 / (4.0 * math.pi), (dual, not dual)
    return scale * _nested(f, bounds, lo, hi, QuadratureSpec(tol, *ends), singular)


# ---------------------------------------------------------------------------
# Region boundary curves. Each region law's CDF is the measure of the region
# on one side of a curve; the conditional routes integrate the curve and
# montecarlo.region_coverage tests samples against it.


def _cot_arccos(x: float, kappa: float) -> Callable[[np.ndarray], np.ndarray]:
    """t -> arccos(clip(A + B cot t, -1, 1)), the fixed-side perimeter boundary.

    A = sin(x - kappa)/sin(kappa) and B = (cos(x - kappa) - cos(kappa))/sin(kappa);
    pi minus the same curve bounds the fixed-angle area law. Unmasked: valid
    on the band where the curve lies strictly inside (0, pi). kappa must
    not be 0.
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


def _step(at: float) -> Callable[[np.ndarray], np.ndarray]:
    """t -> pi up to at and 0 above it: the kappa -> 0 limit of the perimeter boundaries."""
    return lambda t: np.where(np.asarray(t, dtype=float) <= at, math.pi, 0.0)


def region_boundary(
    kind: ConditionalKind, x: float, kappa: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The boundary curve f of the region {statistic <= x} of a region law.

    The returned function takes an array of the curve's argument. The
    coordinates are those of montecarlo.SampleBatch: (theta, rho) =
    (alpha, b) given the side c = kappa, and (rho, theta) = (c, beta) given
    the angle alpha = kappa.

    - AREA_GIVEN_SIDE and AREA_GIVEN_ANGLE: the region is rho <= f(theta).
    - PERIMETER_GIVEN_SIDE and PERIMETER_GIVEN_ANGLE: it is theta <= f(rho).
    - PERIMETER_BISECTOR, in the coordinates of identities.bisector_decompose:
      it is the band f(rho) <= theta <= pi - f(rho) with
      rho >= bisector_threshold(x, kappa).

    Outside the range of its argument over which the boundary runs, f is 0
    or pi, so that the same comparison still decides membership. The
    conditional CDF routes integrate the same curves. At kappa = 0 the
    perimeter curves take their limit, pi up to x/2 and 0 above it (where
    x/2 is 0, the empty region's). x outside [0, 2*pi], kappa outside
    [0, pi] and other kinds raise ValueError.
    """
    _check_x_kappa(x, kappa)
    sx = math.sin(x / 2)
    if kind is ConditionalKind.AREA_GIVEN_SIDE:
        tk = math.tan(kappa / 2)

        def curve(theta):
            theta = np.asarray(theta, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = sx / (tk * np.sin(theta - x / 2))
                mid = 2.0 * np.arctan(t)
            return np.where(theta < x / 2, math.pi, np.nan_to_num(mid, nan=math.pi))

        return curve

    if kind is ConditionalKind.PERIMETER_GIVEN_ANGLE:
        tk = math.tan(kappa / 2)
        ck = 1.0 / tk if tk > 0.0 else math.inf
        if math.isinf(ck) or sx == 0.0:  # the kappa -> 0 limit, or x/2 = 0
            return _step(x / 2)

        def curve(rho):
            rho = np.asarray(rho, dtype=float)
            with np.errstate(over="ignore"):  # a subnormal sx gives +-inf, so +-pi
                mid = 2.0 * np.arctan(ck * np.sin(x / 2 - rho) / sx)
            return np.where(rho > x / 2, 0.0, mid)

        return curve

    if kind is ConditionalKind.PERIMETER_BISECTOR:
        sine = _bisector_sine(x, kappa)

        def curve(rho):
            # A 0/0 sine, where sin(x/2) sin(kappa/2) is 0, is 0 as at its neighbours.
            f = np.arcsin(np.clip(-sine(np.asarray(rho, dtype=float)), -1.0, 1.0))
            return np.nan_to_num(f, nan=0.0)

        return curve

    if kind not in (ConditionalKind.PERIMETER_GIVEN_SIDE, ConditionalKind.AREA_GIVEN_ANGLE):
        raise ValueError(f"no region boundary for {kind}")
    # The band laws of _cond_band.
    dual = kind is ConditionalKind.AREA_GIVEN_ANGLE
    if (kappa <= x / 2) if dual else (kappa >= x / 2):
        # Area <= 2*alpha: the region is everything. Perimeter >= 2c: it is empty.
        fill = math.pi if dual else 0.0
        return lambda t: np.full_like(np.asarray(t, dtype=float), fill)
    if kappa == 0.0:
        return _step(x / 2)
    band = _cot_arccos(x, kappa)
    lo, hi = (x / 2, math.pi - (kappa - x / 2)) if dual else (x / 2 - kappa, x / 2)

    def curve(t):
        t = np.asarray(t, dtype=float)
        mid = np.where(t > hi, 0.0, (math.pi - band(t)) if dual else band(t))
        # The curve is NaN only at t = lo: from B / tan(0) = 0/0 where x/2 is
        # 0, or from inf - inf where A and B overflow (kappa < 1e-308, lo = hi).
        # It takes the value pi of the curve below lo.
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


def _cond_band(x: float, kappa: float, tol: float, dual: bool) -> float:
    """The fixed-side perimeter law, or with dual the fixed-angle area law.

    Each boundary curve is pi below a band [lo, hi], 0 above it and on it
    _cot_arccos, or pi minus that for the dual law, so the CDF is
    (pi (1 - cos lo) + Integral_lo^hi curve(t) sin t dt) / (2 pi).
    """
    if dual:
        if kappa <= x / 2:  # area <= 2*alpha always
            return 1.0
        lo, hi = x / 2, math.pi - (kappa - x / 2)
    else:
        if kappa >= x / 2:  # perimeter >= 2c, equal only for degenerate triangles
            return 0.0
        lo, hi = x / 2 - kappa, x / 2
    base = math.pi * (1.0 - math.cos(lo))
    # No band where kappa is 0 (the kappa -> 0 limit) or below half an ulp of
    # x/2, or where kappa = pi rounds hi below x/2.
    if hi <= lo:
        return base / TWO_PI
    band = _cot_arccos(x, kappa)

    def f(t):
        return ((math.pi - band(t)) if dual else band(t)) * np.sin(t)

    inner = integrate(f, lo, hi, QuadratureSpec(tol, True, True)).value
    return (base + inner) / TWO_PI


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
    thres = bisector_threshold(x, kappa)
    sine = _bisector_sine(x, kappa)

    def f(rho):
        r = sine(rho)
        return np.sqrt(np.maximum(0.0, 1.0 - r * r))

    res = integrate(f, thres, math.pi, QuadratureSpec(tol, singular_left=True))
    return res.value / math.pi


def _cond_2d(x: float, kappa: float, tol: float, perimeter: bool) -> float:
    """The two-angle / two-side routes, by nested Jacobian-weighted quadrature.

    The Jacobian is integrated over [0, h(u)] and then over u in [0, pi]
    by _nested, so the boundary h(u) comes from one array call of
    solved_forms per outer panel. On the seed-1 conditional-routes benchmark
    points a call that integrates takes a median 4.0 ms (two-angle) and
    3.3 ms (two-side), at most 19 ms; one scalar inner integral per node
    took 9.2, 11.4 and 114 ms. Nearer kappa = 0 or pi than
    COORDS_KAPPA_EDGE the Jacobian's peak narrows like kappa (or
    pi - kappa): there the quadrature ran for seconds or returned wrong
    values.
    """
    if not COORDS_KAPPA_EDGE <= kappa <= math.pi - COORDS_KAPPA_EDGE:
        raise OutOfDomain(f"the 2-D Jacobian routes need kappa in [{COORDS_KAPPA_EDGE}, "
                          f"pi - {COORDS_KAPPA_EDGE}], got {kappa!r}")
    if perimeter:
        if kappa >= x / 2:
            return 0.0
        form, jac = SolvedFormKind.ANGLE_PSI, angle_jacobian  # boundary psi = f(phi)
    else:
        if kappa <= x / 2:
            return 1.0  # at kappa == x/2, the edge of the admissible wedge, f == pi
        form, jac = SolvedFormKind.SIDE_ETA, side_jacobian  # boundary eta = f(xi)

    def bounds(us):  # the boundary v = h(u); h = 0 gives 0
        return 0.0, np.arccos(np.clip(solved_forms(form, us, x, kappa), -1.0, 1.0))

    value = _nested(lambda u, v: jac(u, v, kappa), bounds, 0.0, math.pi, QuadratureSpec(tol))
    return value / TWO_PI


def conditional_cdf(
    kind: ConditionalKind, x: float, kappa: float, tol: float = 1e-9
) -> float:
    """P{statistic <= x | fixed element = kappa} for each analytic route.

    AREA_GIVEN_SIDE / AREA_MEDIAN / PERIMETER_ANGLE_COORDS condition on
    the side c; PERIMETER_GIVEN_ANGLE / PERIMETER_BISECTOR /
    AREA_SIDE_COORDS / AREA_GIVEN_ANGLE on the angle alpha;
    PERIMETER_GIVEN_SIDE on c. Routes sharing a conditioning variable
    agree; that redundancy is asserted by the test suite. The two 2-D routes
    raise OutOfDomain for kappa within COORDS_KAPPA_EDGE of 0 or pi.
    A tol that is not positive (NaN included) raises ValueError on every route.
    """
    _check_x_kappa(x, kappa)
    _check_tol(tol)
    if x <= 0.0:
        return 0.0
    if x >= TWO_PI:
        return 1.0

    if kind is ConditionalKind.AREA_GIVEN_SIDE:
        val = _cond_area_given_side(x, kappa)
    elif kind is ConditionalKind.PERIMETER_GIVEN_ANGLE:
        val = _cond_perimeter_given_angle(x, kappa)
    elif kind in (ConditionalKind.PERIMETER_GIVEN_SIDE, ConditionalKind.AREA_GIVEN_ANGLE):
        val = _cond_band(x, kappa, tol, dual=kind is ConditionalKind.AREA_GIVEN_ANGLE)
    elif kind is ConditionalKind.AREA_MEDIAN:
        val = _cond_area_median(x, kappa, tol)
    elif kind is ConditionalKind.PERIMETER_BISECTOR:
        val = _cond_perimeter_bisector(x, kappa, tol)
    elif kind is ConditionalKind.PERIMETER_ANGLE_COORDS:
        val = _cond_2d(x, kappa, tol, perimeter=True)
    else:
        val = _cond_2d(x, kappa, tol, perimeter=False)
    return min(1.0, max(0.0, val))
