"""Elliptic integrals and adaptive 1-D quadrature.

The complete integrals K and E are evaluated by the arithmetic-geometric-
mean iteration, which converges quadratically and reaches machine
precision in under ten steps. The incomplete integrals F(phi, k) and
E(phi, k) come from Carlson's symmetric forms R_F and R_D, evaluated by
the duplication algorithm (Carlson, Numer. Algorithms 10:13-26, 1995;
DLMF 19.36(i)), which works elementwise on arrays.
The general integrator is adaptive Gauss-Kronrod (G7/K15) with an optional
u^2 endpoint substitution: an inverse-square-root singularity at a flagged
endpoint (t = a + u^2 or t = b - u^2) becomes a bounded smooth integrand,
so no special weighting is needed afterwards.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Divergent, NonFiniteIntegrand, ToleranceNotMet

# Kronrod-15 nodes on [-1, 1] (positive half) and the matching Kronrod and
# embedded Gauss-7 weights.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_weights_g = np.zeros(15)
_weights_g[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])
_WEIGHTS_G = _weights_g
del _weights_g


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, subdivision budget and endpoint-singularity flags."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 48
    singular_left: bool = False
    singular_right: bool = False

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_estimate: float
    evaluations: int


def _kronrod_panel(f, a, b):
    """One G7/K15 panel on [a, b]: (K15 value, error estimate)."""
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _NODES
    y = np.asarray(f(x), dtype=float)
    k = h * float(np.dot(_WEIGHTS_K, y))
    if not math.isfinite(k):
        raise NonFiniteIntegrand(f"integrand sums to {k} on [{a!r}, {b!r}]")
    g = h * float(np.dot(_WEIGHTS_G, y))
    diff = abs(k - g)
    # QUADPACK-style sharpening: for smooth panels |K-G| grossly
    # overestimates the K15 error.
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0 else 0.0
    return k, err


def _adaptive(f, a, b, abs_tol, rel_tol, max_depth):
    """Adaptive bisection on [a, b]; returns (value, err, evaluations)."""
    if a == b:
        return 0.0, 0.0, 0
    val, err = _kronrod_panel(f, a, b)
    evals = 15
    # Heap of (-err, counter, a, b, value, err, depth).
    counter = 0
    heap = [(-err, counter, a, b, val, err, 0)]
    total = val
    total_err = err
    while total_err > max(abs_tol, rel_tol * abs(total)):
        neg, _, pa, pb, pval, perr, depth = heapq.heappop(heap)
        if depth >= max_depth or (pb - pa) <= abs(pb + pa) * 1e-15:
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pval, perr, depth))
            counter += 1
            # Nothing left that may be split.
            if all(item[0] == 0.0 for item in heap):
                raise ToleranceNotMet(
                    f"subdivision budget exhausted (err ~ {total_err:.3e})",
                    QuadratureResult(total, total_err, evals),
                )
            continue
        mid = 0.5 * (pa + pb)
        lval, lerr = _kronrod_panel(f, pa, mid)
        rval, rerr = _kronrod_panel(f, mid, pb)
        evals += 30
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, mid, lval, lerr, depth + 1))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, pb, rval, rerr, depth + 1))
    return total, total_err, evals


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate f over [a, b] to within max(abs_tol, rel_tol*|value|).

    ``f`` must accept an ndarray of abscissae and return an ndarray of
    values. Flagged endpoints are assumed to carry at worst an
    inverse-square-root singularity, removed exactly by the u^2
    substitution before adaptive refinement; the integrand is never
    evaluated at the endpoints themselves. Raises ToleranceNotMet (with
    the best estimate attached) when the subdivision budget runs out,
    NonFiniteIntegrand when a panel sums to NaN or infinity, and
    ValueError for non-finite bounds.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)

    pieces = []
    if spec.singular_left and spec.singular_right:
        mid = 0.5 * (a + b)
        pieces.append(_left_substituted(f, a, mid))
        pieces.append(_right_substituted(f, mid, b))
    elif spec.singular_left:
        pieces.append(_left_substituted(f, a, b))
    elif spec.singular_right:
        pieces.append(_right_substituted(f, a, b))
    else:
        pieces.append((f, a, b))

    tol_scale = 1.0 / len(pieces)
    value = 0.0
    err = 0.0
    evals = 0
    for piece_f, lo, hi in pieces:
        v, e, n = _adaptive(
            piece_f, lo, hi, spec.abs_tol * tol_scale, spec.rel_tol * tol_scale,
            spec.max_depth,
        )
        value += v
        err += e
        evals += n
    return QuadratureResult(value, err, evals)


def _left_substituted(f, a, b):
    """t = a + u^2 maps [a, b] to u in [0, sqrt(b-a)]."""
    def g(u):
        return f(a + u * u) * 2.0 * u
    return g, 0.0, math.sqrt(b - a)


def _right_substituted(f, a, b):
    """t = b - u^2 maps [a, b] to u in [0, sqrt(b-a)]."""
    def g(u):
        return f(b - u * u) * 2.0 * u
    return g, 0.0, math.sqrt(b - a)


# ---------------------------------------------------------------------------
# Complete elliptic integrals (modulus convention: K(z) integrates
# 1/sqrt(1 - z^2 sin^2 t) over [0, pi/2]).

_AGM_MAX_ITER = 24
# The AGM stops once |a - b| <= _AGM_TOL * a; the next mean then lies
# within _AGM_TOL^2 / 8 (5e-19) of the limit, relative. (A stop at a == b
# never came for about a quarter of moduli, whose a and b kept trading the
# last bit, so every array call ran all _AGM_MAX_ITER steps.)
_AGM_TOL = 2e-9


def ellip_K(zeta):
    """Complete elliptic integral of the first kind, by AGM.

    Accepts a float or ndarray of moduli in [0, 1). Raises Divergent when
    any modulus is within 1e-15 of 1 (logarithmic divergence).
    """
    z = np.asarray(zeta, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("modulus must lie in [0, 1]")
    if np.any(z >= 1.0 - 1e-15):
        raise Divergent("K diverges at modulus 1")
    a = np.ones_like(z)
    b = np.sqrt(1.0 - z * z)
    for _ in range(_AGM_MAX_ITER):
        if np.all(np.abs(a - b) <= _AGM_TOL * a):
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    out = np.pi / (a + b)
    return float(out) if np.isscalar(zeta) or np.ndim(zeta) == 0 else out


def _agm_KE(k2, kp):
    """K and E from one AGM pass, given k^2 and the complementary modulus k'.

    Starting the AGM at b = k' directly (not at sqrt(1 - k^2)) keeps K
    finite and accurate when k is within rounding of 1, where it grows like
    log(4/k'); k^2 is taken separately so that E - K keeps its accuracy at
    small k. Works in place where it can, to hold few arrays at once.
    """
    a = np.ones_like(kp)
    b = kp
    csum = 0.5 * k2  # sum of 2^(n-1) c_n^2 with c_n = (a_n - b_n)/2; the n = 0 term
    pow2 = 0.125  # 2^(n-1) / 4
    for _ in range(_AGM_MAX_ITER):
        d = a - b
        np.abs(d, out=d)
        done = np.all(d <= _AGM_TOL * a)
        pow2 *= 2.0
        d *= d
        d *= pow2
        csum += d
        if done:
            break
        m = a + b
        m *= 0.5
        b = a * b
        np.sqrt(b, out=b)
        a = m
    K = a + b
    np.divide(np.pi, K, out=K)
    np.subtract(1.0, csum, out=csum)
    csum *= K
    return K, csum


def ellip_E(zeta):
    """Complete elliptic integral of the second kind, by AGM.

    Accepts a float or ndarray of moduli in [0, 1]; E(1) = 1 exactly.
    """
    z = np.asarray(zeta, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("modulus must lie in [0, 1]")
    scalar = np.isscalar(zeta) or np.ndim(zeta) == 0
    z = np.atleast_1d(z)
    one = z >= 1.0 - 1e-15  # E(1) = 1; the AGM sum formula degenerates there
    z2 = np.where(one, 0.0, z)
    z2 *= z2
    kp = 1.0 - z2
    np.sqrt(kp, out=kp)
    out = _agm_KE(z2, kp)[1]
    out[one] = 1.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Carlson symmetric forms and the incomplete integrals (modulus convention).

_CARLSON_TOL = 1e-16  # relative truncation error of the duplication series
_CARLSON_MAX_ITER = 60  # each step shrinks the spread of x, y, z fourfold


def carlson_rf_rd(x, y, z):
    """Carlson's R_F(x, y, z) and R_D(x, y, z) by one shared duplication.

    Both forms duplicate the same (x, y, z) sequence, so one loop serves
    the pair; R_D adds the running sum of its z-terms. Broadcasts over
    arrays. Requires x, y >= 0 and z > 0 with x + y > 0.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    if not (np.all(x >= 0.0) and np.all(y >= 0.0) and np.all(z > 0.0) and np.all(x + y > 0.0)):
        raise ValueError("need x, y >= 0, z > 0 and x + y > 0")
    a_f = (x + y + z) / 3.0
    a_d = (x + y + 3.0 * z) / 5.0
    fx, fy, dx, dy = a_f - x, a_f - y, a_d - x, a_d - y  # A_0 - x_0 and A_0 - y_0
    # Iterate until 4^-m Q < A_m; the series error is then below _CARLSON_TOL.
    q_f = (3.0 * _CARLSON_TOL) ** (-1 / 6) * np.maximum(np.maximum(abs(fx), abs(fy)), abs(a_f - z))
    q_d = (0.25 * _CARLSON_TOL) ** (-1 / 6) * np.maximum(np.maximum(abs(dx), abs(dy)), abs(a_d - z))
    tail = np.zeros_like(a_f)
    p = 1.0  # 4^-m
    for _ in range(_CARLSON_MAX_ITER):
        if np.all(p * q_f < a_f) and np.all(p * q_d < a_d):
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail += p / (sz * (z + lam))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        a_f, a_d = 0.25 * (a_f + lam), 0.25 * (a_d + lam)
        p *= 0.25
    X, Y = p * fx / a_f, p * fy / a_f
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a_f)
    X, Y = p * dx / a_d, p * dy / a_d
    Z = -(X + Y) / 3.0
    xy, z2 = X * Y, Z * Z
    e2, e3 = xy - 6.0 * z2, (3.0 * xy - 8.0 * z2) * Z
    e4, e5 = 3.0 * (xy - z2) * z2, xy * z2 * Z
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rd = p * series / (a_d * np.sqrt(a_d)) + 3.0 * tail
    if rf.ndim == 0:
        return float(rf), float(rd)
    return rf, rd


def _incomplete(phi, zeta):
    """sin(phi), R_F and R_D at the Legendre arguments of (phi, zeta)."""
    phi = np.asarray(phi, dtype=float)
    z = np.asarray(zeta, dtype=float)
    if np.any(np.abs(phi) > 0.5 * np.pi) or np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValueError("need |phi| <= pi/2 and modulus in [0, 1)")
    s, c = np.sin(phi), np.cos(phi)
    # 1 - k^2 sin^2 phi, without the cancellation near k = 1, phi = pi/2
    delta2 = c * c + (1.0 - z) * (1.0 + z) * s * s
    rf, rd = carlson_rf_rd(c * c, delta2, 1.0)
    return s, z * z, rf, rd


def ellip_F(phi, zeta):
    """Incomplete elliptic integral of the first kind, F(phi, k) = sin(phi) R_F.

    Modulus convention, as ellip_K; |phi| <= pi/2 and k in [0, 1).
    """
    s, _, rf, _ = _incomplete(phi, zeta)
    return s * rf


def ellip_E_inc(phi, zeta):
    """Incomplete elliptic integral of the second kind, E(phi, k).

    E = sin(phi) R_F - (k^2/3) sin^3(phi) R_D, with the arguments of ellip_F.
    """
    s, k2, rf, rd = _incomplete(phi, zeta)
    return s * rf - (k2 / 3.0) * s ** 3 * rd
