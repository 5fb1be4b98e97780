"""Elliptic integrals and adaptive 1-D quadrature.

The complete integrals K and E are evaluated by the arithmetic-geometric-
mean iteration, which converges quadratically and reaches machine
precision in under ten steps. Carlson's symmetric forms R_F and R_D, in
which the perimeter CDF's integral writes its incomplete integrals, are
evaluated by the duplication algorithm (Carlson, Numer. Algorithms
10:13-26, 1995; DLMF 19.36(i)), which works elementwise on arrays.
The general integrator is adaptive Gauss-Kronrod (G7/K15) with an optional
u^2 endpoint substitution: an inverse-square-root singularity at a flagged
endpoint (t = a + u^2 or t = b - u^2) becomes a bounded smooth integrand,
so no special weighting is needed afterwards. Its two engines, a heap
for one integral and a batched one for many (_integrate_rows), stop at the
same width floor and the same per-call panel budget.
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


# Panels one call of integrate or _integrate_rows may evaluate, as
# QUADPACK's limit (Piessens et al., 1983); the first panel of each piece
# or row is always evaluated. The 2-D routes and the double integrals at
# the benchmark points of four seeds, the wedge-edge matrix and 25
# densities of each kind used at most 867 a call.
_PANEL_BUDGET = 1 << 14
# A panel narrower than _FLOOR times its position, plus _FLOOR times the
# width of its piece, is not split. Without the second term the heap chased
# 1/t on [0, 1] down to a width of 7e-307, where 1/t overflows.
_FLOOR = 1e-15


def _check_tol(tol: float) -> None:
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tolerance must be positive, got tol={tol!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and endpoint-singularity flags.

    An integral is accepted when its error estimate is at most
    tol * max(1, |value|): absolute below 1, relative above.
    """

    tol: float = 1e-10
    singular_left: bool = False
    singular_right: bool = False

    def __post_init__(self):
        _check_tol(self.tol)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_estimate: float
    evaluations: int


def _sharpened(diff, minimum=min):
    """QUADPACK-style error estimate from diff = |K15 - G7|.

    For smooth panels diff grossly overestimates the K15 error. minimum is
    min for a float and np.minimum for an array of panels.
    """
    return minimum(diff, (200.0 * diff) ** 1.5)


def _kronrod_panel(f, a, b):
    """One G7/K15 panel on [a, b]: (K15 value, error estimate)."""
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _NODES
    y = np.asarray(f(x), dtype=float)
    k = h * float(np.dot(_WEIGHTS_K, y))
    if not math.isfinite(k):
        raise NonFiniteIntegrand(f"integrand sums to {k} on [{a!r}, {b!r}]")
    g = h * float(np.dot(_WEIGHTS_G, y))
    return k, _sharpened(abs(k - g))


def _adaptive(f, a, b, tol, budget):
    """Adaptive bisection on [a, b] in at most budget panels: (value, err, evaluations, failure).

    failure is None, or why the tolerance was not met; the estimate is then the best reached.
    """
    if a == b:
        return 0.0, 0.0, 0, None
    val, err = _kronrod_panel(f, a, b)
    evals = 15
    last_split = 15 * (budget - 2)  # the evaluations after which a split goes past budget
    floor = (b - a) * _FLOOR

    # Heap of (-err, counter, a, b, value, err).
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total = val
    total_err = err
    while total_err > tol * max(1.0, abs(total)):
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        if (pb - pa) <= abs(pb + pa) * _FLOOR + floor:
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pval, perr))
            counter += 1
            # Nothing left that may be split.
            if all(item[0] == 0.0 for item in heap):
                return total, total_err, evals, "no panel wider than the floor left to split"
            continue
        if evals > last_split:
            return total, total_err, evals, f"panel budget of {_PANEL_BUDGET} exhausted"
        mid = 0.5 * (pa + pb)
        lval, lerr = _kronrod_panel(f, pa, mid)
        rval, rerr = _kronrod_panel(f, mid, pb)
        evals += 30
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, pb, rval, rerr))
    return total, total_err, evals, None


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Integrate f over [a, b] to within spec.tol * max(1, |value|).

    ``f`` must accept an ndarray of abscissae and return an ndarray of
    values. Flagged endpoints are assumed to carry at worst an
    inverse-square-root singularity, removed exactly by the u^2
    substitution before adaptive refinement; the integrand is never
    evaluated at the endpoints themselves. Raises ToleranceNotMet when
    only panels at the width floor are left to split or a split would take
    the call past _PANEL_BUDGET panels; a piece after the one that failed
    still runs, on what is left of the budget, so that the attached result
    estimates the whole integral. Raises NonFiniteIntegrand when a panel
    sums to NaN or infinity, and ValueError for non-finite bounds.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)

    pieces = _pieces(a, b, spec)
    tol_scale = 1.0 / len(pieces)
    value = 0.0
    err = 0.0
    evals = 0
    failure = None
    for substituted, end, lo, hi in pieces:
        piece_f = f if substituted is None else substituted(f, end)
        v, e, n, why = _adaptive(piece_f, lo, hi, spec.tol * tol_scale,
                                 _PANEL_BUDGET - evals // 15)
        failure = failure or why
        value += v
        err += e
        evals += n
    if failure:
        raise ToleranceNotMet(f"{failure} (err ~ {err:.3e})", QuadratureResult(value, err, evals))
    return QuadratureResult(value, err, evals)


def _pieces(a, b, spec, sqrt=math.sqrt):
    """The pieces of [a, b] that spec's singular flags call for: (substituted, end, lo, hi).

    A piece whose substituted is None is [lo, hi] itself; otherwise it is
    u in [lo, hi] = [0, sqrt(width)] under substituted(f, end). With both
    flags the halves meet at the midpoint. a and b may be arrays, with
    sqrt=np.sqrt.
    """
    if spec.singular_left and spec.singular_right:
        mid = 0.5 * (a + b)
        return [(_left_substituted, a, 0.0, sqrt(mid - a)),
                (_right_substituted, b, 0.0, sqrt(b - mid))]
    if spec.singular_left:
        return [(_left_substituted, a, 0.0, sqrt(b - a))]
    if spec.singular_right:
        return [(_right_substituted, b, 0.0, sqrt(b - a))]
    return [(None, None, a, b)]


def _left_substituted(f, a):
    """u -> f(a + u^2) 2u: t = a + u^2 maps u in [0, sqrt(b - a)] onto [a, b].

    An inverse-square-root singularity of f at a becomes bounded and
    smooth. a may be an array that broadcasts against u. Where u^2 is
    below half an ulp of a, t is the next float above a, so that f is
    never evaluated at a.
    """
    first = np.nextafter(a, np.inf)

    def g(u):
        return f(np.maximum(a + u * u, first)) * 2.0 * u
    return g


def _right_substituted(f, b):
    """u -> f(b - u^2) 2u: t = b - u^2 maps u in [0, sqrt(b - a)] onto [a, b], never onto b."""
    last = np.nextafter(b, -np.inf)

    def g(u):
        return f(np.minimum(b - u * u, last)) * 2.0 * u
    return g


# Panels split a step in each row not yet accepted, at the least.
_ROWS_SPLITS = 2


def _integrate_rows(f, a, b, spec=QuadratureSpec()):
    """Integral of f(r, t) dt over [a[r], b[r]] for every row r of the 1-D arrays a and b.

    The batched form of integrate for the inner integrals of nested
    quadrature (distributions._nested makes one call per outer panel):
    each refinement step evaluates the new G7/K15 panels of every row in
    one call f(i, t) (Shampine, "Vectorized adaptive quadrature in
    MATLAB", J. Comput. Appl. Math. 211, 2008). There t has one panel's 15
    abscissae per line and the column i holds each line's row index, by
    which f looks up its per-row parameters. Each row is accepted on its
    own test, spec.tol * max(1, |value|), and honours the
    singular flags through the u^2 substitutions of integrate. Rows with
    a == b give 0 and are not evaluated.

    integrate splits one panel at a time, from a heap. Here a step splits,
    in every row not yet accepted, its _ROWS_SPLITS panels of largest error
    estimate, or its worst eighth of panels if that is more: a step's array
    work grows with the panel count, so a row that needs thousands of
    panels then takes tens of steps rather than thousands. For a single
    integral the heap is faster, which is why the engines stay two: the
    1-D conditional routes ran about 3x slower (40 -> 130 us and
    74 -> 220 us) as one-row calls of this engine.

    Returns (values, error estimates), arrays of a's length. Raises
    ValueError for non-finite or reversed bounds, NonFiniteIntegrand when a
    panel sums to NaN or infinity, and ToleranceNotMet, with the first
    failing row's best estimate attached, when a row that misses its
    tolerance has only panels at the width floor left to split, or when a
    step would take the call past _PANEL_BUDGET panels. Both limits are
    those of integrate.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("integration bounds must be finite")
    if np.any(b < a):
        raise ValueError("integration bounds must satisfy a <= b")
    # Piece k of _pieces is the block of virtual rows j = k * a.size + row,
    # integrated side by side with the others; owner[j] is the row.
    pieces = _pieces(a, b, spec, np.sqrt)
    owner = np.tile(np.arange(a.size), len(pieces))
    lo = np.concatenate([np.broadcast_to(start, a.shape) for _, _, start, _ in pieces])
    hi = np.concatenate([np.broadcast_to(stop, a.shape) for _, _, _, stop in pieces])

    def piece_values(piece, r, u):
        substituted, end, _, _ = piece
        if substituted is None:
            return f(r, u)
        return substituted(lambda t: f(r, t), end[r])(u)

    def g(j, u):
        if len(pieces) == 1:
            return piece_values(pieces[0], j, u)
        y = np.empty(u.shape)
        for k, piece in enumerate(pieces):
            at = j[:, 0] // a.size == k
            y[at] = piece_values(piece, owner[j[at]], u[at])
        return y

    tol = spec.tol * (1.0 / len(pieces))
    rows = lo.size
    # The panels, in arrays whose first n entries are in use: [pa, pb] of
    # virtual row j, with its K15 value and error estimate, and whether it
    # is wider than the floor of _adaptive. A split puts the left half in
    # the parent's place and appends the right half.
    live = np.flatnonzero(lo < hi)
    if not live.size:
        return np.zeros(a.size), np.zeros(a.size)
    n = spent = live.size
    pa, pb, val, err = lo[live], hi[live], np.empty(n), np.empty(n)
    j = live
    floor = (hi - lo) * _FLOOR
    room = pb - pa > np.abs(pb + pa) * _FLOOR + floor[j]
    val[:], err[:] = _row_panels(g, j, pa, pb)

    def fail(r, why):
        mine = owner == owner[r]
        total = np.bincount(j[:n], val[:n], rows)[mine].sum()
        total_err = np.bincount(j[:n], err[:n], rows)[mine].sum()
        raise ToleranceNotMet(f"row {owner[r]}: {why} (err ~ {total_err:.3e})",
                              QuadratureResult(float(total), float(total_err), 15 * spent))

    while True:
        J, A, B, E = j[:n], pa[:n], pb[:n], err[:n]
        total = np.bincount(J, val[:n], rows)
        open_rows = ~(np.bincount(J, E, rows) <= tol * np.maximum(1.0, np.abs(total)))
        if not open_rows.any():  # a NaN total error stays open
            break
        splittable = open_rows[J] & room[:n]
        stuck = open_rows & (np.bincount(J, splittable, rows) == 0)
        if stuck.any():
            fail(int(np.argmax(stuck)), "no panel wider than the floor left to split")
        # The splittable panels of each row by decreasing error, ranked
        # within their row; take each row's quota.
        order = np.lexsort((-np.where(splittable, E, -1.0), J))
        by_row = J[order]
        rank = np.arange(n) - np.searchsorted(by_row, by_row)
        quota = np.maximum(_ROWS_SPLITS, np.bincount(J, minlength=rows) >> 3)
        pick = order[(rank < quota[by_row]) & splittable[order]]
        m = pick.size
        if spent + 2 * m > _PANEL_BUDGET:
            fail(int(J[pick[0]]), f"panel budget of {_PANEL_BUDGET} exhausted")
        if n + m > pa.size:  # np.resize repeats the entries; those past n are rewritten before use
            pa, pb, val, err, j, room = (np.resize(v, 2 * (n + m))
                                         for v in (pa, pb, val, err, j, room))
        new = np.concatenate([pick, np.arange(n, n + m)])
        mid = 0.5 * (A[pick] + B[pick])
        ca, cb = np.concatenate([A[pick], mid]), np.concatenate([mid, B[pick]])
        j[n:n + m] = J[pick]
        pa[new], pb[new] = ca, cb
        room[new] = cb - ca > np.abs(cb + ca) * _FLOOR + floor[j[new]]
        n += m
        spent += 2 * m
        val[new], err[new] = _row_panels(g, j[new], ca, cb)
    value = np.bincount(j[:n], val[:n], rows)
    error = np.bincount(j[:n], err[:n], rows)
    return np.bincount(owner, value, a.size), np.bincount(owner, error, a.size)


def _row_panels(g, j, a, b):
    """G7/K15 panels [a[k], b[k]] of the virtual rows j[k]: (K15 values, error estimates)."""
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _NODES
    y = np.asarray(g(j[:, None], x), dtype=float)
    k = h * (y @ _WEIGHTS_K)
    bad = ~np.isfinite(k)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteIntegrand(f"integrand sums to {k[i]} on [{float(a[i])!r}, {float(b[i])!r}]")
    diff = np.abs(k - h * (y @ _WEIGHTS_G))
    return k, _sharpened(diff, np.minimum)


# ---------------------------------------------------------------------------
# Complete elliptic integrals (modulus convention: K(z) integrates
# 1/sqrt(1 - z^2 sin^2 t) over [0, pi/2]).

_AGM_MAX_ITER = 24
# The AGM stops once |a - b| <= _AGM_TOL * a; the next mean then lies
# within _AGM_TOL^2 / 8 (5e-19) of the limit, relative. (A stop at a == b
# never came for about a quarter of moduli, whose a and b kept trading the
# last bit, so every array call ran all _AGM_MAX_ITER steps.)
_AGM_TOL = 2e-9


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
        done = (d <= _AGM_TOL * a).all()
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


def _agm_at(zeta):
    """K, E and the moduli within 1e-15 of 1, from one _agm_KE pass at the moduli zeta.

    The one modulus check of ellip_K and ellip_E: zeta must lie in [0, 1].
    The results are arrays of at least one dimension. Moduli within 1e-15
    of 1, where K diverges and E = 1, enter the AGM as 0.
    """
    z = np.atleast_1d(np.asarray(zeta, dtype=float))
    if (z < 0.0).any() or (z > 1.0).any():
        raise ValueError("modulus must lie in [0, 1]")
    one = z >= 1.0 - 1e-15
    z2 = np.where(one, 0.0, z)
    z2 *= z2
    kp = 1.0 - z2
    np.sqrt(kp, out=kp)
    return *_agm_KE(z2, kp), one


def ellip_K(zeta):
    """Complete elliptic integral of the first kind, by AGM.

    Accepts a float or ndarray of moduli in [0, 1). Raises Divergent when
    any modulus is within 1e-15 of 1 (logarithmic divergence).
    """
    K, _, one = _agm_at(zeta)
    if one.any():
        raise Divergent("K diverges at modulus 1")
    return float(K[0]) if np.ndim(zeta) == 0 else K


def ellip_E(zeta):
    """Complete elliptic integral of the second kind, by AGM.

    Accepts a float or ndarray of moduli in [0, 1]; E(1) = 1 exactly.
    """
    _, E, one = _agm_at(zeta)
    E[one] = 1.0  # the AGM sum formula degenerates there
    return float(E[0]) if np.ndim(zeta) == 0 else E


# ---------------------------------------------------------------------------
# Carlson's symmetric forms, which give the perimeter CDF's integral its
# incomplete integrals.

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
