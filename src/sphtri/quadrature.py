"""Elliptic integrals and adaptive 1-D quadrature.

The complete integrals K and E are evaluated by the arithmetic-geometric-
mean iteration, which converges quadratically and reaches machine
precision in under ten steps. Carlson's symmetric forms R_F and R_D, in
which the fixed-side perimeter law writes its incomplete integrals, are
evaluated by the duplication algorithm (Carlson, Numer. Algorithms
10:13-26, 1995; DLMF 19.36(i)), on floats or elementwise on arrays.
The general integrator is adaptive Gauss-Kronrod (G7/K15) with an optional
u^2 endpoint substitution: an inverse-square-root singularity at a flagged
left end (t = a + u^2) becomes a bounded smooth integrand, so no special
weighting is needed afterwards, and a flagged right end b is the same map
of t -> f(-t) at -b. Its two engines share that one map, hold the
pieces of a flagged integral to one tolerance together, and stop at the
same width floor and the same per-call panel budget: integrate keeps the
panels of all pieces of one integral in one heap, and _integrate_rows
evaluates many integrals in batches.
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
# QUADPACK's limit (Piessens et al., 1983), or one group of rows of an
# _integrate_rows call (see its groups argument); the first panel of each piece
# or row is always evaluated. An inner call of distributions._nested
# carries the nodes of several outer panels: at the conditional-routes
# benchmark points of five seeds, the wedge-edge matrix and 25 densities of
# each kind the largest call used 2,004, 8.2 times under the budget. The
# double integrals need up to 2,652 at the default tol (AREA_PRIMAL at its
# edge, x = 2e-5), and AREA_PRIMAL at x = 5e-5 and tol 3e-15 needs 12,584.
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


# The heap keeps this one-panel kernel rather than _row_panels. Each panel
# as a one-row _row_panels call made AREA_MEDIAN and PERIMETER_BISECTOR
# 1.59-1.67x slower (median of 20 interleaved passes over the seed-1
# conditional-routes points, 2-CPU host). The two children of a split in one
# call were no faster (0.96-0.98x), and its matrix product sums the 15 terms
# in another order, which moved those routes' values by up to 3.3e-16.
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
    evaluated at the endpoints themselves. The pieces that the flags call
    for share one heap of panels, so the whole integral is held to
    spec.tol and the call to one panel budget. Raises ToleranceNotMet,
    with the estimate of the whole integral attached, when only panels at
    the width floor are left to split or a split would take the call past
    _PANEL_BUDGET panels. Raises NonFiniteIntegrand when a panel sums to
    NaN or infinity, and ValueError for non-finite bounds.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")

    # Heap of (-err, counter, lo, hi, value, err, integrand, floor): each
    # panel carries its piece's integrand and that piece's width floor.
    heap = []
    total = total_err = 0.0
    for sign, end, lo, hi in _pieces(a, b, spec):
        if lo == hi:
            continue
        g = f if end is None else _substituted(f if sign > 0 else lambda s: f(-s), end)
        val, err = _kronrod_panel(g, lo, hi)
        heap.append((-err, len(heap), lo, hi, val, err, g, (hi - lo) * _FLOOR))
        total += val
        total_err += err
    heapq.heapify(heap)
    counter = len(heap)
    evals = 15 * counter
    why = None
    while total_err > spec.tol * max(1.0, abs(total)):
        neg, _, lo, hi, val, err, g, floor = heapq.heappop(heap)
        if neg == 0.0:  # the least key is 0.0: every panel left is at the floor or exact
            why = "no panel wider than the floor left to split"
            break
        if (hi - lo) <= abs(hi + lo) * _FLOOR + floor:
            heapq.heappush(heap, (0.0, counter, lo, hi, val, err, g, floor))
            counter += 1
            continue
        if evals > 15 * (_PANEL_BUDGET - 2):  # a split now would go past the budget
            why = f"panel budget of {_PANEL_BUDGET} exhausted"
            break
        mid = 0.5 * (lo + hi)
        lval, lerr = _kronrod_panel(g, lo, mid)
        rval, rerr = _kronrod_panel(g, mid, hi)
        evals += 30
        total += lval + rval - val
        total_err += lerr + rerr - err
        heapq.heappush(heap, (-lerr, counter, lo, mid, lval, lerr, g, floor))
        heapq.heappush(heap, (-rerr, counter + 1, mid, hi, rval, rerr, g, floor))
        counter += 2
    result = QuadratureResult(total, total_err, evals)
    if why:
        raise ToleranceNotMet(f"{why} (err ~ {total_err:.3e})", result)
    return result


def _pieces(a, b, spec, sqrt=math.sqrt):
    """The pieces of [a, b] that spec's singular flags call for: (sign, end, lo, hi).

    A piece whose end is None is [lo, hi] itself. Otherwise it is u in
    [lo, hi] = [0, sqrt(width)] under _substituted(s -> f(sign s), end):
    a flagged left end a is end = a with sign 1, and a flagged right end b
    is the left end end = -b of the mirrored integrand, sign -1. With both
    flags the halves meet at the midpoint. a and b may be arrays, with
    sqrt=np.sqrt.
    """
    if spec.singular_left and spec.singular_right:
        mid = 0.5 * (a + b)
        return [(1.0, a, 0.0, sqrt(mid - a)), (-1.0, -b, 0.0, sqrt(b - mid))]
    if spec.singular_left:
        return [(1.0, a, 0.0, sqrt(b - a))]
    if spec.singular_right:
        return [(-1.0, -b, 0.0, sqrt(b - a))]
    return [(1.0, None, a, b)]


def _substituted(f, a):
    """u -> f(t) 2 sqrt(t - a) at t = a + u^2, which maps u in [0, sqrt(b - a)] onto [a, b].

    An inverse-square-root singularity of f at a becomes bounded and
    smooth. a may be an array that broadcasts against u. Where u^2 is
    below half an ulp of a, t is the next float above a, so that f is
    never evaluated at a.

    The one endpoint map of both engines. A singular right end b is this
    map of s -> f(-s) at -b, and every node, Jacobian and value is the
    one that t = b - u^2 would give, bit for bit: -b + u^2 rounds to
    -(b - u^2), nextafter(-b, inf) is -nextafter(b, -inf), and s + b
    rounds as b - t.

    The Jacobian 2u is taken as 2 sqrt(t - a) of the node t that f gets:
    t = a + u^2 rounds, and t - a (exact near a, by Sterbenz's lemma)
    differs from u^2 by up to ulp(a) / 2. The flagged integrands compute
    that distance from t, so where u^2 is within a few ulps of a, f(t) 2u
    is noise, and refinement that reaches such panels chases it: the
    batched engine then met its tolerance 2.9e-7 away from
    cos(c t) / sqrt((t - a)(b - t)) integrated exactly, at a = -0.625.
    A flagged interval one ulp wide has every node at a + ulp: 1/sqrt|t - 0.5|
    on [1, 1 + 2^-52] gives 6.28e-16, twice 3.14e-16, inside the tolerance.
    """
    first = np.nextafter(a, np.inf)

    def g(u):
        t = np.maximum(a + u * u, first)
        return f(t) * (2.0 * np.sqrt(t - a))
    return g


# A step splits, in each row not yet accepted, every panel wider than the
# floor whose error estimate is at least this fraction of the largest such
# estimate in the row. At 0.1 and at 0.5 the 2-D routes and double integrals
# of the seed-7 conditional-routes benchmark points made the same Jacobian
# evaluations to within 0.5%, and their steps moved by 5%.
_MARK = 0.25


def _integrate_rows(f, a, b, spec=QuadratureSpec(), groups=None):
    """Integral of f(r, t) dt over [a[r], b[r]] for every row r of the 1-D arrays a and b.

    The batched form of integrate for nested quadrature
    (distributions._nested runs both of its integrals on it, with one
    inner call per outer step over all of that step's nodes): each
    refinement step evaluates the new G7/K15 panels of every row in
    one call f(i, t) (Shampine, "Vectorized adaptive quadrature in
    MATLAB", J. Comput. Appl. Math. 211, 2008). There t has one panel's 15
    abscissae per line and the column i holds each line's row index, by
    which f looks up its per-row parameters. Each row honours the
    singular flags through the pieces and the one u^2 map of integrate:
    each piece's virtual rows carry its sign and end, so that one call
    f(owner, sign * s) serves every piece of a step. As in integrate, a
    row is accepted on the sum of its pieces, at spec.tol * max(1, |value|),
    and the panels it splits may lie in either piece. Rows with a == b
    give 0 and are not evaluated.

    integrate splits one panel at a time, from a heap. Here a step takes,
    in every row not yet accepted, each panel wider than the floor whose
    error estimate is at least _MARK of the row's largest, and splits it
    into four equal panels: two bisection levels in one step, so that an
    inner call of _nested reaches the depth of the Jacobians' corner peaks
    in half the steps. On the 2-D routes (then unstretched) and double
    integrals of the seed-7 conditional-routes benchmark points, four
    parts took 910 steps and 683,280 Jacobian evaluations, two parts 1,690
    steps and 623,460, and eight parts 738 steps and 1,180,560. A row that
    passes its test is summed and dropped from the working arrays, so
    later steps never touch it again.

    For a single integral the heap is faster, which is why the engines
    stay two: the 1-D conditional routes that integrate ran 2.1x
    (AREA_MEDIAN) and 2.6x (PERIMETER_BISECTOR) slower as one-row calls
    of this engine (median of 20 interleaved passes over the seed-1
    conditional-routes points, 2-CPU host).

    Returns (values, error estimates), arrays of a's length. Raises
    ValueError for non-finite or reversed bounds, NonFiniteIntegrand when a
    panel sums to NaN or infinity, and ToleranceNotMet, with the first
    failing row's best estimate attached, when a row that misses its
    tolerance has only panels at the width floor left to split, or when a
    step would take the call past _PANEL_BUDGET panels. Both limits are
    those of integrate. groups[r], ints from 0 up, is the budget group of
    row r, and None makes the rows one group. The budget is each group's:
    a step fails only when it would take a group past _PANEL_BUDGET.
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
    # np.concatenate and np.full, not np.tile and np.broadcast_to, whose
    # Python-level code took 8% of a double integral's time.
    owner = np.concatenate([np.arange(a.size)] * len(pieces))

    def column(k):
        return np.concatenate([np.full(a.shape, piece[k]) for piece in pieces])

    lo, hi = column(2), column(3)
    if pieces[0][1] is None:  # unflagged: one piece, whose virtual rows are the rows
        g = f
    else:
        sign, end = column(0), column(1)

        def g(j, u):
            return _substituted(lambda s: f(owner[j], sign[j] * s), end[j])(u)

    n, rows = a.size, lo.size
    group = np.zeros(rows, np.intp) if groups is None else groups[owner]
    # The sums of the accepted rows; the panels of the others, as
    # [pa, pb] of virtual row j with its K15 value and error estimate.
    value, error = np.zeros(n), np.zeros(n)
    j = np.flatnonzero(lo < hi)
    if not j.size:
        return value, error
    pa, pb = lo[j], hi[j]
    floor = (hi - lo) * _FLOOR
    used = np.bincount(group[j], minlength=group.max() + 1)  # panels evaluated, per group
    val, err = _row_panels(g, j, pa, pb)

    def fail(r, why):  # row r, which is its own first virtual row, is still open
        raise ToleranceNotMet(f"row {r}: {why} (err ~ {total_err[r]:.3e})",
                              QuadratureResult(float(total[r]), float(total_err[r]),
                                               15 * int(used[group[r]])), int(group[r]))

    while True:
        # Each piece is summed first, then a row adds its pieces.
        total = np.bincount(owner, np.bincount(j, val, rows), n)
        total_err = np.bincount(owner, np.bincount(j, err, rows), n)
        done = total_err <= spec.tol * np.maximum(1.0, np.abs(total))  # a NaN error stays open
        value[done] += total[done]
        error[done] += total_err[done]
        still = ~done[owner[j]]
        j, pa, pb, val, err = j[still], pa[still], pb[still], val[still], err[still]
        if not j.size:
            return value, error
        r = owner[j]
        room = pb - pa > np.abs(pb + pa) * _FLOOR + floor[j]
        worst = np.zeros(n)
        np.maximum.at(worst, r[room], err[room])
        mark = room & (err >= _MARK * worst[r])
        stuck = (np.bincount(r, mark, n) == 0) & ~done
        if stuck.any():
            fail(int(np.argmax(stuck)), "no panel wider than the floor left to split")
        pick = np.flatnonzero(mark)
        cj = np.concatenate([j[pick]] * 4)
        after = used + np.bincount(group[cj], minlength=used.size)
        if after.max() > _PANEL_BUDGET:  # only a group that splits now can pass its budget
            fail(int(owner[cj[np.argmax(after[group[cj]] > _PANEL_BUDGET)]]),
                 f"panel budget of {_PANEL_BUDGET} exhausted")
        used = after
        A, B = pa[pick], pb[pick]
        mid = 0.5 * (A + B)
        q1, q3 = 0.5 * (A + mid), 0.5 * (mid + B)
        ca, cb = np.concatenate([A, q1, mid, q3]), np.concatenate([q1, mid, q3, B])
        cval, cerr = _row_panels(g, cj, ca, cb)
        keep = ~mark
        j, pa, pb, val, err = (np.concatenate([v[keep], c]) for v, c in
                               ((j, cj), (pa, ca), (pb, cb), (val, cval), (err, cerr)))


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


# Points per block of _blocked: 10^6 points in one pass make 8 MB temporaries
# that miss the cache (area_cdf took 0.17-0.24 s, and 0.07 s in these blocks).
_BLOCK = 1 << 14


def _blocked(law, x, block: int = _BLOCK):
    """law at a float x (a float), or at an array x in blocks of block elements.

    The blocks of the raveled x fill one preallocated array of x's shape.
    Each law taken here gives an element what it gives that element alone.
    """
    if isinstance(x, float):
        return float(law(x))
    flat = x.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, block):
        out[start:start + block] = law(flat[start:start + block])
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Complete elliptic integrals (modulus convention: K(z) integrates
# 1/sqrt(1 - z^2 sin^2 t) over [0, pi/2]).

_AGM_MAX_ITER = 24
# The AGM stops once |a - b| <= _AGM_TOL * a; the next mean then lies
# within _AGM_TOL^2 / 8 (5e-19) of the limit, relative. (A stop at a == b
# never came for about a quarter of moduli, whose a and b kept trading the
# last bit.) On an array the test is made at each step on the smallest k'
# alone: it is the slowest to pass (see _agm_KE).
_AGM_TOL = 2e-9
# Moduli per _agm_KE call in _agm_at. At this size each of the AGM's ten
# or so temporaries is 64 KB and stays in L2 cache, instead of streaming
# through memory at every step.
_AGM_BLOCK = 8192


def _agm_KE(k2, kp):
    """K and E from one AGM pass, given k^2 and the complementary modulus k'.

    Starting the AGM at b = k' directly (not at sqrt(1 - k^2)) keeps K
    finite and accurate when k is within rounding of 1, where it grows like
    log(4/k'); k^2 is taken separately so that E - K keeps its accuracy at
    small k. k2 and kp are both Python floats or both arrays; on arrays it
    works in place where it can, to hold few arrays at once, and on floats
    it makes the same operations in the same order, so that a float
    modulus gives what it gives in an array.

    _agm_at calls it on blocks of _AGM_BLOCK (8192) moduli. On an array
    the stopping test is made on the element of smallest k' alone: after
    n steps b/a increases with k' (b/a -> 2 sqrt(b/a) / (1 + b/a) is
    increasing), so that modulus is the last to pass it. Every modulus
    thus takes the steps its block's slowest one needs, and a step past
    convergence moves neither K nor E by a bit: array and scalar calls
    stay equal bit for bit, whatever the block. An empty array takes no
    step; a NaN or zero k' takes _AGM_MAX_ITER.
    """
    scalar = isinstance(kp, float)
    if not scalar and kp.size == 0:
        return np.empty_like(kp), np.empty_like(kp)
    slow = None if scalar else int(np.argmin(kp))  # a flat index: kp may be 2-D
    a = 1.0 if scalar else np.ones_like(kp)
    b = kp
    csum = 0.5 * k2  # sum of 2^(n-1) c_n^2 with c_n = (a_n - b_n)/2; the n = 0 term
    pow2 = 0.125  # 2^(n-1) / 4
    for n in range(_AGM_MAX_ITER):
        d = a - b
        pow2 *= 2.0
        d *= d
        d *= pow2
        csum += d
        a0, b0 = (a, b) if scalar else (a.item(slow), b.item(slow))
        if abs(a0 - b0) <= _AGM_TOL * a0:
            break
        m = a + b
        m *= 0.5
        b = a * b
        b = math.sqrt(b) if scalar else np.sqrt(b, out=b)
        a = m
    if scalar:
        K = math.pi / (a + b)
        return K, (1.0 - csum) * K
    K = a + b
    np.divide(np.pi, K, out=K)
    np.subtract(1.0, csum, out=csum)
    csum *= K
    return K, csum


def _agm_at(zeta, part: int):
    """K (part 0) or E (part 1) from _agm_KE at the moduli zeta, and the moduli within 1e-15 of 1.

    The one modulus check of ellip_K and ellip_E: zeta must lie in [0, 1],
    so NaN raises too. A modulus of no dimensions gives a Python float and
    a bool, an array gives arrays in its shape; _blocked runs either, an
    array in blocks of _AGM_BLOCK moduli. Moduli within 1e-15 of 1, where
    K diverges and E = 1, enter the AGM as 0.
    """
    z = np.asarray(zeta, dtype=float)
    z = float(z) if z.ndim == 0 else z  # a float is checked in Python, at a fifth of the cost
    if not (0.0 <= z <= 1.0 if isinstance(z, float) else ((z >= 0.0) & (z <= 1.0)).all()):
        raise ValueError("modulus must lie in [0, 1]")

    def block(zb):  # a float on math, an array on numpy, as in _agm_KE
        if isinstance(zb, float):
            z2 = 0.0 if zb >= 1.0 - 1e-15 else zb * zb
            return _agm_KE(z2, math.sqrt(1.0 - z2))[part]
        z2 = np.where(zb >= 1.0 - 1e-15, 0.0, zb)
        z2 *= z2
        kp = 1.0 - z2
        np.sqrt(kp, out=kp)
        return _agm_KE(z2, kp)[part]

    return _blocked(block, z, _AGM_BLOCK), z >= 1.0 - 1e-15


def ellip_K(zeta):
    """Complete elliptic integral of the first kind, by AGM.

    Accepts a float or ndarray of moduli in [0, 1). Raises Divergent when
    any modulus is within 1e-15 of 1 (logarithmic divergence).
    """
    K, one = _agm_at(zeta, 0)
    if np.any(one):
        raise Divergent("K diverges at modulus 1")
    return K


def ellip_E(zeta):
    """Complete elliptic integral of the second kind, by AGM.

    Accepts a float or ndarray of moduli in [0, 1]; E(1) = 1 exactly.
    """
    E, one = _agm_at(zeta, 1)
    if isinstance(E, float):
        return 1.0 if one else E
    E[one] = 1.0  # the AGM sum formula degenerates there
    return E


# ---------------------------------------------------------------------------
# Carlson's symmetric forms, which give the fixed-side perimeter law its
# incomplete integrals.

_CARLSON_TOL = 1e-16  # relative truncation error of the duplication series
_CARLSON_MAX_ITER = 60  # each step shrinks the spread of x, y, z fourfold
_CARLSON_Q = ((3.0 * _CARLSON_TOL) ** (-1 / 6), (0.25 * _CARLSON_TOL) ** (-1 / 6))  # of R_F and R_D


def carlson_rf_rd(x, y, z):
    """Carlson's R_F(x, y, z) and R_D(x, y, z) by one shared duplication.

    Both forms duplicate the same (x, y, z) sequence, so one loop serves
    the pair; R_D adds the running sum of its z-terms. Requires x, y >= 0
    and z > 0 with x + y > 0. Three floats run on Python floats, as in
    _agm_KE; otherwise the arguments broadcast as arrays, and every
    element takes the steps its slowest one needs, so an array element can
    differ from its float call in the last bits.
    """
    scalar = isinstance(x, float) and isinstance(y, float) and isinstance(z, float)
    sqrt, big = (math.sqrt, max) if scalar else (np.sqrt, np.maximum)
    if not scalar:
        x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    ok = (x >= 0.0) & (y >= 0.0) & (z > 0.0) & (x + y > 0.0)  # NaN fails too
    if not (ok if scalar else ok.all()):
        raise ValueError("need x, y >= 0, z > 0 and x + y > 0")
    a_f = (x + y + z) / 3.0
    a_d = (x + y + 3.0 * z) / 5.0
    fx, fy, dx, dy = a_f - x, a_f - y, a_d - x, a_d - y  # A_0 - x_0 and A_0 - y_0
    # Iterate until 4^-m Q < A_m; the series error is then below _CARLSON_TOL.
    q_f = _CARLSON_Q[0] * big(big(abs(fx), abs(fy)), abs(a_f - z))
    q_d = _CARLSON_Q[1] * big(big(abs(dx), abs(dy)), abs(a_d - z))
    tail = 0.0
    p = 1.0  # 4^-m
    for _ in range(_CARLSON_MAX_ITER):
        done = (p * q_f < a_f) & (p * q_d < a_d)
        if done if scalar else done.all():
            break
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail = tail + p / (sz * (z + lam))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        a_f, a_d = 0.25 * (a_f + lam), 0.25 * (a_d + lam)
        p *= 0.25
    X, Y = p * fx / a_f, p * fy / a_f
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(a_f)
    X, Y = p * dx / a_d, p * dy / a_d
    Z = -(X + Y) / 3.0
    xy, z2 = X * Y, Z * Z
    e2, e3 = xy - 6.0 * z2, (3.0 * xy - 8.0 * z2) * Z
    e4, e5 = 3.0 * (xy - z2) * z2, xy * z2 * Z
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rd = p * series / (a_d * sqrt(a_d)) + 3.0 * tail
    if scalar or rf.ndim == 0:
        return float(rf), float(rd)
    return rf, rd
