"""Trigonometric identities of the spherical triangle as executable residuals.

Every identity is evaluated in cleared-denominator (product) form, so the
residuals stay meaningful near the poles of the original quotient forms
instead of blowing up through catastrophic cancellation. A residual is
|LHS - RHS| of the cleared form: ~1e-15 for a consistent triangle, large
for inconsistent metrics (which is the point - they double as consistency
detectors).

The residuals and cevian decompositions also take a ``TriangleMetrics`` of
equal-shape arrays, one element per triangle, and return arrays.

A sine or cosine that more than one function here takes of the same
metrics or decomposition is taken once, batch-wide: the first function
that needs it keeps it in the object's private memo (see _shared), and
the others read it there. Each is the expression every one of them would
evaluate alone, so sharing changes no bit of any result. Checking a batch
with the residuals, both decompositions and both relations, as
``sphtri verify --suite identities`` does, takes each distinct
transcendental once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateTriangle, OutOfDomain
from .sphere import TriangleMetrics


@dataclass(frozen=True)
class IdentityResiduals:
    """Absolute residuals of the six triangle identities.

    area_halfangle      sin(alpha - sigma/2) = cot(b/2) cot(c/2) sin(sigma/2)
    perimeter_cosine    sin(b) sin(c) cos(alpha) = sin(tau-c) sin(b)
                        + [cos(tau-c) - cos(c)] cos(b)
    perimeter_halfangle sin(tau/2 - c) = tan(alpha/2) tan(beta/2) sin(tau/2)
    area_cosine         -sin(alpha) sin(beta) cos(c) = sin(sigma-alpha) sin(beta)
                        + [cos(sigma-alpha) - cos(alpha)] cos(beta)
    eriksson_area       tan(sigma/2) (1 + cos a + cos b + cos c)
                        = sin a sin b sin gamma
    eriksson_perimeter  tan(tau/2) (cos alpha + cos beta + cos gamma - 1)
                        = sin alpha sin beta sin c
    """

    area_halfangle: float
    perimeter_cosine: float
    perimeter_halfangle: float
    area_cosine: float
    eriksson_area: float
    eriksson_perimeter: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def max(self) -> float:
        """Largest residual over the six identities and every triangle."""
        # np.max, not the builtin max, which drops a NaN that comes after a number.
        return float(np.max([np.max(r) for r in self.as_tuple()]))


@dataclass(frozen=True)
class CevianDecomposition:
    """Length rho and foot angle theta of a cevian great circle."""

    rho: float
    theta: float

    @cached_property
    def _memo(self) -> dict:
        return {}


# The values that more than one function takes of one TriangleMetrics (the
# half angles and cosines) or of one CevianDecomposition (sin rho, sin theta).
_SHARED = {
    "cos_a": lambda m: np.cos(m.a),
    "cos_b": lambda m: np.cos(m.b),
    "cos_beta": lambda m: np.cos(m.beta),
    "cos_gamma": lambda m: np.cos(m.gamma),
    "sin_c2": lambda m: np.sin(m.c / 2),
    "cos_c2": lambda m: np.cos(m.c / 2),
    "sin_alpha2": lambda m: np.sin(m.alpha / 2),
    "cos_alpha2": lambda m: np.cos(m.alpha / 2),
    "sin_sigma2": lambda m: np.sin(m.sigma / 2),
    "cos_sigma2": lambda m: np.cos(m.sigma / 2),
    "sin_tau2": lambda m: np.sin(m.tau / 2),
    "cos_tau2": lambda m: np.cos(m.tau / 2),
    "sin_rho": lambda dec: np.sin(dec.rho),
    "sin_theta": lambda dec: np.sin(dec.theta),
}


def _shared(obj, *names):
    """The _SHARED values of the given names for obj, each computed on first use."""
    memo = obj._memo
    for name in names:
        if name not in memo:
            memo[name] = _SHARED[name](obj)
    return tuple(memo[name] for name in names)


class SolvedFormKind(enum.Enum):
    ANGLE_PSI = "angle_psi"
    SIDE_ETA = "side_eta"


def identity_residuals(m: TriangleMetrics) -> IdentityResiduals:
    """Residuals of all six identities for one triangle or a batch of them.

    Each sine and cosine is taken once: those that two identities share
    here, and those the cevian functions also take, once for the batch.
    """
    a, b, c = m.a, m.b, m.c
    al, be, ga = m.alpha, m.beta, m.gamma
    sig, tau = m.sigma, m.tau
    cos_a, cos_b, cos_be, cos_ga = _shared(m, "cos_a", "cos_b", "cos_beta", "cos_gamma")
    sin_c2, cos_c2, sin_al2, cos_al2 = _shared(m, "sin_c2", "cos_c2", "sin_alpha2", "cos_alpha2")
    sin_sig2, cos_sig2, sin_tau2, cos_tau2 = _shared(m, "sin_sigma2", "cos_sigma2", "sin_tau2",
                                                     "cos_tau2")
    sin_b, sin_c, cos_c = np.sin(b), np.sin(c), np.cos(c)
    sin_al, sin_be, cos_al = np.sin(al), np.sin(be), np.cos(al)

    r1 = abs(
        np.sin(al - sig / 2) * np.sin(b / 2) * sin_c2
        - np.cos(b / 2) * cos_c2 * sin_sig2
    )
    r2 = abs(
        sin_b * sin_c * cos_al
        - np.sin(tau - c) * sin_b
        - (np.cos(tau - c) - cos_c) * cos_b
    )
    r3 = abs(
        np.sin(tau / 2 - c) * cos_al2 * np.cos(be / 2)
        - sin_al2 * np.sin(be / 2) * sin_tau2
    )
    r4 = abs(
        -sin_al * sin_be * cos_c
        - np.sin(sig - al) * sin_be
        - (np.cos(sig - al) - cos_al) * cos_be
    )
    r5 = abs(
        sin_sig2 * (1 + cos_a + cos_b + cos_c)
        - cos_sig2 * np.sin(a) * sin_b * np.sin(ga)
    )
    r6 = abs(
        sin_tau2 * (cos_al + cos_be + cos_ga - 1)
        - cos_tau2 * sin_al * sin_be * sin_c
    )
    return IdentityResiduals(r1, r2, r3, r4, r5, r6)


def median_decompose(m: TriangleMetrics) -> CevianDecomposition:
    """Median from C to the midpoint P of side c.

    rho is the arc P-C, theta the angle at P between PB and PC:

        cos(rho)   = (cos a + cos b) / (2 cos(c/2))
        cos(theta) = (cos a - cos b) / (2 sin(c/2) sin(rho))

    and they tie to the excess by
    tan(sigma/2) = sin(c/2) sin(rho) sin(theta) / (cos(c/2) + cos(rho)).
    Raises DegenerateTriangle if any triangle of a batch is degenerate.
    """
    if np.any((m.c >= math.pi - 1e-12) | (m.c <= 1e-12)):
        raise DegenerateTriangle("midpoint of side c undefined")
    cos_a, cos_b, cos_c2, sin_c2 = _shared(m, "cos_a", "cos_b", "cos_c2", "sin_c2")
    cos_rho = np.clip((cos_a + cos_b) / (2.0 * cos_c2), -1.0, 1.0)
    rho = np.arccos(cos_rho)
    sin_rho = np.sin(rho)
    if np.any(sin_rho < 1e-12):
        raise DegenerateTriangle("median degenerate (rho at 0 or pi)")
    cos_theta = (cos_a - cos_b) / (2.0 * sin_c2 * sin_rho)
    # sin(theta) from the excess relation, for quadrant-safe recovery.
    sin_theta = np.tan(m.sigma / 2) * (cos_c2 + cos_rho) / (sin_c2 * sin_rho)
    dec = CevianDecomposition(rho, np.arctan2(sin_theta, cos_theta))
    dec._memo["sin_rho"] = sin_rho
    return dec


def _bisector(cos_beta, cos_gamma, cos_alpha2, sin_alpha2):
    """(theta, rho, sin theta) of bisector_angles from the cosines it takes."""
    # cos rho is divided in place below, so it takes alpha's axes too (as views).
    cos_beta, cos_gamma, _ = np.broadcast_arrays(cos_beta, cos_gamma, cos_alpha2)
    theta = np.arccos(np.clip((cos_beta - cos_gamma) / (2.0 * cos_alpha2), -1.0, 1.0))
    cos_rho = -(cos_beta + cos_gamma)
    # In place from here (the temporary first in the product, so that numpy
    # reuses it), so that keeping sin theta holds no more arrays at once than
    # bisector_angles did without it.
    del cos_beta, cos_gamma
    sin_theta = np.sin(theta)
    with np.errstate(over="ignore"):
        cos_rho /= np.maximum(sin_theta, 1e-300) * (2.0 * sin_alpha2)
    cos_rho = np.clip(cos_rho, -1.0, 1.0)
    return theta, np.arccos(cos_rho), sin_theta


def bisector_angles(alpha, beta, gamma):
    """(theta, rho) of bisector_decompose from the three angles, unchecked.

    The angles are floats or arrays that broadcast. sin(theta) is floored at
    1e-300 in rho's denominator only, so a degenerate triangle gives no 0/0.
    """
    theta, rho, _ = _bisector(np.cos(beta), np.cos(gamma), np.cos(alpha / 2), np.sin(alpha / 2))
    return theta, rho


def bisector_decompose(m: TriangleMetrics) -> CevianDecomposition:
    """Bisector of angle alpha, met at the far intersection with side BC's circle.

    theta first, then rho (each lies in (0, pi), so acos is unambiguous):

        cos(theta) = (cos beta - cos gamma) / (2 cos(alpha/2))
        cos(rho)   = -(cos beta + cos gamma) / (2 sin(alpha/2) sin(theta))

    tied to the perimeter by
    tan(tau/2) = -cos(alpha/2) sin(rho) sin(theta) / (sin(alpha/2) + cos(rho) sin(theta)),
    and rho >= bisector_threshold(tau, alpha). Raises DegenerateTriangle if
    any triangle of a batch is degenerate.
    """
    if np.any((m.alpha <= 1e-12) | (m.alpha >= math.pi - 1e-12)):
        raise DegenerateTriangle("bisector of a degenerate angle")
    cosines = _shared(m, "cos_beta", "cos_gamma", "cos_alpha2", "sin_alpha2")
    theta, rho, sin_theta = _bisector(*cosines)
    if np.any(sin_theta < 1e-12):
        raise DegenerateTriangle("bisector degenerate (theta at 0 or pi)")
    dec = CevianDecomposition(rho, theta)
    dec._memo["sin_theta"] = sin_theta
    return dec


def bisector_threshold(tau: float, alpha: float) -> float:
    """Smallest admissible cevian length in the bisector construction.

    cos(rho_thres) = -(cos(tau/2) + sin(alpha/2)) / (1 + cos(tau/2) sin(alpha/2)),
    evaluated through d = 1 + cos(tau/2) and e = 1 - sin(alpha/2) so that the
    near-degenerate corner (tau near 2 pi, alpha near pi) keeps full precision:
    the quotient becomes (e - d) / (e + d - d e), whose denominator is at least
    9.4e-33. At (2 pi, pi) it is 0/0 exactly, and rounding gives acos(-0.6) =
    2.2143; no src caller gets there (conditional_cdf answers 1 at x >= 2 pi,
    and the samplers reject an angle of pi). Scalar only: on floats numpy costs
    about ten times what math does, which would show in the bisector route.
    Raises ValueError for tau outside [0, 2 pi] or alpha outside [0, pi], NaN included.
    """
    if not 0.0 <= tau <= 2.0 * math.pi:  # NaN fails too
        raise ValueError("tau must lie in [0, 2*pi]")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("alpha must lie in [0, pi]")
    d = 2.0 * math.cos(tau / 4) ** 2
    e = math.cos(alpha / 2) ** 2 / (1.0 + math.sin(alpha / 2))
    den = e + d - d * e
    return math.acos(max(-1.0, min(1.0, (e - d) / den)))


def median_relation_residual(m: TriangleMetrics, dec: CevianDecomposition) -> float:
    """Cleared-form residual of the median/excess relation."""
    sin_sig2, cos_sig2, sin_c2, cos_c2 = _shared(m, "sin_sigma2", "cos_sigma2", "sin_c2", "cos_c2")
    (sin_rho,) = _shared(dec, "sin_rho")
    return abs(
        sin_sig2 * (cos_c2 + np.cos(dec.rho))
        - cos_sig2 * sin_c2 * sin_rho * np.sin(dec.theta)
    )


def bisector_relation_residual(m: TriangleMetrics, dec: CevianDecomposition) -> float:
    """Cleared-form residual of the bisector/perimeter relation."""
    sin_tau2, cos_tau2, sin_al2, cos_al2 = _shared(m, "sin_tau2", "cos_tau2", "sin_alpha2",
                                                   "cos_alpha2")
    (sin_theta,) = _shared(dec, "sin_theta")
    return abs(
        sin_tau2 * (sin_al2 + np.cos(dec.rho) * sin_theta)
        + cos_tau2 * cos_al2 * np.sin(dec.rho) * sin_theta
    )


def solved_forms(kind: SolvedFormKind, x, tau_or_sigma: float, kappa: float):
    """Closed forms for the second angle/side on an iso-perimeter/area curve.

    ANGLE_PSI: given alpha = x, perimeter tau and fixed side c = kappa,
    returns cos(psi) for the angle beta = psi with that perimeter:

        y = tan(x/2) sin(tau/2) / sin(tau/2 - kappa),  cos psi = (y^2-1)/(y^2+1)

    SIDE_ETA: given c = x, area sigma and fixed angle alpha = kappa,
    returns cos(eta) for the side b = eta with that area:

        w = cot(x/2) sin(sigma/2) / sin(kappa - sigma/2),  cos eta = (1-w^2)/(1+w^2)

    x may be a float or an ndarray; an array gives an array of its shape
    and a float an np.float64. Raises OutOfDomain where a denominator
    vanishes or a value leaves [-1, 1].
    """
    if kind is SolvedFormKind.ANGLE_PSI:
        tau = tau_or_sigma
        den = math.sin(tau / 2 - kappa)
        if abs(den) < 1e-300:
            raise OutOfDomain("sin(tau/2 - kappa) vanishes")
        y = np.tan(x / 2) * math.sin(tau / 2) / den
        out = 1.0 - 2.0 / (y * y + 1.0)  # y^2 = inf gives 1
    else:
        sigma = tau_or_sigma
        den = math.sin(kappa - sigma / 2)
        if abs(den) < 1e-300:
            raise OutOfDomain("sin(kappa - sigma/2) vanishes")
        t = np.tan(x / 2)
        if np.any(abs(t) < 1e-300):
            raise OutOfDomain("cot(x/2) diverges")
        w = math.sin(sigma / 2) / (t * den)
        out = 2.0 / (w * w + 1.0) - 1.0  # w^2 = inf gives -1
    if not np.all(abs(out) <= 1.0 + 1e-12):  # NaN fails too
        raise OutOfDomain(f"solved form outside [-1, 1]: {out!r}")
    return out
