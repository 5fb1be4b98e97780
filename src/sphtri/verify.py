"""Verification checks, grouped in named suites.

Each suite returns a list of ``Check``s; a check passes when its value is
below its bound. ``SUITES`` maps the suite names to functions of
``(n, seed)``: ``sphtri verify`` runs each suite it is asked for and
times it, and the acceptance tests take the values of the reductions,
identities and jacobians suites from here and hold them to their own
bounds. Suites that draw no samples ignore
``n`` and ``seed``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import CoordKind, CoordTriple, jacobian_fd_check
from .distributions import (
    CONDITIONAL_LAWS,
    TWO_PI,
    ConditionalKind,
    DensityKind,
    _polar,
    area_cdf,
    conditional_cdf,
    density_via_double_integral,
    elliptic_reduction_gap,
    perimeter_cdf,
    perimeter_density,
)
from .identities import (
    bisector_decompose,
    bisector_relation_residual,
    identity_residuals,
    median_decompose,
    median_relation_residual,
)
from .montecarlo import (
    GIVEN_BATCH, BatchKind, EmpiricalCdf, SampleBatch, ks_distance, region_coverage,
    sample_batch,
)
from .quadrature import QuadratureSpec, ellip_E, ellip_K, integrate
from .sphere import RngStream, TriangleMetrics, sample_uniform_points


@dataclass(frozen=True)
class Check:
    """One named value, held to an upper bound."""

    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value < self.bound


def _worst(values) -> float:
    """The largest of the values, or NaN if any is NaN, so that the check fails.

    The builtin max drops a NaN that comes after a number (max(0.0, nan) is 0.0).
    """
    return float(np.max(list(values)))


def identity_checks(n: int, seed: int) -> list[Check]:
    """Identity and cevian-relation residuals on n random primal triangles."""
    pts = sample_uniform_points(RngStream(seed), 3 * n).reshape(n, 3, 3)
    m = TriangleMetrics.from_vertices(pts[:, 0], pts[:, 1], pts[:, 2])
    del pts  # m holds no view of it: free it before the residuals' temporaries
    # The residuals first: their six arrays are reduced and freed before the
    # cevian functions run, which read the sines and cosines they share.
    worst = identity_residuals(m).max()
    med = median_relation_residual(m, median_decompose(m))
    bis = bisector_relation_residual(m, bisector_decompose(m))
    return [
        Check("identity residuals", worst, 1e-10),
        Check("median relation", float(np.max(med)), 1e-10),
        Check("bisector relation", float(np.max(bis)), 1e-10),
    ]


def jacobian_checks() -> list[Check]:
    """Closed-form area elements against finite differences on 10x10x5 grids.

    The 5 kappa lie on a leading axis of the grid, so each coordinate
    system is one jacobian_fd_check call, whose elements equal the calls
    at one float kappa each bit for bit: 1.0 ms for the 4 calls where the
    20 took 3.0 ms (best of 15 x 4, 2-CPU host).
    """
    us = np.linspace(0.15, math.pi - 0.15, 10)
    ks = np.linspace(0.3, math.pi - 0.3, 5)[:, None, None]
    u, v = np.meshgrid(us, us, indexing="ij")
    worst = _worst(jacobian_fd_check(CoordTriple(kind, u, v, ks)) for kind in CoordKind)
    return [Check("area-element vs finite difference", worst, 1e-6)]


def elliptic_checks() -> list[Check]:
    """Legendre's relation, and the AGM K and E against their defining integrals."""
    zs = np.linspace(0.02, 0.98, 20)
    moduli = np.stack([zs, np.sqrt(1.0 - zs * zs)])  # each modulus over its complement
    (K, Kp), (E, Ep) = ellip_K(moduli), ellip_E(moduli)
    legendre = np.abs(E * Kp + Ep * K - K * Kp - math.pi / 2)
    agm = []
    spec = QuadratureSpec(1e-13)
    for z in (0.3, 0.7071067811865476, 0.95):
        r = integrate(lambda t: 1.0 / np.sqrt(1 - z * z * np.sin(t) ** 2), 0, math.pi / 2, spec)
        agm.append(abs(r.value - ellip_K(z)))
        r = integrate(lambda t: np.sqrt(1 - z * z * np.sin(t) ** 2), 0, math.pi / 2, spec)
        agm.append(abs(r.value - ellip_E(z)))
    return [
        Check("Legendre relation", _worst(legendre), 1e-12),
        Check("AGM vs defining integrals", _worst(agm), 1e-12),
    ]


def reduction_checks() -> list[Check]:
    """The elliptic reduction against its defining integral, on one grid of 5 x and 10 kappa.

    The grid is one array call. kappa runs over fractions of the
    admissible range (x/2, pi) at each x.
    The fixed-side reduction is the same equation at the polar point
    (2*pi - x, pi - kappa), which takes fraction f of its range (0, x/2)
    to 1 - f of this one and the x grid onto itself, so this one grid
    holds the fixed-side points too.
    """
    fractions = np.array([0.15, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.85, 0.9])
    x = np.linspace(0.6, TWO_PI - 0.6, 5)[:, None]
    gaps = elliptic_reduction_gap(x, x / 2 + fractions * (math.pi - x / 2))
    return [Check("elliptic reduction", _worst(gaps), 1e-8)]


def duality_checks() -> list[Check]:
    """The primal perimeter double integral against the perimeter series, and two exact values.

    The double integral runs at its 10 points in one array call, from one
    outer row per point: 8,820 integrand points in 0.75 ms, where four
    rows took 35,280 in 2.4 ms (best of 15 x 4, 2-CPU host). It is
    the dual area's at the polar point, and the series was fitted from
    the 1-D AGM integral, so the two are independent. The series was
    fitted to neither exact value: f(pi), and c in sqrt(d) f(2*pi - d) -> c.
    """
    xs = np.linspace(0.5, TWO_PI - 0.5, 10)
    gaps = np.abs(density_via_double_integral(DensityKind.PERIMETER_PRIMAL, xs, tol=1e-8)
                  - perimeter_density(xs))
    x = TWO_PI - 1e-12
    delta = _polar(x)  # the distance to the true 2*pi
    c = 3 * math.pi ** 2 / (math.sqrt(2) * math.gamma(0.25) ** 4)
    return [
        Check("perimeter double integral vs series", _worst(gaps), 1e-7),
        Check("perimeter density at pi vs 3*sqrt(2)/32",
              abs(perimeter_density(math.pi) - 3 * math.sqrt(2) / 32), 1e-12),
        Check("perimeter density tail vs 3*pi^2/(sqrt(2)*Gamma(1/4)^4)",
              abs(math.sqrt(delta) * perimeter_density(x) / c - 1.0), 1e-10),
    ]


def primal_ks(batch: SampleBatch) -> tuple[float, float]:
    """KS distances of a primal batch from the area CDF and the perimeter CDF."""
    return (ks_distance(EmpiricalCdf(batch.sigma), area_cdf),
            ks_distance(EmpiricalCdf(batch.tau), perimeter_cdf))


def mc_checks(n: int, seed: int) -> list[Check]:
    """Monte Carlo batches against the analytic and conditional laws.

    The conditional laws draw one batch per (element, kappa), on stream
    (seed, 7), and each law of that element reads it.
    """
    batch = sample_batch(BatchKind.PRIMAL, None, max(n, 10**5), RngStream(seed))
    ks_bound = 0.003 * math.sqrt(10**6 / batch.n)
    ks_area, ks_perimeter = primal_ks(batch)
    # The dual sampler builds its triangles from poles, so its area against
    # the perimeter law tests polar duality independently of the routes.
    dual = sample_batch(BatchKind.DUAL, None, batch.n, RngStream(seed, 3))
    ks_dual = ks_distance(EmpiricalCdf(dual.sigma), lambda s: 1.0 - perimeter_cdf(_polar(s)))
    checks = [
        Check("KS primal area vs analytic CDF", ks_area, ks_bound),
        Check("KS primal perimeter vs single-integral CDF", ks_perimeter, ks_bound),
        Check("KS dual area vs mirrored perimeter CDF", ks_dual, ks_bound),
    ]
    m = 10**5
    laws = {ckind: law for ckind, law in CONDITIONAL_LAWS.items() if law.closed_form is ckind}
    ratios = {ckind: [] for ckind in laws}
    for element, kappa in itertools.product(GIVEN_BATCH, np.linspace(0.5, math.pi - 0.5, 3)):
        cb = sample_batch(GIVEN_BATCH[element], float(kappa), m, RngStream(seed, 7))
        for ckind, law in laws.items():
            if law.element != element:
                continue
            vals = getattr(cb, law.statistic)
            for x in np.linspace(0.8, TWO_PI - 0.8, 3):
                p = conditional_cdf(ckind, float(x), float(kappa))
                frac = float(np.mean(vals <= x))
                se = math.sqrt(max(p * (1 - p), 1e-12) / m)
                ratios[ckind].append(abs(frac - p) / (3 * se))
    checks += [Check(f"conditional fractions [{ckind.value}] / 3se", _worst(r), 1.0)
               for ckind, r in ratios.items()]
    # The four laws' regions and the bisector construction's, the one integral route with its own.
    viol = sum(region_coverage(ckind, 1.2, 3.0, 10**5, RngStream(seed, 11))
               for ckind in (*laws, ConditionalKind.PERIMETER_BISECTOR))
    checks.append(Check("region coverage violations", float(viol), 1.0))
    return checks


SUITES: dict[str, Callable[[int, int], list[Check]]] = {
    "identities": identity_checks,
    "jacobians": lambda n, seed: jacobian_checks(),
    "elliptic": lambda n, seed: elliptic_checks(),
    "reductions": lambda n, seed: reduction_checks(),
    "duality": lambda n, seed: duality_checks(),
    "mc-vs-analytic": mc_checks,
}

