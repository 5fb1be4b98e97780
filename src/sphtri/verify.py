"""Verification checks, grouped in named suites.

Each suite returns a list of ``Check``s; a check passes when its value is
below its bound. ``SUITES`` maps the suite names to functions of
``(n, seed)``: ``sphtri verify`` runs them, and the acceptance tests take
the values of the reductions, identities and jacobians suites from here
and hold them to their own bounds. Suites that draw no samples ignore
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
    TWO_PI,
    ConditionalKind,
    DensityKind,
    EllipticReduction,
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
    REGION_SETUP, BatchKind, EmpiricalCdf, SampleBatch, ks_distance, region_coverage,
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
    med = median_relation_residual(m, median_decompose(m))
    bis = bisector_relation_residual(m, bisector_decompose(m))
    return [
        Check("identity residuals", identity_residuals(m).max(), 1e-10),
        Check("median relation", float(np.max(med)), 1e-10),
        Check("bisector relation", float(np.max(bis)), 1e-10),
    ]


def jacobian_checks() -> list[Check]:
    """Closed-form area elements against finite differences on 10x10x5 grids."""
    us = np.linspace(0.15, math.pi - 0.15, 10)
    ks = np.linspace(0.3, math.pi - 0.3, 5)
    u, v = np.meshgrid(us, us, indexing="ij")
    worst = _worst(jacobian_fd_check(CoordTriple(kind, u, v, float(k)))
                   for kind, k in itertools.product(CoordKind, ks))
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


def _admissible_grid(reduction: EllipticReduction):
    for x in np.linspace(0.6, TWO_PI - 0.6, 5):
        half = x / 2
        for frac in (0.15, 0.3, 0.5, 0.7, 0.85):
            if reduction is EllipticReduction.PERIMETER_GIVEN_SIDE:
                kappa = frac * min(half, math.pi)
                if 0 < kappa < half < math.pi:
                    yield float(x), float(kappa)
            else:
                kappa = half + frac * (math.pi - half)
                if 0 < half < kappa < math.pi:
                    yield float(x), float(kappa)


def reduction_checks() -> list[Check]:
    """Each elliptic-integral reduction against its defining integral."""
    return [
        Check(f"elliptic reduction [{reduction.value}]",
              _worst(elliptic_reduction_gap(reduction, x, kappa)
                     for x, kappa in _admissible_grid(reduction)),
              1e-8)
        for reduction in EllipticReduction
    ]


def duality_checks() -> list[Check]:
    """The primal perimeter density against the mirrored dual area density."""
    gaps = []
    for x in np.linspace(0.5, TWO_PI - 0.5, 10):
        a = density_via_double_integral(DensityKind.PERIMETER_PRIMAL, float(x), tol=1e-8)
        b = density_via_double_integral(DensityKind.AREA_DUAL, float(TWO_PI - x), tol=1e-8)
        gaps.append(abs(a - b))
    return [
        Check("perimeter vs mirrored dual area", _worst(gaps), 1e-7),
        Check("perimeter density at pi vs 3*sqrt(2)/32",
              abs(perimeter_density(math.pi) - 3 * math.sqrt(2) / 32), 1e-9),
    ]


def primal_ks(batch: SampleBatch) -> tuple[float, float]:
    """KS distances of a primal batch from the area CDF and the perimeter CDF."""
    return (ks_distance(EmpiricalCdf(batch.sigma), area_cdf),
            ks_distance(EmpiricalCdf(batch.tau), perimeter_cdf))


def mc_checks(n: int, seed: int) -> list[Check]:
    """Monte Carlo batches against the analytic and conditional laws."""
    batch = sample_batch(BatchKind.PRIMAL, None, max(n, 10**5), RngStream(seed))
    ks_bound = 0.003 * math.sqrt(10**6 / batch.n)
    ks_area, ks_perimeter = primal_ks(batch)
    checks = [
        Check("KS primal area vs analytic CDF", ks_area, ks_bound),
        Check("KS primal perimeter vs single-integral CDF", ks_perimeter, ks_bound),
    ]
    m = 10**5
    for ckind, (bkind, stat) in REGION_SETUP.items():
        if ckind is ConditionalKind.PERIMETER_BISECTOR:  # the perimeter-given-angle law again
            continue
        ratios = []
        for kappa in np.linspace(0.5, math.pi - 0.5, 3):
            cb = sample_batch(bkind, float(kappa), m, RngStream(seed, 7))
            vals = getattr(cb, stat)
            for x in np.linspace(0.8, TWO_PI - 0.8, 3):
                p = conditional_cdf(ckind, float(x), float(kappa))
                frac = float(np.mean(vals <= x))
                se = math.sqrt(max(p * (1 - p), 1e-12) / m)
                ratios.append(abs(frac - p) / (3 * se))
        checks.append(Check(f"conditional fractions [{ckind.value}] / 3se", _worst(ratios), 1.0))
    viol = sum(region_coverage(ckind, 1.2, 3.0, 10**5, RngStream(seed, 11))
               for ckind in REGION_SETUP)
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
