"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one `ACCEPT <n> ... PASS/FAIL (<elapsed>)` line; run with
`pytest tests/test_acceptance.py -v -s` to see the report. Tests 05-07 take
their values from the suites in `sphtri.verify`, which `sphtri verify` also
runs; the bounds they are held to are the ones written here.
"""

import math
import time

import numpy as np

from sphtri import verify
from sphtri.distributions import (
    ConditionalKind,
    DensityKind,
    EllipticReduction,
    area_cdf,
    area_density,
    conditional_cdf,
    density_via_double_integral,
    perimeter_cdf,
    perimeter_density,
)
from sphtri.montecarlo import (
    BatchKind,
    EmpiricalCdf,
    ks_distance,
    region_coverage,
    sample_batch,
)
from sphtri.quadrature import QuadratureSpec, integrate
from sphtri.sphere import RngStream

PI = math.pi
TWO_PI = 2.0 * PI
PERIM_AT_PI = 3.0 * math.sqrt(2.0) / 32.0  # 0.132582521472478...


def _report(num, name, elapsed, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT {num:02d} {name}: {status} ({elapsed:.2f} s) {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_01_perimeter_density_at_pi():
    t0 = time.perf_counter()
    v = perimeter_density(PI)
    dt = time.perf_counter() - t0
    err = abs(v - PERIM_AT_PI)
    _report(1, "perimeter density at pi = 3*sqrt(2)/32", dt,
            err < 1e-9 and dt < 1.0, f"err={err:.2e}")


def test_02_same_value_via_double_integrals():
    t0 = time.perf_counter()
    v1 = density_via_double_integral(DensityKind.PERIMETER_PRIMAL, PI, tol=1e-9)
    dt1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    v2 = density_via_double_integral(DensityKind.AREA_DUAL, TWO_PI - PI, tol=1e-9)
    dt2 = time.perf_counter() - t0
    e1, e2 = abs(v1 - PERIM_AT_PI), abs(v2 - PERIM_AT_PI)
    _report(2, "double-integral routes at pi", dt1 + dt2,
            e1 < 1e-7 and e2 < 1e-7 and dt1 < 10 and dt2 < 10,
            f"primal err={e1:.2e} dual err={e2:.2e}")


def test_03_area_density_at_pi():
    t0 = time.perf_counter()
    v = area_density(PI)
    dt = time.perf_counter() - t0
    err = abs(v - 1.0 / (4 * PI))
    _report(3, "area density at pi = 1/(4*pi)", dt, err < 1e-8 and dt < 1.0,
            f"err={err:.2e}")


def test_04_normalization():
    t0 = time.perf_counter()
    area_total = integrate(area_density, 0.0, TWO_PI, QuadratureSpec(1e-10)).value

    g = lambda s: np.array(
        [perimeter_density(min(max(float(v), 1e-12), TWO_PI - 1e-9), tol=1e-10)
         for v in np.atleast_1d(s)]
    )
    perim_total = integrate(
        g, 0.0, TWO_PI, QuadratureSpec(1e-7, singular_right=True)
    ).value
    dt = time.perf_counter() - t0
    e1, e2 = abs(area_total - 1.0), abs(perim_total - 1.0)
    _report(4, "densities integrate to 1", dt,
            e1 < 1e-8 and e2 < 1e-5 and dt < 30,
            f"area err={e1:.2e} perimeter err={e2:.2e}")


def test_05_elliptic_reductions_on_grids():
    t0 = time.perf_counter()
    gaps = {c.name: c.value for c in verify.reduction_checks()}
    dt = time.perf_counter() - t0
    worst = max(gaps[f"elliptic reduction [{r.value}]"] for r in EllipticReduction)
    _report(5, "elliptic-integral reductions settle numerically", dt,
            worst < 1e-8 and dt < 60, f"worst gap={worst:.2e} over {len(gaps)} reductions")


def test_06_identity_suite():
    t0 = time.perf_counter()
    res = {c.name: c.value for c in verify.identity_checks(10**4, 606)}
    dt = time.perf_counter() - t0
    worst = res["identity residuals"]
    worst_med = res["median relation"]
    worst_bis = res["bisector relation"]
    ok = worst < 1e-10 and worst_med < 1e-10 and worst_bis < 1e-10 and dt < 10
    _report(6, "identities and cevian relations on 10^4 triangles", dt, ok,
            f"identities={worst:.2e} median={worst_med:.2e} bisector={worst_bis:.2e}")


def test_07_jacobian_suite():
    t0 = time.perf_counter()
    (check,) = verify.jacobian_checks()
    dt = time.perf_counter() - t0
    worst = check.value
    _report(7, "area elements vs finite differences on 10x10x5 grids", dt,
            worst < 1e-6 and dt < 30, f"worst rel err={worst:.2e}")


def test_08_monte_carlo_agreement(primal_batch_1m):
    t0 = time.perf_counter()
    d_area = ks_distance(EmpiricalCdf(primal_batch_1m.sigma), area_cdf)
    d_perim = ks_distance(EmpiricalCdf(primal_batch_1m.tau), perimeter_cdf)
    ok = d_area < 0.003 and d_perim < 0.003

    matrix = [
        (ConditionalKind.AREA_GIVEN_SIDE, BatchKind.PRIMAL_GIVEN_SIDE, "sigma"),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, BatchKind.PRIMAL_GIVEN_SIDE, "tau"),
        (ConditionalKind.PERIMETER_GIVEN_ANGLE, BatchKind.DUAL_GIVEN_ANGLE, "tau"),
        (ConditionalKind.AREA_GIVEN_ANGLE, BatchKind.DUAL_GIVEN_ANGLE, "sigma"),
        (ConditionalKind.AREA_MEDIAN, BatchKind.PRIMAL_GIVEN_SIDE, "sigma"),
        (ConditionalKind.PERIMETER_BISECTOR, BatchKind.DUAL_GIVEN_ANGLE, "tau"),
        (ConditionalKind.PERIMETER_ANGLE_COORDS, BatchKind.PRIMAL_GIVEN_SIDE, "tau"),
        (ConditionalKind.AREA_SIDE_COORDS, BatchKind.DUAL_GIVEN_ANGLE, "sigma"),
    ]
    n = 10**5
    worst_sigma = 0.0
    batches = {}
    for kappa in np.linspace(0.5, PI - 0.5, 5):
        for bkind in (BatchKind.PRIMAL_GIVEN_SIDE, BatchKind.DUAL_GIVEN_ANGLE):
            batches[(bkind, float(kappa))] = sample_batch(bkind, float(kappa), n, RngStream(810, 2))
    for ckind, bkind, stat in matrix:
        for kappa in np.linspace(0.5, PI - 0.5, 5):
            vals = getattr(batches[(bkind, float(kappa))], stat)
            for x in np.linspace(0.8, TWO_PI - 0.8, 5):
                p = conditional_cdf(ckind, float(x), float(kappa), tol=1e-7)
                frac = float(np.mean(vals <= x))
                se = math.sqrt(max(p * (1 - p), 1e-12) / n)
                worst_sigma = max(worst_sigma, abs(frac - p) / (3 * se + 1e-9))
    ok &= worst_sigma <= 1.0

    violations = 0
    for kind, kappa, limit in [
        (ConditionalKind.AREA_GIVEN_SIDE, 1.2, 2.0),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 1.2, 3.0),
        (ConditionalKind.PERIMETER_GIVEN_ANGLE, 1.2, 3.0),
        (ConditionalKind.AREA_GIVEN_ANGLE, 1.9, 2.0),
        (ConditionalKind.PERIMETER_BISECTOR, 1.2, 3.0),
    ]:
        violations += region_coverage(kind, kappa, limit, 10**5, RngStream(809))
    ok &= violations == 0
    dt = time.perf_counter() - t0
    _report(8, "Monte Carlo vs analytic laws", dt, ok and dt < 180,
            f"KS area={d_area:.4f} KS perim={d_perim:.4f} "
            f"worst |frac-p|/3se={worst_sigma:.2f} region violations={violations}")


def test_09_cross_formula_redundancy():
    t0 = time.perf_counter()
    pairs_same_grid = [
        (ConditionalKind.AREA_MEDIAN, ConditionalKind.AREA_GIVEN_SIDE),
        (ConditionalKind.PERIMETER_BISECTOR, ConditionalKind.PERIMETER_GIVEN_ANGLE),
    ]
    worst = 0.0
    for kind_a, kind_b in pairs_same_grid:
        for x in np.linspace(0.8, TWO_PI - 0.8, 5):
            for k in np.linspace(0.4, PI - 0.4, 5):
                a = conditional_cdf(kind_a, float(x), float(k), tol=1e-8)
                b = conditional_cdf(kind_b, float(x), float(k), tol=1e-8)
                worst = max(worst, abs(a - b))
    for x in np.linspace(0.8, TWO_PI - 0.8, 5):
        for frac in np.linspace(0.15, 0.9, 5):
            k = float(frac * x / 2 * 0.97)
            a = conditional_cdf(ConditionalKind.PERIMETER_ANGLE_COORDS, float(x), k, tol=1e-7)
            b = conditional_cdf(ConditionalKind.PERIMETER_GIVEN_SIDE, float(x), k, tol=1e-8)
            worst = max(worst, abs(a - b))
            k = float(x / 2 + frac * (PI - x / 2))
            if k < PI:
                a = conditional_cdf(ConditionalKind.AREA_SIDE_COORDS, float(x), k, tol=1e-7)
                b = conditional_cdf(ConditionalKind.AREA_GIVEN_ANGLE, float(x), k, tol=1e-8)
                worst = max(worst, abs(a - b))
    dt = time.perf_counter() - t0
    _report(9, "redundant conditional routes agree", dt,
            worst < 1e-5 and dt < 120, f"worst diff={worst:.2e}")


def test_10_sign_regression():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, TWO_PI, 200)
    vals = area_density(xs)
    dt = time.perf_counter() - t0
    _report(10, "area density nonnegative on 200-point grid", dt,
            bool(np.all(vals >= 0.0)), f"min={vals.min():.3e}")
