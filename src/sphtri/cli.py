"""Command-line interface: tabulate curves, sample batches, run verification.

Exit codes: 0 success, 1 usage error, 2 verification-suite failure.
All output is deterministic given the flags (and seed, where one applies).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import montecarlo
from .coords import CoordKind, CoordTriple, jacobian_fd_check
from .distributions import (
    ConditionalKind,
    CurveKind,
    DensityKind,
    EllipticReduction,
    area_cdf,
    area_density,
    conditional_cdf,
    density_via_double_integral,
    elliptic_reduction_gap,
    perimeter_cdf,
    perimeter_cdf_grid,
    perimeter_density,
    tabulate,
)
from .errors import SphtriError
from .identities import (
    bisector_decompose,
    bisector_relation_residual,
    identity_residuals,
    median_decompose,
    median_relation_residual,
)
from .montecarlo import BatchKind, EmpiricalCdf, ks_distance, sample_batch
from .quadrature import QuadratureSpec, ellip_E, ellip_K, integrate
from .sphere import RngStream, sample_uniform_points, triangle_elements

TWO_PI = 2.0 * math.pi


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # verification failures here, so force usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sphtri", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, kinds, conditional=False):
        sp.add_argument("--kind", required=True, choices=kinds)
        sp.add_argument("--at", type=float, help="evaluate at a single point")
        sp.add_argument("--from", dest="lo", type=float)
        sp.add_argument("--to", dest="hi", type=float)
        sp.add_argument("--steps", type=int)
        sp.add_argument("--tol", type=float,
                        help="quadrature tolerance (default: the library's; "
                             "closed forms ignore it)")
        sp.add_argument("--degrees", action="store_true",
                        help="interpret angle inputs as degrees")
        sp.add_argument("--out", help="output CSV path (default: stdout)")
        if conditional:
            sp.add_argument("--kappa", type=float, required=True)

    sp = sub.add_parser("density", help="area or perimeter density")
    add_common(sp, ["area", "perimeter"])
    sp = sub.add_parser("cdf", help="area or perimeter CDF")
    add_common(sp, ["area", "perimeter"])
    sp = sub.add_parser("conditional", help="conditional CDF given a fixed element")
    add_common(sp, [k.value for k in ConditionalKind], conditional=True)

    sp = sub.add_parser("sample", help="Monte Carlo batch summary")
    sp.add_argument("--kind", required=True, choices=[k.value for k in BatchKind])
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--n", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--degrees", action="store_true")
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", default="all",
                    choices=["identities", "jacobians", "elliptic",
                             "reductions", "duality", "mc-vs-analytic", "all"])
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _angle_in(value: float | None, degrees: bool) -> float | None:
    if value is None:
        return None
    return math.radians(value) if degrees else value


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args) -> list[float] | None:
    if args.at is not None:
        return None
    if args.lo is None or args.hi is None or args.steps is None:
        raise _Usage("need either --at or all of --from/--to/--steps")
    lo, hi = args.lo, args.hi
    if args.degrees:
        lo, hi = math.radians(lo), math.radians(hi)
    if not (0.0 <= lo < hi <= TWO_PI + 1e-12):
        raise _Usage(f"range must satisfy 0 <= from < to <= 2*pi, got [{lo}, {hi}]")
    if args.steps < 2:
        raise _Usage("--steps must be at least 2")
    return list(np.linspace(lo, hi, args.steps))


class _Usage(Exception):
    pass


def _tol_kwargs(args) -> dict:
    """``tol`` for the library call when --tol was given, else nothing."""
    return {} if args.tol is None else {"tol": args.tol}


def _cmd_density(args) -> int:
    at = _angle_in(args.at, args.degrees)
    tol = _tol_kwargs(args)
    if at is not None:
        value = area_density(at) if args.kind == "area" else perimeter_density(at, **tol)
        print(f"{value:.17g}")
        return 0
    kind = CurveKind.AREA_PDF if args.kind == "area" else CurveKind.PERIMETER_PDF
    curve = tabulate(kind, _grid(args), **tol)
    _emit(curve.to_csv_string(), args.out)
    return 0


def _cmd_cdf(args) -> int:
    at = _angle_in(args.at, args.degrees)
    tol = _tol_kwargs(args)
    if at is not None:
        value = area_cdf(at, **tol) if args.kind == "area" else perimeter_cdf(at, **tol)
        print(f"{value:.17g}")
        return 0
    kind = CurveKind.AREA_CDF if args.kind == "area" else CurveKind.PERIMETER_CDF
    curve = tabulate(kind, _grid(args), **tol)
    _emit(curve.to_csv_string(), args.out)
    return 0


def _cmd_conditional(args) -> int:
    ckind = ConditionalKind(args.kind)
    kappa = _angle_in(args.kappa, args.degrees)
    at = _angle_in(args.at, args.degrees)
    tol = _tol_kwargs(args)
    if at is not None:
        print(f"{conditional_cdf(ckind, at, kappa, **tol):.17g}")
        return 0
    curve = tabulate(CurveKind.CONDITIONAL, _grid(args),
                     conditional_kind=ckind, kappa=kappa, **tol)
    _emit(curve.to_csv_string(), args.out)
    return 0


def _cmd_sample(args) -> int:
    kind = BatchKind(args.kind)
    kappa = _angle_in(args.kappa, args.degrees)
    rng = RngStream(args.seed, args.stream)
    batch = sample_batch(kind, kappa, args.n, rng)
    ks_area = ks_perim = None
    if kind is BatchKind.PRIMAL:
        # KS columns are only meaningful for the unconditional laws.
        xs = np.linspace(0.0, TWO_PI, 1025)
        acdf = np.array([area_cdf(float(x)) for x in xs])
        ks_area = ks_distance(EmpiricalCdf(batch.sigma), lambda s: np.interp(s, xs, acdf))
        pxs, pvals = perimeter_cdf_grid()
        pxs, pvals = np.asarray(pxs), np.asarray(pvals)
        ks_perim = ks_distance(EmpiricalCdf(batch.tau), lambda s: np.interp(s, pxs, pvals))
    text = montecarlo.summary_csv([batch.summary_row(ks_area, ks_perim)])
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# Verification suites.


def _check(name: str, value: float, bound: float, lines: list[str]) -> bool:
    ok = value < bound
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (bound {bound:.1e})")
    return ok


def _suite_identities(n: int, seed: int, lines: list[str]) -> bool:
    from .sphere import TriangleMetrics

    rng = RngStream(seed)
    pts = sample_uniform_points(rng, 3 * n).reshape(n, 3, 3)
    a, b, c, al, be, ga = triangle_elements(pts[:, 0], pts[:, 1], pts[:, 2])
    worst = 0.0
    worst_med = 0.0
    worst_bis = 0.0
    for i in range(n):
        m = TriangleMetrics(
            float(a[i]), float(b[i]), float(c[i]),
            float(al[i]), float(be[i]), float(ga[i]),
            float(al[i] + be[i] + ga[i] - math.pi), float(a[i] + b[i] + c[i]),
        )
        worst = max(worst, identity_residuals(m).max())
        worst_med = max(worst_med, median_relation_residual(m, median_decompose(m)))
        worst_bis = max(worst_bis, bisector_relation_residual(m, bisector_decompose(m)))
    ok = _check("identity residuals", worst, 1e-10, lines)
    ok &= _check("median relation", worst_med, 1e-10, lines)
    ok &= _check("bisector relation", worst_bis, 1e-10, lines)
    return ok


def _suite_jacobians(lines: list[str]) -> bool:
    worst = 0.0
    us = np.linspace(0.15, math.pi - 0.15, 10)
    ks = np.linspace(0.3, math.pi - 0.3, 5)
    for kind in CoordKind:
        for u in us:
            for v in us:
                for k in ks:
                    err = jacobian_fd_check(CoordTriple(kind, float(u), float(v), float(k)), 1e-5)
                    worst = max(worst, err)
    return _check("area-element vs finite difference", worst, 1e-6, lines)


def _suite_elliptic(lines: list[str]) -> bool:
    ok = True
    worst = 0.0
    for z in np.linspace(0.02, 0.98, 20):
        zp = math.sqrt(1.0 - z * z)
        res = ellip_E(z) * ellip_K(zp) + ellip_E(zp) * ellip_K(z) - ellip_K(z) * ellip_K(zp)
        worst = max(worst, abs(res - math.pi / 2))
    ok &= _check("Legendre relation", worst, 1e-12, lines)
    worst = 0.0
    for z in (0.3, 0.7071067811865476, 0.95):
        r = integrate(lambda t: 1.0 / np.sqrt(1 - z * z * np.sin(t) ** 2), 0, math.pi / 2,
                      QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
        worst = max(worst, abs(r.value - ellip_K(z)))
        r = integrate(lambda t: np.sqrt(1 - z * z * np.sin(t) ** 2), 0, math.pi / 2,
                      QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
        worst = max(worst, abs(r.value - ellip_E(z)))
    ok &= _check("AGM vs defining integrals", worst, 1e-12, lines)
    return ok


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


def _suite_reductions(lines: list[str]) -> bool:
    ok = True
    for reduction in EllipticReduction:
        worst = 0.0
        for x, kappa in _admissible_grid(reduction):
            worst = max(worst, elliptic_reduction_gap(reduction, x, kappa))
        ok &= _check(f"elliptic reduction [{reduction.value}]", worst, 1e-8, lines)
    return ok


def _suite_duality(lines: list[str]) -> bool:
    worst = 0.0
    for x in np.linspace(0.5, TWO_PI - 0.5, 10):
        a = density_via_double_integral(DensityKind.PERIMETER_PRIMAL, float(x), tol=1e-8)
        b = density_via_double_integral(DensityKind.AREA_DUAL, float(TWO_PI - x), tol=1e-8)
        worst = max(worst, abs(a - b))
    ok = _check("perimeter vs mirrored dual area", worst, 1e-7, lines)
    v = perimeter_density(math.pi)
    ok &= _check("perimeter density at pi vs 3*sqrt(2)/32",
                 abs(v - 3 * math.sqrt(2) / 32), 1e-9, lines)
    return ok


def _suite_mc(n: int, seed: int, lines: list[str]) -> bool:
    ok = True
    rng = RngStream(seed)
    batch = sample_batch(BatchKind.PRIMAL, None, max(n, 10**5), rng)
    ks_bound = 0.003 * math.sqrt(10**6 / batch.n)
    xs = np.linspace(0.0, TWO_PI, 2049)
    acdf = np.array([area_cdf(float(x)) for x in xs])
    d = ks_distance(EmpiricalCdf(batch.sigma), lambda s: np.interp(s, xs, acdf))
    ok &= _check("KS primal area vs analytic CDF", d, ks_bound, lines)
    pxs, pvals = perimeter_cdf_grid()
    pxs, pvals = np.asarray(pxs), np.asarray(pvals)
    d = ks_distance(EmpiricalCdf(batch.tau), lambda s: np.interp(s, pxs, pvals))
    ok &= _check("KS primal perimeter vs single-integral CDF", d, ks_bound, lines)
    kinds = [
        (ConditionalKind.AREA_GIVEN_SIDE, BatchKind.PRIMAL_GIVEN_SIDE, "sigma"),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, BatchKind.PRIMAL_GIVEN_SIDE, "tau"),
        (ConditionalKind.PERIMETER_GIVEN_ANGLE, BatchKind.DUAL_GIVEN_ANGLE, "tau"),
        (ConditionalKind.AREA_GIVEN_ANGLE, BatchKind.DUAL_GIVEN_ANGLE, "sigma"),
    ]
    m = 10**5
    for ckind, bkind, stat in kinds:
        worst_se = 0.0
        for kappa in np.linspace(0.5, math.pi - 0.5, 3):
            cb = sample_batch(bkind, float(kappa), m, RngStream(seed, 7))
            vals = getattr(cb, stat)
            for x in np.linspace(0.8, TWO_PI - 0.8, 3):
                p = conditional_cdf(ckind, float(x), float(kappa))
                frac = float(np.mean(vals <= x))
                se = math.sqrt(max(p * (1 - p), 1e-12) / m)
                worst_se = max(worst_se, abs(frac - p) / (3 * se))
        ok &= _check(f"conditional fractions [{ckind.value}] / 3se", worst_se, 1.0, lines)
    viol = 0
    for ckind in (ConditionalKind.AREA_GIVEN_SIDE, ConditionalKind.PERIMETER_GIVEN_SIDE,
                  ConditionalKind.PERIMETER_GIVEN_ANGLE, ConditionalKind.AREA_GIVEN_ANGLE,
                  ConditionalKind.PERIMETER_BISECTOR):
        viol += montecarlo.region_coverage(ckind, 1.2, 3.0, 10**5, RngStream(seed, 11))
    ok &= _check("region coverage violations", viol, 1, lines)
    return ok


def _cmd_verify(args) -> int:
    lines: list[str] = []
    ok = True
    suites = {
        "identities": lambda: _suite_identities(args.n, args.seed, lines),
        "jacobians": lambda: _suite_jacobians(lines),
        "elliptic": lambda: _suite_elliptic(lines),
        "reductions": lambda: _suite_reductions(lines),
        "duality": lambda: _suite_duality(lines),
        "mc-vs-analytic": lambda: _suite_mc(args.n, args.seed, lines),
    }
    selected = suites if args.suite == "all" else {args.suite: suites[args.suite]}
    for name, fn in selected.items():
        lines.append(f"== suite: {name} ==")
        ok &= fn()
    print("\n".join(lines))
    return 0 if ok else 2


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "density":
            return _cmd_density(args)
        if args.command == "cdf":
            return _cmd_cdf(args)
        if args.command == "conditional":
            return _cmd_conditional(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_verify(args)
    except _Usage as e:
        print(f"sphtri: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, SphtriError) as e:
        print(f"sphtri: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
