"""Command-line interface: tabulate curves, sample batches, run verification.

Exit codes: 0 success, 1 usage error, 2 verification-suite failure.
All output is deterministic given the flags (and seed, where one applies).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import montecarlo, verify
from .distributions import (
    ConditionalKind,
    CurveKind,
    area_cdf,
    area_density,
    conditional_cdf,
    perimeter_cdf,
    perimeter_cdf_grid,
    perimeter_density,
    tabulate,
)
from .errors import SphtriError
from .montecarlo import BatchKind, EmpiricalCdf, ks_distance, sample_batch
from .sphere import RngStream

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
    sp.add_argument("--suite", default="all", choices=[*verify.SUITES, "all"])
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
        value = area_cdf(at) if args.kind == "area" else perimeter_cdf(at, **tol)
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
        ks_area = ks_distance(EmpiricalCdf(batch.sigma), area_cdf)
        pxs, pvals = perimeter_cdf_grid()
        ks_perim = ks_distance(EmpiricalCdf(batch.tau), lambda s: np.interp(s, pxs, pvals))
    text = montecarlo.summary_csv([batch.summary_row(ks_area, ks_perim)])
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    lines, ok = [], True
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        lines.append(f"== suite: {name} ==")
        for check in verify.SUITES[name](args.n, args.seed):
            lines.append(f"{'PASS' if check.ok else 'FAIL'} {check.name}: "
                         f"{check.value:.3e} (bound {check.bound:.1e})")
            ok &= check.ok
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
    except (_Usage, ValueError, SphtriError) as e:
        print(f"sphtri: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
