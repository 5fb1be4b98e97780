"""Command-line interface: evaluate laws on grids, sample batches, run verification.

Exit codes: 0 success, 1 usage error, 2 verification-suite failure.
All output is deterministic given the flags (and seed, where one applies),
except the suites' wall times in `verify --json`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from functools import cache, partial

import numpy as np

from . import verify
from .distributions import (
    TWO_PI,
    ConditionalKind,
    area_cdf,
    area_density,
    conditional_cdf,
    perimeter_cdf,
    perimeter_density,
)
from .errors import SphtriError
from .montecarlo import BatchKind, sample_batch
from .sphere import RngStream


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # verification failures here, so force usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(least: int):
    """The type of --n (least 1), --seed and --stream (least 0).

    Text that is no int gets argparse's own message, and argparse names
    the flag in front of either message.
    """
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    return parse


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first run and reused by every later run of the process.

    Building it took 0.86 ms a run. The --suite choices are verify.SUITES'
    keys at that first run.
    """
    p = _Parser(prog="sphtri", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, kinds, conditional=False):
        sp.add_argument("--kind", required=True, choices=kinds)
        sp.add_argument("--at", type=float, help="evaluate at a single point")
        sp.add_argument("--from", dest="lo", type=float)
        sp.add_argument("--to", dest="hi", type=float)
        sp.add_argument("--steps", type=int)
        sp.add_argument("--degrees", action="store_true",
                        help="interpret angle inputs as degrees")
        sp.add_argument("--out", help="output CSV path (default: stdout)")
        if conditional:
            sp.add_argument("--kappa", type=float, required=True)
            sp.add_argument("--tol", type=float,
                            help="tolerance of the integral routes (default: the "
                                 "library's, 1e-9); density and cdf take none")

    sp = sub.add_parser("density", help="area or perimeter density")
    add_common(sp, ["area", "perimeter"])
    sp = sub.add_parser("cdf", help="area or perimeter CDF")
    add_common(sp, ["area", "perimeter"])
    sp = sub.add_parser("conditional", help="conditional CDF given a fixed element")
    add_common(sp, [k.value for k in ConditionalKind], conditional=True)

    sp = sub.add_parser("sample", help="Monte Carlo batch summary")
    sp.add_argument("--kind", required=True, choices=[k.value for k in BatchKind])
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--n", type=_int_at_least(1), default=10**5)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--stream", type=_int_at_least(0), default=0)
    sp.add_argument("--degrees", action="store_true")
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", default="all", choices=[*verify.SUITES, "all"])
    sp.add_argument("--n", type=_int_at_least(1), default=10000)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--json", action="store_true",
                    help="print a JSON list with one record per check: suite, name, "
                         "value, bound, ok and elapsed_s (the suite's wall time)")
    return p


def _angle_in(value: float | None, degrees: bool) -> float | None:
    if value is None:
        return None
    return math.radians(value) if degrees else value


def _write_csv(header: list[str], rows, out: str | None) -> None:
    """The one CSV writer: a header and rows to --out, or to stdout.

    Floats take 17 significant digits (a full round trip, as
    np.savetxt(fmt="%.17g") writes them), ints str, and None an empty field.
    """
    def field(v) -> str:
        if v is None:
            return ""
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    text = "".join(",".join(map(field, row)) + "\n" for row in [header, *rows])
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args) -> np.ndarray:
    if args.lo is None or args.hi is None or args.steps is None:
        raise _Usage("need either --at or all of --from/--to/--steps")
    lo, hi = _angle_in(args.lo, args.degrees), _angle_in(args.hi, args.degrees)
    if not (0.0 <= lo < hi <= TWO_PI):
        raise _Usage(f"range must satisfy 0 <= from < to <= 2*pi, got [{lo}, {hi}]")
    if args.steps < 2:
        raise _Usage("--steps must be at least 2")
    xs = np.linspace(lo, hi, args.steps)
    if np.any(np.diff(xs) <= 0.0):
        raise _Usage(f"--steps {args.steps} points on [{lo}, {hi}] are not strictly increasing")
    return xs


class _Usage(Exception):
    pass


def _cmd_curve(args) -> int:
    """density, cdf and conditional: the law at --at, or its CSV table on the grid.

    Laws are looked up by name per call, so that a wrapper rebound on this
    module (benchmark/tracing.py) sees the call; a table built at import would not.
    """
    density = args.command == "density"
    if args.command == "conditional":
        tol = {} if args.tol is None else {"tol": args.tol}
        law = partial(conditional_cdf, ConditionalKind(args.kind),
                      kappa=_angle_in(args.kappa, args.degrees), **tol)
    elif args.kind == "area":
        law = area_density if density else area_cdf
    else:
        law = perimeter_density if density else perimeter_cdf
    at = _angle_in(args.at, args.degrees)
    if at is not None:
        print(f"{law(at):.17g}")
        return 0
    xs = _grid(args)
    if args.command == "conditional":  # conditional_cdf takes one x at a time
        vals = [law(float(x)) for x in xs]
    elif density and args.kind == "perimeter":
        # The density is defined on (0, 2*pi) only and diverges at 2*pi, where
        # grids end: the closed ends 0 and 2*pi take its values at 1e-12 and
        # 2*pi - 1e-6, and every interior point is evaluated at itself.
        vals = law(np.select([xs <= 0.0, xs >= TWO_PI], [1e-12, TWO_PI - 1e-6], xs))
    else:
        vals = law(xs)
    _write_csv(["x", "value"], zip(xs, vals), args.out)
    return 0


def _cmd_sample(args) -> int:
    kind = BatchKind(args.kind)
    kappa = _angle_in(args.kappa, args.degrees)
    rng = RngStream(args.seed, args.stream)
    batch = sample_batch(kind, kappa, args.n, rng)
    # KS columns are only meaningful for the unconditional laws.
    ks = verify.primal_ks(batch) if kind is BatchKind.PRIMAL else (None, None)
    _write_csv(["kind", "kappa", "n", "seed", "mean_sigma", "mean_tau", "ks_area", "ks_perimeter"],
               [[kind.value, batch.kappa, batch.n, args.seed, float(np.mean(batch.sigma)),
                 float(np.mean(batch.tau)), *ks]], args.out)
    return 0


def _cmd_verify(args) -> int:
    """Run the suites and print every line, or with --json one record per check.

    A suite that raises gives one FAIL line, and one record with ok false,
    no name, value or bound, and the error under "error".
    """
    lines, records, ok = [], [], True
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        lines.append(f"== suite: {name} ==")
        start = time.perf_counter()
        try:
            checks = verify.run_suite(name, args.n, args.seed)
        except (SphtriError, ValueError) as e:
            lines.append(f"FAIL {name}: {type(e).__name__}: {e}")
            records.append({"suite": name, "name": None, "value": None, "bound": None,
                            "ok": False, "elapsed_s": time.perf_counter() - start,
                            "error": f"{type(e).__name__}: {e}"})
            ok = False
            continue
        for check in checks:
            lines.append(f"{'PASS' if check.ok else 'FAIL'} {check.name}: "
                         f"{check.value:.3e} (bound {check.bound:.1e})")
            records.append({"suite": name, **asdict(check), "ok": check.ok})
            ok &= check.ok
    print(json.dumps(records, indent=1) if args.json else "\n".join(lines))
    return 0 if ok else 2


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command in ("density", "cdf", "conditional"):
            return _cmd_curve(args)
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
