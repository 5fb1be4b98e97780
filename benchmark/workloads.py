"""The four benchmark workloads: inputs, references, and checked operations.

Each workload's ``build(seed)`` generates the inputs from the seed and
computes the references its checks need; it is the timed set-up. It
returns the fixed list of operations that makes up one pass. An operation
calls into sphtri, checks the answer against the bounds of the acceptance
suite (restated here, never loosened), raises ``CheckFailed`` when a check
fails, and returns a digest of its output so that runs can be compared.

Library functions are looked up on their module at call time
(``montecarlo.sample_batch``), so the wrappers of a traced run see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sphtri import cli, distributions, montecarlo, quadrature
from sphtri.distributions import ConditionalKind, DensityKind
from sphtri.montecarlo import BatchKind
from sphtri.sphere import RngStream

TWO_PI = 2.0 * math.pi
PI = math.pi


class CheckFailed(Exception):
    """An operation returned an answer outside its acceptance bound."""


@dataclass(frozen=True)
class Op:
    kind: str
    fn: Callable[[], object]
    deadline_s: float
    # A long operation runs once a round of an untraced run, and the short
    # ones are swept around each long one (see run.schedule).
    long: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_round_s: float  # one round on the reference machine; sets the round count
    # The fewest rounds a run makes: enough repetitions of the operations
    # that are long or few for their fastest one to be steady.
    min_rounds: int
    setups: int  # set-ups per run, spread over the run
    build: Callable[[int], tuple[list[Op], dict]]


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite_unit(v: float, what: str) -> None:
    _require(math.isfinite(v) and 0.0 <= v <= 1.0, f"{what} = {v!r} outside [0, 1]")


def _interleave(short: list[Op], long: list[Op]) -> list[Op]:
    """The pass order: the short operations, with the long ones spread evenly between them.

    Traced runs and the self-check run the operations in this order.
    """
    cuts = [round(i * len(short) / (len(long) + 1)) for i in range(len(long) + 2)]
    ops = []
    for i, op in enumerate(long):
        ops += short[cuts[i]:cuts[i + 1]] + [op]
    return ops + short[cuts[-2]:]


# ---------------------------------------------------------------------------
# mc-oracle

SMALL_N = 10**3
LARGE_N = 10**6
REGION_N = 10**5
SMALL_PER_KIND = 25
COND_KAPPAS = tuple(float(k) for k in np.linspace(0.5, PI - 0.5, 3))
COND_XS = tuple(float(x) for x in np.linspace(0.8, TWO_PI - 0.8, 3))
# The conditional batches are checked pointwise to 3 standard errors. On
# fresh samples that gate fails a correct sampler about once per 300
# checks, so these batches draw from a fixed stream seed instead of --seed,
# as the acceptance suite does with its fixed seeds.
COND_STREAM_SEED = 0
COND_STATS = {
    BatchKind.PRIMAL_GIVEN_SIDE: (("sigma", ConditionalKind.AREA_GIVEN_SIDE),
                                  ("tau", ConditionalKind.PERIMETER_GIVEN_SIDE)),
    BatchKind.DUAL_GIVEN_ANGLE: (("tau", ConditionalKind.PERIMETER_GIVEN_ANGLE),
                                 ("sigma", ConditionalKind.AREA_GIVEN_ANGLE)),
}
# (law, kappa, limit) of the acceptance suite's region-coverage matrix.
REGION_LAWS = (
    (ConditionalKind.AREA_GIVEN_SIDE, 1.2, 2.0),
    (ConditionalKind.PERIMETER_GIVEN_SIDE, 1.2, 3.0),
    (ConditionalKind.PERIMETER_GIVEN_ANGLE, 1.2, 3.0),
    (ConditionalKind.AREA_GIVEN_ANGLE, 1.9, 2.0),
    (ConditionalKind.PERIMETER_BISECTOR, 1.2, 3.0),
)


def _ks_bound(n: int) -> float:
    return 0.003 * math.sqrt(10**6 / n)


def _build_mc_oracle(seed: int):
    xs = np.linspace(0.0, TWO_PI, 1025)
    area_vals = np.array([distributions.area_cdf(float(x)) for x in xs])
    clear = getattr(distributions.perimeter_cdf_grid, "cache_clear", None)
    if clear is not None:
        clear()
    pxs, pvals = (np.asarray(v) for v in distributions.perimeter_cdf_grid(256))
    # The dual of a uniform triangle has area 2*pi - tau and perimeter
    # 2*pi - sigma of the primal one.
    refs = {
        BatchKind.PRIMAL: (lambda s: np.interp(s, xs, area_vals),
                           lambda t: np.interp(t, pxs, pvals)),
        BatchKind.DUAL: (lambda s: 1.0 - np.interp(TWO_PI - s, pxs, pvals),
                         lambda t: 1.0 - np.interp(TWO_PI - t, xs, area_vals)),
    }
    cond_p = {
        (law, kappa, x): distributions.conditional_cdf(law, x, kappa)
        for stats in COND_STATS.values() for _, law in stats
        for kappa in COND_KAPPAS for x in COND_XS
    }

    def batch_op(kind: BatchKind, n: int, i: int) -> Op:
        conditional = kind in COND_STATS
        kappa = COND_KAPPAS[i % len(COND_KAPPAS)] if conditional else None
        stream = ((COND_STREAM_SEED, 1000 + i) if conditional
                  else (seed, 4 * i + list(BatchKind).index(kind)))

        def fn():
            batch = montecarlo.sample_batch(kind, kappa, n, RngStream(*stream))
            out = [float(np.mean(batch.sigma)), float(np.mean(batch.tau))]
            if not conditional:
                bound = _ks_bound(n)
                for stat, ref in zip(("sigma", "tau"), refs[kind]):
                    d = montecarlo.ks_distance(montecarlo.EmpiricalCdf(getattr(batch, stat)), ref)
                    _require(d < bound, f"KS {kind.value} {stat} n={n}: {d:.3e} >= {bound:.3e}")
                    out.append(d)
                return out
            for stat, law in COND_STATS[kind]:
                vals = getattr(batch, stat)
                for x in COND_XS:
                    p = cond_p[(law, kappa, x)]
                    frac = float(np.mean(vals <= x))
                    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
                    _require(abs(frac - p) <= 3.0 * se,
                             f"{law.value} kappa={kappa:.3f} x={x:.3f} n={n}: "
                             f"|{frac:.5f} - {p:.5f}| > 3 se")
                    out.append(frac)
            return out

        large = n == LARGE_N
        return Op(f"batch-{kind.value}-{'large' if large else 'small'}", fn,
                  30.0 if large else 2.0, long=large)

    def region_op(j: int, law: ConditionalKind, kappa: float, limit: float) -> Op:
        def fn():
            v = montecarlo.region_coverage(law, kappa, limit, REGION_N, RngStream(seed, 5000 + j))
            _require(v == 0, f"region coverage {law.value}: {v} violations")
            return v
        return Op(f"region-{law.value}", fn, 10.0, long=True)

    small = [batch_op(kind, SMALL_N, i) for i in range(SMALL_PER_KIND) for kind in BatchKind]
    large = [batch_op(kind, LARGE_N, SMALL_PER_KIND) for kind in BatchKind]
    large += [region_op(j, *law) for j, law in enumerate(REGION_LAWS)]
    ops = _interleave(small, large)
    inputs = {
        "batches": {"small_n": SMALL_N, "small_per_kind": SMALL_PER_KIND,
                    "large_n": LARGE_N, "large_per_kind": 1},
        "region_n": REGION_N, "region_laws": [[l.value, k, x] for l, k, x in REGION_LAWS],
        "ks_reference": {"area_cdf_points": len(xs), "perimeter_cdf_grid_steps": 256},
        "conditional": {"kappas": COND_KAPPAS, "xs": COND_XS,
                        "stream_seed": COND_STREAM_SEED},
    }
    return ops, inputs


# ---------------------------------------------------------------------------
# perimeter-law

PERIM_AT_PI = 3.0 * math.sqrt(2.0) / 32.0
NEAR_TWO_PI = TWO_PI - 1e-3
GRID_STEPS = 256
# The grid's last value is the whole integral of the density; 1e-5 is the
# agreement bound the acceptance suite sets between analytic routes.
GRID_END_TOL = 1e-5


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """n points, one uniform in each of n equal cells of [lo, hi]."""
    h = (hi - lo) / n
    return [float(lo + (i + u) * h) for i, u in enumerate(rng.uniform(0.0, 1.0, n))]


def _build_perimeter_law(seed: int):
    rng = np.random.default_rng(seed)
    density_at = _stratified(rng, 0.05, 6.15, 96) + [PI, 6.2, NEAR_TWO_PI]
    cdf_at = _stratified(rng, 1.0, 4.5, 32) + [NEAR_TWO_PI]
    area_at = np.array(_stratified(rng, 0.0, TWO_PI, 129))
    z = rng.uniform(0.001, 0.999, 10**5)
    zp = np.sqrt(1.0 - z * z)

    def grid():
        clear = getattr(distributions.perimeter_cdf_grid, "cache_clear", None)
        if clear is not None:
            clear()
        xs, vals = distributions.perimeter_cdf_grid(GRID_STEPS)
        vals = np.asarray(vals)
        _require(bool(np.all(np.diff(vals) >= 0.0)), "perimeter grid not monotone")
        _require(xs[-1] == TWO_PI and abs(vals[-1] - 1.0) <= GRID_END_TOL,
                 f"perimeter grid ends at {vals[-1]!r}, not 1")
        return _digest(vals)

    def density(x: float):
        def fn():
            v = distributions.perimeter_density(x)
            _require(math.isfinite(v) and v > 0.0, f"perimeter density({x}) = {v!r}")
            if x == PI:
                _require(abs(v - PERIM_AT_PI) <= 1e-9, f"perimeter density(pi) = {v!r}")
            return v
        return fn

    def cdf(x: float):
        def fn():
            v = distributions.perimeter_cdf(x)
            _finite_unit(v, f"perimeter cdf({x})")
            return v
        return fn

    def area_grid():
        vals = np.array([distributions.area_cdf(float(x)) for x in area_at])
        _require(bool(np.all((vals >= 0.0) & (vals <= 1.0))), "area cdf outside [0, 1]")
        _require(bool(np.all(np.diff(vals) >= 0.0)), "area cdf not monotone")
        return _digest(vals)

    elliptic_pass = {}  # K and E at the moduli, for the check at their complements

    def elliptic():
        elliptic_pass["K"], elliptic_pass["E"] = quadrature.ellip_K(z), quadrature.ellip_E(z)
        return [_digest(elliptic_pass["K"]), _digest(elliptic_pass["E"])]

    def elliptic_complement():
        K, E = elliptic_pass.pop("K"), elliptic_pass.pop("E")
        Kp, Ep = quadrature.ellip_K(zp), quadrature.ellip_E(zp)
        worst = float(np.max(np.abs(E * Kp + Ep * K - K * Kp - PI / 2)))
        _require(worst <= 1e-12, f"Legendre relation residual {worst:.3e}")
        return [_digest(Kp), _digest(Ep), worst]

    short = [Op("perimeter-density", density(x), 2.0) for x in density_at]
    short += [Op("perimeter-cdf", cdf(x), 5.0) for x in cdf_at[:-1]]
    # Golden-ratio order, so that each stretch between long operations
    # holds cheap and dear points alike.
    short = [short[i] for i in sorted(range(len(short)), key=lambda i: (i * 0.6180339887) % 1.0)]
    # Spread through the pass; all but the last are long operations.
    long = [Op("perimeter-cdf-grid-cold", grid, 40.0, long=True),
            Op("perimeter-cdf-near-2pi", cdf(NEAR_TWO_PI), 30.0, long=True),
            Op("elliptic-arrays", elliptic, 5.0, long=True),
            Op("elliptic-arrays-complement", elliptic_complement, 5.0, long=True),
            Op("area-cdf-grid", area_grid, 5.0)]
    ops = _interleave(short, long)
    inputs = {
        "perimeter_cdf_grid_steps": GRID_STEPS, "perimeter_density_at": density_at,
        "perimeter_cdf_at": cdf_at, "area_cdf_points": len(area_at),
        "elliptic_moduli": {"n": z.size, "range": [0.001, 0.999], "with_complements": True},
    }
    return ops, inputs


# ---------------------------------------------------------------------------
# conditional-routes

ROUTE_GRID = 8  # 8 x 8 stratified points
# Fixed probes 1e-3 (relative) either side of the kappa = x/2 wedge edge,
# where the 2-D routes are slowest on the interior box. With them the
# slowest operations are the same on every seed, instead of depending on
# how near the edge a seed's random points happen to fall.
EDGE_PROBES = tuple((x, r * x / 2) for x in (0.85, 2.0, 3.5, 5.0) for r in (1 - 1e-3, 1 + 1e-3))
# The 2-D routes' cost grows towards that edge, most at small x (about
# 90 ms at x = 0.85, 1e-3 from the edge, and 40-60 ms at x >= 2), and the
# edge is the diagonal of the 8 x 8 cells. So the random points keep this relative distance from it: the
# cost of a pass then depends little on the seed, and the edge itself is
# measured by the fixed probes.
EDGE_BAND = 0.1  # at most 0.11, or the cell at x = 4.9 has no room left
DOUBLE_XS = 4
SIBLINGS = {
    ConditionalKind.AREA_MEDIAN: ConditionalKind.AREA_GIVEN_SIDE,
    ConditionalKind.PERIMETER_BISECTOR: ConditionalKind.PERIMETER_GIVEN_ANGLE,
    ConditionalKind.PERIMETER_ANGLE_COORDS: ConditionalKind.PERIMETER_GIVEN_SIDE,
    ConditionalKind.AREA_SIDE_COORDS: ConditionalKind.AREA_GIVEN_ANGLE,
}
TWO_D_ROUTES = (ConditionalKind.PERIMETER_ANGLE_COORDS, ConditionalKind.AREA_SIDE_COORDS)


def _build_conditional_routes(seed: int):
    rng = np.random.default_rng(seed)
    points = []
    for x_cell in range(ROUTE_GRID):
        for k_cell in range(ROUTE_GRID):
            for _ in range(1000):  # redraw inside the cell until clear of the edge band
                ux, uk = rng.uniform(0.0, 1.0, 2)
                x = 0.8 + (x_cell + ux) * (TWO_PI - 1.6) / ROUTE_GRID
                kappa = 0.4 + (k_cell + uk) * (PI - 0.8) / ROUTE_GRID
                if abs(2.0 * kappa / x - 1.0) >= EDGE_BAND:
                    break
            else:
                raise ValueError(f"no point of cell {(x_cell, k_cell)} is clear of the edge band")
            points.append((float(x), float(kappa)))
    points += EDGE_PROBES
    refs = {(kind, p): distributions.conditional_cdf(kind, *p)
            for kind in set(SIBLINGS.values()) for p in points}
    double_xs = _stratified(rng, 0.5, TWO_PI - 0.5, DOUBLE_XS)
    closed = {
        DensityKind.AREA_PRIMAL: lambda x: distributions.area_density(x),
        DensityKind.PERIMETER_PRIMAL: lambda x: distributions.perimeter_density(x),
        DensityKind.AREA_DUAL: lambda x: distributions.perimeter_density(TWO_PI - x),
        DensityKind.PERIMETER_DUAL: lambda x: distributions.area_density(TWO_PI - x),
    }
    double_refs = {(kind, x): f(x) for kind, f in closed.items() for x in double_xs}

    def route(kind: ConditionalKind, p):
        def fn():
            v = distributions.conditional_cdf(kind, *p)
            _finite_unit(v, f"{kind.value}{p}")
            if kind in SIBLINGS:
                ref = refs[(SIBLINGS[kind], p)]
                _require(abs(v - ref) <= 1e-5,
                         f"{kind.value} vs {SIBLINGS[kind].value} at {p}: {abs(v - ref):.2e}")
            return v
        return Op(f"route-{kind.value}", fn, 5.0 if kind in TWO_D_ROUTES else 2.0)

    def double(kind: DensityKind, x: float):
        def fn():
            v = distributions.density_via_double_integral(kind, x)
            ref = double_refs[(kind, x)]
            _require(abs(v - ref) <= 1e-7, f"{kind.value} at {x}: {abs(v - ref):.2e}")
            return v
        return Op(f"double-{kind.value}", fn, 10.0)

    ops = [route(kind, p) for p in points for kind in ConditionalKind]
    ops += [double(kind, x) for x in double_xs for kind in DensityKind]
    inputs = {"route_points": points, "edge_probes": len(EDGE_PROBES), "edge_band": EDGE_BAND,
              "double_integral_xs": double_xs,
              "box": {"x": [0.8, TWO_PI - 0.8], "kappa": [0.4, PI - 0.4]}}
    return ops, inputs


# ---------------------------------------------------------------------------
# verify-cli

VERIFY_SUITES = ("identities", "jacobians", "elliptic", "reductions", "duality")


def _build_verify_cli(seed: int):
    rng = np.random.default_rng(seed)
    # The density's cost rises steeply towards 2*pi, so the seed moves the
    # ends of the table only a little: a table to 6.2 took almost twice as
    # long as one to 5.8.
    lo, hi = float(rng.uniform(0.05, 0.15)), float(rng.uniform(6.08, 6.12))
    argvs = [["verify", "--suite", s] for s in VERIFY_SUITES]
    argvs[0] += ["--n", "10000", "--seed", str(seed)]
    argvs.append(["density", "--kind", "perimeter", "--from", repr(lo), "--to", repr(hi),
                  "--steps", "64"])

    def command(argv):
        def fn():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
            _require(code == 0, f"sphtri {' '.join(argv)} exited {code}: "
                                f"{(out.getvalue() + err.getvalue())[-300:]}")
            return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        name = f"cli-verify-{argv[2]}" if argv[0] == "verify" else "cli-density-table"
        return Op(name, fn, 10.0)

    return [command(a) for a in argvs], {"argv": argvs}


WORKLOADS = {
    w.name: w for w in (
        Workload("mc-oracle", 6.5, 3, 3, _build_mc_oracle),
        Workload("perimeter-law", 9.0, 3, 11, _build_perimeter_law),
        Workload("conditional-routes", 1.0, 12, 11, _build_conditional_routes),
        Workload("verify-cli", 0.5, 24, 11, _build_verify_cli),
    )
}
