import math
from dataclasses import replace

import numpy as np
import pytest

from sphtri import distributions, montecarlo, verify


def test_nan_value_fails_its_check(monkeypatch):
    # One NaN among the 20 Legendre residuals must reach the check, not be
    # folded away by a max that skips it.
    ellip_K = verify.ellip_K

    def ellip_K_with_one_nan(z):
        out = ellip_K(z)
        if np.ndim(z):  # the Legendre grid, not the scalar checks against the integrals
            out[0, 6] = math.nan
        return out

    monkeypatch.setattr(verify, "ellip_K", ellip_K_with_one_nan)
    checks = {c.name: c for c in verify.elliptic_checks()}
    legendre = checks["Legendre relation"]
    assert math.isnan(legendre.value)
    assert not legendre.ok
    assert checks["AGM vs defining integrals"].ok


def test_nan_identity_residual_fails_its_check(monkeypatch):
    # One NaN in the second identity's residuals must reach the check, not be
    # folded away by a max over the six identities that skips it.
    identity_residuals = verify.identity_residuals

    def with_one_nan(m):
        r = identity_residuals(m)
        cosine = r.perimeter_cosine.copy()
        cosine[3] = math.nan
        return replace(r, perimeter_cosine=cosine)

    monkeypatch.setattr(verify, "identity_residuals", with_one_nan)
    checks = {c.name: c for c in verify.identity_checks(100, 0)}
    residuals = checks["identity residuals"]
    assert math.isnan(residuals.value)
    assert not residuals.ok
    assert checks["median relation"].ok and checks["bisector relation"].ok


def test_duality_suite_checks_the_double_integral_against_the_series(monkeypatch):
    # The double integral runs in one array call of the primal kind at 10
    # points, and not of the dual kind too: the primal kind is the dual one
    # at the polar point, so comparing the two would compare it with itself.
    calls = []
    real = verify.density_via_double_integral

    def recorded(kind, x, tol=1e-9):
        calls.append((kind, np.shape(x)))
        return real(kind, x, tol)

    monkeypatch.setattr(verify, "density_via_double_integral", recorded)
    checks = {c.name: c for c in verify.duality_checks()}
    assert calls == [(verify.DensityKind.PERIMETER_PRIMAL, (10,))]
    assert checks["perimeter double integral vs series"].value < 1e-10
    assert all(c.ok for c in checks.values())


def test_jacobian_suite_makes_one_call_per_coordinate_system(monkeypatch):
    # The 5 kappa lie on a leading axis of the 10 x 10 grid: 4 calls where
    # one per (system, kappa) made 20, with the same worst value.
    calls = []
    real = verify.jacobian_fd_check

    def recorded(coords):
        calls.append((coords.kind, np.shape(coords.kappa)))
        return real(coords)

    monkeypatch.setattr(verify, "jacobian_fd_check", recorded)
    (check,) = verify.jacobian_checks()
    assert calls == [(kind, (5, 1, 1)) for kind in verify.CoordKind]
    u, v = np.meshgrid(*[np.linspace(0.15, math.pi - 0.15, 10)] * 2, indexing="ij")
    want = max(float(np.max(real(verify.CoordTriple(kind, u, v, float(k)))))
               for kind in verify.CoordKind for k in np.linspace(0.3, math.pi - 0.3, 5))
    assert check.value == want and check.ok


def test_mc_suite_checks_the_dual_sampler_against_the_perimeter_law():
    checks = {c.name: c for c in verify.mc_checks(10**4, 5)}
    dual = checks["KS dual area vs mirrored perimeter CDF"]
    assert dual.bound == checks["KS primal perimeter vs single-integral CDF"].bound
    assert all(c.ok for c in checks.values())


def test_mc_suite_draws_each_conditional_batch_once(monkeypatch):
    # Both laws of an element read one batch per kappa on stream 7: with the
    # primal and dual batches and the region checks' five, 13 draws in all.
    draws = []
    sample_batch = montecarlo.sample_batch

    def recorded(kind, kappa, n, rng):
        draws.append((kind, kappa, rng.stream_id))
        return sample_batch(kind, kappa, n, rng)

    monkeypatch.setattr(verify, "sample_batch", recorded)
    monkeypatch.setattr(montecarlo, "sample_batch", recorded)  # region_coverage's draws
    assert all(c.ok for c in verify.mc_checks(10**4, 0))
    assert len(draws) == 13
    conditional = [d for d in draws if d[2] == 7]
    assert len(set(conditional)) == len(conditional) == 6
    assert {kind for kind, _, _ in conditional} == set(verify.GIVEN_BATCH.values())
    # region_coverage draws its own batch: five calls, two distinct batches.
    region = [d for d in draws if d[2] == 11]
    assert len(region) == 5 and len(set(region)) == 2


def test_reduction_grid_holds_the_fixed_side_points(monkeypatch):
    # The fixed-side reduction is the fixed-angle equation at the polar
    # point (2*pi - x, pi - kappa), so the one grid must hold the images of
    # fixed-side points, kappa at fractions of (0, x/2), as well as its own.
    calls = []

    def recorded(x, k):
        calls.append(np.broadcast_arrays(x, k))
        return np.zeros(np.broadcast(x, k).shape)

    monkeypatch.setattr(verify, "elliptic_reduction_gap", recorded)
    (check,) = verify.reduction_checks()
    assert check.name == "elliptic reduction" and check.value == 0.0
    assert len(calls) == 1  # one array call
    grid = np.column_stack([v.ravel() for v in calls[0]])
    assert len(set(map(tuple, grid))) == len(grid) == 50
    for x in np.linspace(0.6, verify.TWO_PI - 0.6, 5):
        for frac in (0.1, 0.25, 0.4, 0.6, 0.75):
            gaps = np.hypot(grid[:, 0] - (verify.TWO_PI - x), grid[:, 1] - (math.pi - frac * x / 2))
            assert gaps.min() < 1e-12


@pytest.mark.parametrize("suite", ["duality", "reductions"])
def test_integral_suites_make_one_engine_call(monkeypatch, suite):
    # Each suite's integrals are the rows of one _integrate_rows call (the
    # outer one of the double integrals, whose inner calls it makes), and
    # neither runs the heap.
    def refused(*args, **kwargs):
        raise AssertionError("integrate was called")

    outermost, depth = [], [0]
    real = distributions._integrate_rows

    def counted(f, a, b, spec, groups=None):
        if not depth[0]:
            outermost.append(np.size(a))
        depth[0] += 1
        try:
            return real(f, a, b, spec, groups)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(distributions, "integrate", refused)
    monkeypatch.setattr(distributions, "_integrate_rows", counted)
    assert all(c.ok for c in verify.SUITES[suite](0, 0))
    # The duality suite's 10 x make one outer row each (the square-root kinds'
    # start), as do the reduction grid's 50 points.
    assert outermost == [10 if suite == "duality" else 50]
