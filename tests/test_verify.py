import math

import numpy as np

from sphtri import verify


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


def test_duality_suite_checks_the_double_integral_against_the_series(monkeypatch):
    # The double integral runs once per point: its primal kind is the dual
    # one at the polar point, so comparing the two would compare it with itself.
    kinds = []
    real = verify.density_via_double_integral

    def recorded(kind, x, tol=1e-9):
        kinds.append(kind)
        return real(kind, x, tol)

    monkeypatch.setattr(verify, "density_via_double_integral", recorded)
    checks = {c.name: c for c in verify.duality_checks()}
    assert kinds == [verify.DensityKind.PERIMETER_PRIMAL] * 10
    assert checks["perimeter double integral vs series"].value < 1e-10
    assert all(c.ok for c in checks.values())


def test_mc_suite_checks_the_dual_sampler_against_the_perimeter_law():
    checks = {c.name: c for c in verify.mc_checks(10**4, 5)}
    dual = checks["KS dual area vs mirrored perimeter CDF"]
    assert dual.bound == checks["KS primal perimeter vs single-integral CDF"].bound
    assert all(c.ok for c in checks.values())


def test_reduction_grid_holds_the_fixed_side_points(monkeypatch):
    # The fixed-side reduction is the fixed-angle equation at the polar
    # point (2*pi - x, pi - kappa), so the one grid must hold the images of
    # fixed-side points, kappa at fractions of (0, x/2), as well as its own.
    calls = []
    monkeypatch.setattr(verify, "elliptic_reduction_gap", lambda x, k: calls.append((x, k)) or 0.0)
    (check,) = verify.reduction_checks()
    assert check.name == "elliptic reduction" and check.value == 0.0
    grid = np.array(calls)
    assert len(set(calls)) == len(calls) == 50
    for x in np.linspace(0.6, verify.TWO_PI - 0.6, 5):
        for frac in (0.1, 0.25, 0.4, 0.6, 0.75):
            gaps = np.hypot(grid[:, 0] - (verify.TWO_PI - x), grid[:, 1] - (math.pi - frac * x / 2))
            assert gaps.min() < 1e-12
