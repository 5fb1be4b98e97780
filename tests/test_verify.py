import math

from sphtri import verify


def test_nan_value_fails_its_check(monkeypatch):
    # One NaN among the 20 Legendre residuals must reach the check, not be
    # folded away by a max that skips it.
    calls = []
    ellip_K = verify.ellip_K

    def ellip_K_with_one_nan(z):
        calls.append(z)
        return math.nan if len(calls) == 7 else ellip_K(z)

    monkeypatch.setattr(verify, "ellip_K", ellip_K_with_one_nan)
    checks = {c.name: c for c in verify.elliptic_checks()}
    legendre = checks["Legendre relation"]
    assert math.isnan(legendre.value)
    assert not legendre.ok
    assert checks["AGM vs defining integrals"].ok
