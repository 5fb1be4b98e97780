import io
import math

import numpy as np
import pytest

from sphtri.cli import run
from sphtri.distributions import (
    ConditionalKind,
    DensityCurve,
    area_cdf,
    area_density,
    conditional_cdf,
    perimeter_cdf,
    perimeter_density,
)

PI = math.pi
TWO_PI = 2.0 * PI


def test_perimeter_density_at_pi(capsys):
    assert run(["density", "--kind", "perimeter", "--at", "3.14159265358979"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 3 * math.sqrt(2) / 32) < 1e-9


def test_area_density_table(capsys, tmp_path):
    out = tmp_path / "area.csv"
    assert run(["density", "--kind", "area", "--from", "0.5", "--to", "2.5",
                "--steps", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,value"
    assert len(lines) == 6


def test_invalid_range_exits_1(capsys):
    assert run(["density", "--kind", "area", "--from", "7", "--to", "1",
                "--steps", "10"]) == 1
    assert "range" in capsys.readouterr().err


def test_missing_grid_flags_exits_1(capsys):
    assert run(["density", "--kind", "area"]) == 1


def test_unknown_kind_exits_1(capsys):
    assert run(["density", "--kind", "volume", "--at", "1.0"]) == 1


def test_degrees_flag(capsys):
    assert run(["density", "--kind", "area", "--at", "180", "--degrees"]) == 0
    v = float(capsys.readouterr().out)
    assert abs(v - 1.0 / (4 * PI)) < 1e-12


def test_cdf_at(capsys):
    assert run(["cdf", "--kind", "area", "--at", str(2 * PI)]) == 0
    assert float(capsys.readouterr().out) == 1.0


def test_cdf_default_tolerance(capsys, tmp_path):
    # Without --tol the library's own default applies, on both paths.
    assert run(["cdf", "--kind", "perimeter", "--at", "3"]) == 0
    assert capsys.readouterr().out == f"{perimeter_cdf(3.0):.17g}\n"
    out = tmp_path / "p.csv"
    assert run(["cdf", "--kind", "perimeter", "--from", "1", "--to", "3",
                "--steps", "3", "--out", str(out)]) == 0
    xs = np.linspace(1.0, 3.0, 3)
    assert out.read_text() == DensityCurve(xs, perimeter_cdf(xs)).to_csv_string()


def _conditional_law(kind, kappa):
    return lambda xs: [conditional_cdf(kind, float(x), kappa) for x in xs]


@pytest.mark.parametrize("argv,law", [
    (["density", "--kind", "area"], area_density),
    # The density diverges at 2*pi; the table evaluates it clipped inside (0, 2*pi).
    (["density", "--kind", "perimeter"],
     lambda xs: perimeter_density(np.clip(xs, 1e-12, TWO_PI - 1e-6))),
    (["cdf", "--kind", "area"], area_cdf),
    (["cdf", "--kind", "perimeter"], perimeter_cdf),
    (["conditional", "--kind", "perimeter_given_side", "--kappa", "0.7"],
     _conditional_law(ConditionalKind.PERIMETER_GIVEN_SIDE, 0.7)),
    (["conditional", "--kind", "area_median", "--kappa", "1.3"],
     _conditional_law(ConditionalKind.AREA_MEDIAN, 1.3)),
], ids=["density-area", "density-perimeter", "cdf-area", "cdf-perimeter",
        "conditional-perimeter_given_side", "conditional-area_median"])
def test_curve_table_is_the_law_on_the_grid(argv, law, capsys):
    # Golden: each table over [0, 2*pi] is DensityCurve(xs, law(xs)), finite throughout.
    assert run(argv + ["--from", "0", "--to", repr(TWO_PI), "--steps", "9"]) == 0
    out = capsys.readouterr().out
    xs = np.linspace(0.0, TWO_PI, 9)
    assert out == DensityCurve(xs, law(xs)).to_csv_string()
    values = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("argv", [
    ["cdf", "--kind", "perimeter", "--at", "3"],
    ["cdf", "--kind", "perimeter", "--from", "1", "--to", "3", "--steps", "3"],
    ["density", "--kind", "perimeter", "--at", "3"],
    ["density", "--kind", "perimeter", "--from", "1", "--to", "3", "--steps", "3"],
    ["conditional", "--kind", "perimeter_given_side", "--kappa", "1", "--at", "2"],
])
def test_tol_is_passed_on(argv, capsys):
    # A NaN tolerance reaches QuadratureSpec, which rejects it.
    assert run(argv + ["--tol", "nan"]) == 1
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cdf", "density"])
def test_area_closed_forms_ignore_tol(command, capsys):
    assert run([command, "--kind", "area", "--at", "3"]) == 0
    plain = capsys.readouterr().out
    assert run([command, "--kind", "area", "--at", "3", "--tol", "nan"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("lo,hi,steps", [
    ("1", "6.2", 3),
    ("6.28318", repr(TWO_PI), 5),
    ("6.2831849", repr(TWO_PI), 5),  # interior rows within 1e-6 of 2*pi
])
def test_perimeter_density_table_matches_scalar_values(lo, hi, steps, capsys):
    # Every row before 2*pi is the density at its own x.
    assert run(["density", "--kind", "perimeter", "--from", lo, "--to", hi,
                "--steps", str(steps)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert len(rows) == steps
    inside = [(x, v) for x, v in rows if float(x) < TWO_PI]
    assert len(inside) >= steps - 1
    assert all(v == f"{perimeter_density(float(x)):.17g}" for x, v in inside)


def test_verify_takes_no_tol(capsys):
    assert run(["verify", "--suite", "elliptic", "--tol", "1e-3"]) == 1


def test_conditional_at(capsys):
    assert run(["conditional", "--kind", "area_given_side", "--kappa",
                str(PI / 2), "--at", str(PI)]) == 0
    v = float(capsys.readouterr().out)
    assert abs(v - (1 + math.cos(PI / 4)) / 2) < 1e-12


def test_sample_summary_schema(capsys, tmp_path):
    out = tmp_path / "batch.csv"
    assert run(["sample", "--kind", "primal_given_side", "--kappa", "1.2",
                "--n", "1000", "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kind,kappa,n,seed,mean_sigma,mean_tau,ks_area,ks_perimeter"
    fields = lines[1].split(",")
    assert fields[0] == "primal_given_side"
    assert int(fields[2]) == 1000


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--kind", "primal", "--n", "2000", "--seed", "9", "--out"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    args = ["density", "--kind", "area", "--from", "0", "--to", "6.28",
            "--steps", "20", "--out"]
    assert run(args + [str(c)]) == 0
    assert run(args + [str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_verify_identities_suite(capsys):
    assert run(["verify", "--suite", "identities", "--n", "10000", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_elliptic_suite(capsys):
    assert run(["verify", "--suite", "elliptic"]) == 0


def test_verify_reductions_suite(capsys):
    assert run(["verify", "--suite", "reductions"]) == 0


def test_conditional_at_zero_kappa(capsys):
    assert run(["conditional", "--kind", "perimeter_given_side", "--kappa", "0",
                "--at", "2"]) == 0
    v = float(capsys.readouterr().out)
    assert abs(v - (1.0 - math.cos(1.0)) / 2.0) < 1e-15


def test_conditional_outside_2d_route_domain_exits_1(capsys):
    assert run(["conditional", "--kind", "perimeter_angle_coords", "--kappa", "1e-3",
                "--at", "2"]) == 1
    assert "kappa" in capsys.readouterr().err


def test_verify_failing_check_exits_2(capsys, monkeypatch):
    from sphtri import verify

    monkeypatch.setitem(verify.SUITES, "elliptic",
                        lambda n, seed: [verify.Check("always over", 2.0, 1.0)])
    assert run(["verify", "--suite", "elliptic"]) == 2
    assert "FAIL always over: 2.000e+00 (bound 1.0e+00)" in capsys.readouterr().out


def test_library_error_exits_1(capsys, monkeypatch):
    import sphtri.cli as cli
    from sphtri.errors import ToleranceNotMet

    def failing(*args, **kwargs):
        raise ToleranceNotMet("subdivision budget exhausted")

    monkeypatch.setattr(cli, "conditional_cdf", failing)
    assert run(["conditional", "--kind", "perimeter_given_side", "--kappa", "1",
                "--at", "2"]) == 1
    assert "subdivision budget exhausted" in capsys.readouterr().err
