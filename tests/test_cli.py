import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphtri import verify
from sphtri.cli import run
from sphtri.distributions import (
    ConditionalKind,
    area_cdf,
    area_density,
    conditional_cdf,
    perimeter_cdf,
    perimeter_density,
)
from sphtri.montecarlo import BatchKind, sample_batch
from sphtri.sphere import RngStream

PI = math.pi
TWO_PI = 2.0 * PI
SRC = Path(__file__).resolve().parents[1] / "src"


def _table(xs, values):
    """The curve CSV as np.savetxt writes it: `x,value`, then rows at 17 digits."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([xs, values]), fmt="%.17g", delimiter=",",
               header="x,value", comments="")
    return buf.getvalue()


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


@pytest.mark.parametrize("grid, message", [
    (["--from", "7", "--to", "1", "--steps", "10"], "range"),
    (["--from", "0", "--to", "1", "--steps", "1"], "--steps must be at least 2"),
], ids=["range", "steps"])
def test_invalid_grid_exits_1(grid, message, capsys):
    assert run(["density", "--kind", "area", *grid]) == 1
    assert message in capsys.readouterr().err


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


def test_perimeter_cdf_at_and_table(capsys, tmp_path):
    # The series law, on both paths.
    assert run(["cdf", "--kind", "perimeter", "--at", "3"]) == 0
    assert capsys.readouterr().out == f"{perimeter_cdf(3.0):.17g}\n"
    out = tmp_path / "p.csv"
    assert run(["cdf", "--kind", "perimeter", "--from", "1", "--to", "3",
                "--steps", "3", "--out", str(out)]) == 0
    xs = np.linspace(1.0, 3.0, 3)
    assert out.read_text() == _table(xs, perimeter_cdf(xs))


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
    # Golden: each table over [0, 2*pi] is np.savetxt's of law(xs), finite throughout.
    assert run(argv + ["--from", "0", "--to", repr(TWO_PI), "--steps", "9"]) == 0
    out = capsys.readouterr().out
    xs = np.linspace(0.0, TWO_PI, 9)
    assert out == _table(xs, law(xs))
    values = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.isfinite(values))


CURVE_COMMANDS = [
    ["density", "--kind", "area"],
    ["density", "--kind", "perimeter"],
    ["cdf", "--kind", "area"],
    ["cdf", "--kind", "perimeter"],
    ["conditional", "--kind", "perimeter_given_side"],
]


@pytest.mark.parametrize("argv", CURVE_COMMANDS, ids=lambda argv: "-".join(argv[:3:2]))
def test_grid_ends_at_two_pi(argv, capsys):
    # --degrees converts kappa too: 60 degrees is radians(60) radians.
    def kappa(degrees):
        if argv[0] != "conditional":
            return []
        return ["--kappa", "60"] if degrees else ["--kappa", repr(math.radians(60))]

    # One float above 2*pi is outside every law's domain: a usage error.
    assert run(argv + kappa(False) + ["--from", "1", "--to",
                                      repr(math.nextafter(TWO_PI, 7.0)), "--steps", "3"]) == 1
    assert "0 <= from < to <= 2*pi" in capsys.readouterr().err
    # radians(360) is 2*pi exactly, so the degree grid is the radian one.
    assert run(argv + kappa(True) + ["--from", "0", "--to", "360", "--degrees",
                                     "--steps", "5"]) == 0
    degrees = capsys.readouterr().out
    assert run(argv + kappa(False) + ["--from", "0", "--to", repr(TWO_PI), "--steps", "5"]) == 0
    assert degrees == capsys.readouterr().out


def test_grid_that_does_not_increase_is_a_usage_error(capsys):
    # Five points between two adjacent floats cannot all differ.
    assert run(["density", "--kind", "area", "--from", "1", "--to", "1.0000000000000002",
                "--steps", "5"]) == 1
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["conditional", "--kind", "perimeter_given_side", "--kappa", "1", "--at", "2"],
    ["conditional", "--kind", "perimeter_given_side", "--kappa", "1",
     "--from", "1", "--to", "3", "--steps", "3"],
    ["conditional", "--kind", "area_median", "--kappa", "1.3", "--at", "2"],
    ["conditional", "--kind", "area_median", "--kappa", "1.3",
     "--from", "1", "--to", "3", "--steps", "3"],
    ["conditional", "--kind", "perimeter_angle_coords", "--kappa", "1", "--at", "2"],
])
def test_tol_is_passed_on(argv, capsys):
    # A NaN tolerance reaches QuadratureSpec, which rejects it.
    assert run(argv + ["--tol", "nan"]) == 1
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cdf", "density"])
@pytest.mark.parametrize("kind", ["area", "perimeter"])
def test_closed_forms_take_no_tol(command, kind, capsys):
    # Both laws are fixed formulas, so --tol is an unknown flag there.
    assert run([command, "--kind", kind, "--at", "3", "--tol", "1e-9"]) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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


SUMMARY_HEADER = "kind,kappa,n,seed,mean_sigma,mean_tau,ks_area,ks_perimeter\n"


def _summary(kind, kappa, n, seed):
    """The one-row batch summary, formatted here from the library's numbers."""
    batch = sample_batch(kind, kappa, n, RngStream(seed))
    ks = verify.primal_ks(batch) if kind is BatchKind.PRIMAL else None
    fields = [kind.value, "" if kappa is None else f"{kappa:.17g}", str(n), str(seed),
              f"{float(np.mean(batch.sigma)):.17g}", f"{float(np.mean(batch.tau)):.17g}",
              *(["", ""] if ks is None else [f"{d:.17g}" for d in ks])]
    return SUMMARY_HEADER + ",".join(fields) + "\n"


@pytest.mark.parametrize("argv,kind,kappa,row_start", [
    (["--kind", "primal"], BatchKind.PRIMAL, None, "primal,,1000,3,"),
    (["--kind", "primal_given_side", "--kappa", "1"], BatchKind.PRIMAL_GIVEN_SIDE, 1.0,
     "primal_given_side,1,1000,3,"),
], ids=["primal", "primal_given_side"])
def test_sample_golden(argv, kind, kappa, row_start, capsys):
    # The primal row fills both KS columns; a conditional one fills kappa and leaves them empty.
    assert run(["sample", *argv, "--n", "1000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out == _summary(kind, kappa, 1000, 3)
    row = out.split("\n")[1]
    assert row.startswith(row_start)
    ks = row.split(",")[6:]
    assert all(ks) if kind is BatchKind.PRIMAL else ks == ["", ""]


@pytest.mark.parametrize("command", ["sample --kind primal", "verify"])
@pytest.mark.parametrize("n, message", [
    ("0", "must be at least 1, got 0"),
    ("-3", "must be at least 1, got -3"),
    ("abc", "invalid int value: 'abc'"),
], ids=["0", "-3", "abc"])
def test_bad_n_is_a_usage_error(command, n, message, capsys):
    assert run([*command.split(), "--n", n]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument --n: {message}" in err


@pytest.mark.parametrize("argv", ["sample --kind primal --seed", "sample --kind primal --stream",
                                  "verify --seed"])
@pytest.mark.parametrize("value, message", [
    ("-1", "must be at least 0, got -1"),
    ("abc", "invalid int value: 'abc'"),
], ids=["-1", "abc"])
def test_bad_seed_or_stream_is_a_usage_error(argv, value, message, capsys):
    # A usage error (exit 1) that names its flag, not verify's exit 2 of a
    # failed check or numpy's message from the sampler.
    assert run([*argv.split(), value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {argv.split()[-1]}: {message}" in err


def test_exit_codes_through_the_process_boundary(capsys):
    # main() turns run()'s code into the process's exit status.
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "sphtri.cli", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))

    done = cli("density", "--kind", "area", "--at", "1")
    assert run(["density", "--kind", "area", "--at", "1"]) == 0
    assert done.returncode == 0 and done.stdout == capsys.readouterr().out
    done = cli("verify", "--n", "0")
    assert done.returncode == 1 and "usage:" in done.stderr


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


@pytest.mark.parametrize("suite", ["identities", "jacobians", "elliptic", "reductions", "duality"])
def test_verify_reruns_in_process_are_byte_identical(suite, capsys):
    # The parser is built once a process; a second run through it prints the same bytes.
    outs = []
    for _ in range(2):
        assert run(["verify", "--suite", suite]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith(f"== suite: {suite} ==")


def test_parser_is_built_once(capsys):
    import sphtri.cli as cli

    before = cli._build_parser.cache_info()
    assert run(["density", "--kind", "area", "--at", "1"]) == 0
    assert run(["cdf", "--kind", "area", "--at", "1"]) == 0
    after = cli._build_parser.cache_info()
    assert after.misses <= 1 and after.hits - before.hits >= 1


def test_verify_failing_check_exits_2(capsys, monkeypatch):
    from sphtri import verify

    monkeypatch.setitem(verify.SUITES, "elliptic",
                        lambda n, seed: [verify.Check("always over", 2.0, 1.0)])
    assert run(["verify", "--suite", "elliptic"]) == 2
    assert "FAIL always over: 2.000e+00 (bound 1.0e+00)" in capsys.readouterr().out


def test_verify_mc_suite_reports_at_seed_8(capsys):
    # Its dual batch holds a triangle whose angle sum is -2.66e-10; that
    # area would put 2*pi - sigma above 2*pi, out of perimeter_cdf's domain.
    assert run(["verify", "--suite", "mc-vs-analytic", "--n", "10000", "--seed", "8"]) in (0, 2)
    assert "KS dual area vs mirrored perimeter CDF" in capsys.readouterr().out


def test_verify_suite_that_raises_is_a_failure(capsys, monkeypatch):
    # The raising suite is one FAIL line; the suites after it still run and print.
    from sphtri import verify
    from sphtri.errors import ToleranceNotMet

    def raising(n, seed):
        raise ToleranceNotMet("subdivision budget exhausted")

    monkeypatch.setitem(verify.SUITES, "identities", raising)
    assert run(["verify", "--suite", "all", "--n", "100"]) == 2
    out = capsys.readouterr().out
    assert "FAIL identities: ToleranceNotMet: subdivision budget exhausted" in out
    assert out.count("== suite:") == len(verify.SUITES)
    assert "PASS Legendre relation" in out


def test_library_error_exits_1(capsys, monkeypatch):
    import sphtri.cli as cli
    from sphtri.errors import ToleranceNotMet

    def failing(*args, **kwargs):
        raise ToleranceNotMet("subdivision budget exhausted")

    monkeypatch.setattr(cli, "conditional_cdf", failing)
    assert run(["conditional", "--kind", "perimeter_given_side", "--kappa", "1",
                "--at", "2"]) == 1
    assert "subdivision budget exhausted" in capsys.readouterr().err
