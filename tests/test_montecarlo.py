import math
import tracemalloc

import numpy as np
import pytest

from sphtri import montecarlo, sphere
from sphtri.coords import CoordKind, vertices
from sphtri.distributions import (
    CONDITIONAL_LAWS, ConditionalKind, area_cdf, conditional_cdf, perimeter_cdf,
)
from sphtri.errors import DegenerateDual
from sphtri.montecarlo import (
    BLOCK,
    GIVEN_BATCH,
    BatchKind,
    EmpiricalCdf,
    SampleBatch,
    ks_distance,
    region_coverage,
    sample_batch,
)
from sphtri.sphere import RngStream

PI = math.pi
TWO_PI = 2.0 * PI

KINDS = [
    (BatchKind.PRIMAL, None),
    (BatchKind.DUAL, None),
    (BatchKind.PRIMAL_GIVEN_SIDE, 1.1),
    (BatchKind.DUAL_GIVEN_ANGLE, 1.1),
]


def reference_points(rng, n):
    """n uniform points by the formula that preceded the column sums."""
    v = rng.generator.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def reference_sample_batch(kind, kappa, n, rng):
    """The whole-batch sampler that preceded the blocked one.

    Every point and every kernel temporary spans all n rows, and the
    points are normalized with np.linalg.norm.
    """
    if kind not in (BatchKind.PRIMAL_GIVEN_SIDE, BatchKind.DUAL_GIVEN_ANGLE):
        kappa = None
    gen = rng.generator
    coord_u = coord_v = None
    if kind in (BatchKind.PRIMAL, BatchKind.DUAL):
        # A fixed, B at a side c with P(c <= t) = (1 - cos t) / 2 on the equator, C uniform.
        u = gen.random(n)
        A = np.array([1.0, 0.0, 0.0])
        B = np.stack([1.0 - 2.0 * u, 2.0 * np.sqrt(u * (1.0 - u)), np.zeros(n)], axis=1)
        C = reference_points(rng, n)
        if kind is BatchKind.DUAL:
            A, B, C = sphere.dual_vertices(A, B, C)
        a, b, c, al, be, ga = sphere.triangle_elements(A, B, C)
    elif kind is BatchKind.PRIMAL_GIVEN_SIDE:
        A = np.array([1.0, 0.0, 0.0])
        B = np.array([math.cos(kappa), math.sin(kappa), 0.0])
        C = reference_points(rng, n)
        a, b, c, al, be, ga = sphere.triangle_elements(A, B, C)
        coord_u, coord_v = al, b
    else:
        rho = gen.uniform(0.0, math.pi, n)
        theta = np.arccos(1.0 - 2.0 * gen.uniform(0.0, 1.0, n))
        A, B, C = vertices(CoordKind.DUAL, rho, theta, kappa)
        a, b, c, al, be, ga = sphere.triangle_elements(A, B, C)
        coord_u, coord_v = c, be
    sigma = sphere._excess(A, B, C, al, be, ga)
    tau = a + b + c
    return SampleBatch(kind, kappa, sigma, tau, coord_u, coord_v)


def reference_ks_distance(emp, analytic):
    """The KS distance with a full temporary for every step."""
    F = np.asarray(analytic(emp.sorted), dtype=float)
    i = np.arange(1, emp.n + 1)
    d_plus = np.max(i / emp.n - F)
    d_minus = np.max(F - (i - 1) / emp.n)
    return float(max(d_plus, d_minus))


def assert_same_samples(got, want):
    for name in ("sigma", "tau", "coord_u", "coord_v"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.array_equal(x, y), name


class TestSampleBatch:
    def test_determinism(self):
        a = sample_batch(BatchKind.PRIMAL, None, 1000, RngStream(7, 3))
        b = sample_batch(BatchKind.PRIMAL, None, 1000, RngStream(7, 3))
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.tau, b.tau)

    def test_ranges(self):
        for kind, kappa in [
            (BatchKind.PRIMAL, None),
            (BatchKind.DUAL, None),
            (BatchKind.PRIMAL_GIVEN_SIDE, 1.1),
            (BatchKind.DUAL_GIVEN_ANGLE, 1.1),
        ]:
            b = sample_batch(kind, kappa, 5000, RngStream(1))
            assert np.all((b.sigma >= 0) & (b.sigma <= TWO_PI))
            assert np.all((b.tau >= 0) & (b.tau <= TWO_PI))

    def test_tiny_dual_triangle_keeps_its_sign(self, monkeypatch):
        # Girard's angle sum rounds this triangle's excess to 0.0; 60-digit
        # mpmath on its rounded vertices gives 9.3115687e-21.
        sums = []
        excess = sphere._excess

        def recorded(A, B, C, al, be, ga):
            sums.append(al + be + ga - PI)
            return excess(A, B, C, al, be, ga)

        monkeypatch.setattr(sphere, "_excess", recorded)
        b = sample_batch(BatchKind.DUAL, None, 10**5, RngStream(26270, 3))
        assert np.concatenate(sums)[7581] <= 0.0
        assert abs(b.sigma[7581] / 9.3116e-21 - 1.0) < 1e-3
        assert b.sigma.min() >= 0.0

    def test_given_side_fixes_side(self):
        # Rebuild the construction and measure the fixed side directly.
        from sphtri.sphere import sample_uniform_points, triangle_elements

        kappa = PI / 2
        n = 10**4
        A = np.zeros((n, 3))
        A[:, 0] = 1.0
        B = np.tile([math.cos(kappa), math.sin(kappa), 0.0], (n, 1))
        C = sample_uniform_points(RngStream(2), n)
        _, _, c, _, _, _ = triangle_elements(A, B, C)
        assert np.max(np.abs(c - kappa)) < 1e-12

        b = sample_batch(BatchKind.PRIMAL_GIVEN_SIDE, kappa, 100, RngStream(2))
        assert b.kappa == kappa and len(b.coord_u) == 100

    def test_given_angle_fixes_angle(self):
        kappa = 0.9
        b = sample_batch(BatchKind.DUAL_GIVEN_ANGLE, kappa, 2000, RngStream(3))
        # alpha = sigma + pi - beta - gamma... recover alpha directly:
        # sigma = alpha + beta + gamma - pi and coord_v = beta, so check
        # via the sampled triangle's angle sum instead.
        rho = np.linspace(0.3, PI - 0.3, 50)
        theta = np.linspace(0.3, PI - 0.3, 50)
        a, bb, c, al, be, ga = sphere.triangle_elements(*vertices(CoordKind.DUAL, rho, theta, kappa))
        assert np.max(np.abs(al - kappa)) < 1e-9
        assert np.max(np.abs(be - theta)) < 1e-9
        assert np.max(np.abs(c - rho)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_batch(BatchKind.PRIMAL, None, 0, RngStream(1))
        with pytest.raises(ValueError):
            sample_batch(BatchKind.PRIMAL_GIVEN_SIDE, None, 10, RngStream(1))

    def test_mean_excess_within_3se(self, primal_batch_1m):
        b = primal_batch_1m
        se = float(np.std(b.sigma)) / math.sqrt(b.n)
        assert abs(float(np.mean(b.sigma)) - PI / 2) < 3 * se


class TestBlockedSampler:
    @pytest.mark.parametrize("kind,kappa", KINDS)
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    @pytest.mark.parametrize("seed,stream", [(7, 0), (2024, 5)])
    def test_matches_whole_batch(self, kind, kappa, n, seed, stream):
        got = sample_batch(kind, kappa, n, RngStream(seed, stream))
        want = reference_sample_batch(kind, kappa, n, RngStream(seed, stream))
        assert got.n == n
        assert_same_samples(got, want)

    @pytest.mark.parametrize("kind,kappa", [(BatchKind.DUAL_GIVEN_ANGLE, 0.8),
                                            (BatchKind.PRIMAL, None), (BatchKind.DUAL, None)])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 5])
    def test_reads_every_first_draw_then_the_blocks(self, kind, kappa, n):
        # Every rho (DUAL_GIVEN_ANGLE) or side (PRIMAL, DUAL) is drawn before
        # the first block, and each block draws its theta or points after
        # them; the batch and the stream afterwards must be as if all of the
        # first and then all of the second were drawn, including a buffered
        # 32-bit half-draw.
        got_rng, want_rng = RngStream(31, 4), RngStream(31, 4)
        for rng in (got_rng, want_rng):
            rng.generator.integers(0, 2**32, dtype=np.uint32)
        got = sample_batch(kind, kappa, n, got_rng)
        want = reference_sample_batch(kind, kappa, n, want_rng)
        assert_same_samples(got, want)

        def next_draws(rng):
            gen = rng.generator
            return gen.integers(0, 2**32, 3, dtype=np.uint32).tobytes() + gen.random(3).tobytes()

        assert next_draws(got_rng) == next_draws(want_rng)

    def test_dual_given_angle_on_a_bit_generator_without_advance(self):
        # MT19937 cannot jump ahead by a given number of draws; the batch
        # must not need it.
        got_rng, want_rng = RngStream(31, 4), RngStream(31, 4)
        for rng in (got_rng, want_rng):
            rng._gen = np.random.Generator(np.random.MT19937(5))
        n = 3 * BLOCK + 5
        got = sample_batch(BatchKind.DUAL_GIVEN_ANGLE, 0.8, n, got_rng)
        want = reference_sample_batch(BatchKind.DUAL_GIVEN_ANGLE, 0.8, n, want_rng)
        assert_same_samples(got, want)
        assert got_rng.generator.random(3).tobytes() == want_rng.generator.random(3).tobytes()

    def test_million_matches_whole_batch(self, primal_batch_1m):
        want = reference_sample_batch(BatchKind.PRIMAL, None, 10**6, RngStream(123))
        assert_same_samples(primal_batch_1m, want)

    @pytest.mark.parametrize("kind,kappa", KINDS)
    def test_no_norm_nor_moveaxis(self, kind, kappa, monkeypatch):
        # Points are normalized by column sums and vertices transposed in
        # place; either numpy helper costs a Python-level round trip a block.
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
        monkeypatch.setattr(np, "moveaxis", counted("moveaxis", np.moveaxis))
        sample_batch(kind, kappa, BLOCK + 1, RngStream(6))
        assert calls == []

    @pytest.mark.parametrize("kind,kappa", KINDS)
    def test_peak_memory_is_outputs_plus_blocks(self, kind, kappa):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            b = sample_batch(kind, kappa, 10**6, RngStream(8))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        outputs = sum(x.nbytes for x in (b.sigma, b.tau, b.coord_u, b.coord_v) if x is not None)
        assert peak <= outputs + 24e6, (kind, peak, outputs)

    def test_degenerate_pole_pair_in_second_block_raises(self, monkeypatch):
        calls = []
        draw = sphere.sample_uniform_points

        def draw_with_repeated_pole(rng, n):
            pts = draw(rng, n)
            calls.append(n)
            if len(calls) == 2:
                pts[0] = [1.0, 0.0, 0.0]  # the first triangle of the block: Cp = Ap
            return pts

        monkeypatch.setattr(sphere, "sample_uniform_points", draw_with_repeated_pole)
        with pytest.raises(DegenerateDual):
            sample_batch(BatchKind.DUAL, None, 2 * BLOCK + 5, RngStream(3))
        assert calls == [BLOCK, BLOCK]


class TestEmpiricalCdf:
    def test_step_values(self):
        e = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
        assert e(0.5) == 0.0
        assert e(1.0) == 0.25  # right-continuous
        assert e(4.0) == 1.0

    @pytest.mark.parametrize("sample,cause", [
        ([], "empty"),
        (np.empty(0), "empty"),
        ([0.3, math.nan, 0.1], "NaN"),
        ([math.nan], "NaN"),
    ])
    def test_empty_or_nan_sample_raises(self, sample, cause):
        with pytest.raises(ValueError, match=cause):
            EmpiricalCdf(sample)

    def test_ks_vs_itself_is_tiny(self):
        data = np.random.default_rng(5).uniform(0, 1, 1000)
        e = EmpiricalCdf(data)
        assert ks_distance(e, e) <= 1.0 / e.n + 1e-12

    def test_ks_matches_full_temporaries(self, primal_batch_1m, dual_batch_1m):
        for sample, cdf in ((primal_batch_1m.sigma, area_cdf),
                            (dual_batch_1m.tau, perimeter_cdf)):
            e = EmpiricalCdf(sample)
            assert ks_distance(e, cdf) == reference_ks_distance(e, cdf)


class TestKsAgainstAnalytic:
    def test_area(self, primal_batch_1m):
        d = ks_distance(EmpiricalCdf(primal_batch_1m.sigma), area_cdf)
        assert d < 0.003

    def test_perimeter(self, primal_batch_1m):
        d = ks_distance(EmpiricalCdf(primal_batch_1m.tau), perimeter_cdf)
        assert d < 0.003

    def test_dual_duality(self, dual_batch_1m):
        # dual area = 2*pi - primal perimeter in distribution.
        d = ks_distance(
            EmpiricalCdf(TWO_PI - dual_batch_1m.sigma), perimeter_cdf
        )
        assert d < 0.003

    def test_dual_perimeter_vs_area(self, dual_batch_1m):
        # dual perimeter = 2*pi - primal area in distribution.
        d = ks_distance(EmpiricalCdf(TWO_PI - dual_batch_1m.tau), area_cdf)
        assert d < 0.003


@pytest.fixture(scope="module")
def conditional_batches():
    out = {}
    for kind in (BatchKind.PRIMAL_GIVEN_SIDE, BatchKind.DUAL_GIVEN_ANGLE):
        for kappa in np.linspace(0.5, PI - 0.5, 5):
            out[(kind, float(kappa))] = sample_batch(kind, float(kappa), 10**5, RngStream(31, 5))
    return out


@pytest.mark.parametrize("ckind", list(ConditionalKind))
def test_conditional_fraction_matches_cdf(ckind, conditional_batches):
    n = 10**5
    law = CONDITIONAL_LAWS[ckind]
    for kappa in np.linspace(0.5, PI - 0.5, 5):
        batch = conditional_batches[(GIVEN_BATCH[law.element], float(kappa))]
        vals = getattr(batch, law.statistic)
        for x in np.linspace(0.8, TWO_PI - 0.8, 5):
            p = conditional_cdf(ckind, float(x), float(kappa), tol=1e-7)
            frac = float(np.mean(vals <= x))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(frac - p) <= 3 * se + 1e-6, (ckind, float(x), float(kappa), frac, p)


def test_conditional_point_at_pi_with_million_samples():
    # P{area <= pi | c = pi/2} has the closed value (1 + cos(pi/4))/2.
    b = sample_batch(BatchKind.PRIMAL_GIVEN_SIDE, PI / 2, 10**6, RngStream(5))
    p = conditional_cdf(ConditionalKind.AREA_GIVEN_SIDE, PI, PI / 2)
    assert abs(p - (1 + math.cos(PI / 4)) / 2) < 1e-12
    frac = float(np.mean(b.sigma <= PI))
    se = math.sqrt(p * (1 - p) / 10**6)
    assert abs(frac - p) < 3 * se


class TestRegionCoverage:
    LAWS = [  # the acceptance suite's five region laws
        (ConditionalKind.AREA_GIVEN_SIDE, 1.2, 2.0),
        (ConditionalKind.PERIMETER_GIVEN_SIDE, 1.2, 3.0),
        (ConditionalKind.PERIMETER_GIVEN_ANGLE, 1.2, 3.0),
        (ConditionalKind.AREA_GIVEN_ANGLE, 1.9, 2.0),
        (ConditionalKind.PERIMETER_BISECTOR, 1.2, 3.0),
    ]

    @pytest.mark.parametrize("kind,kappa,limit", LAWS)
    def test_no_violations(self, kind, kappa, limit):
        assert region_coverage(kind, kappa, limit, 10**5, RngStream(99)) == 0

    @pytest.mark.parametrize("shift, counts", [(0.05, [45, 137, 39, 165, 29]),
                                               (-0.05, [76, 113, 44, 165, 44])])
    def test_counts_the_points_of_a_shifted_curve(self, monkeypatch, shift, counts):
        # Against the curve of limit + shift, each point whose statistic lies
        # between limit and limit + shift falls on the wrong side, and is
        # counted. Every other test sees 0 violations.
        boundary = montecarlo.region_boundary
        monkeypatch.setattr(montecarlo, "region_boundary",
                            lambda kind, x, kappa: boundary(kind, x + shift, kappa))
        got = [region_coverage(kind, kappa, limit, 10**4, RngStream(809))
               for kind, kappa, limit in self.LAWS]
        assert got == counts

    def test_trivial_full_region(self):
        assert region_coverage(ConditionalKind.AREA_GIVEN_SIDE, 1.0, TWO_PI, 10**5, RngStream(99)) == 0

    def test_unsupported_kind(self):
        # It raises before it samples: the stream is left as it was.
        rng = RngStream(1)
        state = rng.generator.bit_generator.state
        with pytest.raises(ValueError):
            region_coverage(ConditionalKind.AREA_MEDIAN, 1.0, 2.0, 10, rng)
        assert rng.generator.bit_generator.state == state
