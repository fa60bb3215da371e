import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from smml1d import (
    SupportError,
    density_mass_ratio,
    differential_entropy,
    interval_integrals,
)
from smml1d import families

BETA = math.sqrt(5.0)
HALF_NORMAL_MEAN = BETA * math.sqrt(2.0 / math.pi)


class TestIntervalIntegrals:
    def test_half_line_normal(self, nn):
        """Mass and centroid of (0, inf) have closed forms for the normal."""
        _, marginal = nn
        ii = interval_integrals(marginal, 0.0, math.inf)
        assert ii.log_mass == pytest.approx(math.log(0.5), abs=1e-13)
        assert ii.centroid == pytest.approx(HALF_NORMAL_MEAN, rel=1e-12)

    def test_full_line_lomax(self, eg):
        _, marginal = eg
        ii = interval_integrals(marginal, 0.0, math.inf)
        assert abs(ii.log_mass) < 1e-12
        assert ii.centroid == pytest.approx(1.0, rel=1e-12)  # Lomax mean b/(a-1)

    def test_far_interval_does_not_underflow(self, nn):
        """(30, 31): the mass is ~1e-198 but its log must come out finite,
        equal to log r(30) plus the log of the rescaled integral."""
        _, marginal = nn
        ii = interval_integrals(marginal, 30.0, 31.0)
        assert math.isfinite(ii.log_mass)
        scaled, _ = quad(lambda x: math.exp(-(x * x - 900.0) / 10.0), 30.0, 31.0,
                         epsabs=0.0, epsrel=1e-13)
        expected = float(marginal.log_pdf(30.0)) + math.log(scaled)
        assert ii.log_mass == pytest.approx(expected, abs=1e-11)

    def test_additivity(self, nn):
        _, marginal = nn
        whole = interval_integrals(marginal, -1.3, 2.9)
        left = interval_integrals(marginal, -1.3, 0.7)
        right = interval_integrals(marginal, 0.7, 2.9)
        total = math.exp(left.log_mass) + math.exp(right.log_mass)
        assert math.exp(whole.log_mass) == pytest.approx(total, rel=1e-10)

    @pytest.mark.parametrize("cuts", [(-2.0, 1.0), (-31.5, -4.2, 0.3, 8.8, 33.0)])
    def test_partition_mass_sums_to_one(self, nn, cuts):
        _, marginal = nn
        bounds = (-math.inf, *cuts, math.inf)
        logs = [interval_integrals(marginal, lo, hi).log_mass
                for lo, hi in zip(bounds, bounds[1:])]
        top = max(logs)
        total = math.exp(top) * math.fsum(math.exp(lq - top) for lq in logs)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_interval_centroid_is_zero(self, nn):
        _, marginal = nn
        for half in (0.5, 2.0, 7.7):
            ii = interval_integrals(marginal, -half, half)
            assert abs(ii.centroid) < 1e-12

    def test_scaled_path_matches_naive_quadrature(self, nn, eg):
        """Where the mass is representable, scipy integrating the raw density
        must agree with the log-domain path."""
        for (_, marginal), (lo, hi) in (
            (nn, (-1.0, 2.5)), (nn, (3.0, 9.0)), (eg, (0.5, 4.0)), (eg, (10.0, 300.0)),
        ):
            naive, _ = quad(lambda x: float(np.exp(marginal.log_pdf(x))), lo, hi,
                            epsabs=0.0, epsrel=1e-12)
            ii = interval_integrals(marginal, lo, hi)
            assert math.exp(ii.log_mass) == pytest.approx(naive, rel=1e-10)

    def test_centroid_strictly_inside(self, nn):
        _, marginal = nn
        rng = np.random.default_rng(5)
        for _ in range(25):
            lo, hi = np.sort(rng.uniform(-12.0, 12.0, size=2))
            if hi - lo < 1e-3:
                continue
            ii = interval_integrals(marginal, lo, hi)
            assert lo < ii.centroid < hi

    def test_ref_point_is_interval_argmax(self, nn):
        _, marginal = nn
        assert interval_integrals(marginal, 1.0, 4.0).ref_point == 1.0
        assert interval_integrals(marginal, -4.0, -1.0).ref_point == -1.0
        assert interval_integrals(marginal, -1.0, 4.0).ref_point == 0.0

    def test_bad_intervals(self, nn, eg):
        _, marginal = nn
        with pytest.raises(ValueError):
            interval_integrals(marginal, 2.0, 2.0)
        with pytest.raises(ValueError):
            interval_integrals(marginal, 3.0, 1.0)
        _, lomax = eg
        with pytest.raises(SupportError):
            interval_integrals(lomax, -2.0, -1.0)


def _without_closed_form(pair):
    family, marginal = pair
    return family, dataclasses.replace(marginal, closed_form=None)


class TestIntervalIntegralsQuadrature(TestIntervalIntegrals):
    """The cases above on hook-stripped marginals: the adaptive GK path alone."""

    @pytest.fixture
    def nn(self, nn):
        return _without_closed_form(nn)

    @pytest.fixture
    def eg(self, eg):
        return _without_closed_form(eg)


def _normal_intervals(rng):
    """Bulk, narrow (down to 1e-4 sd), far-tail (out to 300 sd) and
    half-infinite intervals of the alpha = 2 normal marginal."""
    out = [(0.0, math.inf), (-math.inf, -1.9203), (93.45, math.inf),
           (-300.0 * BETA, -299.0 * BETA), (-0.5, 0.7), (-math.inf, 2.0)]
    for _ in range(40):
        lo = rng.uniform(-4.0, 4.0) * BETA
        out.append((lo, lo + 10.0 ** rng.uniform(-4.0, 0.7) * BETA))
    for _ in range(40):
        lo = 10.0 ** rng.uniform(0.5, math.log10(299.0)) * BETA
        hi = min(lo + 10.0 ** rng.uniform(-4.0, 1.0) * BETA, 300.0 * BETA)
        out.append((lo, hi) if rng.random() < 0.5 else (-hi, -lo))
    for _ in range(20):
        x = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, math.log10(300.0)) * BETA
        out.append((x, math.inf) if rng.random() < 0.5 else (-math.inf, x))
    return [(float(lo), float(hi)) for lo, hi in out]


def _lomax_intervals(rng):
    """The alpha = 2, beta = 1 Lomax table partition up to the 403 274.23 cut,
    plus random bulk, narrow, far and half-infinite intervals out to 1e6."""
    edges = (0.0, 4.42, 80.17, 1374.64, 23496.46, 403274.23, math.inf)
    out = list(zip(edges, edges[1:])) + [(403274.23, 1e6), (0.0, math.inf)]
    for _ in range(80):
        lo = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 5.9)
        if rng.random() < 0.2:
            out.append((lo, math.inf))
        else:
            out.append((lo, min(lo + 10.0 ** rng.uniform(-4.0, 1.0) * (1.0 + lo), 1e6)))
    return [(float(lo), float(hi)) for lo, hi in out]


def _normal_exact(mpmath, lo, hi):
    """Log mass and centroid of N(0, 5) over (lo, hi) from erf/erfc and the
    antiderivative -phi of z phi(z)."""
    s = mpmath.sqrt(5)
    a, b = (mpmath.mpf(v) / s for v in (lo, hi))
    half = lambda z: z / mpmath.sqrt(2)  # noqa: E731
    if lo >= 0.0:
        mass = (mpmath.erfc(half(a)) - mpmath.erfc(half(b))) / 2
    elif hi <= 0.0:
        mass = (mpmath.erfc(-half(b)) - mpmath.erfc(-half(a))) / 2
    else:
        mass = (mpmath.erf(half(b)) - mpmath.erf(half(a))) / 2
    return mpmath.log(mass), s * (mpmath.npdf(a) - mpmath.npdf(b)) / mass


def _lomax_exact(mpmath, lo, hi):
    """Log mass and centroid of Lomax(2, 1) over (lo, hi) from its survival
    function S(x) = (1 + x)^-2 and the integral of S."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    surv = lambda x: (1 + x) ** -2  # noqa: E731
    mass = surv(lo) - surv(hi)
    tail_moment = 1 / (1 + lo) - 1 / (1 + hi)  # integral of S over (lo, hi)
    if hi != mpmath.inf:
        tail_moment -= (hi - lo) * surv(hi)
    return mpmath.log(mass), lo + tail_moment / mass


class TestClosedForms:
    @pytest.mark.parametrize("pair_name, intervals, exact", [
        ("nn", _normal_intervals, _normal_exact),
        ("eg", _lomax_intervals, _lomax_exact),
    ])
    def test_match_quadrature_and_mpmath(self, pair_name, intervals, exact, request,
                                         monkeypatch):
        """The hook matches 50-digit mpmath and the GK path to 1e-13: the log
        mass relative to max(1, |log mass|), the centroid relative to its
        offset from the interval end nearer 0, plus the half ulp of rounding
        the centroid itself (four ulp against GK, whose nodes sit in absolute
        coordinates).  Both its closed forms and, on the narrow intervals,
        its Gauss-Legendre rule are exercised."""
        mpmath = pytest.importorskip("mpmath")
        _, marginal = request.getfixturevalue(pair_name)
        quadrature = dataclasses.replace(marginal, closed_form=None)
        narrow_calls = []
        narrow = families._narrow
        monkeypatch.setattr(families, "_narrow",
                            lambda *args: narrow_calls.append(args) or narrow(*args))
        answered = 0
        with mpmath.workdps(50):
            for lo, hi in intervals(np.random.default_rng(20240611)):
                got = marginal.closed_form(lo, hi)
                assert got is not None, (lo, hi)
                answered += 1
                gk = interval_integrals(quadrature, lo, hi)
                log_mass, centroid = exact(mpmath, lo, hi)
                near = lo if abs(lo) <= abs(hi) else hi
                offset = float(abs(centroid - near))
                refs = (("mpmath", float(log_mass), float(centroid), 0.5),
                        ("GK", gk.log_mass, gk.centroid, 4.0))
                for name, ref_lm, ref_c, ulps in refs:
                    where = f"({lo!r}, {hi!r}) against {name}"
                    assert abs(got[0] - ref_lm) <= 1e-13 * max(1.0, abs(ref_lm)), where
                    assert abs(got[1] - ref_c) <= 1e-13 * offset + ulps * math.ulp(got[1]), where
        assert 0 < len(narrow_calls) < answered

    def test_mills_memo_does_not_depend_on_order(self, nn):
        """The memoised Mills-ratio terms give the same bits whichever
        intervals filled the memo before, and from a full memo."""
        _, marginal = nn
        intervals = _normal_intervals(np.random.default_rng(20240611))

        def bits(order):
            return {iv: tuple(map(float.hex, marginal.closed_form(*iv))) for iv in order}

        memos = (families._mills, families._mills_complement)
        for memo in memos:
            memo.cache_clear()
        forwards = bits(intervals)
        for memo in memos:
            memo.cache_clear()
        backwards = bits(intervals[::-1])
        hits = [memo.cache_info().hits for memo in memos]
        again = bits(intervals[::-1])
        assert forwards == backwards == again
        assert all(memo.cache_info().hits > h for memo, h in zip(memos, hits))

    def test_subnormal_intervals_fall_back(self, nn):
        """An interval whose mass underflows the erf sum gets None from the
        hook, and interval_integrals then answers as GK does: here, that the
        mass is degenerate."""
        _, marginal = nn
        quadrature = dataclasses.replace(marginal, closed_form=None)
        for lo, hi in ((-5e-324, 5e-324), (0.0, 5e-324), (-5e-324, 0.0)):
            assert marginal.closed_form(lo, hi) is None
            for m in (marginal, quadrature):
                with pytest.raises(ArithmeticError, match="degenerate interval mass"):
                    interval_integrals(m, lo, hi)


class TestDensityMassRatio:
    def test_whole_support_denominator(self, nn, eg):
        _, marginal = nn
        expected = 1.0 / (BETA * math.sqrt(2 * math.pi))
        assert density_mass_ratio(marginal, 0.0, -math.inf, math.inf) == pytest.approx(
            expected, rel=1e-12)
        _, lomax = eg
        assert density_mass_ratio(lomax, 0.0, 0.0, math.inf) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (41.1964, 62.1447),  # tail interval with mass around 1e-76
            (93.45, 120.0),      # density itself underflows float64 here
        ],
    )
    def test_deep_tail_ratio_against_mpmath(self, nn, lo, hi):
        """Deep-tail ratio against a 50-digit oracle built from the exact
        normal tail masses (erfc in extended precision)."""
        mpmath = pytest.importorskip("mpmath")
        _, marginal = nn
        got = density_mass_ratio(marginal, lo, lo, hi)
        mp = mpmath.mp
        old = mp.dps
        try:
            mp.dps = 50
            beta = mpmath.sqrt(5)
            def sf(x):
                return mpmath.erfc(x / (beta * mpmath.sqrt(2))) / 2
            dens = mpmath.exp(-mpmath.mpf(lo) ** 2 / 10) / mpmath.sqrt(10 * mpmath.pi)
            expected = dens / (sf(lo) - sf(hi))
        finally:
            mp.dps = old
        assert got == pytest.approx(float(expected), rel=1e-10)

    def test_ratio_finite_when_parts_underflow(self, nn):
        _, marginal = nn
        assert float(np.exp(marginal.log_pdf(93.45))) == 0.0
        ratio = density_mass_ratio(marginal, 93.45, 93.45, math.inf)
        assert math.isfinite(ratio) and ratio > 0.0

    def test_point_outside_support(self, eg):
        _, marginal = eg
        with pytest.raises(SupportError):
            density_mass_ratio(marginal, -1.0, 0.0, math.inf)


class TestDifferentialEntropy:
    def test_normal_closed_form(self, nn):
        _, marginal = nn
        expected = 0.5 * math.log(2 * math.pi * math.e * 5.0)
        assert differential_entropy(marginal) == pytest.approx(expected, abs=1e-10)

    def test_lomax_closed_form(self, eg):
        _, marginal = eg
        expected = 1.0 + 1.0 / 2.0 + math.log(1.0 / 2.0)
        assert differential_entropy(marginal) == pytest.approx(expected, abs=1e-10)

    def test_positive_for_wide_density(self, nn):
        _, marginal = nn
        assert differential_entropy(marginal) > 0.0
