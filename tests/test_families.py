import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smml1d import (
    FamilyModel,
    ParameterError,
    SupportError,
    differential_entropy,
    interval_integrals,
    make_exponential_gamma,
    make_normal_normal,
    mu_inverse_numeric,
)
from smml1d import families
from smml1d.quadrature import expectation

from conftest import continued_fraction_tail

BETA = math.sqrt(5.0)


def _mass_below(marginal, x):
    """The marginal's CDF at x, as the mass of (support_lo, x)."""
    if x <= marginal.support_lo:
        return 0.0
    return math.exp(interval_integrals(marginal, marginal.support_lo, x).log_mass)


def _lomax_cdf(x, alpha=2.0, beta=1.0):
    """1 - (1 + x/beta)^-alpha, written out."""
    return 1.0 - (1.0 + x / beta) ** -alpha


def _assert_float_log_pdf_matches(marginal, xs):
    """log_pdf on each Python float has the bits of log_pdf on the array of
    them; returns the values it gave the floats."""
    got = [marginal.log_pdf(x) for x in xs]
    with np.errstate(over="ignore"):
        want = marginal.log_pdf(np.array(xs)).tolist()
    assert [float(v).hex() for v in got] == [v.hex() for v in want], marginal.prior_params
    return got


def _errstate_lomax_log_pdf(alpha, beta, x):
    """The Lomax log density as written before its clamp: log1p of any x,
    its warnings silenced, then -inf below the support."""
    with np.errstate(invalid="ignore", divide="ignore"):
        out = math.log(alpha / beta) - (alpha + 1.0) * np.log1p(x / beta)
    return np.where(x >= 0.0, out, -np.inf)


class TestParameterValidation:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_normal_normal_rejects_bad_alpha(self, alpha):
        with pytest.raises(ParameterError):
            make_normal_normal(alpha)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, math.nan])
    def test_exponential_gamma_rejects_bad_alpha(self, alpha):
        """Shape must exceed 1, otherwise the expected code length diverges."""
        with pytest.raises(ParameterError):
            make_exponential_gamma(alpha, 1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf])
    def test_exponential_gamma_rejects_bad_beta(self, beta):
        with pytest.raises(ParameterError):
            make_exponential_gamma(2.0, beta)


class TestNormalNormal:
    def test_log_pdf_at_zero(self, nn):
        _, marginal = nn
        assert marginal.log_pdf(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi * 5.0), abs=1e-14)

    def test_cdf_at_zero_is_half(self, nn):
        _, marginal = nn
        assert _mass_below(marginal, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_log_pdf_is_even(self, nn):
        _, marginal = nn
        x = np.linspace(0.1, 40.0, 57)
        assert np.array_equal(marginal.log_pdf(x), marginal.log_pdf(-x))

    def test_float_log_pdf_matches_array_seeded(self):
        """log_pdf gives each Python float the bits the array gives it, from
        the bulk to |x| = 1e300, where (x / beta)^2 overflows, and for sds
        from 1 to 1e150, and returns a float."""
        rng = np.random.default_rng(34)
        for alpha in (1e-3, 0.5, 2.0, 10.0, 30.0, 1e5, 1e150):
            xs = rng.choice((-1.0, 1.0), 20_000) * 10.0 ** rng.uniform(-3.0, 300.0, 20_000)
            got = _assert_float_log_pdf_matches(
                make_normal_normal(alpha)[1], [0.0, -0.0, *xs.tolist()])
            assert all(type(v) is float for v in got)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1e-3, 1e150),
        xs=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20),
    )
    def test_float_log_pdf_matches_array(self, alpha, xs):
        got = _assert_float_log_pdf_matches(make_normal_normal(alpha)[1], xs)
        assert all(type(v) is float for v in got)

    def test_quantile_against_bisection(self, nn):
        """Independent oracle: bisect the CDF instead of trusting the quantile."""
        _, marginal = nn
        for p in (0.841344746068543, 0.2, 0.5, 0.975, 1e-6):
            lo, hi = -60.0, 60.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if _mass_below(marginal, mid) < p:
                    lo = mid
                else:
                    hi = mid
            assert marginal.quantile(p) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_quantile_one_sigma(self, nn):
        _, marginal = nn
        p = 0.841344746068543  # standard normal CDF at 1
        assert marginal.quantile(p) == pytest.approx(BETA, abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, math.nan])
    def test_quantile_outside_open_unit_interval_raises(self, nn, p):
        _, marginal = nn
        with pytest.raises(SupportError):
            marginal.quantile(p)

    def test_family_maps_are_identities(self, nn):
        family, _ = nn
        for v in (-3.0, 0.0, 1.7841, 25.0):
            assert family.mean(v) == v
            assert family.mean_inverse(v) == v
            assert family.variance(v) == 1.0

    def test_straddling_centroid_at_huge_sd(self):
        """Past a marginal sd of about 1.3e154 sigma^2 overflows; intervals
        that straddle 0 keep finite centroids, 1e5 times those at sd 1e150
        over the intervals scaled down by 1e5."""
        huge = make_normal_normal(1e155)[1]
        ref = make_normal_normal(1e150)[1]
        for hi in (math.inf, 5e154):
            log_mass, centroid = huge.closed_form(-3e154, hi)
            ref_log_mass, ref_centroid = ref.closed_form(-3e149, hi / 1e5)
            assert math.isfinite(centroid)
            assert centroid == pytest.approx(1e5 * ref_centroid, rel=1e-14)
            assert log_mass == pytest.approx(ref_log_mass, rel=1e-14)


def _mills_pair_by_int_range(z):
    """R(z) and h(z) for z >= 2 from the continued fraction's tail T run over
    ``range`` of ints: the oracle of the float ladder."""
    t = continued_fraction_tail(z)
    r = 1.0 / (z + 1.0 / t)
    return r, r / t


def _mills_reference(mpmath, z):
    """R(z) and h(z) = 1 - z R(z) at the working precision.  Past z = 1e3 the
    asymptotic series R(z) = (1/z) sum_k (-1)^k (2k-1)!! / z^(2k) is the
    reference: eleven terms leave an error below 1e-60 there, and mpmath's
    erfc overflows past about z = 1e6."""
    z = mpmath.mpf(z)
    if z <= 1000:
        r = mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(z * z / 2) * mpmath.erfc(z / mpmath.sqrt(2))
        return r, 1 - z * r
    terms = [mpmath.mpf(1)]
    for k in range(1, 12):
        terms.append(-terms[-1] * (2 * k - 1) / (z * z))
    return mpmath.fsum(terms) / z, -mpmath.fsum(terms[1:])


class TestMillsComplement:
    """The Mills ratio R and its complement h = 1 - z R, one memoised pair."""

    def test_ladder_matches_int_range(self):
        """The ladder of float partial numerators gives R and h bit for bit as
        the integer range does: on a dense grid of [2, 60] and on either side
        of every z where the depth 16 + int(640/z^2) steps."""
        zs = list(map(float, np.linspace(2.0, 60.0, 5801)))
        for k in range(1, 161):
            step = math.sqrt(640.0 / k)
            zs += [math.nextafter(step, 0.0), step, math.nextafter(step, math.inf)]
        zs = [z for z in zs if z >= 2.0]
        got = [tuple(map(float.hex, families._mills_pair.__wrapped__(z))) for z in zs]
        assert got == [tuple(map(float.hex, _mills_pair_by_int_range(z))) for z in zs]

    def test_pair_matches_mpmath(self, erfcx_mills_pair):
        """R within 8 units of 2^-53 of 50-digit mpmath, relative, on a dense
        grid of [0, 60], next to z = 2 where the two forms meet, and out to
        z = 1e100; h within 8 units relative from z = 2 on, and below 2, where
        1 - z R cancels, within 8 units of its operand 1.  The erfcx form
        the pair replaced is held to the same bounds."""
        mpmath = pytest.importorskip("mpmath")

        unit = 2.0**-53
        zs = list(map(float, np.linspace(0.0, 60.0, 6001)))
        zs += [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)]
        zs += [10.0**k for k in (3, 4, 5, 6, 8, 10, 20, 50, 100)]
        with mpmath.workdps(50):
            for z in zs:
                ref_r, ref_h = _mills_reference(mpmath, z)
                for r, h in (families._mills_pair.__wrapped__(z), erfcx_mills_pair(z)):
                    assert abs(r - ref_r) <= 8.0 * unit * ref_r, z
                    if z >= 2.0:
                        assert abs(h - ref_h) <= 8.0 * unit * ref_h, z
                    else:
                        assert abs(h - ref_h) <= 8.0 * unit, z


class TestExponentialGamma:
    def test_pdf_at_origin(self, eg):
        _, marginal = eg
        assert float(np.exp(marginal.log_pdf(0.0))) == pytest.approx(2.0, rel=1e-14)

    def test_cdf_closed_form(self, eg):
        _, marginal = eg
        assert _mass_below(marginal, 4.49) == pytest.approx(_lomax_cdf(4.49), rel=1e-14)

    def test_cdf_quantile_boundaries(self, eg):
        _, marginal = eg
        assert marginal.quantile(1e-12) == pytest.approx(0.0, abs=1e-11)
        assert _lomax_cdf(marginal.quantile(0.25)) == pytest.approx(0.25, rel=1e-14)
        assert marginal.quantile(1.0 - 1e-12) > 1e5
        with pytest.raises(SupportError):
            marginal.quantile(0.0)
        with pytest.raises(SupportError):
            marginal.quantile(1.0)

    def test_log_pdf_outside_support(self, eg):
        _, marginal = eg
        assert marginal.log_pdf(-0.5) == -math.inf

    @pytest.mark.parametrize("alpha, beta", [
        (2.0, 1.0), (1.02, 1.0), (40.0, 1.0), (2.0, 1e-100), (2.0, 1e100), (3.0, 7.5)])
    def test_clamped_log_pdf_keeps_the_bits(self, alpha, beta):
        """Clamping below the support moves no bit of the array density, and
        warns nowhere: at -beta (log1p(-1)), beyond it (log1p of < -1), at
        NaN, at both infinities and at -0.0.  A Python float gets the array's
        bits too."""
        marginal = make_exponential_gamma(alpha, beta)[1]
        rng = np.random.default_rng(35)
        xs = [-beta, -2.0 * beta, -0.5 * beta, -1e-300, -0.0, 0.0, math.nan,
              math.inf, -math.inf, *(beta * 10.0 ** rng.uniform(-20.0, 20.0, 2_000)).tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = marginal.log_pdf(np.array(xs))
            _assert_float_log_pdf_matches(marginal, xs)
        want = _errstate_lomax_log_pdf(alpha, beta, np.array(xs))
        assert got.tobytes() == want.tobytes()
        log_ab = math.log(alpha / beta)
        assert got[:9].tolist() == [-math.inf] * 4 + [log_ab, log_ab] + [-math.inf] * 3

    def test_family_mean_variance(self, eg):
        family, _ = eg
        assert family.mean(-0.5) == pytest.approx(2.0, rel=1e-15)
        assert family.variance(-0.5) == pytest.approx(4.0, rel=1e-15)
        assert family.mean_inverse(2.0) == pytest.approx(-0.5, rel=1e-15)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_mean_inverse_outside_image_raises(self, eg, m):
        family, _ = eg
        with pytest.raises(SupportError):
            family.mean_inverse(m)


@pytest.mark.parametrize("pair_name", ["nn", "eg"])
class TestSharedInvariants:
    def _models(self, pair_name, request):
        return request.getfixturevalue(pair_name)

    def test_mean_is_derivative_of_log_partition(self, pair_name, request):
        """Centered differences of the log-partition recover the mean map."""
        family, _ = self._models(pair_name, request)
        rng = np.random.default_rng(7)
        if math.isfinite(family.param_hi):
            thetas = -np.exp(rng.uniform(-3, 3, size=100))
        else:
            thetas = rng.uniform(-8, 8, size=100)
        h = 1e-6
        for t in thetas:
            step = h * max(1.0, abs(t))
            fd = (family.log_partition(t + step) - family.log_partition(t - step)) / (2 * step)
            assert fd == pytest.approx(family.mean(t), rel=1e-6)

    def test_variance_positive(self, pair_name, request):
        family, _ = self._models(pair_name, request)
        rng = np.random.default_rng(11)
        if math.isfinite(family.param_hi):
            thetas = -np.exp(rng.uniform(-3, 3, size=100))
        else:
            thetas = rng.uniform(-8, 8, size=100)
        assert all(family.variance(t) > 0 for t in thetas)

    def test_quantile_cdf_roundtrip(self, pair_name, request):
        _, marginal = self._models(pair_name, request)
        for p in np.linspace(0.01, 0.99, 25):
            assert _mass_below(marginal, marginal.quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_cdf_quantile_roundtrip_interior(self, pair_name, request):
        _, marginal = self._models(pair_name, request)
        points = np.linspace(0.2, 6.0, 17)
        for x in points:
            p = _mass_below(marginal, x)
            assert marginal.quantile(p) == pytest.approx(x, abs=1e-9)

    def test_cdf_nondecreasing(self, pair_name, request):
        _, marginal = self._models(pair_name, request)
        xs = np.linspace(max(marginal.support_lo, -30.0), 30.0, 200)
        vals = [_mass_below(marginal, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_numeric_mean_inverse_matches_closed_form(self, pair_name, request):
        family, _ = self._models(pair_name, request)
        rng = np.random.default_rng(3)
        if math.isfinite(family.param_hi):
            means = np.exp(rng.uniform(-2, 6, size=20))
        else:
            means = rng.uniform(-20, 20, size=20)
        for m in means:
            t = mu_inverse_numeric(family, m)
            assert t == pytest.approx(family.mean_inverse(m), rel=1e-12, abs=1e-12)


def _bounded_family(lo, hi, log_partition, mean, variance):
    return FamilyModel(lo, hi, log_partition, np.zeros_like, mean, variance)


_LOGIT = _bounded_family(
    0.0, 1.0, lambda t: t * math.log(t) + (1.0 - t) * math.log1p(-t),
    lambda t: math.log(t / (1.0 - t)), lambda t: 1.0 / (t * (1.0 - t)))
_LOG = _bounded_family(
    0.0, math.inf, lambda t: t * math.log(t) - t, math.log, lambda t: 1.0 / t)
_NEG_LOG1M = _bounded_family(
    -math.inf, 1.0, lambda t: (1.0 - t) * math.log1p(-t) - (1.0 - t),
    lambda t: -math.log1p(-t), lambda t: 1.0 / (1.0 - t))
_IDENTITY_01 = _bounded_family(0.0, 1.0, lambda t: 0.5 * t * t, lambda t: t, lambda t: 1.0)


class TestMeanInverseNumeric:
    def test_identity_family(self, nn):
        family, _ = nn
        assert mu_inverse_numeric(family, 1.7841) == pytest.approx(1.7841, abs=1e-12)

    def test_reciprocal_family(self, eg):
        family, _ = eg
        assert mu_inverse_numeric(family, 2.0) == pytest.approx(-0.5, rel=1e-12)

    def test_outside_image_raises(self, eg):
        family, _ = eg
        with pytest.raises(SupportError):
            mu_inverse_numeric(family, 0.0)
        with pytest.raises(SupportError):
            mu_inverse_numeric(family, -3.0)
        for m in (math.nan, math.inf, -math.inf):
            with pytest.raises(SupportError, match="must be finite"):
                mu_inverse_numeric(family, m)

    @pytest.mark.parametrize("family, m, expected", [
        *(pytest.param(_LOGIT, m, 1.0 / (1.0 + math.exp(-m)), id=f"logit{m:g}")
          for m in (-30.0, -3.0, 0.0, 10.0)),
        *(pytest.param(_LOG, m, math.exp(m), id=f"log{m:g}") for m in (-30.0, -0.9, 3.0, 30.0)),
        *(pytest.param(_NEG_LOG1M, m, -math.expm1(-m), id=f"neglog1m{m:g}")
          for m in (-30.0, -0.9, 3.0)),
    ])
    def test_finite_parameter_end(self, family, m, expected):
        """Parameter intervals (0, 1), (0, inf) and (-inf, 1): the march
        toward a finite end closes 90% of the gap per step."""
        t = mu_inverse_numeric(family, m)
        assert abs(family.mean(t) - m) <= 1e-12 * max(1.0, abs(m))
        assert t == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("m", [2.0, 0.0, -1.0])
    def test_outside_bounded_image_raises(self, m):
        with pytest.raises(SupportError):
            mu_inverse_numeric(_IDENTITY_01, m)

    @pytest.mark.parametrize("family", [_LOGIT, _NEG_LOG1M], ids=["logit", "neglog1m"])
    def test_unresolvable_near_parameter_end_raises(self, family):
        """At m = 30, t lies within 1e-13 of 1, where one ulp of t moves the
        mean by about 1e-3: no double meets the 1e-12 tolerance."""
        with pytest.raises(ArithmeticError, match="mean inversion stalled"):
            mu_inverse_numeric(family, 30.0)

    def test_huge_mean(self, eg):
        family, _ = eg
        t = mu_inverse_numeric(family, 8.0e5)
        assert family.mean(t) == pytest.approx(8.0e5, rel=1e-12)


LOMAX_GRID = [(a, b) for a in (1.05, 1.2, 1.5, 2.0, 3.0, 10.0, 50.0) for b in (1e-3, 1.0, 1e3, 1e6)]


class TestClosedFormConstants:
    """The built-in pairs carry the marginal entropy and the carrier constant
    K = -E[log carrier] in closed form; they match 50-digit quadrature of
    their definitions, and the GK quadrature stays within its own accuracy."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 100.0])
    def test_normal_against_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        family, marginal = make_normal_normal(alpha)
        with mpmath.workdps(50):
            sd = mpmath.sqrt(1 + mpmath.mpf(alpha) ** 2)
            log_r = lambda x: -(x / sd) ** 2 / 2 - mpmath.log(sd * mpmath.sqrt(2 * mpmath.pi))  # noqa: E731
            log_h = lambda x: -x * x / 2 - mpmath.log(2 * mpmath.pi) / 2  # noqa: E731
            split = [-mpmath.inf, -sd, 0, sd, mpmath.inf]
            entropy = mpmath.quad(lambda x: -mpmath.exp(log_r(x)) * log_r(x), split)
            carrier = mpmath.quad(lambda x: -mpmath.exp(log_r(x)) * log_h(x), split)
        assert marginal.entropy == pytest.approx(float(entropy), rel=1e-14)
        assert marginal.carrier_constant == pytest.approx(float(carrier), rel=1e-14)
        gk_carrier = expectation(marginal, lambda x: -np.asarray(family.log_carrier(x)))
        assert differential_entropy(marginal) == pytest.approx(marginal.entropy, rel=1e-13)
        assert gk_carrier == pytest.approx(marginal.carrier_constant, rel=1e-13)

    @pytest.mark.parametrize("alpha,beta", LOMAX_GRID)
    def test_lomax_against_mpmath(self, alpha, beta):
        """The entropy integral is taken over the survival level s = S(x),
        where the heavy tail becomes an integrable log singularity at s = 0;
        the carrier is 1, so K is 0."""
        mpmath = pytest.importorskip("mpmath")
        family, marginal = make_exponential_gamma(alpha, beta)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)

            def log_r(s):  # log density at the point whose survival is s
                x = b * (s ** (-1 / a) - 1)
                return mpmath.log(a / b) - (a + 1) * mpmath.log1p(x / b)

            entropy = mpmath.quad(lambda s: -log_r(s), [0, 1])
        assert marginal.entropy == pytest.approx(float(entropy), rel=1e-14)
        assert marginal.carrier_constant == 0.0
        assert np.all(family.log_carrier(np.array([0.5, 1e6])) == 0.0)
        assert differential_entropy(marginal) == pytest.approx(marginal.entropy, rel=1e-13)
