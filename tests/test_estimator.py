import dataclasses
import itertools
import math
import statistics
from operator import sub

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid

from smml1d import (
    LOCAL_MINIMUM,
    NOT_CRITICAL,
    SADDLE,
    CodeBook,
    FamilyModel,
    MarginalModel,
    SolveReport,
    SupportError,
    classify_critical_point,
    codebook_from_cutpoints,
    curve_samples,
    gradient,
    jacobian,
    make_exponential_gamma,
    make_normal_normal,
    marginal_entropy,
    message_length,
    newton_solve,
)
from smml1d import estimator, families
from smml1d.checks import gradient_fd, length_fd, log_code_jumps, separated_cuts
from smml1d.estimator import _dedup_sorted, _solve_tridiagonal, solve_sweep
from test_quadrature import _lomax_exact, _normal_exact

BETA = math.sqrt(5.0)
HALF_NORMAL_MEAN = BETA * math.sqrt(2.0 / math.pi)

# High-precision redundancy values at the optima, computed independently with
# mpmath (closed-form normal/Lomax interval moments + multiprecision root
# finding, 60 significant digits).
NORMAL_REDUNDANCY = {
    1: 0.2968787934239418,
    2: 0.1848522962209069,
    3: 0.1756409557598873,
    4: 0.17531318312966,
    5: 0.17531261431506,
    6: 0.1753120749683,
}
NORMAL_SIX_CUT_SECOND_MINIMUM = 0.17531261431506
EXP_REDUNDANCY = {
    1: 0.058912861229508,
    2: 0.057904507855295,
    3: 0.057900816329763,
    4: 0.057900803640766,
    5: 0.057900803597306,
}
# Every deduplicated minimum of the acceptance sweeps, best first.  From n=5
# the five-cut mirror pair and its one-cut extensions rank beside the best;
# from n=7 so do books tied with it that add cuts only where the mass underflows.
NORMAL_MINIMA = {
    **{n: [NORMAL_REDUNDANCY[n]] for n in range(1, 5)},
    5: [NORMAL_SIX_CUT_SECOND_MINIMUM] * 2,
    6: [NORMAL_REDUNDANCY[6]] + [NORMAL_SIX_CUT_SECOND_MINIMUM] * 2,
    7: [NORMAL_REDUNDANCY[6]] * 2 + [NORMAL_SIX_CUT_SECOND_MINIMUM],
    **{n: [NORMAL_REDUNDANCY[6]] * 3 for n in range(8, 17)},
}
EXP_MINIMA = {n: [red] for n, red in EXP_REDUNDANCY.items()}
# Normal with prior sd 1, n<=8: from n=4 three books tied to 1e-15, with far
# cuts out to +-302.  Of a mirror pair with a cut at 302 only one image meets
# _TOL = 1e-12 (the other stalls at |G| = 3.6e-12), so that book is easy to lose.
ALPHA1_BEST, ALPHA1_ONE_CUT = 0.11318645923973, 0.12788275493045
ALPHA1_MINIMA = {
    1: [ALPHA1_ONE_CUT],
    2: [ALPHA1_BEST, ALPHA1_ONE_CUT],
    3: [ALPHA1_BEST] * 2 + [ALPHA1_ONE_CUT],
    **{n: [ALPHA1_BEST] * 3 for n in range(4, 9)},
}
# Normal with prior sd 3, n<=8: one minimum per stage.  Its n=7 and n=8
# insertion starts creep towards a fold of G, which the stall stop cuts short.
ALPHA3_MINIMA = {n: [red] for n, red in enumerate([
    0.85875577222501, 0.34699967077792, 0.21353502565965, 0.18215707820569,
    0.17684620603671, 0.17628733955822, 0.17625356404286, 0.17625247671774], start=1)}
# Prior sd 2 past the table: the plateau books keep adding cuts where the mass
# underflows, out to |cut| ~ 2400 by n=30, and from n=19 every one of them
# ends at the rounding floor of G rather than under _TOL.
ALPHA2_MINIMA_30 = {**NORMAL_MINIMA, **{n: [NORMAL_REDUNDANCY[6]] * 3 for n in range(17, 31)}}
# Prior sd 0.5, n<=8: n=2 beats n=1 by only 8e-7, and from n=3 most books are
# floor minima.
ALPHA05_BEST, ALPHA05_ONE_CUT = 0.01342657258609, 0.01342739824267
ALPHA05_MINIMA = {
    1: [ALPHA05_ONE_CUT],
    2: [ALPHA05_BEST, ALPHA05_ONE_CUT],
    3: [ALPHA05_BEST] * 2 + [ALPHA05_ONE_CUT],
    **{n: [ALPHA05_BEST] * 3 for n in range(4, 7)},
    7: [ALPHA05_BEST] * 2,
    8: [ALPHA05_BEST],
}
# Prior sd 10, n<=40: one minimum per stage, levelling off at 0.1764832213 from
# n=39, 2e-6 below Wallace's lattice constant; n=38 to 40 are floor minima.
ALPHA10_MINIMA = {n: [red] for n, red in enumerate([
    16.23628841757647, 7.85951430074224, 4.44684170035891, 2.75090789942019,
    1.80506925510749, 1.23717597942208, 0.87896110778155, 0.64537280063063,
    0.48972864263664, 0.38471901191779, 0.31353003195777, 0.26536601094512,
    0.23304989410966, 0.21167393124759, 0.19781142813852, 0.18904128182122,
    0.18365124719208, 0.18044367512955, 0.17859956260016, 0.17757657752913,
    0.17702930265045, 0.17674693725197, 0.17660638727208, 0.17653886388365,
    0.17650754057805, 0.17649350518224, 0.17648742890301, 0.17648488688926,
    0.17648385915680, 0.17648345759819, 0.17648330597534, 0.17648325065469,
    0.17648323115353, 0.17648322451283, 0.17648322232876, 0.17648322163514,
    0.17648322142248, 0.17648322135954, 0.17648322134158, 0.17648322133665],
    start=1)}
# Prior sd 10, n=41 to 45: item 1's 80-digit minimum values, which n=41 and 42
# reach only from the rescue's lattice start.
ALPHA10_BEST_41_45 = [0.1764832213353, 0.1764832213350] + [0.1764832213349] * 3
# Prior sd 1.5, n<=8: the continuation stalls at n=2, and the rescue's lattice
# start finds the symmetric two-cut minimum; from it the sweep reaches the
# three-cut mirror pair and, from n=4, the books of item 16's DP.
ALPHA15_ONE_CUT, ALPHA15_TWO_CUT = 0.19431255229180, 0.16933390209159
ALPHA15_THREE_CUT, ALPHA15_BEST = 0.16927992041531, 0.16922914721730
ALPHA15_MINIMA = {
    1: [ALPHA15_ONE_CUT],
    2: [ALPHA15_TWO_CUT],
    3: [ALPHA15_THREE_CUT] * 2,
    4: [ALPHA15_BEST] + [ALPHA15_THREE_CUT] * 2,
    5: [ALPHA15_BEST] * 2 + [ALPHA15_THREE_CUT],
    **{n: [ALPHA15_BEST] * 3 for n in range(6, 9)},
}


@pytest.fixture(scope="module")
def nn_sweep6(nn):
    family, marginal = nn
    return solve_sweep(family, marginal, 6)


@pytest.fixture(scope="module")
def eg_sweep5(eg):
    family, marginal = eg
    return solve_sweep(family, marginal, 5)


@pytest.fixture(scope="module")
def nn_sweep16(normal_sweep16):
    return normal_sweep16[0]


@pytest.fixture(scope="module")
def nn_alpha1_sweep8():
    family, marginal = make_normal_normal(1.0)
    return solve_sweep(family, marginal, 8)


@pytest.fixture(scope="module")
def nn_alpha3_sweep8():
    family, marginal = make_normal_normal(3.0)
    return solve_sweep(family, marginal, 8)


@pytest.fixture(scope="module")
def nn_sweep30(nn):
    family, marginal = nn
    return solve_sweep(family, marginal, 30)


@pytest.fixture(scope="module")
def nn_alpha05_sweep8():
    family, marginal = make_normal_normal(0.5)
    return solve_sweep(family, marginal, 8)


@pytest.fixture(scope="module")
def nn_alpha10_sweep45():
    family, marginal = make_normal_normal(10.0)
    return solve_sweep(family, marginal, 45)


@pytest.fixture(scope="module")
def nn_alpha10_sweep40(nn_alpha10_sweep45):
    # stage n never depends on n_max
    return {n: nn_alpha10_sweep45[n] for n in range(1, 41)}


@pytest.fixture(scope="module")
def nn_alpha15_sweep8():
    family, marginal = make_normal_normal(1.5)
    return solve_sweep(family, marginal, 8)


@pytest.fixture
def heavy_gk():
    """Lomax(1.5, 1e308): the centroid of every half-line overflows, so no
    code book can be built."""
    return make_exponential_gamma(1.5, 1e308)


_NOT_FINITE = "the start's code book cannot be built: a log q, assertion or centroid is not finite"


def _nan_partition_above(limit):
    """The alpha = 2 normal pair with a log-partition that is NaN above `limit`."""
    family, marginal = make_normal_normal(2.0)
    log_partition = family.log_partition
    return dataclasses.replace(
        family, log_partition=lambda t: math.nan if t > limit else log_partition(t)), marginal


def _random_configs(marginal, rng, count, n_range=(1, 5)):
    """Well-separated random cut-point sets drawn through the quantile map."""
    return [separated_cuts(marginal, rng, *n_range) for _ in range(count)]


class TestCutPointVector:
    """A cut vector is valid when it is strictly increasing, finite and
    inside the support; codebook_from_cutpoints holds the one test."""

    def test_rejects_duplicates(self, nn):
        with pytest.raises(SupportError, match="strictly increasing inside the support"):
            codebook_from_cutpoints(*nn, [1.0, 1.0])

    def test_rejects_unsorted(self, nn):
        with pytest.raises(SupportError, match="strictly increasing inside the support"):
            codebook_from_cutpoints(*nn, [2.0, 1.0])

    def test_rejects_empty_and_nonfinite(self, nn):
        """The empty vector is the valid zero-cut book: Newton starts from it
        and returns it at once as a converged, kept minimum, with the
        redundancy 1/2 alpha^2 - 1/2 log1p(alpha^2) at alpha = 2."""
        rep = newton_solve(*nn, [])
        assert rep.cuts == () and rep.continuity_gaps == () and rep.grad_norm_trace == (0.0,)
        assert (rep.iterations, rep.converged, rep.kept, rep.diagnostic) == (0, True, True, "")
        assert rep.classification == LOCAL_MINIMUM
        assert rep.redundancy == pytest.approx(2.0 - 0.5 * math.log1p(4.0), abs=1e-12)
        assert rep.redundancy == pytest.approx(1.1952810437829, abs=1e-12)
        for cuts in ([0.0, math.inf], [-math.inf, 0.0], [math.nan], [0.0, math.nan]):
            with pytest.raises(SupportError, match="strictly increasing inside the support"):
                codebook_from_cutpoints(*nn, cuts)


class TestCodeBook:
    def test_single_cut_at_zero(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        assert book.log_q[0] == pytest.approx(math.log(0.5), abs=1e-13)
        assert book.log_q[1] == pytest.approx(math.log(0.5), abs=1e-13)
        assert book.theta_hat[1] == pytest.approx(HALF_NORMAL_MEAN, rel=1e-12)
        assert book.theta_hat[0] == -book.theta_hat[1]

    @pytest.mark.parametrize("cuts", [(), (0.5,), (0.2, 1.0, 4.0)])
    def test_log_partition_per_interval(self, cuts, nn, eg):
        """The build forms A(theta_hat) once per interval, for every reader."""
        for family, marginal in (nn, eg):
            book = codebook_from_cutpoints(family, marginal, cuts)
            assert book.log_partition == tuple(map(family.log_partition, book.theta_hat))

    def test_lomax_single_cut(self, eg):
        """Masses from the closed-form CDF, centroids from scipy as oracle."""
        family, marginal = eg
        cut = 4.49
        book = codebook_from_cutpoints(family, marginal, [cut])
        assert math.exp(book.log_q[0]) == pytest.approx(1.0 - 5.49 ** -2, rel=1e-12)
        dens = lambda x: 2.0 * (1.0 + x) ** -3.0
        mass0, _ = quad(dens, 0.0, cut, epsabs=0, epsrel=1e-13)
        mom0, _ = quad(lambda x: x * dens(x), 0.0, cut, epsabs=0, epsrel=1e-13)
        assert book.centroids[0] == pytest.approx(mom0 / mass0, rel=1e-11)
        assert book.theta_hat[0] == pytest.approx(-mass0 / mom0, rel=1e-11)
        assert book.theta_hat[1] == pytest.approx(-1.0 / (2 * cut + 1.0), rel=1e-11)

    def test_masses_sum_to_one(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [-5.0, -1.0, 0.5, 9.0])
        assert math.fsum(math.exp(lq) for lq in book.log_q) == pytest.approx(1.0, abs=1e-9)
        assert all(math.isfinite(lq) for lq in book.log_q)

    def test_centroid_containment(self, nn):
        family, marginal = nn
        cuts = [-7.0, -2.0, 0.3, 4.4]
        book = codebook_from_cutpoints(family, marginal, cuts)
        bounds = (-math.inf, *cuts, math.inf)
        for (lo, hi), c in zip(zip(bounds, bounds[1:]), book.centroids):
            assert lo < c < hi

    def test_any_sequence_builds_the_same_book(self, nn):
        """A list, a tuple or an ndarray gives one book, whose cuts are a
        tuple of floats."""
        family, marginal = nn
        cuts = [-5.0, -1.0, 0.5, 9.0]
        book = codebook_from_cutpoints(family, marginal, cuts)
        assert book.cuts == tuple(cuts) and all(type(c) is float for c in book.cuts)
        for form in (tuple(cuts), np.array(cuts)):
            assert codebook_from_cutpoints(family, marginal, form) == book

    def test_invalid_cuts(self, nn, eg):
        """Cuts outside the support fail the validity test (see
        TestCutPointVector for the order and finiteness cases)."""
        family_e, marginal_e = eg
        with pytest.raises(SupportError):
            codebook_from_cutpoints(family_e, marginal_e, [-1.0, 2.0])
        for (fam, marg), cut in ((nn, 1e200), (eg, 1e-320)):  # log q or assertion is -inf
            with pytest.raises(ArithmeticError, match="is not finite at cut-points"):
                codebook_from_cutpoints(fam, marg, [cut])


class TestZeroCutBook:
    """The book with no cut asserts one value for every datum; its
    redundancy has a closed form, and its G, gaps and J are empty."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 2.0, 30.0])
    def test_normal_redundancy(self, alpha):
        family, marginal = make_normal_normal(alpha)
        book = codebook_from_cutpoints(family, marginal, [])
        expected = 0.5 * alpha**2 - 0.5 * math.log1p(alpha**2)
        redundancy = message_length(family, marginal, book) - marginal_entropy(marginal)
        assert redundancy == pytest.approx(expected, abs=1e-12)
        if alpha == 0.05:
            assert redundancy == pytest.approx(1.5599007064e-6, abs=1e-15)

    @pytest.mark.parametrize("alpha,beta", [(10.0, 1.0), (2.0, 1.0), (3.0, 1e5), (1.05, 1.0)])
    def test_lomax_redundancy(self, alpha, beta):
        family, marginal = make_exponential_gamma(alpha, beta)
        book = codebook_from_cutpoints(family, marginal, [])
        expected = math.log(alpha / (alpha - 1.0)) - 1.0 / alpha
        redundancy = message_length(family, marginal, book) - marginal_entropy(marginal)
        assert redundancy == pytest.approx(expected, abs=1e-12)
        if (alpha, beta) == (10.0, 1.0):
            assert redundancy == pytest.approx(0.0053605156578, abs=1e-12)

    @pytest.mark.parametrize("pair_name", ["nn", "eg"])
    def test_empty_residuals_and_minimum(self, pair_name, request):
        family, marginal = request.getfixturevalue(pair_name)
        book = codebook_from_cutpoints(family, marginal, ())
        assert book.n == 0 and book.cuts == () and book.log_q == (0.0,)
        assert gradient(family, marginal, book).shape == (0,)
        assert jacobian(family, marginal, book).to_dense().shape == (0, 0)
        assert classify_critical_point(family, marginal, book, 0.0) == LOCAL_MINIMUM
        # one interval: the code density is the family's density at the one assertion
        table = curve_samples(family, marginal, book, 0.5, 2.0, 4)
        t = book.theta_hat[0]
        log_code = table.x * t - family.log_partition(t) + family.log_carrier(table.x)
        np.testing.assert_allclose(table.two_part, -table.density * log_code, rtol=1e-13)


class TestMessageLength:
    def test_normal_single_cut_value(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        red = message_length(family, marginal, book) - marginal_entropy(marginal)
        assert red == pytest.approx(NORMAL_REDUNDANCY[1], abs=1e-11)

    def test_normal_six_cut_table_row(self, nn):
        # the printed cuts are rounded to 4 decimals; quadratic slack in the
        # objective keeps the value within ~1e-9 of the optimum
        family, marginal = nn
        cuts = [-10.8840, -5.9797, -1.9203, 1.9203, 5.9797, 10.8840]
        book = codebook_from_cutpoints(family, marginal, cuts)
        red = message_length(family, marginal, book) - marginal_entropy(marginal)
        assert red == pytest.approx(NORMAL_REDUNDANCY[6], abs=2e-9)

    def test_lomax_single_cut_table_row(self, eg):
        # cut printed to 2 decimals; the curvature there makes the value
        # accurate to ~1e-7 only
        family, marginal = eg
        book = codebook_from_cutpoints(family, marginal, [4.49])
        red = message_length(family, marginal, book) - marginal_entropy(marginal)
        assert red == pytest.approx(EXP_REDUNDANCY[1], abs=5e-7)


class TestGradient:
    def test_symmetric_single_cut_is_stationary(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        assert gradient(family, marginal, book)[0] == 0.0

    def test_table_cuts_nearly_stationary(self, nn):
        family, marginal = nn
        cuts = [-10.8840, -5.9797, -1.9203, 1.9203, 5.9797, 10.8840]
        book = codebook_from_cutpoints(family, marginal, cuts)
        assert np.max(np.abs(gradient(family, marginal, book))) <= 5e-4

    @pytest.mark.parametrize("pair_name", ["nn", "eg"])
    def test_matches_finite_differences_of_length(self, pair_name, request):
        """r(a_j) * G_j must equal the length's centered difference quotient."""
        family, marginal = request.getfixturevalue(pair_name)
        rng = np.random.default_rng(42)
        for cuts in _random_configs(marginal, rng, 6):
            book = codebook_from_cutpoints(family, marginal, cuts)
            grad = gradient(family, marginal, book)
            dens = np.exp(np.asarray(marginal.log_pdf(cuts), dtype=float))
            assert dens * grad == pytest.approx(length_fd(family, marginal, cuts), rel=1e-4)


class TestJacobian:
    def test_off_tridiagonal_structurally_zero(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [-3.0, -1.0, 0.5, 2.0, 5.0])
        dense = jacobian(family, marginal, book).to_dense()
        n = dense.shape[0]
        for j in range(n):
            for k in range(n):
                if abs(j - k) > 1:
                    assert dense[j, k] == 0.0

    def test_single_cut_closed_form(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        r0 = 1.0 / (BETA * math.sqrt(2 * math.pi))
        expected = 2 * HALF_NORMAL_MEAN - 2 * (r0 / 0.5) * (1 + 2 * 5.0 / math.pi)
        J = jacobian(family, marginal, book)
        assert J.diag[0] == pytest.approx(expected, rel=1e-11)
        assert expected > 0  # the zero-cut configuration is a genuine minimum

    @pytest.mark.parametrize("pair_name", ["nn", "eg"])
    def test_off_diagonals_reuse_diagonal_ratios(self, pair_name, request):
        """sub and sup, formed from the diagonal's r/q ratios, are bit for bit
        exp(log r(a_j) - log q_j) and exp(log r(a_{j+1}) - log q_j) times the
        shared factor, on seeded books with tail cuts."""
        family, marginal = request.getfixturevalue(pair_name)
        rng = np.random.default_rng(23)
        for n in range(1, 17):
            cuts = np.sort([marginal.quantile(p) for p in rng.uniform(1e-6, 1.0 - 1e-6, n)])
            book = codebook_from_cutpoints(family, marginal, cuts)
            J = jacobian(family, marginal, book)
            lq, mu = np.asarray(book.log_q), np.asarray(book.centroids)
            var = np.array([family.variance(t) for t in book.theta_hat])
            log_r = np.asarray(marginal.log_pdf(cuts), dtype=float)
            shared = 1.0 + (cuts[:-1] - mu[1:-1]) * (cuts[1:] - mu[1:-1]) / var[1:-1]
            assert J.sub.tobytes() == (np.exp(log_r[:-1] - lq[1:-1]) * shared).tobytes()
            assert J.sup.tobytes() == (np.exp(log_r[1:] - lq[1:-1]) * shared).tobytes()

    @pytest.mark.parametrize("pair_name", ["nn", "eg"])
    def test_matches_finite_differences_of_gradient(self, pair_name, request):
        family, marginal = request.getfixturevalue(pair_name)
        rng = np.random.default_rng(17)
        for cuts in _random_configs(marginal, rng, 5, n_range=(2, 5)):
            book = codebook_from_cutpoints(family, marginal, cuts)
            dense = jacobian(family, marginal, book).to_dense()
            scale = np.max(np.abs(dense))
            fd = gradient_fd(family, marginal, cuts)
            band = np.abs(np.subtract.outer(np.arange(cuts.size), np.arange(cuts.size))) <= 1
            assert np.all(np.abs(fd[~band]) < 1e-7 * max(1.0, scale))
            assert fd[band] == pytest.approx(dense[band], rel=1e-4, abs=1e-8 * scale)


# The array forms of G, of J's bands and of the floor test, as numpy states
# them; the estimator computes each on Python floats and must match them bit
# for bit.
def _array_gradient(book):
    a = np.array(book.cuts)
    lq, th, lp = np.array([book.log_q, book.theta_hat, book.log_partition])
    return (lq[1:] + a * th[1:] - lp[1:]) - (lq[:-1] + a * th[:-1] - lp[:-1])


def _array_jacobian(family, marginal, book):
    a = np.array(book.cuts)
    lq, th, mu = np.asarray(book.log_q), np.asarray(book.theta_hat), np.asarray(book.centroids)
    var = np.array([family.variance(t) for t in book.theta_hat])
    log_r = np.asarray(marginal.log_pdf(a), dtype=float)
    r_over_up, r_over_lo = np.exp(log_r - lq[1:]), np.exp(log_r - lq[:-1])
    diag = (th[1:] - th[:-1] - r_over_up * (1.0 + (a - mu[1:])**2 / var[1:])
            - r_over_lo * (1.0 + (a - mu[:-1])**2 / var[:-1]))
    shared = 1.0 + (a[:-1] - mu[1:-1]) * (a[1:] - mu[1:-1]) / var[1:-1]
    return r_over_up[:-1] * shared, diag, r_over_lo[1:] * shared


def _array_at_floor(book, residual):
    gaps = np.abs(residual)
    if not gaps.max() <= estimator._CRITICAL_GRAD_THRESHOLD:
        return False
    a = np.array(book.cuts)
    lq, th, lp = np.array([book.log_q, book.theta_hat, book.log_partition])
    terms = np.abs([lq[1:], a * th[1:], lp[1:], lq[:-1], a * th[:-1], lp[:-1]])
    return bool(np.all(gaps <= estimator._FLOOR_ULPS * np.spacing(terms.max(axis=0))))


def _hex(values):
    return [float(v).hex() for v in values]


def _seeded_cuts(pair_name, marginal, rng, n, far):
    """n sorted cuts drawn through the quantile map; with `far`, up to a
    third of them in the far tails (5 to 56 marginal sds out for the normal,
    Lomax(2, 1) survival 1e-3 to 1e-12)."""
    cuts = [marginal.quantile(p) for p in rng.uniform(0.02, 0.98, n)]
    if far and n:
        k = rng.integers(1, n // 3 + 2)
        if pair_name == "nn":
            cuts[:k] = rng.choice((-1.0, 1.0), k) * rng.uniform(11.0, 125.0, k)
        else:
            cuts[:k] = 10.0 ** rng.uniform(1.5, 6.0, k)
    return sorted(set(map(float, cuts)))


class TestFloatKernel:
    """gradient, jacobian, the band kernel Newton reads and _at_floor run on
    Python floats; every entry equals the array form's by float.hex."""

    @staticmethod
    def _assert_kernel_matches(family, marginal, book):
        with np.errstate(all="ignore"):
            G, J = gradient(family, marginal, book), jacobian(family, marginal, book)
            bands = estimator._jacobian_bands(family, marginal, book)
            expected = _array_jacobian(family, marginal, book)
        assert isinstance(G, np.ndarray) and G.dtype == np.float64
        assert _hex(G) == _hex(_array_gradient(book)), book.cuts
        for got, band, want in zip((J.sub, J.diag, J.sup), bands, expected):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert _hex(got) == _hex(want), book.cuts
            assert isinstance(band, list) and all(type(v) is float for v in band)
            assert _hex(band) == _hex(want), book.cuts

    @pytest.mark.parametrize("pair_name", ["nn", "eg"])
    def test_seeded_books_bulk_and_far_tail(self, pair_name, request):
        family, marginal = request.getfixturevalue(pair_name)
        rng = np.random.default_rng(28)
        for n in range(17):
            for far in (False, True):
                cuts = _seeded_cuts(pair_name, marginal, rng, n, far)
                self._assert_kernel_matches(
                    family, marginal, codebook_from_cutpoints(family, marginal, cuts))

    def test_zero_variance_raises(self, eg):
        """A Lomax interval (0, 1e-160) asserts theta ~ -2e160, whose variance
        1/theta^2 is 0.0: forming the bands divides by it and raises, the
        book classifies as a saddle, and a Newton run from it ends at its
        first Jacobian."""
        family, marginal = eg
        for cuts in ([1e-160], [1e-160, 1.0], [1e-300, 1e-160, 3.0]):
            book = codebook_from_cutpoints(family, marginal, cuts)
            assert family.variance(book.theta_hat[0]) == 0.0
            for form in (estimator._jacobian_bands, jacobian):
                with pytest.raises(ZeroDivisionError):
                    form(family, marginal, book)
            assert classify_critical_point(family, marginal, book, 0.0) == SADDLE
            report = newton_solve(family, marginal, cuts)
            assert report.diagnostic == (
                "singular tridiagonal system at iteration 0: float division by zero"), cuts

    def test_floor_test_on_the_floor_run(self, monkeypatch):
        """Every book of the floor run of test_floor_run_ends_as_floor_outcome,
        with its G scaled across the floor, gets the array form's answer, and
        both answers occur."""
        family, marginal = make_normal_normal(1.0)
        books = []
        build = codebook_from_cutpoints

        def recording_build(*args, **kwargs):
            books.append(build(*args, **kwargs))
            return books[-1]

        monkeypatch.setattr("smml1d.estimator.codebook_from_cutpoints", recording_build)
        newton_solve(family, marginal, [-10.8, -2.7, 2.7, 10.8, 33.4, 100.6, 302.0])
        seen = set()
        for book in books:
            self._assert_kernel_matches(family, marginal, book)
            G = _array_gradient(book)
            for scale in (1.0, 0.25, 2.0, 8.0, -1.0):
                expected = _array_at_floor(book, scale * G)
                assert estimator._at_floor(book, (scale * G).tolist()) == expected
                seen.add(expected)
        assert seen == {True, False}


class TestOneDensity:
    """A pair that replaces log_pdf replaces the density for every reader:
    the Jacobian reads its cuts through it, as the scan's slope does."""

    @staticmethod
    def _counting(marginal):
        calls = []

        def log_pdf(x):
            calls.append(x.tolist() if isinstance(x, np.ndarray) else x)
            return marginal.log_pdf(x)
        return dataclasses.replace(marginal, log_pdf=log_pdf), calls

    def test_jacobian_reads_the_replaced_density(self, nn):
        family, marginal = nn
        counted, calls = self._counting(marginal)
        book = codebook_from_cutpoints(family, marginal, [-1.5, 0.25, 2.0])
        with np.errstate(all="ignore"):
            bands = estimator._jacobian_bands(family, counted, book)
            want = estimator._jacobian_bands(family, marginal, book)
        assert calls == [[-1.5, 0.25, 2.0]]
        assert list(map(_hex, bands)) == list(map(_hex, want))

    def test_sweep_reads_the_replaced_density(self, nn, monkeypatch):
        """Every Jacobian of a sweep reads its cuts by one call of the replaced
        log_pdf, the scan's slope reads it on floats, and every report keeps
        its bits."""
        family, marginal = nn
        counted, calls = self._counting(marginal)
        reads = []
        bands = estimator._jacobian_bands

        def watched(family, marginal, book):
            before = len(calls)
            out = bands(family, marginal, book)
            reads.append((calls[before:], list(book.cuts)))
            return out

        monkeypatch.setattr(estimator, "_jacobian_bands", watched)
        got = solve_sweep(family, counted, 3)
        assert reads and all(read == [cuts] for read, cuts in reads)
        assert any(type(x) is float for x in calls)
        monkeypatch.undo()
        want = solve_sweep(family, marginal, 3)
        assert {n: list(map(_report_bits, reports)) for n, reports in got.items()} == {
            n: list(map(_report_bits, reports)) for n, reports in want.items()}


def _book_bits(book):
    """Every field of a code book, each float by float.hex."""
    return [_hex(field) for field in dataclasses.astuple(book)]


class TestIntervalRecords:
    """A build given the interval cache that books it extends filled takes
    the shared intervals from it and integrates only its new ones, writing
    those back; the book equals a fresh build in every field, bit for bit."""

    @staticmethod
    def _builds_alike(family, marginal, cuts, parents, monkeypatch):
        """Build `cuts` fresh and with the cache that building the `parents`
        (cut vectors) filled; assert the two books (or the two errors) agree
        and that the cache holds finite records only; return the intervals
        integrated with the cache."""
        records = {}
        for parent in parents:
            codebook_from_cutpoints(family, marginal, parent, records=records)
        cached = set(records)
        integrated = []
        integrals = estimator.interval_integrals

        def counted(marginal, lo, hi, **kwargs):
            integrated.append((lo, hi))
            return integrals(marginal, lo, hi, **kwargs)

        def build(**kwargs):
            try:
                return _book_bits(codebook_from_cutpoints(family, marginal, cuts, **kwargs))
            except ArithmeticError as exc:
                return type(exc), str(exc)

        fresh = build()
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "interval_integrals", counted)
            assert build(records=records) == fresh, cuts
        assert not set(integrated) & cached
        assert all(math.isfinite(x) for row in records.values() for x in row[:3])
        return integrated, records

    @staticmethod
    def _outer(pair_name, marginal, cuts, side, rng):
        """A new cut beyond `cuts` on `side`, inside the support."""
        if not cuts:
            return marginal.quantile(0.5 + side * rng.uniform(0.05, 0.45))
        edge = cuts[-1] if side > 0 else cuts[0]
        if pair_name == "eg" and side < 0:
            return edge * rng.uniform(0.05, 0.95)
        return edge + side * rng.uniform(0.05, 3.0) * max(1.0, abs(edge))

    @pytest.mark.parametrize("pair_name", ["nn", "eg"])
    def test_seeded_parents_bulk_and_far_tail(self, pair_name, request, monkeypatch):
        """Parents n = 0..16, in the bulk and out in the far tails, each
        extended on the left, on the right and on both sides; the records
        of a second, unrelated book ride along."""
        family, marginal = request.getfixturevalue(pair_name)
        rng = np.random.default_rng(29)
        for n in range(17):
            for far in (False, True):
                parent = _seeded_cuts(pair_name, marginal, rng, n, far)
                other = _seeded_cuts(pair_name, marginal, rng, n + 1, far)
                left = self._outer(pair_name, marginal, parent, -1, rng)
                right = self._outer(pair_name, marginal, parent, 1, rng)
                for cuts, new in (([left, *parent], 2), ([*parent, right], 2),
                                  ([left, *parent, right], 4 if n else 3)):
                    integrated, records = self._builds_alike(
                        family, marginal, cuts, [parent, other], monkeypatch)
                    assert len(integrated) == new, cuts
                    # the cache now holds every interval of the book
                    book = codebook_from_cutpoints(family, marginal, cuts)
                    bounds = (marginal.support_lo, *book.cuts, marginal.support_hi)
                    rows = zip(book.log_q, book.theta_hat, book.centroids, book.log_partition)
                    for end, row in zip(zip(bounds, bounds[1:]), rows):
                        assert records[end] == row, end

    def test_parent_cut_at_zero(self, nn, monkeypatch):
        """The symmetric first cut, exactly 0.0, and a parent with 0.0
        inside it, extended either way."""
        family, marginal = nn
        first = solve_sweep(family, marginal, 1)[1][0].cuts
        assert first == (0.0,)
        for parent in (first, (-1.5, 0.0, 2.25)):
            a, b = parent[0], parent[-1]
            for cuts, new in (([a - 2.0, *parent], 2), ([*parent, b + 2.0], 2),
                              ([a - 2.0, *parent, b + 2.0], 4), ([a - 40.0, *parent], 2)):
                integrated, _ = self._builds_alike(family, marginal, cuts, [parent], monkeypatch)
                assert len(integrated) == new, cuts

    def test_new_interval_that_cannot_be_built(self, nn, eg, monkeypatch):
        """A start whose new interval is not finite, or whose integral
        raises, raises the same ArithmeticError with or without records,
        the integral's first when both happen, and the cache keeps the
        finite intervals only."""
        for (family, marginal), parent, cuts, message in (
            (nn, [-1.0, 1.0], [-1.0, 1.0, 1e200], "is not finite"),  # log q of (1e200, inf)
            (eg, [2.0, 9.0], [1e-320, 2.0, 9.0], "is not finite"),   # assertion of (0, 1e-320)
            (nn, [0.0], [0.0, 5e-324], "degenerate interval mass"),   # mass of (0, 5e-324)
            (nn, [0.0], [-1e200, 0.0, 5e-324], "degenerate interval mass"),
            (nn, [0.0], [-5e-324, 0.0, 5e-324], r"mass over \(-5e-324, 0.0\)"),
        ):
            with pytest.raises(ArithmeticError, match=message):
                codebook_from_cutpoints(family, marginal, cuts)
            self._builds_alike(family, marginal, cuts, [parent], monkeypatch)


class TestNewtonSolve:
    def test_two_cuts_converges_to_symmetric_optimum(self, nn):
        family, marginal = nn
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert report.converged
        assert report.classification == LOCAL_MINIMUM
        np.testing.assert_allclose(report.cuts, [-1.97396226317, 1.97396226317], atol=1e-9)
        assert report.redundancy == pytest.approx(NORMAL_REDUNDANCY[2], abs=1e-12)

    def test_lomax_three_cuts(self, eg):
        family, marginal = eg
        report = newton_solve(family, marginal, [5.0, 70.0, 1000.0])
        assert report.converged
        np.testing.assert_allclose(
            report.cuts, [4.4216069824, 80.1738648054, 1380.63384714], rtol=1e-9)
        assert report.redundancy == pytest.approx(EXP_REDUNDANCY[3], abs=1e-12)

    def test_six_cut_second_minimum(self, nn):
        """A second basin: local minimum that is not the best six-cut book."""
        family, marginal = nn
        start = [-5.9978, -1.9362, 1.9044, 5.9619, 10.8610, 17.5118]
        report = newton_solve(family, marginal, start)
        assert report.converged
        assert report.classification == LOCAL_MINIMUM
        assert report.redundancy == pytest.approx(NORMAL_SIX_CUT_SECOND_MINIMUM, abs=1e-11)
        assert report.redundancy > NORMAL_REDUNDANCY[6]

    def test_converged_respects_tolerance_field(self, nn, monkeypatch):
        family, marginal = nn
        monkeypatch.setattr(estimator, "_TOL", 1e-10)
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert report.converged and not report.at_floor
        assert report.final_grad_norm <= 1e-10
        assert report.grad_norm_trace[-1] == report.final_grad_norm

    def test_unattainable_tolerance_reports_failure(self, nn, monkeypatch):
        family, marginal = nn
        monkeypatch.setattr(estimator, "_TOL", 1e-18)
        monkeypatch.setattr(estimator, "_MAX_ITER", 40)
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert not report.converged
        assert report.final_grad_norm > 1e-18
        assert report.diagnostic  # names the reason instead of raising

    @pytest.mark.parametrize("start", [
        [-3.8977, 0.0, 3.8977, 8.2816],
        [-8.2816, -3.8977, 0.0, 3.8977],
    ], ids=["right", "left"])
    def test_stalled_run_stops_early(self, nn, start, monkeypatch):
        """The mirror-image n=4 insertion starts of the sd-2 sweep creep
        towards a fold of G at |G| = 6.4e-3; the run ends as a stall after a
        few code-book builds instead of exhausting its step halvings."""
        family, marginal = nn
        builds = 0
        build = codebook_from_cutpoints

        def counting_build(*args, **kwargs):
            nonlocal builds
            builds += 1
            return build(*args, **kwargs)

        monkeypatch.setattr("smml1d.estimator.codebook_from_cutpoints", counting_build)
        report = newton_solve(family, marginal, start)
        assert not report.converged
        assert report.classification == NOT_CRITICAL
        assert report.diagnostic.startswith("stalled at iteration")
        assert builds <= 40

    def test_max_iter_run_names_its_stop(self, nn, monkeypatch):
        family, marginal = nn
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert not report.converged and report.iterations == 1
        assert report.diagnostic == (
            f"reached max_iter=1 (gradient norm {report.final_grad_norm:.3e})")

    def test_step_matches_solve_banded(self):
        """The dgtsv transcription gives scipy.linalg.solve_banded's solution bit
        for bit, also where a zero leading diagonal forces a row swap, and
        leaves the bands and the right-hand side as they were."""
        rng = np.random.default_rng(1301)
        for n in range(1, 18):
            for zero_lead in ((False, True) if n > 1 else (False,)):
                sub, diag, sup = rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1)
                if zero_lead:
                    diag[0] = 0.0
                rhs = rng.normal(size=n)
                ab = np.zeros((3, n))
                ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
                expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
                inputs = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
                got = np.array(_solve_tridiagonal(*inputs))
                assert got.shape == (n,) and got.tobytes() == expected.tobytes(), (n, zero_lead)
                assert inputs == (sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())

    def test_singular_system_raises(self):
        """A zero pivot raises at every size: the 1x1 zero, and a 2x2 system
        that eliminates to one."""
        for bands in (([], [0.0], []), ([1.0], [1.0, 1.0], [1.0])):
            with pytest.raises(ZeroDivisionError):
                _solve_tridiagonal(*bands, np.arange(1.0, len(bands[1]) + 1.0))

    def test_nan_over_zero_raises(self):
        """A NaN diagonal entry over a zero sub-diagonal entry divides by zero
        in the elimination, which raises like a singular system."""
        with pytest.raises(ZeroDivisionError):
            _solve_tridiagonal([0.0, 1.0], [math.nan, 2.0, 3.0], [1.0, 1.0], [1.0, 2.0, 3.0])

    def test_singular_jacobian_ends_run(self, nn, monkeypatch):
        family, marginal = nn

        def zero_jacobian(family, marginal, codebook):
            n = codebook.n
            return [0.0] * (n - 1), [0.0] * n, [0.0] * (n - 1)

        monkeypatch.setattr("smml1d.estimator._jacobian_bands", zero_jacobian)
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert not report.converged and report.iterations == 0
        assert report.diagnostic.startswith("singular tridiagonal system at iteration 0")

    def test_unformable_jacobian_ends_run(self, nn, monkeypatch):
        """A Jacobian entry that raises, as 1/theta^2 does once theta^2
        underflows, ends the run like a singular system."""
        family, marginal = nn

        def dividing_jacobian(family, marginal, codebook):
            return 1.0 / 0.0

        monkeypatch.setattr("smml1d.estimator._jacobian_bands", dividing_jacobian)
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert not report.converged and report.iterations == 0
        assert report.diagnostic == (
            "singular tridiagonal system at iteration 0: float division by zero")

    def test_infeasible_start_raises(self, nn):
        family, marginal = nn
        with pytest.raises(SupportError):
            newton_solve(family, marginal, [1.0, 1.0])
        with pytest.raises(SupportError):  # below the Lomax support's lower end, 0
            newton_solve(*make_exponential_gamma(2.0, 1.0), [-1.0])

    def test_floor_run_ends_as_floor_outcome(self, monkeypatch):
        """The sd-1 seven-cut book with its far cut at +302.0 bottoms out at
        |G| = 3.6e-12, under one ulp of its largest terms (a*theta ~ 9e4).
        The run ends there as a floor minimum, at most two code-book builds
        after it first reaches the floor, instead of after 31 futile step
        halvings."""
        family, marginal = make_normal_normal(1.0)
        books = []
        build = codebook_from_cutpoints

        def recording_build(*args, **kwargs):
            books.append(build(*args, **kwargs))
            return books[-1]

        monkeypatch.setattr("smml1d.estimator.codebook_from_cutpoints", recording_build)
        report = newton_solve(family, marginal, [-10.8, -2.7, 2.7, 10.8, 33.4, 100.6, 302.0])
        assert not report.converged and report.at_floor
        assert report.final_grad_norm > estimator._TOL
        assert report.classification == LOCAL_MINIMUM
        assert report.diagnostic.startswith("reached the rounding floor of G at iteration")
        residuals = [gradient(family, marginal, book) for book in books]
        reached = next(
            i for i, (book, res) in enumerate(zip(books, residuals))
            if estimator._at_floor(book, res)
            and float(np.max(np.abs(res))) in report.grad_norm_trace
        )
        assert len(books) - 1 - reached <= 2

    def test_unbuildable_start_reports_failure(self, heavy_gk):
        family, marginal = heavy_gk
        with np.errstate(divide="ignore", invalid="ignore"):
            report = newton_solve(family, marginal, [0.9350635570477831])
        assert not report.converged and not report.at_floor
        assert report.classification == NOT_CRITICAL
        assert math.isnan(report.final_grad_norm) and math.isnan(report.redundancy)
        assert report.diagnostic.startswith(
            "the start's code book cannot be built: the centroid of")

    @pytest.mark.parametrize("pair, start, diagnostic", [
        (make_normal_normal(2.0), [1e200], _NOT_FINITE),
        (make_exponential_gamma(2.0, 1.0), [1e-320], _NOT_FINITE),
        (_nan_partition_above(3.0), [4.0], "the start's G is NaN"),
    ], ids=["normal-1e200", "lomax-1e-320", "user-nan-partition"])
    def test_nan_start_names_its_stop(self, pair, start, diagnostic, monkeypatch):
        """The built-in starts give a log q of -inf or an assertion of -inf,
        so their code book cannot be built; the user family's A(theta) is NaN
        past 3, so G is NaN at a book asserting 4.9.  Each run ends at once,
        from its one code book, and says why."""
        builds = 0
        build = codebook_from_cutpoints

        def counting_build(*args, **kwargs):
            nonlocal builds
            builds += 1
            return build(*args, **kwargs)

        monkeypatch.setattr("smml1d.estimator.codebook_from_cutpoints", counting_build)
        report = newton_solve(*pair, start)
        assert (report.converged, report.iterations, builds) == (False, 0, 1)
        assert math.isnan(report.final_grad_norm)
        assert report.classification == NOT_CRITICAL and not report.kept
        assert report.diagnostic.startswith(diagnostic)

    @pytest.mark.parametrize("alpha, start, converged, at_floor, kept", [
        (2.0, [-2.2, 1.8], True, False, True),
        (1.0, [-10.8, -2.7, 2.7, 10.8, 33.4, 100.6, 302.0], False, True, True),
        (2.0, [-3.8977, 0.0, 3.8977, 8.2816], False, False, False),
    ], ids=["converged", "floor", "stalled"])
    def test_report_derives_norm_outcome_and_redundancy(
            self, alpha, start, converged, at_floor, kept):
        """The final norm is the trace's last entry and the largest gap; the
        outcome and the redundancy follow from it and from the lengths."""
        report = newton_solve(*make_normal_normal(alpha), start)
        assert report.final_grad_norm == report.grad_norm_trace[-1] == max(report.continuity_gaps)
        assert report.converged == (report.final_grad_norm <= estimator._TOL) == converged
        assert report.at_floor == at_floor
        assert report.kept == kept
        assert report.kept == (
            (report.converged or report.at_floor) and report.classification == LOCAL_MINIMUM)
        assert report.redundancy == report.message_length - report.entropy
        assert report.iterations == len(report.grad_norm_trace) - 1
        assert [f.name for f in dataclasses.fields(SolveReport)] == [
            "codebook", "message_length", "entropy", "classification",
            "continuity_gaps", "grad_norm_trace", "diagnostic", "at_floor"]

    def test_unbuildable_candidate_is_a_rejected_trial(self, nn, monkeypatch):
        family, marginal = nn
        builds = 0
        build = codebook_from_cutpoints

        def failing_first_step(*args, **kwargs):
            nonlocal builds
            builds += 1
            if builds == 2:
                raise ArithmeticError("degenerate interval mass")
            return build(*args, **kwargs)

        monkeypatch.setattr("smml1d.estimator.codebook_from_cutpoints", failing_first_step)
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert report.converged and builds > 2

    def test_report_gap_nonnegative_at_minima(self, nn_sweep6):
        for reports in nn_sweep6.values():
            for rep in reports:
                assert rep.redundancy >= 0.0


class TestClassification:
    def test_single_cut_minimum(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        assert classify_critical_point(family, marginal, book, 0.0) == LOCAL_MINIMUM

    def test_gate_on_gradient_norm(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [1.0])
        assert classify_critical_point(family, marginal, book, 0.1) == NOT_CRITICAL

    def test_eigenvalues_match_eigvalsh_tridiagonal(self, nn, monkeypatch):
        """The pivot-sign test is an inertia test: it calls a book a minimum
        exactly when scipy.linalg.eigvalsh_tridiagonal finds every eigenvalue
        of the symmetrised J positive.  Covered: indefinite and diagonally
        dominant symmetric J, a zero leading pivot, non-symmetric J with
        sub*sup of either sign, and J whose smallest eigenvalue is +-1e-8."""
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        rng = np.random.default_rng(1302)
        seen = {LOCAL_MINIMUM: 0, SADDLE: 0}
        for n in range(2, 18):
            indefinite = rng.normal(size=n)
            indefinite[0], indefinite[-1] = -1.0 - abs(indefinite[0]), 1.0 + abs(indefinite[-1])
            dominant = 2.5 + rng.uniform(size=n)  # Gershgorin: every eigenvalue > 0.5
            off, small = rng.normal(size=n - 1), rng.uniform(-1.0, 1.0, n - 1)
            # With every sub*sup < 0 the symmetrised J is diagonal: a product
            # used unclamped or by its size would give the other answer.
            coupling = rng.uniform(1.5, 3.0, n - 1)
            base = rng.normal(size=n)
            lowest = scipy.linalg.eigvalsh_tridiagonal(base, off)[0]
            cases = [
                (indefinite, off, off),
                (dominant, small, small),
                (np.r_[0.0, dominant[1:]], small, small),
                (1.0 + rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n - 1)),
                (np.ones(n), coupling, -coupling),
                (np.r_[1.0, -np.ones(n - 1)], coupling, -coupling),
                (base - lowest + 1e-8, off, off),
                (base - lowest - 1e-8, off, off),
            ]
            for diag, sub, sup in cases:
                bands = sub.tolist(), diag.tolist(), sup.tolist()
                monkeypatch.setattr(
                    "smml1d.estimator._jacobian_bands", lambda *_, bands=bands: bands)
                sym_off = np.sign(sup) * np.sqrt(np.maximum(sub * sup, 0.0))
                positive = scipy.linalg.eigvalsh_tridiagonal(diag, sym_off)[0] > 0.0
                kind = classify_critical_point(family, marginal, book, 0.0)
                assert kind == (LOCAL_MINIMUM if positive else SADDLE), (n, diag, sub, sup)
                seen[kind] += 1
        assert min(seen.values()) >= 16, seen

    def test_symmetric_five_cut_saddle(self, nn):
        """The symmetric five-cut stationary book is a saddle, which is why
        the five-cut minima come in an asymmetric mirror pair."""
        family, marginal = nn
        p = [i / 6 for i in range(1, 6)]
        report = newton_solve(family, marginal, [marginal.quantile(v) for v in p])
        assert report.converged
        assert report.classification == SADDLE


class TestMultiStart:
    def test_five_cuts_mirror_pair(self, nn_sweep6):
        reports = nn_sweep6[5]
        assert len(reports) == 2
        first, second = (np.asarray(r.cuts) for r in reports)
        np.testing.assert_allclose(first, -second[::-1], atol=1e-9)
        assert reports[0].redundancy == pytest.approx(reports[1].redundancy, abs=1e-10)

    def test_six_cuts_best_and_second_minimum(self, nn_sweep6):
        reports = nn_sweep6[6]
        best = reports[0]
        assert best.redundancy == pytest.approx(NORMAL_REDUNDANCY[6], abs=1e-11)
        others = [r for r in reports[1:]
                  if abs(r.redundancy - NORMAL_SIX_CUT_SECOND_MINIMUM) < 1e-9]
        assert others, "the second six-cut minimum should be found and ranked worse"
        assert all(r.redundancy > best.redundancy for r in others)

    def test_lomax_solutions_unique(self, eg_sweep5):
        for n, reports in eg_sweep5.items():
            assert len(reports) == 1, f"n={n} should have a unique minimum"

    @pytest.mark.parametrize("beta", [1e-10, 1e-3, 1e5, 1e100])
    def test_lomax_scale_invariance(self, beta, eg_sweep5):
        """The Lomax problem is invariant under its scale beta: every stage
        keeps its one minimum, with the beta=1 redundancy and cuts scaled by
        beta."""
        stages = solve_sweep(*make_exponential_gamma(2.0, beta), 5)
        for n, reports in stages.items():
            assert len(reports) == 1, f"n={n}"
            want = eg_sweep5[n][0]
            assert reports[0].redundancy == pytest.approx(want.redundancy, abs=1e-12)
            np.testing.assert_allclose(np.divide(reports[0].cuts, beta), want.cuts, rtol=1e-9)

    def test_matches_single_call(self, eg):
        family, marginal = eg
        direct = solve_sweep(family, marginal, 2)[2]
        assert len(direct) == 1
        np.testing.assert_allclose(direct[0].cuts, [4.42187055929, 80.5547698108], rtol=1e-9)

    def test_rejects_bad_n(self, nn):
        family, marginal = nn
        for n_max in (0, -3):
            with pytest.raises(ValueError, match="need n_max >= 1"):
                solve_sweep(family, marginal, n_max)

    @pytest.mark.parametrize("sweep,minima", [
        ("nn_sweep16", NORMAL_MINIMA),
        ("eg_sweep5", EXP_MINIMA),
        ("nn_alpha1_sweep8", ALPHA1_MINIMA),
        ("nn_alpha3_sweep8", ALPHA3_MINIMA),
        ("nn_sweep30", ALPHA2_MINIMA_30),
        ("nn_alpha05_sweep8", ALPHA05_MINIMA),
        ("nn_alpha10_sweep40", ALPHA10_MINIMA),
        ("nn_alpha15_sweep8", ALPHA15_MINIMA),
    ], ids=["nn", "eg", "nn-alpha1", "nn-alpha3", "nn-n30", "nn-alpha05", "nn-alpha10",
            "nn-alpha15"])
    def test_every_minimum_per_stage(self, sweep, minima, request):
        """The count and the redundancies of all deduplicated minima at every
        stage, so that no change to the starts loses one silently."""
        stages = request.getfixturevalue(sweep)
        assert {n: len(reps) for n, reps in stages.items()} == {
            n: len(want) for n, want in minima.items()}
        for n, want in minima.items():
            np.testing.assert_allclose([r.redundancy for r in stages[n]], want,
                                       rtol=0.0, atol=1e-9, err_msg=f"n={n}")

    def test_quadrature_path_finds_the_same_optima(self, nn, nn_sweep6):
        """With the closed forms stripped, GK alone reaches the same best
        redundancies."""
        family, marginal = nn
        stages = solve_sweep(family, dataclasses.replace(marginal, closed_form=None), 6)
        for n in range(1, 7):
            assert stages[n][0].redundancy == pytest.approx(nn_sweep6[n][0].redundancy, abs=1e-12)

    def test_user_built_pair_needs_only_the_required_fields(self, nn_sweep6):
        """N(t, 1) data and a N(0, 5) marginal written out field by field,
        with no closed form, entropy, carrier constant or mean inverse:
        quadrature and the numeric mean inverse reach the built-in pair's
        best redundancies."""
        log_norm = math.log(BETA * math.sqrt(2.0 * math.pi))
        family = FamilyModel(
            param_lo=-math.inf,
            param_hi=math.inf,
            log_partition=lambda t: 0.5 * t * t,
            log_carrier=lambda x: -0.5 * np.asarray(x) ** 2 - 0.5 * math.log(2.0 * math.pi),
            mean=lambda t: t,
            variance=lambda t: 1.0,
        )
        marginal = MarginalModel(
            log_pdf=lambda x: -0.5 * (np.asarray(x) / BETA) ** 2 - log_norm,
            quantile=statistics.NormalDist(0.0, BETA).inv_cdf,
            mode=0.0,
            support_lo=-math.inf,
            support_hi=math.inf,
            prior_params=(2.0,),
            name="user-normal",
        )
        stages = solve_sweep(family, marginal, 3)
        for n in range(1, 4):
            assert stages[n][0].redundancy == pytest.approx(nn_sweep6[n][0].redundancy, abs=1e-9)

    def test_alpha15_two_cut_minimum(self):
        """The symmetric two-cut minimum.  Both continuation starts of stage 2,
        (0, 4.27) and its mirror, stall at |G| = 5.7e-2; the rescue's lattice
        start (-sqrt 3, sqrt 3) reaches it."""
        reports = solve_sweep(*make_normal_normal(1.5), 2)[2]
        assert reports, "no two-cut minimum"
        np.testing.assert_allclose(reports[0].cuts, [-2.1142183340, 2.1142183340], atol=1e-9)
        assert reports[0].redundancy == pytest.approx(0.16933390209, abs=1e-10)

    def test_alpha10_minimum_at_every_stage(self, nn_alpha10_sweep45):
        """Prior sd 10 keeps a minimum at every stage up to n=45.  At n = 40
        to 42 every continuation run ends short of _TOL and above the
        rounding floor, and the stage keeps the book of the rescue's lattice
        start; without the rescue, every stage from n=40 keeps nothing."""
        assert all(nn_alpha10_sweep45.values())
        np.testing.assert_allclose(
            [nn_alpha10_sweep45[n][0].redundancy for n in range(41, 46)], ALPHA10_BEST_41_45,
            rtol=0.0, atol=1e-12)

    def test_sweep_survives_unbuildable_books(self, heavy_gk, nn, monkeypatch):
        """Code books that cannot be built end runs or reject trials; the
        sweep still returns every stage instead of raising.  No book of
        heavy_gk can be built, so its stages are empty; when every third
        build of the sd-2 normal pair fails, each stage still has minima."""
        family, marginal = heavy_gk
        with np.errstate(divide="ignore", invalid="ignore"):
            assert solve_sweep(family, marginal, 3) == {1: [], 2: [], 3: []}

        builds = itertools.count(1)
        build = codebook_from_cutpoints

        def flaky_build(*args, **kwargs):
            if next(builds) % 3 == 0:
                raise ArithmeticError("unbuildable")
            return build(*args, **kwargs)

        monkeypatch.setattr("smml1d.estimator.codebook_from_cutpoints", flaky_build)
        stages = solve_sweep(*nn, 3)
        assert next(builds) > 3
        for reports in stages.values():
            assert reports
            assert all(r.classification == LOCAL_MINIMUM for r in reports)


# Hyper-parameters over the whole admissible range, drawn log-uniformly.
NORMAL_PAIRS = st.floats(-2.0, 2.0).map(lambda e: make_normal_normal(10.0**e))
LOMAX_PAIRS = st.builds(
    lambda e_alpha, e_beta: make_exponential_gamma(10.0**e_alpha, 10.0**e_beta),
    st.floats(math.log10(1.001), 2.0), st.floats(-3.0, 6.0))


class TestSweepProperties:
    @settings(derandomize=True, deadline=None, database=None)
    @given(pair=st.one_of(NORMAL_PAIRS, LOMAX_PAIRS))
    def test_short_sweep_is_sound(self, pair):
        """Any admissible prior: the n<=3 sweep does not raise, every kept
        book's masses sum to 1, and the best length does not grow with n
        beyond the sweep's own tie threshold."""
        stages = solve_sweep(*pair, 3)
        for reports in stages.values():
            for r in reports:
                assert math.fsum(map(math.exp, r.codebook.log_q)) == pytest.approx(1.0, abs=1e-9)
        best = [reports[0].message_length for reports in stages.values() if reports]
        for shorter, longer in itertools.pairwise(best):
            assert longer <= shorter + estimator._LENGTH_TIE


# A new outer cut beside the best two-cut books of the two acceptance models,
# at points on both sides of the existing cuts.
INSERTIONS = [
    ("nn", [-1.97396226317, 1.97396226317], 6.0, 1),
    ("nn", [-1.97396226317, 1.97396226317], -6.0, -1),
    ("eg", [4.42187055929, 80.5547698108], 1500.0, 1),
    ("eg", [4.42187055929, 80.5547698108], 1.0, -1),
]


def _full_walk_root(family, marginal, outer, side):
    """The insertion root as _outward_root found it before its scan probed:
    one walk over the whole grid from its first candidate, the same pick and
    stop rules, the same refinement.  The reference of the probe tests."""
    pick = None
    last = None
    rising = 0
    for x in estimator._scan_grid(marginal, outer, side):
        try:
            f = side * estimator._insertion_residual(family, marginal, outer, x, side)
        except (ValueError, ArithmeticError):
            continue
        if last is not None and last[1] <= 0.0 < f:
            pick = (last, x)
        rising = rising + 1 if f > 0.0 and (last is None or f >= last[1]) else 0
        last = (x, f)
        if pick and rising >= 6:
            break
    if pick is None:
        return None
    (near, at_near), far = pick
    if at_near == 0.0:
        return near
    width = estimator._ROOT_REL_WIDTH * abs(far - near)
    x = 0.5 * (near + far)
    for _ in range(60):
        try:
            g, slope = estimator._insertion_residual(family, marginal, outer, x, side, slope=True)
        except (ValueError, ArithmeticError):
            return 0.5 * (near + far)
        if side * g <= 0.0:
            near = x
        else:
            far = x
        nxt = x - g / slope if math.isfinite(slope) and slope != 0.0 else math.nan
        if not min(near, far) < nxt < max(near, far):
            nxt = 0.5 * (near + far)
        if abs(nxt - x) <= width or abs(far - near) <= width:
            return nxt
        x = nxt
    return x


def _scanned_keys(monkeypatch, family, marginal, n_max):
    """Every (outer cuts, side) that a sweep scans, in order."""
    keys = []
    outward_root = estimator._outward_root

    def recorded(family, marginal, outer, side):
        keys.append((outer, side))
        return outward_root(family, marginal, outer, side)

    with monkeypatch.context() as patch:
        patch.setattr(estimator, "_outward_root", recorded)
        solve_sweep(family, marginal, n_max)
    return keys


def _scripted_residual(monkeypatch, pattern):
    """Replace the scan by a script: the grid is 1, 2, ..., len(pattern), and
    the residual at grid point k is read off the pattern's k-th character,
    '-' for -1, a digit for its value and 'x' for an ArithmeticError."""
    grid = [float(k) for k in range(1, len(pattern) + 1)]
    monkeypatch.setattr(estimator, "_scan_grid", lambda marginal, outer, side: grid)

    def residual(family, marginal, base, x, side, slope=False):
        char = pattern[int(x) - 1]
        if char == "x":
            raise ArithmeticError(char)
        return -1.0 if char == "-" else float(char)

    monkeypatch.setattr(estimator, "_insertion_residual", residual)


class TestInsertionRoot:
    @pytest.mark.parametrize("pair_name,base,x,side", INSERTIONS,
                             ids=["nn-right", "nn-left", "eg-right", "eg-left"])
    def test_slope_matches_central_differences(self, pair_name, base, x, side, request):
        family, marginal = request.getfixturevalue(pair_name)
        base = tuple(base)

        def residual(at):
            return estimator._insertion_residual(family, marginal, base, at, side)

        value, slope = estimator._insertion_residual(family, marginal, base, x, side, slope=True)
        assert value == residual(x)
        h = 1e-4 * abs(x)
        fd = (residual(x + h) - residual(x - h)) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("pair_name,base", [
        ("nn", [-1.97396226317, 1.97396226317]),
        ("eg", []),
        ("eg", [4.42187055929, 80.5547698108]),
    ], ids=["nn", "eg-first-cut", "eg"])
    def test_refined_root_matches_mpmath(self, pair_name, base, request):
        """The Newton-refined outer root lies within its stopping width,
        2^-30 of its grid bracket, of the 50-digit root of the same residual."""
        mpmath = pytest.importorskip("mpmath")
        family, marginal = request.getfixturevalue(pair_name)
        base = tuple(base)
        candidates = estimator._scan_grid(marginal, base, 1)
        root = estimator._outward_root(family, marginal, base, 1)
        lo, hi = next((a, b) for a, b in itertools.pairwise(candidates) if a <= root <= b)
        edge = base[-1] if base else marginal.support_lo
        if pair_name == "nn":
            exact, theta, log_partition = _normal_exact, lambda m: m, lambda t: t * t / 2
        else:
            exact, theta, log_partition = _lomax_exact, lambda m: -1 / m, lambda t: -mpmath.log(-t)

        def residual(x):
            def bracket(log_mass, centroid):
                t = theta(centroid)
                return log_mass + x * t - log_partition(t)

            return bracket(*exact(mpmath, x, mpmath.inf)) - bracket(*exact(mpmath, edge, x))

        with mpmath.workdps(50):
            reference = float(mpmath.findroot(residual, mpmath.mpf(root)))
        assert abs(root - reference) <= 2.0**-30 * (hi - lo)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 10.0])
    def test_symmetric_first_cut_is_exact(self, alpha):
        """The empty book's residual is exactly 0 at the median of a
        symmetric marginal, a candidate of its scan, so that is the root as
        it is: no refinement moves it to a few 1e-12 off."""
        assert estimator._outward_root(*make_normal_normal(alpha), (), 1) == 0.0

    @pytest.mark.parametrize("pair,n_max", [
        (make_normal_normal(0.5), 8),
        (make_normal_normal(1.0), 8),
        (make_normal_normal(1.5), 8),
        (make_normal_normal(2.0), 16),
        (make_exponential_gamma(2.0, 1.0), 6),
        (make_exponential_gamma(10.0, 1.0), 6),
        (make_exponential_gamma(1.05, 1.0), 5),
    ], ids=["nn-alpha0.5", "nn-alpha1", "nn-alpha1.5", "nn-alpha2",
            "eg-alpha2", "eg-alpha10", "eg-alpha1.05"])
    def test_probe_keeps_every_root(self, pair, n_max, monkeypatch):
        """Walking from a probe inside the dip gives each root the float the
        walk over the whole grid gives, on every key these sweeps scan.  At
        normal alpha 0.5 and 1 the empty book's residual crosses twice, in
        the marginal's lower tail and in its upper, and both walks take the
        upper crossing; the Lomax scans leftwards of a book find no crossing,
        and both walks give None."""
        keys = _scanned_keys(monkeypatch, *pair, n_max)
        roots = [estimator._outward_root(*pair, *key) for key in keys]
        assert roots == [_full_walk_root(*pair, *key) for key in keys]

    @pytest.mark.parametrize("pattern,near", [
        ("95-------0123456789", 10.0),  # probe 7 in the dip
        ("----0123987654--------0123456", 23.0),  # 7 past the inner crossing, 3 in the dip
        ("0123456654---0123456", 1.0),  # the full walk stops at 6, before probe 7
        ("9-0123-----------", 3.0),  # no crossing after probe 7: from index 0
        ("9---x---0123456", 9.0),  # probe 7 raises: from probe 3
        ("9------0123456", 8.0),  # probe 7 at an exact 0
        ("98765432", None),  # no crossing
        ("0123", 1.0),  # both probes past the grid
        ("-", None),
    ])
    def test_probe_keeps_the_pick(self, pattern, near, monkeypatch):
        """The pick rule on scripted residuals, each crossing from an exact 0
        so that the root is its near grid point: the walk from a probe <= 0
        picks the full walk's crossing, and a positive, raising or missing
        probe, or a probe whose walk finds no crossing, sends the walk back
        to index 0."""
        _scripted_residual(monkeypatch, pattern)
        assert _full_walk_root(None, None, (), 1) == near
        assert estimator._outward_root(None, None, (), 1) == near

    def test_probe_past_a_stopped_walk(self, monkeypatch):
        """The one shape on which the probe moves the pick: the full walk
        stops at index 6 on the crossing at index 1, and the walk from probe
        7, in a second dip, takes the crossing past it."""
        _scripted_residual(monkeypatch, "0123456--------0123456")
        assert _full_walk_root(None, None, (), 1) == 1.0
        assert estimator._outward_root(None, None, (), 1) == 16.0

    @pytest.mark.parametrize("pair_name,low,pair,high", [
        ("nn", -6.0, [-1.97396226317, 1.97396226317], 6.0),
        ("nn", 0.5, [1.2, 4.0], 7.5),
        ("eg", 3.0, [10.0, 40.0], 77.0),
    ], ids=["nn", "nn-one-sided", "eg"])
    @pytest.mark.parametrize("side", [1, -1])
    def test_root_reads_only_the_outer_two_cuts(self, pair_name, low, pair, high, side,
                                                request):
        """The scan grid of [low, p, q] rightwards (or [p, q, high] leftwards)
        is that of [p, q], and at each of its candidates the insertion
        residual is the same float: the premise of the memo key."""
        family, marginal = request.getfixturevalue(pair_name)
        outer = tuple(pair)
        full = (low, *pair) if side > 0 else (*pair, high)
        grid = estimator._scan_grid(marginal, outer, side)
        assert grid
        assert estimator._scan_grid(marginal, full, side) == grid

        def residual(base, x):
            try:
                return estimator._insertion_residual(family, marginal, base, x, side)
            except (ValueError, ArithmeticError) as exc:
                return type(exc)

        for x in grid:
            assert residual(full, x) == residual(outer, x), x


def _count_sweep_work(monkeypatch, family, marginal, n_max):
    """Run a sweep, recording each scan's (outer two cuts, side) and each
    Newton start."""
    scans, starts = [], []
    outward_root, newton_solve = estimator._outward_root, estimator.newton_solve

    def counted_root(family, marginal, outer, side):
        scans.append((outer, side))
        return outward_root(family, marginal, outer, side)

    def counted_newton(family, marginal, initial, *, records=None):
        starts.append(tuple(np.asarray(initial).tolist()))
        return newton_solve(family, marginal, initial, records=records)

    monkeypatch.setattr(estimator, "_outward_root", counted_root)
    monkeypatch.setattr(estimator, "newton_solve", counted_newton)
    solve_sweep(family, marginal, n_max)
    return scans, starts


class TestSweepWork:
    @pytest.mark.parametrize("pair_name,n_max,n_scans,n_runs", [
        ("nn", 16, 30, 36),
        ("eg", 5, 9, 5),
    ], ids=["nn", "eg"])
    def test_each_scan_and_start_once(self, pair_name, n_max, n_scans, n_runs,
                                      monkeypatch, request):
        """No two scans share their outer two cuts and side, and no stage runs
        Newton twice from the same start (nor from two mirror images, see
        TestMirrorPairs.test_one_run_per_mirror_pair).  Scanning every
        book and running every start made the n<=16 normal sweep 53 scans and
        78 runs.  Stage 1's scan, of the empty book, goes through the same
        memo, first and once, and every scan is keyed on at most two cuts.
        The normal counts were (38, 67) with the erfcx Mills ratio, (38, 68)
        with the continued fraction, where stage 9's second book takes one
        Newton step and the two stage-10 starts differ in their last bits,
        and were (34, 46) once the normal pair solved each mirror pair once:
        a mirror start from another seed book takes the reflected report, and
        a root whose mirror key is in the memo is negated, not scanned.  They
        are (34, 45) since a same-seed twin is solved only when the first run
        found a critical point: at stage 4 the second extension of one seed
        book takes the reflection of the first, a stall that is not kept.
        They are (30, 36) since every near-mirror twin takes the reflection,
        also where both extend one seed book and the first run found a
        critical point: 9 fewer runs, and 4 fewer scans of the books that
        the stages then keep and extend."""
        scans, starts = _count_sweep_work(
            monkeypatch, *request.getfixturevalue(pair_name), n_max)
        assert (len(scans), len(starts)) == (n_scans, n_runs)
        assert scans[0] == ((), 1)
        assert all(len(outer) <= 2 for outer, _ in scans)
        assert len(set(scans)) == len(scans)
        assert len(set(starts)) == len(starts)  # a start's length is its stage

    @pytest.mark.parametrize("pair_name,n_max,n_grid,n_refine", [
        ("nn", 16, 239, 150),
        ("eg", 5, 111, 20),
    ], ids=["nn", "eg"])
    def test_insertion_residuals_per_sweep(self, pair_name, n_max, n_grid, n_refine,
                                           monkeypatch, request):
        """The sweep's insertion residuals: those of the scan grids, and those
        with a slope that refine the roots.  The walk over each grid starts
        at a probe inside the dip beside the outer cut where it can, so the
        grid residuals fell from 449 to 239 (normal) and from 132 to 111
        (Lomax), with every root and refinement unchanged."""
        calls = {False: 0, True: 0}
        insertion_residual = estimator._insertion_residual

        def counted(family, marginal, base, x, side, slope=False):
            calls[slope] += 1
            return insertion_residual(family, marginal, base, x, side, slope=slope)

        monkeypatch.setattr(estimator, "_insertion_residual", counted)
        solve_sweep(*request.getfixturevalue(pair_name), n_max)
        assert (calls[False], calls[True]) == (n_grid, n_refine)

    @pytest.mark.parametrize("pair", [make_normal_normal(0.05), make_exponential_gamma(60.0, 1.0)],
                             ids=["nn-alpha0.05", "eg-alpha60"])
    def test_no_root_no_run(self, pair, monkeypatch):
        """Where the empty book's one scan finds no root, stage 1 has no
        start and no later stage a parent: the sweep runs Newton not once."""
        scans, starts = _count_sweep_work(monkeypatch, *pair, 3)
        assert (scans, starts) == ([((), 1)], [])
        assert solve_sweep(*pair, 3) == {1: [], 2: [], 3: []}


class TestMirrorPairs:
    """The normal pair declares mirror symmetry, so a sweep reflects the
    report of one start of each mirror pair instead of solving it; with the
    declaration stripped every start is solved."""

    @pytest.mark.parametrize("alpha,n_max", [(0.5, 8), (1.0, 8), (2.0, 16)])
    def test_reflected_sweep_matches_full_sweep(self, alpha, n_max, monkeypatch):
        family, marginal = make_normal_normal(alpha)
        assert marginal.mirror_symmetric
        assert not make_exponential_gamma(2.0, 1.0)[1].mirror_symmetric
        full = solve_sweep(family, dataclasses.replace(marginal, mirror_symmetric=False), n_max)
        solved = []
        newton = estimator.newton_solve

        def recording_newton(*args, **kwargs):
            solved.append(newton(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(estimator, "newton_solve", recording_newton)
        stages = solve_sweep(family, marginal, n_max)
        assert {n: len(reps) for n, reps in stages.items()} == {
            n: len(reps) for n, reps in full.items()}
        reflected = 0
        for n, reports in stages.items():
            for ours, theirs in zip(reports, full[n]):
                assert abs(ours.message_length - theirs.message_length) <= 1e-12, n
            for report in reports:
                if any(report is run for run in solved):
                    continue
                reflected += 1
                # builds are exactly mirror-symmetric, so the reflected gaps
                # are those of a fresh build of the reflected cuts
                book = codebook_from_cutpoints(family, marginal, report.cuts)
                assert _hex(report.continuity_gaps) == _hex(
                    np.abs(gradient(family, marginal, book))), report.cuts
        assert reflected > 0

    @pytest.mark.parametrize("alpha,n_max", [(2.0, 16), (1.5, 3)])
    def test_reflected_twins_of_stalls_are_not_kept(self, alpha, n_max, monkeypatch):
        """A start whose mirror twin was run and ended not critical takes the
        reflected report, even when both extend one seed book.  Solved
        directly, each such start is not kept either: the reflection loses
        no minimum.  Each of these sweeps has one, a stall at |G| >= 1.5e-3
        (stage 4 at alpha=2, stage 2 at alpha=1.5)."""
        family, marginal = make_normal_normal(alpha)
        runs, twins = {}, []
        newton, mirrors = estimator.newton_solve, estimator._mirrors

        def recording_newton(family, marginal, initial, **kwargs):
            runs[tuple(initial)] = newton(family, marginal, initial, **kwargs)
            return runs[tuple(initial)]

        def recording_mirrors(start, other):
            # the sweep tests each start against its earlier runs and takes
            # the first match, so each match is one reflected start
            if mirrors(start, other):
                twins.append((start, other))
                return True
            return False

        monkeypatch.setattr(estimator, "newton_solve", recording_newton)
        monkeypatch.setattr(estimator, "_mirrors", recording_mirrors)
        solve_sweep(family, marginal, n_max)
        stalls = [start for start, other in twins if runs[other].classification == NOT_CRITICAL]
        assert len(stalls) == 1
        for start in stalls:
            assert start not in runs
            report = newton(family, marginal, start)
            assert not report.kept and report.grad_norm_trace[-1] >= 1.5e-3, start


    def test_one_run_per_mirror_pair(self, monkeypatch):
        """No stage runs Newton from two starts that are mirror images to
        1e-9, relative and cut by cut: the second takes the reflection of
        the first run, also where both extend one seed book and that run
        found a critical point (the sweep has eight such twins)."""
        family, marginal = make_normal_normal(2.0)
        runs, twins = {}, []
        newton, mirrors = estimator.newton_solve, estimator._mirrors

        def recording_newton(family, marginal, initial, **kwargs):
            runs[tuple(initial)] = newton(family, marginal, initial, **kwargs)
            return runs[tuple(initial)]

        def recording_mirrors(start, other):
            if mirrors(start, other):
                twins.append((start, other))
                return True
            return False

        monkeypatch.setattr(estimator, "newton_solve", recording_newton)
        monkeypatch.setattr(estimator, "_mirrors", recording_mirrors)
        solve_sweep(family, marginal, 16)
        for one, other in itertools.combinations(runs, 2):  # a start's length is its stage
            assert not (len(one) == len(other) and mirrors(one, other)), (one, other)
        # the right and the left extension of one seed book, the first run critical
        assert any(
            (start[1:] == other[:-1] or start[:-1] == other[1:])
            and runs[other].classification != NOT_CRITICAL for start, other in twins)


def _lattice(n):
    """The rescue's start for the normal pair, whose data variance is 1."""
    return tuple([(j - (n + 1) / 2) * math.sqrt(12.0) for j in range(1, n + 1)])


class TestRescue:
    """A mirror-symmetric stage whose Newton runs keep nothing runs one more
    start, the lattice a_j = (j - (n+1)/2) sqrt(12 v(0)), when it lies
    inside the support."""

    @pytest.mark.parametrize("alpha,n_max,rescued", [
        (1.5, 8, [2]), (2.2, 6, [5]), (2.0, 16, []), (10.0, 42, [40, 41, 42]),
    ], ids=["alpha1.5", "alpha2.2", "alpha2", "alpha10"])
    def test_one_lattice_run_where_a_stage_kept_nothing(self, alpha, n_max, rescued,
                                                        monkeypatch):
        """Only a stage that ran Newton and kept nothing runs the lattice,
        once, after its own runs, and keeps what that run keeps (at alpha
        2.2, n=5 the lattice ends on a saddle, so that stage stays empty)."""
        family, marginal = make_normal_normal(alpha)
        runs = []
        newton = estimator.newton_solve

        def recording_newton(family, marginal, initial, **kwargs):
            runs.append((tuple(initial), newton(family, marginal, initial, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(estimator, "newton_solve", recording_newton)
        stages = solve_sweep(family, marginal, n_max)
        found = []
        for n, kept in stages.items():
            ours = [(start, report) for start, report in runs if len(start) == n]
            rescue = (len(ours) >= 2 and ours[-1][0] == _lattice(n)
                      and not any(report.kept for _, report in ours[:-1]))
            continuation = ours[:-1] if rescue else ours
            assert rescue == (bool(continuation) and not any(
                report.kept for _, report in continuation)), n
            if rescue:
                found.append(n)
                assert [r.cuts for r in kept] == [r.cuts for r in _dedup_sorted([ours[-1][1]])]
        assert found == rescued

    def test_lattice_outside_the_support_is_not_run(self, monkeypatch):
        """No SupportError escapes where the lattice leaves the support.  The
        pair is the prior sd 2 normal truncated to (-3.2, 3.2).  Its scans
        find no root beyond the one-cut book, as the residual does not rise
        again before the support ends, so the root there is set at +-1.5.
        Stages 2 and 3 then run only saddles; stage 2's lattice (+-sqrt 3)
        is run, and stage 3's, with outer cuts at +-sqrt 12, is not."""
        family, normal = make_normal_normal(2.0)
        edge = 3.2
        dist = statistics.NormalDist(0.0, BETA)
        tail = dist.cdf(-edge)
        log_z = math.log1p(-2.0 * tail)

        def closed_form(lo, hi):
            exact = normal.closed_form(lo, hi)
            return exact and (exact[0] - log_z, exact[1])

        marginal = dataclasses.replace(
            normal, support_lo=-edge, support_hi=edge, closed_form=closed_form,
            log_pdf=lambda x: normal.log_pdf(x) - log_z,
            quantile=lambda p: dist.inv_cdf(tail + p * (1.0 - 2.0 * tail)),
            entropy=None, carrier_constant=None, name="truncated-normal")
        assert marginal.mirror_symmetric
        starts = []
        outward_root, newton = estimator._outward_root, estimator.newton_solve

        def set_root(family, marginal, outer, side):
            return side * 1.5 if outer == (0.0,) else outward_root(family, marginal, outer, side)

        def recording_newton(family, marginal, initial, **kwargs):
            starts.append(tuple(initial))
            return newton(family, marginal, initial, **kwargs)

        monkeypatch.setattr(estimator, "_outward_root", set_root)
        monkeypatch.setattr(estimator, "newton_solve", recording_newton)
        stages = solve_sweep(family, marginal, 3)
        assert ([r.cuts for r in stages[1]], stages[2], stages[3]) == ([(0.0,)], [], [])
        assert starts == [(0.0,), (0.0, 1.5), _lattice(2), (-1.5, 0.0, 1.5)]
        with pytest.raises(SupportError):
            newton(family, marginal, _lattice(3))


def _report_bits(report):
    """Every field of a report, each float by float.hex."""
    return (*_book_bits(report.codebook), report.classification, report.diagnostic,
            report.at_floor, *map(_hex, (
                (report.message_length, report.entropy), report.continuity_gaps,
                report.grad_norm_trace)))


class TestSeedRecords:
    """Every build of a sweep reads and fills one interval cache."""

    @pytest.mark.parametrize("pair,n_max,solver_integrals", [
        (make_normal_normal(2.0), 16, 496),
        (make_exponential_gamma(2.0, 1.0), 5, 64),
    ], ids=["nn", "eg"])
    def test_solver_integrals_per_sweep(self, pair, n_max, solver_integrals, monkeypatch):
        """The solver-tolerance interval integrals of a sweep, none of them
        twice: integrating every interval of every build made 1 705 and 74,
        and the seed books' records of one stage 1 042 and 64.  The normal
        sweep made 805 while it solved both images of each mirror pair, and
        797 while its reflected reports left their intervals out of the
        cache, so a later build of a reflected book's cut integrated them,
        775 while it solved the mirror twin of a stalled run from the same
        seed book (29 builds) instead of reflecting it, and 635 while it
        solved the mirror twin of a critical run from the same seed book
        instead of reflecting it."""
        calls = []
        integrals = estimator.interval_integrals

        def counted(marginal, lo, hi, **kwargs):
            if "rel_tol" not in kwargs:  # the scans pass their looser tolerance
                calls.append((lo, hi))
            return integrals(marginal, lo, hi, **kwargs)

        monkeypatch.setattr(estimator, "interval_integrals", counted)
        solve_sweep(*pair, n_max)
        assert len(calls) == len(set(calls)) == solver_integrals

    def test_no_state_between_sweeps(self, nn, eg):
        """A sweep gives the same reports when repeated, and after a sweep
        of the other model."""
        def sweep(pair, n_max):
            return {n: [_report_bits(r) for r in reps]
                    for n, reps in solve_sweep(*pair, n_max).items()}

        normal, lomax = sweep(nn, 8), sweep(eg, 5)
        assert sweep(nn, 8) == normal
        assert sweep(eg, 5) == lomax
        assert sweep(nn, 8) == normal


def _error_bar(family, marginal, book):
    """e2 = max(|J^-1| (|G| + 8 ulp of the largest term of G_j)), with J^-1
    formed densely: how far a book may lie from the stationary book it
    stands for, counting the rounding of G as well as its size."""
    lq, th, lp = book.log_q, book.theta_hat, book.log_partition
    rounding = [
        8.0 * math.ulp(max(abs(q1), abs(x * t1), abs(p1), abs(q0), abs(x * t0), abs(p0)))
        for x, q0, q1, t0, t1, p0, p1 in zip(book.cuts, lq, lq[1:], th, th[1:], lp, lp[1:])
    ]
    inverse = np.linalg.inv(jacobian(family, marginal, book).to_dense())
    noise = np.abs(gradient(family, marginal, book)) + rounding
    return float(np.max(np.abs(inverse) @ noise))


def _sweep_with_mills_pair(pair, monkeypatch, n_max=16):
    """The normal alpha=2 sweep with `pair` as the Mills pair: each stage's
    kept reports, each with its error bar."""
    with monkeypatch.context() as patch:
        patch.setattr(families, "_mills_pair", pair)
        family, marginal = make_normal_normal(2.0)
        return {n: [(r, _error_bar(family, marginal, r.codebook)) for r in reps]
                for n, reps in solve_sweep(family, marginal, n_max).items()}


def _disagreements(ours, theirs):
    """Stages where the best book of one sweep lies farther than the sum of
    the two error bars from every kept book of the other, in either mirror
    orientation, or where the best redundancies differ by 1e-12 or more."""
    def near(a, bar, kept):
        mirror = tuple(-x for x in reversed(a))
        return any(
            max(map(abs, map(sub, c, r.cuts))) <= bar + other_bar
            for r, other_bar in kept for c in (a, mirror))

    found = []
    for n in ours:
        if not (ours[n] and theirs[n]):
            found.append((n, "a stage without minima"))
            continue
        for one, other in ((ours[n], theirs[n]), (theirs[n], ours[n])):
            best, bar = one[0]
            if not near(best.cuts, bar, other):
                found.append((n, best.cuts))
        moved = abs(ours[n][0][0].redundancy - theirs[n][0][0].redundancy)
        if not moved < 1e-12:
            found.append((n, moved))
    return found


class TestMillsPairNumerics:
    def test_books_within_error_bars_of_erfcx_books(self, erfcx_mills_pair, monkeypatch):
        """The continued-fraction Mills pair changes last bits only: on the
        normal alpha=2 n <= 16 sweep every stage's best book lies within the
        two error bars of a book the erfcx pair keeps, and the other way
        round, and the best redundancies agree to 1e-12.  The check sees R
        perturbed by 1e-9."""
        pair = families._mills_pair
        ours = _sweep_with_mills_pair(pair, monkeypatch)
        assert _disagreements(ours, _sweep_with_mills_pair(erfcx_mills_pair, monkeypatch)) == []

        def perturbed(z):
            r, h = pair(z)
            return r * (1.0 + 1e-9), h

        assert _disagreements(ours, _sweep_with_mills_pair(perturbed, monkeypatch))


def _minimum(cuts, length):
    """A converged local-minimum report carrying only cuts and length."""
    zeros = (0.0,) * (len(cuts) + 1)
    book = CodeBook(tuple(cuts), zeros, zeros, zeros, zeros)
    return SolveReport(
        codebook=book, message_length=length, entropy=0.0,
        classification=LOCAL_MINIMUM, continuity_gaps=zeros[1:], grad_norm_trace=(0.0,),
    )


class TestDedupOrder:
    LENGTH = 2.7
    COMPACT = (-2.0, -1.0, 1.0, 2.0)
    LEFT_HEAVY = (-3.0, -1.0, 1.0, 2.0)
    RIGHT_HEAVY = (-2.0, -1.0, 1.0, 3.0)

    def test_one_ulp_does_not_reorder_ties(self):
        """Lengths 1 ulp apart are ties, ordered most compact first, and a
        second run of ties 5e-7 worse keeps its own fixed order."""
        ulp = math.ulp(self.LENGTH)
        second = self.LENGTH + 5e-7
        orders = set()
        for shifts in itertools.permutations((-1, 0, 1)):
            reports = [
                _minimum(cuts, self.LENGTH + k * ulp)
                for cuts, k in zip((self.LEFT_HEAVY, self.COMPACT, self.RIGHT_HEAVY), shifts)
            ]
            reports += [_minimum((-4.0, -1.0, 1.0, 4.0), second + shifts[0] * ulp),
                        _minimum((-3.5, -1.0, 1.0, 5.0), second - shifts[0] * ulp)]
            orders.add(tuple(r.cuts for r in _dedup_sorted(reports)))
        assert len(orders) == 1
        (order,) = orders
        assert order[0] == self.COMPACT
        assert order[3:] == ((-4.0, -1.0, 1.0, 4.0), (-3.5, -1.0, 1.0, 5.0))

    def test_keeps_floor_minima(self):
        unconverged = (1e-9,)  # above _TOL, below the classification threshold
        floor = dataclasses.replace(
            _minimum(self.COMPACT, self.LENGTH), grad_norm_trace=unconverged, at_floor=True)
        stalled = dataclasses.replace(
            _minimum(self.LEFT_HEAVY, self.LENGTH), grad_norm_trace=unconverged)
        assert [r.cuts for r in _dedup_sorted([floor, stalled])] == [self.COMPACT]

    def test_zero_cut_reports(self, nn):
        """Zero-cut books tie on the key (0, ()) and are 0 apart, so a
        repeat is dropped."""
        zero = newton_solve(*nn, [])
        assert _dedup_sorted([zero, zero]) == [zero]

    def test_distinct_minima_sort_by_length(self):
        compact = _minimum(self.COMPACT, self.LENGTH + 5e-7)
        lopsided = _minimum(self.LEFT_HEAVY, self.LENGTH)
        assert [r.cuts for r in _dedup_sorted([compact, lopsided])] == [
            self.LEFT_HEAVY, self.COMPACT]


class TestContinuityGaps:
    def test_equals_gradient_magnitude(self, nn):
        """|G| is the size of the jump of the code density that the curves show."""
        family, marginal = nn
        rng = np.random.default_rng(23)
        for cuts in _random_configs(marginal, rng, 5):
            book = codebook_from_cutpoints(family, marginal, cuts)
            gaps = np.abs(gradient(family, marginal, book))
            np.testing.assert_allclose(
                gaps, np.abs(log_code_jumps(family, marginal, book)), atol=1e-12)

    def test_zero_at_symmetric_cut(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        assert gradient(family, marginal, book)[0] == 0.0

    def test_small_at_converged_solutions(self, nn_sweep6):
        for reports in nn_sweep6.values():
            for rep in reports:
                assert max(rep.continuity_gaps) <= 10 * estimator._TOL


class TestCurveSamples:
    def test_two_part_density_continuous_across_cuts(self, nn, nn_sweep6):
        family, marginal = nn
        best = nn_sweep6[6][0]
        for cut in best.cuts:
            table = curve_samples(family, marginal, best.codebook, cut - 1e-9, cut + 1e-9, 2)
            assert abs(table.two_part[1] - table.two_part[0]) <= 1e-6

    def test_tail_decay(self, nn, nn_sweep6):
        family, marginal = nn
        best = nn_sweep6[6][0]
        table = curve_samples(family, marginal, best.codebook, 30.0, 45.0, 50)
        assert np.all(np.abs(table.one_part) < 1e-30)
        assert np.all(np.abs(table.two_part) < 1e-30)
        assert np.all(table.density < 1e-30)
        assert abs(table.one_part[-1]) < 1e-80 and table.density[-1] < 1e-80

    def test_trapezoid_integrals_match(self, nn, nn_sweep6):
        """Trapezoid sums of the sampled densities reproduce both code
        lengths; the length and entropy functions act as the oracle."""
        family, marginal = nn
        best = nn_sweep6[6][0]
        table = curve_samples(family, marginal, best.codebook, -25.0, 30.0, 6001)
        one = trapezoid(table.one_part, table.x)
        two = trapezoid(table.two_part, table.x)
        assert one == pytest.approx(marginal_entropy(marginal), abs=1e-3)
        assert two == pytest.approx(best.message_length, abs=1e-3)

    def test_interval_membership_is_right_closed(self, nn, nn_sweep6):
        family, marginal = nn
        best = nn_sweep6[6][0]
        cut = best.cuts[2]
        table = curve_samples(family, marginal, best.codebook, cut, cut + 1e-12, 2)
        # x exactly at a cut belongs to the interval on its right
        lq = best.codebook.log_q
        th = best.codebook.theta_hat
        lp = family.log_partition(th[3])
        expected = -table.density[0] * (
            lq[3] + cut * th[3] - lp + float(family.log_carrier(cut))
        )
        assert table.two_part[0] == pytest.approx(expected, rel=1e-12)

    def test_argument_validation(self, nn, nn_sweep6):
        family, marginal = nn
        best = nn_sweep6[6][0]
        with pytest.raises(ValueError):
            curve_samples(family, marginal, best.codebook, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            curve_samples(family, marginal, best.codebook, 0.0, 1.0, 1)


class TestGlobalStructure:
    def test_mirror_symmetry_of_solutions(self, nn, nn_sweep6):
        family, marginal = nn
        rep = nn_sweep6[4][0]
        mirrored = sorted(-c for c in rep.cuts)
        mrep = newton_solve(family, marginal, mirrored)
        assert mrep.converged
        assert mrep.message_length == pytest.approx(rep.message_length, abs=1e-10)

    def test_best_length_non_increasing(self, nn_sweep6, eg_sweep5):
        for sweep in (nn_sweep6, eg_sweep5):
            lengths = [sweep[n][0].message_length for n in sorted(sweep)]
            for a, b in zip(lengths, lengths[1:]):
                assert b <= a + 1e-10
