import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from smml1d import (
    LOCAL_MINIMUM,
    NOT_CRITICAL,
    SADDLE,
    CodeBook,
    CutPointVector,
    SolveReport,
    SolverOptions,
    SupportError,
    Tridiagonal,
    classify_critical_point,
    codebook_from_cutpoints,
    continuity_gaps,
    curve_samples,
    gradient,
    jacobian,
    make_normal_normal,
    marginal_entropy,
    message_length,
    multi_start_solve,
    newton_solve,
)
from smml1d import estimator
from smml1d.checks import gradient_fd, length_fd, log_code_jumps, separated_cuts
from smml1d.estimator import _dedup_sorted, _solve_tridiagonal, solve_sweep

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
# tol=1e-12 (the other stalls at |G| = 3.6e-12), so that book is easy to lose.
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


@pytest.fixture(scope="module")
def nn_sweep6(nn):
    family, marginal = nn
    return solve_sweep(family, marginal, 1, 6)


@pytest.fixture(scope="module")
def eg_sweep5(eg):
    family, marginal = eg
    return solve_sweep(family, marginal, 1, 5)


@pytest.fixture(scope="module")
def nn_sweep16(normal_sweep16):
    return normal_sweep16[0]


@pytest.fixture(scope="module")
def nn_alpha1_sweep8():
    family, marginal = make_normal_normal(1.0)
    return solve_sweep(family, marginal, 1, 8)


@pytest.fixture(scope="module")
def nn_alpha3_sweep8():
    family, marginal = make_normal_normal(3.0)
    return solve_sweep(family, marginal, 1, 8)


def _random_configs(marginal, rng, count, n_range=(1, 5)):
    """Well-separated random cut-point sets drawn through the quantile map."""
    return [separated_cuts(marginal, rng, *n_range) for _ in range(count)]


class TestCutPointVector:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CutPointVector((1.0, 1.0))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            CutPointVector((2.0, 1.0))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            CutPointVector(())
        with pytest.raises(ValueError):
            CutPointVector((0.0, math.inf))


class TestCodeBook:
    def test_single_cut_at_zero(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        assert book.log_q[0] == pytest.approx(math.log(0.5), abs=1e-13)
        assert book.log_q[1] == pytest.approx(math.log(0.5), abs=1e-13)
        assert book.theta_hat[1] == pytest.approx(HALF_NORMAL_MEAN, rel=1e-12)
        assert book.theta_hat[0] == -book.theta_hat[1]

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

    def test_invalid_cuts(self, nn, eg):
        family, marginal = nn
        with pytest.raises(ValueError):
            codebook_from_cutpoints(family, marginal, [1.0, 1.0])
        family_e, marginal_e = eg
        with pytest.raises(SupportError):
            codebook_from_cutpoints(family_e, marginal_e, [-1.0, 2.0])


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

    def test_converged_respects_tolerance_field(self, nn):
        family, marginal = nn
        opts = SolverOptions(tol=1e-10)
        report = newton_solve(family, marginal, [-2.2, 1.8], opts)
        assert report.converged
        assert report.final_grad_norm <= 1e-10
        assert report.grad_norm_trace[-1] == report.final_grad_norm

    def test_unattainable_tolerance_reports_failure(self, nn):
        family, marginal = nn
        opts = SolverOptions(tol=1e-18, max_iter=40)
        report = newton_solve(family, marginal, [-2.2, 1.8], opts)
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

        def counting_build(*args):
            nonlocal builds
            builds += 1
            return build(*args)

        monkeypatch.setattr("smml1d.estimator.codebook_from_cutpoints", counting_build)
        report = newton_solve(family, marginal, start)
        assert not report.converged
        assert report.classification == NOT_CRITICAL
        assert report.diagnostic.startswith("stalled at iteration")
        assert builds <= 40

    def test_max_iter_run_names_its_stop(self, nn):
        family, marginal = nn
        report = newton_solve(family, marginal, [-2.2, 1.8], SolverOptions(max_iter=1))
        assert not report.converged and report.iterations == 1
        assert report.diagnostic == (
            f"reached max_iter=1 (gradient norm {report.final_grad_norm:.3e})")

    def test_step_matches_solve_banded(self):
        """The direct dgtsv call gives scipy.linalg.solve_banded's solution bit
        for bit, also where a zero leading diagonal forces a row swap, and
        leaves J and the right-hand side as they were."""
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
                J = Tridiagonal(sub=sub.copy(), diag=diag.copy(), sup=sup.copy())
                got = _solve_tridiagonal(J, rhs.copy())
                assert got.shape == (n,) and got.tobytes() == expected.tobytes(), (n, zero_lead)
                for kept, orig in ((J.sub, sub), (J.diag, diag), (J.sup, sup)):
                    assert kept.tobytes() == orig.tobytes()

    def test_singular_system_raises(self):
        J = Tridiagonal(sub=np.array([1.0]), diag=np.array([1.0, 1.0]), sup=np.array([1.0]))
        with pytest.raises(np.linalg.LinAlgError):
            _solve_tridiagonal(J, np.array([1.0, 2.0]))

    def test_singular_jacobian_ends_run(self, nn, monkeypatch):
        family, marginal = nn

        def zero_jacobian(family, marginal, codebook):
            n = codebook.n
            return Tridiagonal(sub=np.zeros(n - 1), diag=np.zeros(n), sup=np.zeros(n - 1))

        monkeypatch.setattr("smml1d.estimator.jacobian", zero_jacobian)
        report = newton_solve(family, marginal, [-2.2, 1.8])
        assert not report.converged and report.iterations == 0
        assert report.diagnostic.startswith("singular tridiagonal system at iteration 0")

    def test_infeasible_start_raises(self, nn):
        family, marginal = nn
        with pytest.raises(ValueError):
            newton_solve(family, marginal, [1.0, 1.0])

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
        """The direct dstevd call gives scipy.linalg.eigvalsh_tridiagonal's
        spectrum bit for bit, on indefinite and on positive definite J."""
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        spectra = []
        dstevd = estimator.dstevd

        def recording_dstevd(*args, **kwargs):
            out = dstevd(*args, **kwargs)
            spectra.append(out[0].copy())
            return out

        monkeypatch.setattr("smml1d.estimator.dstevd", recording_dstevd)
        rng = np.random.default_rng(1302)
        for n in range(2, 18):
            indefinite = rng.normal(size=n)
            indefinite[0], indefinite[-1] = -1.0 - abs(indefinite[0]), 1.0 + abs(indefinite[-1])
            dominant = 2.5 + rng.uniform(size=n)  # Gershgorin: every eigenvalue > 0.5
            for diag, off, kind in ((indefinite, rng.normal(size=n - 1), SADDLE),
                                    (dominant, rng.uniform(-1.0, 1.0, n - 1), LOCAL_MINIMUM)):
                J = Tridiagonal(sub=off, diag=diag, sup=off)
                monkeypatch.setattr("smml1d.estimator.jacobian", lambda *_, J=J: J)
                assert classify_critical_point(family, marginal, book, 0.0) == kind
                expected = scipy.linalg.eigvalsh_tridiagonal(diag, off)
                assert spectra[-1].tobytes() == expected.tobytes(), (n, kind)

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

    def test_matches_single_call(self, eg):
        family, marginal = eg
        direct = multi_start_solve(family, marginal, 2)
        assert len(direct) == 1
        np.testing.assert_allclose(direct[0].cuts, [4.42187055929, 80.5547698108], rtol=1e-9)

    def test_rejects_bad_n(self, nn):
        family, marginal = nn
        with pytest.raises(ValueError):
            multi_start_solve(family, marginal, 0)

    @pytest.mark.parametrize("sweep,minima", [
        ("nn_sweep16", NORMAL_MINIMA),
        ("eg_sweep5", EXP_MINIMA),
        ("nn_alpha1_sweep8", ALPHA1_MINIMA),
        ("nn_alpha3_sweep8", ALPHA3_MINIMA),
    ], ids=["nn", "eg", "nn-alpha1", "nn-alpha3"])
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
        stages = solve_sweep(family, dataclasses.replace(marginal, closed_form=None), 1, 6)
        for n in range(1, 7):
            assert stages[n][0].redundancy == pytest.approx(nn_sweep6[n][0].redundancy, abs=1e-12)


def _minimum(cuts, length):
    """A converged local-minimum report carrying only cuts and length."""
    zeros = (0.0,) * (len(cuts) + 1)
    book = CodeBook(CutPointVector(tuple(cuts)), zeros, zeros, zeros)
    return SolveReport(
        codebook=book, message_length=length, entropy=0.0, redundancy=length,
        converged=True, iterations=0, final_grad_norm=0.0,
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
            gaps = continuity_gaps(family, marginal, book)
            np.testing.assert_allclose(
                gaps, np.abs(log_code_jumps(family, marginal, book)), atol=1e-12)

    def test_zero_at_symmetric_cut(self, nn):
        family, marginal = nn
        book = codebook_from_cutpoints(family, marginal, [0.0])
        assert continuity_gaps(family, marginal, book)[0] == 0.0

    def test_small_at_converged_solutions(self, nn_sweep6):
        for reports in nn_sweep6.values():
            for rep in reports:
                assert max(rep.continuity_gaps) <= 10 * SolverOptions().tol


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
        one = np.trapezoid(table.one_part, table.x)
        two = np.trapezoid(table.two_part, table.x)
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
