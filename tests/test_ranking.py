"""Tests for counting scores, ranking error, and the normal-limit
predictors, against hand oracles and exact enumeration."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from ordrank.data import dataset_from_csv
from ordrank.model import (
    CorruptDataError,
    OrdinalModel,
    PatternDistribution,
    StrengthLink,
)
from ordrank.ranking import (
    ComparisonDataset,
    PreferenceVector,
    asymptotic_tau,
    asymptotic_two_item,
    count_scores,
    expected_scores,
    kendall_tau,
)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def enumerate_two_item(model: OrdinalModel, gamma: float, L: int):
    """Exact P(A > 0), P(B > 0) by enumerating all (2K)^L outcome
    sequences."""
    values, probs = model.pmf_table(gamma)
    p_raw = p_sign = 0.0
    for seq in itertools.product(range(values.size), repeat=L):
        prob = math.prod(probs[i] for i in seq)
        total = sum(int(values[i]) for i in seq)
        signs = sum(1 if values[i] > 0 else -1 for i in seq)
        if total > 0:
            p_raw += prob
        if signs > 0:
            p_sign += prob
    return p_raw, p_sign


def comparisons_csv(outcomes) -> str:
    """``i,j,l,y`` text of per-pair outcome arrays, rounds one-based."""
    rows = ["i,j,l,y"] + [f"{i},{j},{l},{y}" for (i, j), ys in sorted(outcomes.items())
                          for l, y in enumerate(ys, start=1)]
    return "\n".join(rows) + "\n"


class TestPreferenceVector:
    def test_equally_spaced(self):
        theta = PreferenceVector.equally_spaced(10, 0.05)
        arr = np.asarray(theta.theta)
        assert abs(arr.sum()) < 1e-12
        np.testing.assert_allclose(np.diff(arr), -0.05, rtol=1e-12)

    @pytest.mark.parametrize("build", [lambda: PreferenceVector((0.3,)),
                                       lambda: PreferenceVector.equally_spaced(1, 0.1)],
                             ids=["theta", "equally-spaced"])
    def test_one_item_has_no_pairs(self, build):
        theta = build()
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        for call in (theta.pairs, lambda: kendall_tau([0.0], theta),
                     lambda: asymptotic_tau(m, theta, 10)):
            with pytest.raises(ValueError, match="need at least two items"):
                call()


def dataset(outcomes, n: int):
    """``dataset_from_csv`` of per-pair outcome arrays, through their CSV text."""
    return dataset_from_csv(comparisons_csv(outcomes), n=n)


def pair_sums(data) -> dict:
    """{(i, j): (raw sum, sign sum)} of a dataset, as Python ints."""
    return {(int(i), int(j)): (int(r), int(b))
            for i, j, r, b in zip(data.first, data.second, data.raw, data.sign)}


class TestCountScores:
    def test_two_items_reduce_to_pair_metric(self):
        scores = count_scores(dataset({(0, 1): [2, -1, 3]}, n=2))
        a = np.mean([2, -1, 3])
        assert scores.ordinal_scores[0] == pytest.approx(a)
        assert scores.ordinal_scores[1] == pytest.approx(-a)

    def test_three_item_hand_sum(self):
        # y01=2, y02=1, y12=-3 at L=1: raw sums (3, -5, 2)
        scores = count_scores(dataset({(0, 1): [2], (0, 2): [1], (1, 2): [-3]}, n=3))
        assert scores.ordinal_totals.tolist() == [3, -5, 2]
        assert scores.binary_totals.tolist() == [2, -2, 0]
        assert sum(scores.ordinal_totals) == 0
        assert sum(scores.binary_totals) == 0

    def test_maximal_binary_score(self):
        n, L = 5, 4
        scores = count_scores(dataset({(0, j): [1] * L for j in range(1, n)}, n=n))
        assert scores.binary_scores[0] == n - 1

    def test_zero_sum_exact_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            L = int(rng.integers(1, 12))
            outcomes = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.8:  # incomplete graphs allowed
                        outcomes[(i, j)] = rng.choice(
                            [-4, -3, -2, -1, 1, 2, 3, 4], size=L)
            if not outcomes:
                continue
            scores = count_scores(dataset(outcomes, n=n))
            assert sum(scores.ordinal_totals) == 0
            assert sum(scores.binary_totals) == 0
            assert np.all(np.abs(scores.binary_scores) <= n - 1)
            assert np.all(np.abs(scores.ordinal_scores) <= 4 * (n - 1))

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(4)
        n, L = 5, 6
        outcomes = {(i, j): rng.choice([-2, -1, 1, 2], size=L)
                    for i in range(n) for j in range(i + 1, n)}
        perm = rng.permutation(n)
        relabeled = {}
        for (i, j), ys in outcomes.items():
            a, b = int(perm[i]), int(perm[j])
            relabeled[(a, b) if a < b else (b, a)] = ys if a < b else -ys
        scores = count_scores(dataset(outcomes, n=n))
        scores_p = count_scores(dataset(relabeled, n=n))
        for i in range(n):
            assert scores.ordinal_totals[i] == scores_p.ordinal_totals[perm[i]]
        theta = PreferenceVector.equally_spaced(n, 0.1)
        theta_p = PreferenceVector(tuple(np.asarray(theta.theta)[np.argsort(perm)]))
        assert kendall_tau(scores.ordinal_scores, theta) == pytest.approx(
            kendall_tau(scores_p.ordinal_scores, theta_p))

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_batch_equals_row_by_row(self, dtype):
        rng = np.random.default_rng(5)
        n, reps = 6, 7
        first, second = np.triu_indices(n, k=1)
        keep = rng.random(first.size) < 0.7  # an incomplete graph
        first, second = first[keep], second[keep]
        raw = rng.integers(-40, 41, size=(reps, first.size)).astype(dtype)
        sign = rng.integers(-8, 9, size=(reps, first.size)).astype(dtype)
        batch = count_scores(ComparisonDataset(n, 8, first, second, raw, sign))
        assert batch.ordinal_totals.shape == batch.binary_totals.shape == (reps, n)
        assert batch.ordinal_totals.dtype == batch.binary_totals.dtype == np.dtype(dtype)
        for r in range(reps):
            row = count_scores(ComparisonDataset(n, 8, first, second, raw[r], sign[r]))
            assert batch.ordinal_totals[r].tolist() == row.ordinal_totals.tolist()
            assert batch.binary_totals[r].tolist() == row.binary_totals.tolist()

    @pytest.mark.parametrize("first,second,raw,match", [
        ([0, 1], [1, 3], [[2, 1]], "bad pair \\(1, 3\\) for n=3"),
        ([1], [0], [[2]], "bad pair \\(1, 0\\) for n=3"),
        ([-1], [2], [[2]], "bad pair \\(-1, 2\\) for n=3"),
    ])
    def test_dataset_refuses_bad_pairs(self, first, second, raw, match):
        with pytest.raises(ValueError, match=match):
            ComparisonDataset(3, 2, np.array(first), np.array(second),
                              np.array(raw), np.array(raw))

    @pytest.mark.parametrize("n,rounds", [(1, 2), (3, 0)])
    def test_dataset_refuses_one_item_or_no_rounds(self, n, rounds):
        with pytest.raises(ValueError, match="^need n >= 2 items and at least one round$"):
            ComparisonDataset(n, rounds, np.array([0]), np.array([1]),
                              np.array([[2]]), np.array([[1]]))

    @pytest.mark.parametrize("first,second,raw,sign", [
        ([0], [1, 2], [[2]], [[1]]),       # pair arrays of unequal length
        ([0, 1], [1, 2], [[2]], [[1]]),    # one sum for two pairs
        ([0], [1], [[2]], [[1, 1]]),       # raw and sign sums disagree
        ([[0]], [[1]], [[2]], [[1]]),      # pair arrays that are not 1-d
        ([0], [1], 2, 1),                  # sums with no pair axis
    ])
    def test_dataset_refuses_mismatched_shapes(self, first, second, raw, sign):
        with pytest.raises(ValueError, match="do not match sums of shapes"):
            ComparisonDataset(3, 2, first, second, np.array(raw), np.array(sign))

    def test_dataset_takes_lists(self):
        scores = count_scores(ComparisonDataset(3, 1, [0], [2], [5], [1]))
        assert scores.ordinal_totals.tolist() == [5, 0, -5]
        assert scores.binary_totals.tolist() == [1, 0, -1]

    def test_sparse_file_over_many_items_scores_in_pair_memory(self):
        # 40 pairs among 200,000 items: a pair-by-item matrix would take
        # 64 MB, while the totals take a few n-vectors
        n = 200_000
        rng = np.random.default_rng(11)
        outcomes = {(min(a, b), max(a, b)): rng.choice([-2, -1, 1, 2], size=3)
                    for a, b in rng.choice(n, size=(40, 2), replace=False).tolist()}
        data = dataset(outcomes, n=n)
        tracemalloc.start()
        try:
            scores = count_scores(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8
        expected = [0] * n
        for (i, j), ys in outcomes.items():
            expected[i] += int(ys.sum())
            expected[j] -= int(ys.sum())
        assert scores.ordinal_totals.tolist() == expected

    def test_zero_outcome_rejected(self):
        with pytest.raises(CorruptDataError, match=r"^pair \(0, 1\) contains a zero outcome$"):
            dataset_from_csv("i,j,l,y\n0,1,1,1\n0,1,2,0\n", n=2)


class TestKendallTau:
    THETA = PreferenceVector((0.3, 0.2, 0.1))

    def test_perfect(self):
        assert kendall_tau([3, 2, 1], self.THETA) == 0.0

    def test_reversed(self):
        assert kendall_tau([1, 2, 3], self.THETA) == 1.0

    def test_single_swap(self):
        assert kendall_tau([2, 3, 1], self.THETA) == pytest.approx(1 / 3)

    def test_score_ties_count_as_errors(self):
        assert kendall_tau([1, 1, 0], self.THETA) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], self.THETA)

    def test_batched_rows_match_scalar_calls(self):
        theta = PreferenceVector.equally_spaced(6, 0.1)
        rows = np.random.default_rng(3).integers(-3, 4, size=(200, 6))
        batched = kendall_tau(rows, theta)
        assert batched.shape == (200,)
        assert batched.tolist() == [kendall_tau(r, theta) for r in rows]


class TestExpectedScores:
    def test_all_equal_theta(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(3))
        s, st = expected_scores(m, PreferenceVector((0.2, 0.2, 0.2)))
        np.testing.assert_allclose(s, 0.0, atol=1e-15)
        np.testing.assert_allclose(st, 0.0, atol=1e-15)

    def test_two_item_closed_form(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        s, st = expected_scores(m, PreferenceVector((0.5, -0.5)))
        np.testing.assert_allclose(st, [math.tanh(1.0), -math.tanh(1.0)],
                                   rtol=1e-14)
        np.testing.assert_allclose(s, 1.5 * st, rtol=1e-14)

    def test_order_consistency_fuzz(self):
        rng = np.random.default_rng(5)
        kinds = ["identity", "cubic", "tanhsig"]
        for _ in range(200):
            n = int(rng.integers(2, 9))
            theta = PreferenceVector(tuple(rng.normal(size=n)))
            link = StrengthLink(str(rng.choice(kinds)),
                                scale=float(rng.uniform(0.2, 2.0)))
            pattern = PatternDistribution.from_psi(
                rng.uniform(-2, 1, int(rng.integers(1, 7))))
            s, st = expected_scores(OrdinalModel(link, pattern), theta)
            order = np.argsort(np.asarray(theta.theta))
            assert np.all(np.diff(np.asarray(s)[order]) > 0)
            assert np.all(np.diff(np.asarray(st)[order]) > 0)


class TestAsymptoticTwoItem:
    def test_identity_small_gap(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        p_sign, _ = asymptotic_two_item(m, 0.05, 100)
        assert p_sign == pytest.approx(normal_cdf(10 * math.sinh(0.05)),
                                       abs=1e-12)

    def test_degenerate_pattern_equalizes(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_weights([0, 1.0]))
        p_sign, p_raw = asymptotic_two_item(m, 3.0, 50)
        assert p_raw == pytest.approx(p_sign, abs=1e-12)

    def test_sign_never_worse_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            K = int(rng.integers(2, 7))
            m = OrdinalModel(
                StrengthLink(str(rng.choice(["identity", "tanhsig", "cubic"]))),
                PatternDistribution.from_psi(rng.uniform(-2, 1, K)))
            p_sign, p_raw = asymptotic_two_item(
                m, float(rng.uniform(0.01, 1.5)), int(rng.integers(1, 400)))
            assert p_sign >= p_raw - 1e-14
            if not m.pattern.is_degenerate() and p_sign < 1.0:
                assert p_sign > p_raw

    def test_gap_matches_snr_identity(self):
        # The raw z-score equals the sign z-score shrunk by the SNR factor.
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.1, 4))
        gamma, L = 0.05, 100
        phi = m.link(gamma)
        t = math.tanh(phi)
        snr = m.pattern.mean() ** 2 / m.pattern.variance()
        shrink = math.sqrt(1.0 + 1.0 / (snr * (1.0 - t * t)))
        p_sign, p_raw = asymptotic_two_item(m, gamma, L)
        assert p_raw == pytest.approx(
            normal_cdf(math.sqrt(L) * math.sinh(phi) / shrink), abs=1e-12)
        assert p_raw < p_sign

    def test_degenerate_saturated_link(self):
        # cubic at gamma = 5 gives phi = 125, where tanh rounds to 1: the
        # raw-sum limit once divided by sqrt(1 - tanh^2) = 0
        m = OrdinalModel(StrengthLink("cubic"), PatternDistribution.uniform(1))
        p_sign, p_raw = asymptotic_two_item(m, 5.0, 500)
        assert p_raw == p_sign == 1.0

    def test_orientation_required(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        with pytest.raises(ValueError):
            asymptotic_two_item(m, -0.1, 10)
        with pytest.raises(ValueError):
            asymptotic_two_item(m, 0.0, 10)

    def test_no_rounds_rejected(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        with pytest.raises(ValueError, match="^L must be >= 1$"):
            asymptotic_two_item(m, 0.1, 0)
        with pytest.raises(ValueError, match="^L must be >= 1$"):
            asymptotic_tau(m, PreferenceVector((0.1, 0.0)), 0)


class TestAsymptoticTau:
    def test_degenerate_pattern_limits_coincide(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_weights([0, 0, 1.0]))
        theta = PreferenceVector.equally_spaced(6, 0.1)
        tau_ord, tau_bin = asymptotic_tau(m, theta, 200)
        assert tau_ord == pytest.approx(tau_bin, rel=1e-12)

    def test_two_item_reduction(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.5, 3))
        gamma, L = 0.3, 150
        theta = PreferenceVector((gamma / 2, -gamma / 2))
        tau_ord, tau_bin = asymptotic_tau(m, theta, L)
        p_sign, p_raw = asymptotic_two_item(m, gamma, L)
        assert tau_ord == pytest.approx(1.0 - p_raw, rel=1e-10)
        assert tau_bin == pytest.approx(1.0 - p_sign, rel=1e-10)

    def test_matches_literal_displays(self):
        """Row-sum shortcut agrees with the direct per-pair sums."""
        rng = np.random.default_rng(7)
        m = OrdinalModel(StrengthLink("tanhsig"),
                         PatternDistribution.from_family("abs", 0.7, 4))
        theta = np.sort(rng.normal(size=6))[::-1]
        n = theta.size
        t = np.tanh(m.link(theta[:, None] - theta[None, :]))
        np.fill_diagonal(t, 0.0)
        inv_snr = m.pattern.variance() / m.pattern.mean() ** 2
        L = 300
        total_ord = total_bin = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                others = [k for k in range(n) if k not in (i, j)]
                d_bar = (2 * t[i, j] + sum(t[i, k] - t[j, k] for k in others)) / (2 * n)
                v_bar = (4 * t[i, j] ** 2
                         + sum(t[i, k] ** 2 + t[j, k] ** 2 for k in others)) / (2 * n)
                arg = math.sqrt(2 * n * L) * d_bar
                total_ord += normal_cdf(-arg / math.sqrt(inv_snr + 1 - v_bar))
                total_bin += normal_cdf(-arg / math.sqrt(1 - v_bar))
        pairs = n * (n - 1) / 2
        tau_ord, tau_bin = asymptotic_tau(
            m, PreferenceVector(tuple(theta)), L)
        assert tau_ord == pytest.approx(total_ord / pairs, rel=1e-12)
        assert tau_bin == pytest.approx(total_bin / pairs, rel=1e-12)

    def test_large_l_vanishes(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(3))
        theta = PreferenceVector.equally_spaced(5, 0.1)
        tau_ord, tau_bin = asymptotic_tau(m, theta, 10**6)
        assert tau_ord < 1e-6
        assert tau_bin < 1e-6

    def test_binary_below_ordinal(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.9, 4))
        theta = PreferenceVector.equally_spaced(10, 0.05)
        tau_ord, tau_bin = asymptotic_tau(m, theta, 500)
        assert tau_bin < tau_ord

    def test_tied_theta_rejected(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        with pytest.raises(ValueError):
            asymptotic_tau(m, PreferenceVector((0.1, 0.1, 0.0)), 10)

    @pytest.mark.parametrize("link", ["identity", "cubic", "tanhsig:3", "logitnorm"])
    def test_invariant_under_permutation(self, link):
        # theta's order only relabels the pairs; the row sums add in another
        # order, so the limits agree to rounding
        rng = np.random.default_rng(5)
        m = OrdinalModel(StrengthLink.from_spec(link),
                         PatternDistribution.from_family("abs", 0.4, 4))
        for _ in range(10):
            theta = rng.normal(size=int(rng.integers(2, 12)))
            want = asymptotic_tau(m, PreferenceVector(tuple(np.sort(theta)[::-1])), 200)
            got = asymptotic_tau(m, PreferenceVector(tuple(rng.permutation(theta))), 200)
            assert got == pytest.approx(want, rel=1e-12)


class TestEnumerationAgreement:
    """Monte-Carlo metrics versus exact enumeration on tiny configurations."""

    @pytest.mark.parametrize("K,L,gamma", [(1, 4, 0.4), (2, 4, 0.25), (2, 6, 0.5)])
    def test_small_cases(self, K, L, gamma):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.3, K)
                         if K > 1 else PatternDistribution.uniform(1))
        exact_raw, exact_sign = enumerate_two_item(m, gamma, L)
        reps = 10**5
        rng = np.random.default_rng(9)
        draws = m.sample(gamma, rng, reps * L).reshape(reps, L)
        hit_raw = np.mean(draws.sum(axis=1) > 0)
        hit_sign = np.mean(np.sign(draws).sum(axis=1) > 0)
        for est, exact in ((hit_raw, exact_raw), (hit_sign, exact_sign)):
            band = 4.0 * math.sqrt(exact * (1 - exact) / reps)
            assert abs(est - exact) < band


class TestDatasetCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        outcomes = {(i, j): rng.choice([-2, -1, 1, 2], size=3)
                    for i in range(4) for j in range(i + 1, 4)}
        again = dataset(outcomes, n=4)
        assert again.n == 4 and again.rounds == 3
        assert pair_sums(again) == {pair: (int(ys.sum()), int(np.sign(ys).sum()))
                                    for pair, ys in outcomes.items()}

    def test_reverse_orientation_rows(self):
        text = "i,j,l,y\n1,0,1,3\n0,1,2,-1\n"
        data = dataset_from_csv(text, n=2)
        assert pair_sums(data) == {(0, 1): (-4, -2)}

    def test_missing_pairs_accepted(self):
        text = "i,j,l,y\n0,1,1,2\n0,1,2,1\n"
        data = dataset_from_csv(text, n=3)
        assert pair_sums(data) == {(0, 1): (3, 2)}

    def test_malformed_row_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            dataset_from_csv("i,j,l,y\n0,1,1,2\n0,1,x,1\n", n=2)

    @pytest.mark.parametrize("row", ["0,1,2,1_0", "0,1,2,\u0663", "0,1,\uff12,1"])
    def test_field_rule_of_ingest(self, row):
        # int() reads 1_0 as 10 and U+0663 or U+FF12 as a digit; ingest
        # refuses them, and so does rank
        with pytest.raises(ValueError, match="line 3: malformed row"):
            dataset_from_csv(f"i,j,l,y\n0,1,1,2\n{row}\n", n=2)
        assert dataset_from_csv("i,j,l,y\n0,1,1, 2\n0,1,2,-3 \n", n=2).rounds == 2

    @pytest.mark.parametrize("row", ["0,1,2,99999999999999999999",
                                     "1,0,2,9223372036854775808"])
    def test_integer_outside_int64_reports_line(self, row):
        # the range is checked on each field as written, not once oriented
        with pytest.raises(ValueError, match="line 3: .* outside int64"):
            dataset_from_csv(f"i,j,l,y\n0,1,1,2\n{row}\n", n=2)

    @pytest.mark.parametrize("item", ["1", '"1"'], ids=["array-parse", "row-loop"])
    def test_flipped_int64_minimum_stays_exact(self, item):
        # oriented, y = -(-2**63) leaves int64, and the raw sum holds it exactly
        data = dataset_from_csv(f"i,j,l,y\n{item},0,1,-9223372036854775808\n", n=2)
        assert pair_sums(data) == {(0, 1): (2**63, 1)}
        assert type(data.raw[0]) is int

    def test_bad_header(self):
        with pytest.raises(ValueError):
            dataset_from_csv("a,b,c,d\n0,1,1,2\n", n=2)

    @pytest.mark.parametrize("rows,message", [
        ("0,1,1,2\n2,2,1,1\n0,1,2,1\n0,1,x,1\n", "line 3: self-comparison 2"),
        ("0,1,1,2\n0,1,2,1\n1,0,2,3\n0,2,1,1\n3,3,1,1\n", "line 4: duplicate round 2"),
    ], ids=["self-comparison-before-malformed", "duplicate-before-self-comparison"])
    def test_first_faulty_line_in_file_order(self, rows, message):
        # the array parse reads every row before any is checked, and a later
        # fault must not hide an earlier one
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            dataset_from_csv("i,j,l,y\n" + rows, n=4)
