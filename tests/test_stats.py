import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layercast import (
    DegenerateSampleError,
    InputError,
    PairedSample,
    compare_strategies,
    engagement_sample,
    load_engagement,
    summarize,
    wilcoxon_one_tailed,
)

from layercast.stats import _average_ranks, _exact_tail, _normal_tail

from oracles import wilcoxon_exact_brute


def sample_from_diffs(diffs):
    d = np.asarray(diffs, dtype=float)
    return PairedSample(x=d, y=np.zeros(len(d)))


def ranks_and_w_plus(diffs):
    """Average ranks of the nonzero differences and their W+, as wilcoxon_one_tailed has them."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = _average_ranks(np.abs(d))
    return ranks, float(ranks[d > 0].sum())


class TestPairedSample:
    def test_from_pairs(self):
        s = PairedSample.from_pairs([(1, 2), (3, 4)])
        assert s.x.tolist() == [1, 3]
        assert s.y.tolist() == [2, 4]

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            PairedSample(x=np.array([]), y=np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            PairedSample(x=np.array([1.0, np.nan]), y=np.array([0.0, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            PairedSample(x=np.array([1.0]), y=np.array([1.0, 2.0]))


class TestWilcoxon:
    def test_five_positive_pairs_exact(self):
        res = wilcoxon_one_tailed(sample_from_diffs([1, 2, 3, 4, 5]), "x_greater")
        assert res.method == "exact"
        assert res.p_one_tailed == pytest.approx(1 / 32)
        assert res.statistic == 15.0
        assert res.n_effective == 5

    def test_all_identical_pairs_degenerate(self):
        s = PairedSample(x=np.array([2.0, 2.0, 2.0]), y=np.array([2.0, 2.0, 2.0]))
        with pytest.raises(DegenerateSampleError):
            wilcoxon_one_tailed(s, "x_greater")

    def test_zero_differences_dropped(self):
        res = wilcoxon_one_tailed(sample_from_diffs([0, 0, 1, 2, 3]), "x_greater")
        assert res.n_effective == 3

    def test_invalid_alternative(self):
        with pytest.raises(InputError):
            wilcoxon_one_tailed(sample_from_diffs([1.0]), "greater")

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_matches_brute_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        diffs = np.round(rng.normal(0.2, 1.0, n), 1)  # rounding forces ties
        diffs = diffs[diffs != 0]
        if len(diffs) == 0:
            return
        for alt in ("x_less", "x_greater"):
            res = wilcoxon_one_tailed(sample_from_diffs(diffs), alt)
            assert res.method == "exact"
            assert res.p_one_tailed == pytest.approx(wilcoxon_exact_brute(diffs, alt), rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_and_normal_agree_in_the_bulk(self, seed):
        # relative agreement within 10% wherever the exact p is not extreme
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(20, 26))
        diffs = rng.normal(rng.uniform(-0.4, 0.4), 1.0, n)
        ranks, w_plus = ranks_and_w_plus(diffs)
        exact = _exact_tail(ranks, w_plus, "x_greater")
        approx = _normal_tail(ranks, w_plus, "x_greater")
        if 0.01 <= exact <= 0.99:
            assert abs(approx - exact) / exact <= 0.10

    def test_pair_order_invariance(self):
        rng = np.random.default_rng(3)
        d = rng.normal(0.3, 1.0, 30)
        s1 = sample_from_diffs(d)
        s2 = sample_from_diffs(d[rng.permutation(30)])
        a = wilcoxon_one_tailed(s1, "x_greater")
        b = wilcoxon_one_tailed(s2, "x_greater")
        assert a.p_one_tailed == b.p_one_tailed
        assert a.statistic == b.statistic

    def test_saturated_50_pair_floor(self):
        # uniformly positive differences: the one-sided minimum of the
        # normal-approximation variant, locked to the reference constant
        res = wilcoxon_one_tailed(sample_from_diffs(np.arange(1, 51)), "x_greater")
        assert res.method == "normal-approximation"
        assert res.p_one_tailed == pytest.approx(3.778465e-10, rel=1e-6)

    def test_auto_switches_method_at_25(self):
        small = wilcoxon_one_tailed(sample_from_diffs(np.arange(1, 26)), "x_greater")
        large = wilcoxon_one_tailed(sample_from_diffs(np.arange(1, 27)), "x_greater")
        assert small.method == "exact"
        assert large.method == "normal-approximation"

    def test_compare_strategies_delegates(self):
        rng = np.random.default_rng(8)
        base = rng.normal(10, 1, 40)
        better = base + abs(rng.normal(0.5, 0.2, 40))
        s = PairedSample(x=better, y=base)
        res = compare_strategies(s, "x_greater")
        assert res.p_one_tailed < 1e-6


class TestWithoutScipyStats:
    """Ranks and the normal tail are computed without ``scipy.stats``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_average_ranks_equal_rankdata(self, seed):
        from scipy.stats import rankdata

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        tied = np.abs(rng.integers(-20, 21, n) * rng.choice([1.0, 0.5, 0.25], n))
        for a in (tied, rng.random(n), np.full(n, 2.0)):
            assert _average_ranks(a).tobytes() == rankdata(a).tobytes()

    @pytest.mark.parametrize("alternative", ["x_less", "x_greater"])
    def test_normal_tail_matches_scipy(self, alternative):
        from scipy.stats import norm, rankdata

        rng = np.random.default_rng(5)
        for _ in range(50):
            d = np.round(rng.normal(rng.uniform(-0.5, 0.5), 1.0, 60), 1)
            got = _normal_tail(*ranks_and_w_plus(d), alternative)
            d = d[d != 0]
            r = rankdata(np.abs(d))
            n = len(d)
            _, t = np.unique(r, return_counts=True)
            var = n * (n + 1) * (2 * n + 1) / 24.0 - ((t**3 - t).sum()) / 48.0
            z = (r[d > 0].sum() - n * (n + 1) / 4.0) / np.sqrt(var)
            want = norm.sf(z) if alternative == "x_greater" else norm.cdf(z)
            assert got == pytest.approx(want, rel=1e-12)

    def test_battery_leaves_scipy_stats_unloaded(self):
        code = (
            "import sys\n"
            "from layercast import CentralityKind, CombatParams, ErParams\n"
            "from layercast.harness import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig(generator=ErParams(n=40, edge_exist_prob=0.15),"
            " ensemble_size=30, mode='intervention',"
            " strategies=(CentralityKind.DEGREE, CentralityKind.RANDOM),"
            " model=CombatParams(0.5, 0.4, 0.4, 0.1), false_info_starter=2,"
            " true_info_starter=3, master_rng_seed=5)\n"
            "res = run_experiment(cfg)\n"
            "print(sorted({p.method for p in res.p_values if not p.degenerate}))\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        methods, loaded = proc.stdout.splitlines()[-2:]
        assert "normal-approximation" in methods
        assert loaded == "False"


class TestSummarize:
    def test_even_length_median(self):
        assert summarize([1, 2, 3, 4]) == (pytest.approx(2.5), pytest.approx(2.5))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            summarize([])


class TestEngagementData:
    def test_row_count_and_unique_ids(self):
        records = load_engagement()
        assert len(records) == 134
        assert len({r.news_id for r in records}) == 134

    def test_true_column_summary(self):
        records = load_engagement()
        mean, median = summarize([r.true_engagement for r in records])
        assert round(mean) == 2729
        assert median == 1587.5

    def test_false_column_summary(self):
        records = load_engagement()
        mean, median = summarize([r.false_engagement for r in records])
        assert round(mean) == 191316
        assert median == 4461.0

    def test_one_tailed_p_value(self):
        res = wilcoxon_one_tailed(engagement_sample(load_engagement()), "x_less")
        assert abs(math.log10(res.p_one_tailed / 4.62e-12)) <= 1

    def test_rejects_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("news_id,true\n1,2\n")
        with pytest.raises(InputError):
            load_engagement(bad)
        dup = tmp_path / "dup.csv"
        dup.write_text("news_id,true,false\n1,2,3\n1,4,5\n")
        with pytest.raises(InputError):
            load_engagement(dup)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_engagement(tmp_path / "none.csv")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"news_id,true,false\n1,2,3 \xe9\n")
        with pytest.raises(InputError, match="engagement file .* is not ascii text") as info:
            load_engagement(path)
        assert str(path) in str(info.value)
