import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gammaincc

from hgsurv.metrics import (
    SurvPoint,
    c_index,
    chi2_sf_1dof,
    km_curve,
    logrank_test,
    stratify_median,
    write_km_export,
)


def pts(*triples):
    return [SurvPoint(time=t, event=e, risk=r) for t, e, r in triples]


def c_index_oracle(points):
    """Exhaustive pair enumeration, plain python loops."""
    num = den = 0.0
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i == j or not a.event or not (a.time < b.time):
                continue
            den += 1
            if a.risk > b.risk:
                num += 1
            elif a.risk == b.risk:
                num += 0.5
    return num / den


class TestCIndex:
    def test_perfectly_anti_ordered(self):
        points = pts((1, True, 4.0), (2, True, 3.0), (3, True, 2.0), (4, True, 1.0))
        assert c_index(points) == 1.0

    def test_identical_risks(self):
        points = pts((1, True, 0.0), (2, True, 0.0), (3, True, 0.0))
        assert c_index(points) == 0.5

    def test_mixed_censoring_vs_oracle(self):
        points = pts((1, True, 2.0), (2, False, 1.5), (3, True, 3.0), (4, False, 0.0), (5, True, 1.0))
        assert c_index(points) == c_index_oracle(points)

    @pytest.mark.parametrize("trial", range(15))
    def test_random_instances_vs_oracle(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(3, 50))
        points = pts(
            *[
                (float(rng.integers(1, 12)), bool(rng.random() < 0.7), float(rng.integers(-3, 4)))
                for _ in range(n)
            ]
        )
        try:
            got = c_index(points)
        except ValueError:
            with pytest.raises(ZeroDivisionError):
                c_index_oracle(points)
            return
        assert got == c_index_oracle(points)

    def test_no_comparable_pairs(self):
        with pytest.raises(ValueError, match="undefined C-index"):
            c_index(pts((1, False, 0.5), (2, False, 0.25)))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_rank_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        base = pts(
            *[(float(rng.uniform(0, 10)), bool(rng.random() < 0.7), float(rng.uniform(-2, 2))) for _ in range(n)]
        )
        transformed = [
            SurvPoint(time=p.time, event=p.event, risk=math.exp(0.5 * p.risk) + 3) for p in base
        ]
        try:
            assert c_index(base) == pytest.approx(c_index(transformed), abs=1e-12)
        except ValueError:
            pass

    def test_negation_duality(self):
        rng = np.random.default_rng(42)
        points = pts(*[(float(i + 1), True, float(r)) for i, r in enumerate(rng.permutation(10))])
        negated = [SurvPoint(time=p.time, event=p.event, risk=-p.risk) for p in points]
        assert c_index(points) + c_index(negated) == pytest.approx(1.0)


class TestKaplanMeier:
    def test_all_censored(self):
        km = km_curve(pts((1, False, 0), (2, False, 0)))
        assert km.times.size == 0
        assert km.survival_at(100.0) == 1.0

    def test_four_distinct_events(self):
        km = km_curve(pts((1, True, 0), (2, True, 0), (3, True, 0), (4, True, 0)))
        np.testing.assert_allclose(km.survival, [0.75, 0.5, 0.25, 0.0])
        np.testing.assert_array_equal(km.at_risk, [4, 3, 2, 1])

    def test_mixed_hand_product_limit(self):
        km = km_curve(pts((1, True, 0), (2, False, 0), (3, True, 0)))
        np.testing.assert_allclose(km.times, [1.0, 3.0])
        np.testing.assert_allclose(km.survival, [2.0 / 3.0, 0.0], atol=1e-15)

    def test_ties_and_censored_at_event_time(self):
        # censored at t=2 stays at risk for the t=2 event
        km = km_curve(pts((2, True, 0), (2, False, 0), (4, True, 0)))
        np.testing.assert_allclose(km.survival, [2.0 / 3.0, 0.0])
        np.testing.assert_array_equal(km.at_risk, [3, 1])

    def test_non_increasing_and_empirical(self):
        rng = np.random.default_rng(0)
        times = rng.integers(1, 20, size=30).astype(float)
        km = km_curve(pts(*[(t, True, 0) for t in times]))
        assert np.all(np.diff(km.survival) <= 1e-15)
        # no censoring: product-limit equals the empirical survival function
        for t, s in zip(km.times, km.survival):
            assert s == pytest.approx(np.mean(times > t), abs=1e-12)


def logrank_oracle(group_a, group_b):
    """Hand-tabled O/E/V computation over the pooled event times."""
    all_pts = [(p.time, p.event, 0) for p in group_a] + [(p.time, p.event, 1) for p in group_b]
    event_times = sorted({t for t, e, _ in all_pts if e})
    o_minus_e = 0.0
    var = 0.0
    for u in event_times:
        n_a = sum(1 for t, _, g in all_pts if g == 0 and t >= u)
        n_b = sum(1 for t, _, g in all_pts if g == 1 and t >= u)
        d_a = sum(1 for t, e, g in all_pts if g == 0 and e and t == u)
        d_b = sum(1 for t, e, g in all_pts if g == 1 and e and t == u)
        n, d = n_a + n_b, d_a + d_b
        if n < 2 or d == 0:
            continue
        o_minus_e += d_a - d * n_a / n
        var += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
    return o_minus_e**2 / var


class TestLogrank:
    def test_identical_groups(self):
        g = pts((1, True, 0), (3, True, 0), (5, False, 0))
        chi2, p = logrank_test(g, list(g))
        assert chi2 == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_distribution_anchor(self):
        # classic 5% quantile of the 1-dof chi-square
        assert chi2_sf_1dof(3.841) == pytest.approx(0.05, abs=1e-3)

    def test_hand_tabled_oracle(self):
        rng = np.random.default_rng(1)
        a = pts(*[(float(rng.integers(1, 10)), bool(rng.random() < 0.8), 0) for _ in range(5)])
        b = pts(*[(float(rng.integers(1, 10)), bool(rng.random() < 0.8), 0) for _ in range(5)])
        chi2, _ = logrank_test(a, b)
        assert chi2 == pytest.approx(logrank_oracle(a, b), abs=1e-9)

    def test_symmetry_in_group_order(self):
        rng = np.random.default_rng(2)
        a = pts(*[(float(rng.integers(1, 15)), True, 0) for _ in range(8)])
        b = pts(*[(float(rng.integers(1, 15)), True, 0) for _ in range(6)])
        chi_ab, p_ab = logrank_test(a, b)
        chi_ba, p_ba = logrank_test(b, a)
        assert chi_ab == pytest.approx(chi_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)
        assert 0.0 <= p_ab <= 1.0

    def test_degenerate_no_events(self):
        with pytest.raises(ValueError, match="degenerate|no events"):
            logrank_test(pts((1, False, 0)), pts((2, False, 0)))

    def test_empty_group(self):
        with pytest.raises(ValueError):
            logrank_test([], pts((1, True, 0)))


class TestChiSquarePValue:
    def test_matches_erfc_identity(self):
        # erfc(sqrt(x/2)) == Q(1/2, x/2), the series / continued-fraction oracle
        for x in [0.0, 0.1, 0.5, 1.0, 2.0, 3.841, 6.635, 10.83, 25.0, 60.0]:
            assert chi2_sf_1dof(x) == pytest.approx(gammaincc(0.5, x / 2), rel=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi2_sf_1dof(-1.0)


def km_oracle(points):
    """Product-limit by hand: at each distinct event time, the share of those at risk who survive it."""
    times, survival, at_risk = [], [], []
    s = 1.0
    for u in sorted({float(p.time) for p in points if p.event}):
        n = sum(1 for p in points if p.time >= u)
        d = sum(1 for p in points if p.event and p.time == u)
        s *= 1.0 - d / n
        times.append(u)
        survival.append(s)
        at_risk.append(n)
    return times, survival, at_risk


tie_heavy = st.lists(
    st.tuples(st.integers(0, 6), st.booleans(), st.integers(-3, 3)), min_size=2, max_size=40
)


class TestAgainstOracles:
    """Tie-heavy small-integer data: many equal times, equal risks and censored-at-event-time rows."""

    @given(tie_heavy, st.data())
    @settings(max_examples=200, deadline=None)
    def test_c_index_km_and_logrank(self, rows, data):
        points = pts(*[(float(t), e, float(r)) for t, e, r in rows])
        try:
            got = c_index(points)
        except ValueError:
            with pytest.raises(ZeroDivisionError):
                c_index_oracle(points)
        else:
            assert got == c_index_oracle(points)

        km = km_curve(points)
        times, survival, at_risk = km_oracle(points)
        assert km.times.tolist() == times
        assert km.survival.tolist() == survival
        assert km.at_risk.tolist() == at_risk

        k = data.draw(st.integers(1, len(points) - 1))
        a, b = points[:k], points[k:]
        try:
            chi2, p = logrank_test(a, b)
        except ValueError:
            with pytest.raises(ZeroDivisionError):
                logrank_oracle(a, b)
        else:
            assert chi2 == pytest.approx(logrank_oracle(a, b), rel=1e-12, abs=1e-12)
            assert p == pytest.approx(gammaincc(0.5, chi2 / 2), rel=1e-10)


def test_c_index_at_cohort_scale_needs_no_pair_matrix():
    n, block = 5000, 500
    rng = np.random.default_rng(5000)
    t = rng.integers(0, 300, n).astype(float)
    e = rng.random(n) < 0.6
    r = rng.integers(-40, 40, n).astype(float)
    points = pts(*zip(t.tolist(), e.tolist(), r.tolist()))
    tracemalloc.start()
    try:
        got = c_index(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # the pair count, a block of rows at a time: concordant pairs count 2, tied risks 1
    num = den = 0
    for lo in range(0, n, block):
        comparable = (t[lo : lo + block, None] < t[None, :]) & e[lo : lo + block, None]
        ri = r[lo : lo + block, None]
        num += 2 * int((comparable & (ri > r[None, :])).sum()) + int((comparable & (ri == r[None, :])).sum())
        den += int(comparable.sum())
    assert got == num / (2 * den)


class TestStratify:
    def test_even_count(self):
        high, low = stratify_median(pts((1, True, 1), (2, True, 2), (3, True, 3), (4, True, 4)))
        assert sorted(p.risk for p in high) == [3, 4]
        assert sorted(p.risk for p in low) == [1, 2]

    def test_all_equal(self):
        high, low = stratify_median(pts((1, True, 7), (2, True, 7), (3, True, 7)))
        assert high == []
        assert len(low) == 3

    def test_odd_count(self):
        high, _ = stratify_median(pts((1, True, 1), (2, True, 2), (3, True, 3)))
        assert [p.risk for p in high] == [3]

    def test_requires_two(self):
        with pytest.raises(ValueError):
            stratify_median(pts((1, True, 0)))


def test_km_export_format(tmp_path):
    path = tmp_path / "km.csv"
    curves = [km_curve(pts((1, True, 0), (2, True, 0)), group="high")]
    write_km_export(path, curves)
    lines = path.read_text().splitlines()
    assert lines[0] == "group,time,survival,at_risk"
    assert lines[1] == "high,0.0,1.0,2"
    assert lines[2] == "high,1.0,0.5,2"
    assert lines[3] == "high,2.0,0.0,1"
