import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsurv.datamodel import Censor, SurvivalLabel
from hgsurv.survival import EPS, hazards_from_logits, nll_loss


def label(time, censor, b):
    return SurvivalLabel(time=time, censor=censor, bin=b)


class TestHazardsFromLogits:
    def test_zero_logits_closed_form(self):
        out = hazards_from_logits(np.zeros(4))
        np.testing.assert_allclose(out.hazards, 0.5)
        np.testing.assert_allclose(out.survival, [0.5, 0.25, 0.125, 0.0625])
        assert out.risk == pytest.approx(-0.9375)

    def test_large_negative_logits_survive(self):
        out = hazards_from_logits(np.full(3, -40.0))
        assert np.all(out.hazards == EPS)
        np.testing.assert_allclose(out.survival, 1.0, atol=1e-5)

    def test_random_logits_direct_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(6)
        out = hazards_from_logits(logits)
        h = 1 / (1 + np.exp(-logits))
        s = 1.0
        for t in range(6):
            s *= 1 - h[t]
            assert out.survival[t] == pytest.approx(s, abs=1e-12)
        assert out.risk == pytest.approx(-out.survival.sum())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hazards_from_logits(np.array([np.nan, 0.0]))

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_survival_non_increasing(self, logits):
        out = hazards_from_logits(np.array(logits))
        assert np.all(np.diff(out.survival) <= 0)
        assert np.all((out.hazards > 0) & (out.hazards < 1))


class TestNllLoss:
    def test_censored_tiny_hazards(self):
        out = hazards_from_logits(np.full(4, -40.0))
        loss, _ = nll_loss([out], [label(5.0, Censor.CENSORED, 3)])
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_event_bin_zero_closed_form(self):
        out = hazards_from_logits(np.zeros(4))
        loss, _ = nll_loss([out], [label(1.0, Censor.EVENT, 0)])
        assert loss == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_two_patient_hand_computation(self):
        rng = np.random.default_rng(1)
        logits_a, logits_b = rng.standard_normal(4), rng.standard_normal(4)
        out_a, out_b = hazards_from_logits(logits_a), hazards_from_logits(logits_b)
        labels = [label(3.0, Censor.EVENT, 2), label(9.0, Censor.CENSORED, 3)]
        loss, _ = nll_loss([out_a, out_b], labels)
        # hand computation from the definition
        ha, hb = out_a.hazards, out_b.hazards
        expect_a = -math.log(ha[2]) - math.log(1 - ha[0]) - math.log(1 - ha[1])
        expect_b = -sum(math.log(1 - hb[t]) for t in range(4))
        assert loss == pytest.approx(expect_a + expect_b, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = [rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)]
        labels = [
            label(1.0, Censor.EVENT, 0),
            label(5.0, Censor.CENSORED, 2),
            label(8.0, Censor.EVENT, 3),
        ]

        def loss_of(ls):
            outs = [hazards_from_logits(l) for l in ls]
            return nll_loss(outs, labels)[0]

        _, grads = nll_loss([hazards_from_logits(l) for l in logits], labels)
        h = 1e-6
        for i in range(3):
            for t in range(4):
                orig = logits[i][t]
                logits[i][t] = orig + h
                lp = loss_of(logits)
                logits[i][t] = orig - h
                lm = loss_of(logits)
                logits[i][t] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grads[i][t]) <= 1e-5 * max(abs(fd), abs(grads[i][t]), 1e-6)

    def test_batch_decomposes_exactly(self):
        rng = np.random.default_rng(3)
        outs = [hazards_from_logits(rng.standard_normal(4)) for _ in range(5)]
        labels = [
            label(float(i + 1), Censor.EVENT if i % 2 == 0 else Censor.CENSORED, i % 4)
            for i in range(5)
        ]
        batch_loss, _ = nll_loss(outs, labels)
        singles = [nll_loss([o], [l])[0] for o, l in zip(outs, labels)]
        total = 0.0
        for s in singles:
            total += s
        assert batch_loss == total

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            nll_loss([], [])

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            out = hazards_from_logits(rng.uniform(-10, 10, 4))
            b = int(rng.integers(0, 4))
            cens = Censor.EVENT if rng.random() < 0.5 else Censor.CENSORED
            loss, _ = nll_loss([out], [label(1.0, cens, b)])
            assert loss >= 0.0


class TestRiskScore:
    def test_all_small_hazards(self):
        out = hazards_from_logits(np.full(4, -40.0))
        assert out.risk == pytest.approx(-4.0, abs=1e-4)

    def test_all_large_hazards(self):
        out = hazards_from_logits(np.full(4, 40.0))
        assert -1e-5 < out.risk < 0.0

    def test_monotone_in_each_hazard(self):
        # enumeration oracle over a logit grid
        grid = [-2.0, 0.0, 2.0]
        base = np.array([0.5, -0.5, 1.0, -1.0])
        r0 = hazards_from_logits(base).risk
        for t in range(4):
            for g in grid:
                bumped = base.copy()
                bumped[t] += abs(g) + 0.1
                assert hazards_from_logits(bumped).risk > r0
