import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsurv.attention import (
    attn_scores,
    attn_scores_backward,
    heatmap_rows,
    softmax_rows,
    softmax_rows_backward,
    write_heatmap,
)


def identity_params(d):
    return np.eye(d), np.eye(d)


class TestScores:
    def test_unit_dot_product(self):
        d = 4
        e1 = np.zeros((1, d))
        e1[0, 0] = 1.0
        s = attn_scores(e1, e1, *identity_params(d))
        assert s[0, 0] == pytest.approx(1.0 / np.sqrt(d))

    def test_orthogonal_zero(self):
        g = np.array([[1.0, 0, 0]])
        p = np.array([[0.0, 1, 0]])
        assert attn_scores(g, p, *identity_params(3))[0, 0] == 0.0

    def test_dense_oracle(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2, 3))
        p = rng.standard_normal((5, 3))
        wq, wk = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        s = attn_scores(g, p, wq, wk)
        # direct triple-product computation
        for w in range(2):
            for j in range(5):
                expect = (g[w] @ wq) @ (p[j] @ wk) / np.sqrt(2)
                assert s[w, j] == pytest.approx(expect, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            attn_scores(np.ones((1, 3)), np.ones((1, 4)), *identity_params(3))


class TestScoresBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(1)
        g, p = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        outs = attn_scores_backward(g, p, *identity_params(3), np.zeros((2, 4)))
        for o in outs:
            np.testing.assert_array_equal(o, 0)

    def test_linearity_in_wq(self):
        rng = np.random.default_rng(2)
        g, p = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        wq = rng.standard_normal((3, 3))
        p1 = (wq, np.eye(3))
        p2 = (2 * wq, np.eye(3))
        np.testing.assert_allclose(attn_scores(g, p, *p2), 2 * attn_scores(g, p, *p1), atol=1e-12)
        d_up = rng.standard_normal((2, 4))
        # gradient w.r.t. wq is independent of wq's value (score is linear in it)
        _, _, dwq1, _ = attn_scores_backward(g, p, *p1, d_up)
        _, _, dwq2, _ = attn_scores_backward(g, p, *p2, d_up)
        np.testing.assert_allclose(dwq1, dwq2, atol=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 3))
        p = rng.standard_normal((4, 3))
        wq, wk = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        d_up = rng.standard_normal((2, 4))

        def loss():
            return float(np.sum(attn_scores(g, p, wq, wk) * d_up))

        grads = attn_scores_backward(g, p, wq, wk, d_up)
        h = 1e-6
        for arr, grad in zip((g, p, wq, wk), grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                lp = loss()
                arr[ix] = orig - h
                lm = loss()
                arr[ix] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grad[ix]) <= 1e-4 * max(abs(fd), abs(grad[ix]), 1e-4)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        probs = softmax_rows(rng.standard_normal((5, 9)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, c):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((3, 6))
        np.testing.assert_allclose(softmax_rows(scores + c), softmax_rows(scores), atol=1e-12)

    def test_topk_matches_raw_scores(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal((4, 10))
        probs = softmax_rows(scores)
        for w in range(4):
            assert list(np.argsort(-probs[w], kind="stable")) == list(
                np.argsort(-scores[w], kind="stable")
            )

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal((2, 5))
        d_up = rng.standard_normal((2, 5))
        d_scores = softmax_rows_backward(softmax_rows(scores), d_up)
        h = 1e-6
        for w in range(2):
            for j in range(5):
                orig = scores[w, j]
                scores[w, j] = orig + h
                lp = float(np.sum(softmax_rows(scores) * d_up))
                scores[w, j] = orig - h
                lm = float(np.sum(softmax_rows(scores) * d_up))
                scores[w, j] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - d_scores[w, j]) <= 1e-5 * max(abs(fd), abs(d_scores[w, j]), 1e-3)


class TestHeatmap:
    def test_single_cell(self):
        rows = heatmap_rows(np.array([[3.7]]), np.array([[1.0, 2.0]]), ["g0"])
        assert rows == [("g0", 1.0, 2.0, 1.0)]

    def test_uniform_scores(self):
        rows = heatmap_rows(np.zeros((1, 4)), np.arange(8.0).reshape(4, 2), ["g0"])
        assert all(r[3] == pytest.approx(0.25) for r in rows)

    def test_hand_softmax_oracle(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((2, 4))
        coords = rng.uniform(0, 10, (4, 2))
        rows = heatmap_rows(scores, coords, ["a", "b"])
        for w, name in enumerate(["a", "b"]):
            exps = np.exp(scores[w] - scores[w].max())
            expect = exps / exps.sum()
            got = [r[3] for r in rows if r[0] == name]
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_per_gene_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        rows = heatmap_rows(rng.standard_normal((3, 7)), rng.uniform(0, 5, (7, 2)), ["a", "b", "c"])
        for name in ("a", "b", "c"):
            assert sum(r[3] for r in rows if r[0] == name) == pytest.approx(1.0, abs=1e-9)

    def test_write_heatmap(self, tmp_path):
        path = tmp_path / "hm.csv"
        write_heatmap(path, np.zeros((1, 2)), np.array([[0.0, 1], [2, 3]]), ["g"])
        lines = path.read_text().splitlines()
        assert lines[0] == "gene,x,y,weight"
        assert lines[1] == "g,0.0,1.0,0.5"
