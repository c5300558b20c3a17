import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsurv.attention import softmax_rows
from hgsurv.hyperedges import (
    cosine_similarity_matrix,
    gene_attentive_edges,
    inter_slide_edges,
    intra_slide_edges,
    merge,
    pairwise_distances,
    random_gene_edges,
)
from hgsurv.model import EdgeMode, build_multislide_graph
import oracles


def edge_sets(rows):
    return [set(int(v) for v in row if v >= 0) for row in rows]


class TestIntraSlide:
    def test_lambda_one_singletons(self):
        coords = np.array([[0.0, 0], [1, 0], [5, 5]])
        assert edge_sets(intra_slide_edges(coords, 1)) == [{0}, {1}, {2}]

    def test_collinear_hand_table(self):
        # distances: 0<->1: 1, 0<->2: 10, 1<->2: 9
        coords = np.array([[0.0, 0], [1, 0], [10, 0]])
        assert edge_sets(intra_slide_edges(coords, 2)) == [{0, 1}, {1, 0}, {2, 1}]

    def test_grid_all_edges_sized_lambda(self):
        # 16-patch grid with the mid-size neighborhood setting
        side = np.arange(4, dtype=float)
        coords = np.array([[x, y] for x in side for y in side])
        edges = intra_slide_edges(coords, 9)
        assert all(len(e) == 9 for e in edge_sets(edges))
        assert len(edges) == 16

    def test_clamps_small_slides(self):
        coords = np.array([[0.0, 0], [1, 0]])
        assert all(len(e) == 2 for e in edge_sets(intra_slide_edges(coords, 9)))

    def test_index_offset(self):
        coords = np.array([[0.0, 0], [1, 0]])
        assert edge_sets(intra_slide_edges(coords, 2, index_offset=10)) == [{10, 11}, {11, 10}]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=40),
       st.integers(min_value=-3, max_value=6))
@settings(max_examples=60, deadline=None)
def test_pairwise_distances_equal_the_norm_bit_for_bit(seed, n, scale):
    coords = np.random.default_rng(seed).uniform(-1, 1, (n, 2)) * 10.0**scale
    assert pairwise_distances(coords).tobytes() == oracles.pairwise_distances(coords).tobytes()


class TestInterSlide:
    def test_identical_vectors_pair(self):
        feats = np.array([[1.0, 0], [1.0, 0]])
        assert edge_sets(inter_slide_edges(feats, 2)) == [{0, 1}, {1, 0}]

    def test_orthogonal_tie_rule(self):
        feats = np.eye(3)
        # all similarities 0: each center picks the lowest other index
        assert edge_sets(inter_slide_edges(feats, 2)) == [{0, 1}, {1, 0}, {2, 0}]

    def test_paired_vectors_oracle(self):
        feats = np.array([[1.0, 0], [0.9, 0.1], [0, 1.0], [0.1, 0.9]])
        feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        # brute-force cosine table oracle
        sims = feats @ feats.T
        expected = []
        for c in range(4):
            best = sorted((j for j in range(4) if j != c), key=lambda j: (-sims[c, j], j))[0]
            expected.append({c, best})
        assert edge_sets(inter_slide_edges(feats, 2)) == expected
        assert expected == [{0, 1}, {1, 0}, {2, 3}, {3, 2}]

    def test_zero_norm_features(self):
        feats = np.array([[0.0, 0], [1, 0], [2, 0]])
        sims = cosine_similarity_matrix(feats)
        assert np.all(sims[0] == 0) and np.all(sims[:, 0] == 0)
        edges = inter_slide_edges(feats, 2)
        # zero-norm center ties at 0 against everyone: picks index 1
        assert set(edges[0]) == {0, 1}


    @pytest.mark.parametrize("scale", [1e-200, 1e200, 5e-324, 1.7e308])
    def test_norm_under_and_overflow_rescaled(self, scale):
        feats = np.array([[scale, 0.0], [1.0, 0.0], [0.0, 1.0], [-scale, scale]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sims = cosine_similarity_matrix(feats)
        np.testing.assert_allclose(sims[0], [1.0, 1.0, 0.0, -np.sqrt(0.5)], rtol=1e-15)
        np.testing.assert_allclose(sims[:, 3], [-np.sqrt(0.5), -np.sqrt(0.5), np.sqrt(0.5), 1.0], rtol=1e-15)
        ordinary = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 0.0]])  # finite nonzero norms stay bit-identical
        norms = np.linalg.norm(ordinary, axis=1)
        unit = ordinary / np.where(norms > 0, norms, 1.0)[:, None]
        expected = unit @ unit.T
        assert cosine_similarity_matrix(ordinary).tobytes() == expected.tobytes()


def brute_force_knn(keys_matrix, lam):
    """Independent O(N^2) oracle: per center, lexicographic (key, index) selection."""
    n = keys_matrix.shape[0]
    out = []
    for c in range(n):
        others = sorted((j for j in range(n) if j != c), key=lambda j: (keys_matrix[c, j], j))
        out.append(set(others[: min(lam, n) - 1]) | {c})
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("trial", range(10))
    def test_intra_random_instances(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 60))
        lam = int(rng.integers(1, 12))
        coords = rng.uniform(0, 100, size=(n, 2))
        dists = oracles.pairwise_distances(coords)
        assert edge_sets(intra_slide_edges(coords, lam)) == brute_force_knn(dists, lam)

    @pytest.mark.parametrize("trial", range(10))
    def test_inter_random_instances(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 60))
        lam = int(rng.integers(1, 12))
        feats = rng.standard_normal((n, 5))
        sims = cosine_similarity_matrix(feats)
        assert edge_sets(inter_slide_edges(feats, lam)) == brute_force_knn(-sims, lam)


class TestGeneAttentive:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.params = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))  # wq, wk

    def test_single_patch(self):
        genes = np.random.default_rng(0).standard_normal((3, 4))
        build = gene_attentive_edges(genes, np.ones((1, 4)), *self.params, 0.05)
        assert edge_sets(build.edges) == [{0, 1}, {0, 2}, {0, 3}]

    def test_beta_one_keeps_all(self):
        rng = np.random.default_rng(1)
        build = gene_attentive_edges(
            rng.standard_normal((2, 4)), rng.standard_normal((5, 4)), *self.params, 1.0
        )
        assert edge_sets(build.edges) == [{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 6}]

    def test_top_five_percent_is_argmax(self):
        rng = np.random.default_rng(2)
        genes = rng.standard_normal((3, 4))
        patches = rng.standard_normal((20, 4))
        build = gene_attentive_edges(genes, patches, *self.params, 0.05)
        # brute-force ranking oracle on the raw scores
        from hgsurv.attention import attn_scores

        scores = attn_scores(genes, patches, *self.params)
        for w, members in enumerate(edge_sets(build.edges)):
            best = sorted(range(20), key=lambda j: (-scores[w, j], j))[0]
            assert members == {best, 20 + w}

    def test_retained_matches_softmax_and_raw_topk(self):
        rng = np.random.default_rng(3)
        genes = rng.standard_normal((4, 4))
        patches = rng.standard_normal((11, 4))
        build = gene_attentive_edges(genes, patches, *self.params, 0.3)
        keep = len(build.retained[0])
        for w in range(4):
            by_prob = set(sorted(range(11), key=lambda j: (-build.probs[w, j], j))[:keep])
            by_score = set(sorted(range(11), key=lambda j: (-build.scores[w, j], j))[:keep])
            assert set(build.retained[w]) == by_prob == by_score

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        build = gene_attentive_edges(
            rng.standard_normal((2, 4)), rng.standard_normal((7, 4)), *self.params, 0.5
        )
        np.testing.assert_allclose(build.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_gene_edge_error(self):
        with pytest.raises(ValueError, match="empty gene edge"):
            gene_attentive_edges(np.ones((1, 4)), np.ones((3, 4)), *self.params, 0.0)

    def test_uniform_attention_unit_weight(self):
        rng = np.random.default_rng(6)
        build = gene_attentive_edges(
            rng.standard_normal((2, 4)), rng.standard_normal((8, 4)), np.zeros((4, 4)), np.zeros((4, 4)), 0.25
        )
        for w in build.weights:
            assert w == pytest.approx(1.0, abs=1e-12)


class TestRandomGeneEdges:
    def test_sizes_and_determinism(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        e1 = random_gene_edges(3, 10, 0.3, rng1)
        e2 = random_gene_edges(3, 10, 0.3, rng2)
        assert edge_sets(e1) == edge_sets(e2)
        assert all(len(e) == 4 for e in edge_sets(e1))  # ceil(0.3*10)=3 patches + gene node


class TestMerge:
    def test_merge_with_empty(self):
        a = np.array([[0, 1]])
        g = merge(3, a, np.empty((0, 2), dtype=int))
        assert edge_sets(g.members) == [{0, 1}]

    def test_duplicate_appears_once(self):
        a = np.array([[0, 1]])
        b = np.array([[1, 0]])
        assert len(merge(2, a, b).edges) == 1

    def test_two_slide_union_enumeration(self):
        # slide A: patches 0,1 at x=0,1; slide B: patches 2,3 at x=0,1
        coords_a = np.array([[0.0, 0], [1, 0]])
        coords_b = np.array([[0.0, 0], [1, 0]])
        feats = np.array([[1.0, 0], [0, 1], [1, 0.1], [0.1, 1]])
        intra = [intra_slide_edges(coords_a, 2), intra_slide_edges(coords_b, 2, index_offset=2)]
        inter = inter_slide_edges(feats, 2)
        g = merge(4, *intra, inter)
        # hand enumeration: intra gives {0,1} and {2,3}; inter pairs 0-2 and 1-3 by cosine
        assert edge_sets(g.members) == [{0, 1}, {2, 3}, {0, 2}, {1, 3}]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            merge(2, np.array([[0, 5]]))


class TestProperties:
    def test_determinism_across_runs(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 10, (25, 2))
        feats = rng.standard_normal((25, 6))
        assert np.array_equal(intra_slide_edges(coords, 4), intra_slide_edges(coords.copy(), 4))
        assert np.array_equal(inter_slide_edges(feats, 4), inter_slide_edges(feats.copy(), 4))

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_center_membership(self, n, lam, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 50, (n, 2))
        for c, members in enumerate(edge_sets(intra_slide_edges(coords, lam))):
            assert c in members
            assert len(members) == min(lam, n)
        feats = rng.standard_normal((n, 3))
        for c, members in enumerate(edge_sets(inter_slide_edges(feats, lam))):
            assert c in members
            assert len(members) == min(lam, n)

    def test_intra_never_crosses_slides(self):
        rng = np.random.default_rng(12)
        coords_a = rng.uniform(0, 10, (8, 2))
        coords_b = rng.uniform(0, 10, (6, 2))
        edges = [intra_slide_edges(coords_a, 4), intra_slide_edges(coords_b, 4, index_offset=8)]
        for members in edge_sets(np.vstack(edges)):
            assert members <= set(range(8)) or members <= set(range(8, 14))


def tied_slides(rng, n_slides, lam_max=10):
    """Slides on a 4 x 4 integer grid with 3-valued features: many tied keys and repeated rows."""
    sizes = [int(s) for s in rng.integers(1, 13, size=n_slides)]
    coords = [rng.integers(0, 4, (s, 2)).astype(float) for s in sizes]
    feats = rng.integers(-1, 2, (sum(sizes), 3)).astype(float)
    return coords, feats, int(rng.integers(1, lam_max + 1))


def assert_slide_builders_match_oracles(coords, feats, lam):
    assert edge_sets(intra_slide_edges(coords, lam)) == [m for m, _ in oracles.intra_slide_sets(coords, lam)]
    assert edge_sets(inter_slide_edges(feats, lam)) == [m for m, _ in oracles.inter_slide_sets(feats, lam)]


class TestAgainstSetOracles:
    """The array builders give exactly the frozenset loops' edge lists: order, members, weights."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_slide_builders_and_merge(self, seed, n_slides):
        rng = np.random.default_rng(seed)
        coords, feats, lam = tied_slides(rng, n_slides)
        for lam in (lam, 1, 20):  # 20 exceeds every slide
            intra, intra_sets, offset = [], [], 0
            for c in coords:
                intra.append(intra_slide_edges(c, lam, index_offset=offset))
                intra_sets.append(oracles.intra_slide_sets(c, lam, index_offset=offset))
                assert edge_sets(intra[-1]) == [m for m, _ in intra_sets[-1]]
                offset += len(c)
            inter = inter_slide_edges(feats, lam)
            inter_sets = oracles.inter_slide_sets(feats, lam)
            assert edge_sets(inter) == [m for m, _ in inter_sets]
            g = merge(offset, *intra, inter)
            want = oracles.merge_sets(*intra_sets, inter_sets)
            assert [(frozenset(m.tolist()), w) for m, w in g.edges] == want

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_multislide_graph_is_the_oracle_merge(self, seed, n_slides):
        """build_multislide_graph gives the oracle union edge for edge, in order, under every EdgeMode."""
        rng = np.random.default_rng(seed)
        coords, feats, drawn = tied_slides(rng, n_slides)
        offsets = np.cumsum([0] + [len(c) for c in coords])
        for lam in (1, drawn, 20):
            intra = [oracles.intra_slide_sets(c, lam, index_offset=o) for c, o in zip(coords, offsets)]
            inter = oracles.inter_slide_sets(feats, lam)
            lists = {EdgeMode.INTRA_ONLY: intra, EdgeMode.INTER_ONLY: [inter], EdgeMode.BOTH: [*intra, inter]}
            for mode in EdgeMode:
                g = build_multislide_graph(feats, coords, lam, mode)
                assert g.num_vertices == len(feats)
                assert [(frozenset(m.tolist()), w) for m, w in g.edges] == oracles.merge_sets(*lists[mode])

    def test_duplicated_feature_rows_within_and_across_slides(self):
        coords = [np.zeros((3, 2)), np.array([[0.0, 0], [1, 1]])]
        feats = np.array([[1.0, 0], [1, 0], [0, 1], [1, 0], [0, 1]])
        for lam in (1, 2, 3, 5):
            intra = [intra_slide_edges(coords[0], lam), intra_slide_edges(coords[1], lam, index_offset=3)]
            want = oracles.merge_sets(oracles.intra_slide_sets(coords[0], lam),
                                      oracles.intra_slide_sets(coords[1], lam, index_offset=3),
                                      oracles.inter_slide_sets(feats, lam))
            g = merge(5, *intra, inter_slide_edges(feats, lam))
            assert [(frozenset(m.tolist()), w) for m, w in g.edges] == want

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_all_identical_rows(self, n):
        """Every key of a row ties: each center keeps the lowest other indices."""
        coords = np.full((n, 2), 3.0)
        feats = np.tile([1.0, -2.0, 0.5], (n, 1))
        for lam in (1, 2, 9, 20):
            assert_slide_builders_match_oracles(coords, feats, lam)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_gene_attentive(self, seed, beta):
        rng = np.random.default_rng(seed)
        n_genes, n_patches, d = (int(k) for k in rng.integers(1, 9, size=3))
        genes = rng.standard_normal((n_genes, d))
        patches = rng.integers(-1, 2, (n_patches, d)).astype(float)  # tied scores
        wq, wk = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        build = gene_attentive_edges(genes, patches, wq, wk, beta)
        edges, scores, probs, retained = oracles.gene_attentive_sets(genes, patches, wq, wk, beta)
        assert list(zip(edge_sets(build.edges), build.weights.tolist())) == edges
        assert len(build.retained) == n_genes
        for got, want in zip(build.retained, retained):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(build.scores, scores)
        np.testing.assert_array_equal(build.probs, probs)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_random_gene_edges_draw_like_the_loop(self, seed, beta):
        n_genes, n_patches = int(seed % 5) + 1, int(seed % 13) + 1
        got = random_gene_edges(n_genes, n_patches, beta, np.random.default_rng(seed))
        want = oracles.random_gene_sets(n_genes, n_patches, beta, np.random.default_rng(seed))
        assert [(m, 1.0) for m in edge_sets(got)] == want


@pytest.mark.slow
def test_identical_rows_at_paper_scale_match_the_oracle():
    """1024 identical patch coordinates and feature rows, the size of one paper-scale slide."""
    assert_slide_builders_match_oracles(np.zeros((1024, 2)), np.ones((1024, 8)), 9)


@pytest.mark.slow
def test_jittered_grid_graph_at_paper_scale_is_the_oracle_merge():
    """Three slides of 1024 patches, each a 32 x 32 grid of 100-unit cells jittered by up to 30."""
    rng = np.random.default_rng(43)
    side = 100.0 * np.arange(32)
    grid = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    coords = [grid + rng.uniform(-30, 30, grid.shape) for _ in range(3)]
    feats = rng.standard_normal((3 * 1024, 8))
    g = build_multislide_graph(feats, coords, 9, EdgeMode.BOTH)
    intra = [oracles.intra_slide_sets(c, 9, index_offset=1024 * i) for i, c in enumerate(coords)]
    want = oracles.merge_sets(*intra, oracles.inter_slide_sets(feats, 9))
    assert [(frozenset(m.tolist()), w) for m, w in g.edges] == want
