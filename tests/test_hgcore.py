import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgsurv.hgcore import (
    GeneGraph,
    Hypergraph,
    hg_conv_backward_ext,
    hg_conv_forward,
    stack_backward,
    stack_forward,
)
from hgsurv.hyperedges import inter_slide_edges, intra_slide_edges, merge
from oracles import (
    conv_backward_dense,
    conv_backward_scatter,
    conv_forward_dense,
    conv_forward_scatter,
    degrees,
    hypergraph,
    incidence,
    member_rows,
    propagate_scatter,
    propagation_matrix,
)


def hg(v, *edge_sets, weights=None):
    weights = weights or [1.0] * len(edge_sets)
    return hypergraph(v, list(zip(edge_sets, weights)))


class TestIncidence:
    def test_single_edge(self):
        H, w = incidence(hg(2, {0, 1}))
        assert H.shape == (2, 1)
        np.testing.assert_array_equal(H[:, 0], [1, 1])
        np.testing.assert_array_equal(w, [1.0])

    def test_empty(self):
        H, w = incidence(hg(3))
        assert H.shape == (3, 0)
        assert w.shape == (0,)

    def test_overlapping_edges(self):
        # hand enumeration: {0,1} and {1,2}
        H, _ = incidence(hg(3, {0, 1}, {1, 2}))
        np.testing.assert_array_equal(H.sum(axis=0), [2, 2])
        np.testing.assert_array_equal(H.sum(axis=1), [1, 2, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            hg(2, {0, 5})
        with pytest.raises(ValueError):
            hg(2, set())
        with pytest.raises(ValueError):
            hg(2, {0}, weights=[0.0])

    def test_member_rows(self):
        g = Hypergraph(4, np.array([[3, 1], [-1, 2]]))
        np.testing.assert_array_equal(g.members, [[1, 3], [-1, 2]])  # rows sorted, pads first
        np.testing.assert_array_equal(Hypergraph(4, np.asfortranarray([[3, 1], [-1, 2]])).members, g.members)
        assert [(m.tolist(), w) for m, w in g.edges] == [([1, 3], 1.0), ([2], 1.0)]
        g = GeneGraph(4, np.array([[3, 1], [-1, 2]]), [1.0, 2.5])
        assert [(m.tolist(), w) for m, w in g.edges] == [([1, 3], 1.0), ([2], 2.5)]
        for make in (Hypergraph, lambda v, m: GeneGraph(v, m, [1.0])):
            with pytest.raises(ValueError, match="repeated"):
                make(3, np.array([[1, 1]]))
            with pytest.raises(ValueError, match="out of range"):
                make(3, np.array([[-2, 1]]))


class TestDegrees:
    def test_single_edge(self):
        dv, de = degrees(hg(2, {0, 1}))
        np.testing.assert_array_equal(dv, [1, 1])
        np.testing.assert_array_equal(de, [2])

    def test_weighted(self):
        dv, _ = degrees(hg(2, {0, 1}, weights=[2.0]))
        np.testing.assert_array_equal(dv, [2, 2])

    def test_overlapping(self):
        dv, de = degrees(hg(3, {0, 1}, {1, 2}))
        np.testing.assert_array_equal(dv, [1, 2, 1])
        np.testing.assert_array_equal(de, [2, 2])


class TestForward:
    def test_self_edge_identity(self):
        X = np.array([[1.5, -2.0]])
        out = hg_conv_forward(X, hg(1, {0}), np.eye(2), False)
        np.testing.assert_allclose(out, X)

    def test_no_edges_zero(self):
        X = np.arange(6.0).reshape(2, 3)
        out = hg_conv_forward(X, hg(2), np.eye(3), False)
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_dense_oracle_basis(self):
        # oracle: explicit dense D^-1/2 H De^-1 H^T D^-1/2 on the 3-vertex chain
        g = hg(3, {0, 1}, {1, 2})
        H, w = incidence(g)
        dv, de = degrees(g)
        M = np.diag(dv**-0.5) @ H @ np.diag(w / de) @ H.T @ np.diag(dv**-0.5)
        X = np.eye(3)
        np.testing.assert_allclose(hg_conv_forward(X, g, np.eye(3), False), M @ X, atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            hg_conv_forward(np.ones((2, 3)), hg(2, {0, 1}), np.eye(2), True)


def random_hypergraph(rng, v_max=12):
    v = int(rng.integers(2, v_max + 1))
    n_edges = int(rng.integers(1, 2 * v))
    edges = []
    for _ in range(n_edges):
        size = int(rng.integers(1, v + 1))
        edges.append(frozenset(int(x) for x in rng.choice(v, size=size, replace=False)))
    weights = rng.uniform(0.2, 3.0, size=n_edges)
    return hypergraph(v, list(zip(edges, weights)))


class TestBackward:
    def test_zero_upstream(self):
        g = hg(3, {0, 1}, {1, 2})
        X = np.ones((3, 2))
        theta = np.ones((2, 2))
        out = hg_conv_forward(X, g, theta, True)
        dx, dth, _ = hg_conv_backward_ext(X, g, theta, True, out, np.zeros((3, 2)))
        np.testing.assert_array_equal(dx, 0)
        np.testing.assert_array_equal(dth, 0)

    def test_self_edge_identity_map(self):
        X = np.array([[0.3, 0.7]])
        d_out = np.array([[1.0, -2.0]])
        g = hg(1, {0})
        out = hg_conv_forward(X, g, np.eye(2), False)
        dx, _, _ = hg_conv_backward_ext(X, g, np.eye(2), False, out, d_out)
        np.testing.assert_allclose(dx, d_out)

    @pytest.mark.parametrize("trial", range(6))
    def test_finite_difference(self, trial):
        rng = np.random.default_rng(100 + trial)
        g = random_hypergraph(rng)
        d_in, d_out_dim = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        X = rng.standard_normal((g.num_vertices, d_in))
        theta = rng.standard_normal((d_in, d_out_dim))
        d_up = rng.standard_normal((g.num_vertices, d_out_dim))

        def loss():
            return float(np.sum(hg_conv_forward(X, g, theta, True) * d_up))

        dx, dth, _ = hg_conv_backward_ext(X, g, theta, True, hg_conv_forward(X, g, theta, True), d_up)
        h = 1e-6
        for arr, grad in ((X, dx), (theta, dth)):
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

    @pytest.mark.parametrize("trial", range(4))
    def test_weight_gradient_finite_difference(self, trial):
        rng = np.random.default_rng(300 + trial)
        g = random_hypergraph(rng, v_max=8)
        d = 3
        X = rng.standard_normal((g.num_vertices, d))
        theta = rng.standard_normal((d, d))
        d_up = rng.standard_normal((g.num_vertices, d))
        _, _, dw = hg_conv_backward_ext(X, g, theta, True, hg_conv_forward(X, g, theta, True), d_up)
        members, weights = [m for m, _ in g.edges], np.array([w for _, w in g.edges])
        h = 1e-6
        for e in range(g.num_edges):
            for sign in (1, -1):
                w2 = weights.copy()
                w2[e] += sign * h
                out = hg_conv_forward(X, hypergraph(g.num_vertices, list(zip(members, w2))), theta, True)
                if sign == 1:
                    lp = float(np.sum(out * d_up))
                else:
                    lm = float(np.sum(out * d_up))
            fd = (lp - lm) / (2 * h)
            assert abs(fd - dw[e]) <= 1e-4 * max(abs(fd), abs(dw[e]), 1e-4)


class TestStack:
    def test_single_layer_matches_forward(self):
        rng = np.random.default_rng(0)
        g = random_hypergraph(rng)
        X = rng.standard_normal((g.num_vertices, 3))
        theta = rng.standard_normal((3, 3))
        acts = stack_forward(X, g, [theta], [True])
        np.testing.assert_array_equal(acts[1], hg_conv_forward(X, g, theta, True))

    def test_two_identity_layers_dense_oracle(self):
        g = hg(4, {0, 1}, {1, 2, 3}, {0, 3})
        M = propagation_matrix(g)
        X = np.random.default_rng(1).standard_normal((4, 2))
        acts = stack_forward(X, g, [np.eye(2)] * 2, [False] * 2)
        np.testing.assert_allclose(acts[-1], M @ (M @ X), atol=1e-12)

    def test_empty_stack(self):
        X = np.ones((3, 2))
        acts = stack_forward(X, hg(3, {0, 1}), [], [])
        assert len(acts) == 1
        np.testing.assert_array_equal(acts[0], X)

    def test_stack_backward_finite_difference(self):
        rng = np.random.default_rng(7)
        g = random_hypergraph(rng, v_max=6)
        X = rng.standard_normal((g.num_vertices, 3))
        thetas = [rng.standard_normal((3, 3)), rng.standard_normal((3, 3))]
        d_up = rng.standard_normal((g.num_vertices, 3))
        acts = stack_forward(X, g, thetas, [True, True])
        dx, dths, _ = stack_backward(g, thetas, [True, True], acts, d_up)

        def loss():
            return float(np.sum(stack_forward(X, g, thetas, [True, True])[-1] * d_up))

        h = 1e-6
        arrays = [(X, dx)] + list(zip(thetas, dths))
        for arr, grad in arrays:
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


class TestInvariants:
    @pytest.mark.parametrize("trial", range(8))
    def test_propagation_symmetry(self, trial):
        g = random_hypergraph(np.random.default_rng(trial))
        M = propagation_matrix(g)
        assert np.abs(M - M.T).max() <= 1e-12

    def test_all_vertex_edge_preserves_constants(self):
        for v in (1, 2, 5, 9):
            g = hg(v, set(range(v)))
            M = propagation_matrix(g)
            X = np.outer(np.ones(v), [2.5, -1.0, 0.25])
            np.testing.assert_allclose(M @ X, X, atol=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_permutation_equivariance(self, trial):
        rng = np.random.default_rng(50 + trial)
        g = random_hypergraph(rng)
        v = g.num_vertices
        X = rng.standard_normal((v, 4))
        theta = rng.standard_normal((4, 4))
        perm = rng.permutation(v)
        g_perm = hypergraph(v, [(frozenset(int(perm[u]) for u in e), w) for e, w in g.edges])
        out = hg_conv_forward(X, g, theta, True)
        out_perm = hg_conv_forward(X[np.argsort(perm)], g_perm, theta, True)
        np.testing.assert_allclose(out_perm[perm], out, atol=1e-10)

    @pytest.mark.parametrize("trial", range(8))
    def test_dense_sparse_agreement(self, trial):
        rng = np.random.default_rng(80 + trial)
        g = random_hypergraph(rng)
        X = rng.standard_normal((g.num_vertices, 3))
        theta = rng.standard_normal((3, 2))
        sparse = hg_conv_forward(X, g, theta, False)
        dense = propagation_matrix(g) @ X @ theta
        assert np.abs(sparse - dense).max() <= 1e-10


@st.composite
def hypergraphs(draw):
    """Random hypergraphs; vertices outside every edge have degree zero."""
    v = draw(st.integers(min_value=1, max_value=10))
    members = st.frozensets(st.integers(min_value=0, max_value=v - 1), min_size=1)
    weight = st.floats(min_value=0.1, max_value=5.0)
    edges = draw(st.lists(st.tuples(members, weight), max_size=2 * v))
    return hypergraph(v, edges)


class TestOracleAgreement:
    """Forward and every backward output against the dense and the scatter oracle."""

    @given(hypergraphs(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @example(hypergraph(4, []), 0, True)  # edgeless
    @example(hypergraph(5, [(frozenset({0, 2}), 2.5), (frozenset({2, 3}), 0.3)]), 1, True)  # 1, 4 isolated
    @settings(max_examples=60, deadline=None)
    def test_matches_both_oracles(self, g, seed, nonlinear):
        rng = np.random.default_rng(seed)
        d_in, d_out = (int(k) for k in rng.integers(1, 5, size=2))
        X = rng.standard_normal((g.num_vertices, d_in))
        theta = rng.standard_normal((d_in, d_out))
        d_up = rng.standard_normal((g.num_vertices, d_out))
        out = hg_conv_forward(X, g, theta, nonlinear)
        d_x, d_theta, d_w = hg_conv_backward_ext(X, g, theta, nonlinear, out, d_up)
        for forward, backward in (
            (conv_forward_dense, conv_backward_dense),
            (conv_forward_scatter, conv_backward_scatter),
        ):
            np.testing.assert_allclose(out, forward(X, g, theta, nonlinear), rtol=1e-10, atol=1e-10)
            for got, want in zip((d_x, d_theta, d_w), backward(X, g, theta, nonlinear, d_up)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @given(hypergraphs(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @example(hypergraph(4, []), 0, True)  # edgeless
    @settings(max_examples=60, deadline=None)
    def test_unit_weight_hypergraph_matches_both_oracles(self, weighted, seed, nonlinear):
        """The same graphs with every weight 1, built as the slide graph's type; it has no weight gradient."""
        g = Hypergraph(weighted.num_vertices, member_rows([m for m, _ in weighted.edges]))
        rng = np.random.default_rng(seed)
        d_in, d_out = (int(k) for k in rng.integers(1, 5, size=2))
        X = rng.standard_normal((g.num_vertices, d_in))
        theta = rng.standard_normal((d_in, d_out))
        d_up = rng.standard_normal((g.num_vertices, d_out))
        out = hg_conv_forward(X, g, theta, nonlinear)
        d_x, d_theta, d_w = hg_conv_backward_ext(X, g, theta, nonlinear, out, d_up)
        assert d_w is None
        for forward, backward in (
            (conv_forward_dense, conv_backward_dense),
            (conv_forward_scatter, conv_backward_scatter),
        ):
            np.testing.assert_allclose(out, forward(X, g, theta, nonlinear), rtol=1e-10, atol=1e-10)
            for got, want in zip((d_x, d_theta), backward(X, g, theta, nonlinear, d_up)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@st.composite
def gene_graphs(draw):
    """Gene-shaped graphs: per gene group, an edge of 1..n patches plus the group's own vertex n + w,
    with all weights tied or all distinct."""
    n = draw(st.integers(min_value=1, max_value=12))
    n_genes = draw(st.integers(min_value=1, max_value=6))
    keep = draw(st.integers(min_value=1, max_value=n))
    rows = [draw(st.permutations(range(n)))[:keep] + [n + w] for w in range(n_genes)]
    weight = st.floats(min_value=0.1, max_value=5.0)
    if draw(st.booleans()):
        weights = [draw(weight)] * n_genes
    else:
        weights = draw(st.lists(weight, min_size=n_genes, max_size=n_genes, unique=True))
    return GeneGraph(n + n_genes, np.array(rows), weights)


@given(gene_graphs(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_gene_graph_matches_dense_oracle(g, seed, nonlinear):
    rng = np.random.default_rng(seed)
    d_in, d_out = (int(k) for k in rng.integers(1, 5, size=2))
    X = rng.standard_normal((g.num_vertices, d_in))
    theta = rng.standard_normal((d_in, d_out))
    d_up = rng.standard_normal((g.num_vertices, d_out))
    out = hg_conv_forward(X, g, theta, nonlinear)
    np.testing.assert_allclose(out, conv_forward_dense(X, g, theta, nonlinear), rtol=1e-10, atol=1e-10)
    got = hg_conv_backward_ext(X, g, theta, nonlinear, out, d_up)
    for got_part, want in zip(got, conv_backward_dense(X, g, theta, nonlinear, d_up)):
        np.testing.assert_allclose(got_part, want, rtol=1e-10, atol=1e-10)


@pytest.mark.slow
def test_gene_graph_at_paper_scale_needs_no_vertex_square():
    """Three slides of 1024 patches plus 6 gene vertices: building the gene graph and one layer's
    forward and backward stay under 10 MB traced, where a V x V operator alone is 75 MB."""
    rng = np.random.default_rng(5)
    n, n_genes, d = 3072, 6, 16
    keep = math.ceil(0.05 * n)
    rows = np.array([np.append(np.sort(rng.choice(n, keep, replace=False)), n + w) for w in range(n_genes)])
    X = rng.standard_normal((n + n_genes, d))
    theta, d_up = rng.standard_normal((d, d)), rng.standard_normal((n + n_genes, d))
    tracemalloc.start()
    try:
        g = GeneGraph(n + n_genes, rows, rng.uniform(0.5, 2.0, n_genes))
        out = hg_conv_forward(X, g, theta, True)
        d_x, d_theta, d_w = hg_conv_backward_ext(X, g, theta, True, out, d_up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    assert d_w.shape == (n_genes,) and np.isfinite(d_w).all()
    np.testing.assert_allclose(out, conv_forward_scatter(X, g, theta, True), rtol=1e-10, atol=1e-12)


@pytest.mark.slow
def test_paper_scale_graph_matches_scatter_oracle():
    """Three slides of 1024 patches on integer coordinates: P @ X and every backward output."""
    rng = np.random.default_rng(41)
    n, d = 1024, 8
    coords = [rng.integers(0, 40, (n, 2)).astype(float) for _ in range(3)]
    slides = [intra_slide_edges(c, 9, index_offset=i * n) for i, c in enumerate(coords)]
    X = rng.standard_normal((3 * n, d))
    g = merge(3 * n, *slides, inter_slide_edges(X, 9))
    PX = hg_conv_forward(X, g, np.eye(d), False)
    np.testing.assert_allclose(PX, propagate_scatter(g, X), rtol=1e-10, atol=1e-12)
    theta = rng.standard_normal((d, d))
    d_up = rng.standard_normal((3 * n, d))
    d_x, d_theta, d_w = hg_conv_backward_ext(X, g, theta, True, hg_conv_forward(X, g, theta, True), d_up)
    assert d_w is None  # unit weights: the slide graph has no weight gradient
    for got, want in zip((d_x, d_theta), conv_backward_scatter(X, g, theta, True, d_up)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
