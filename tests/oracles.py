"""Slow reference implementations of the hyperedge builders, the
hypergraph convolution and the memory bank's retrieval.

The ``*_sets`` builders are the per-center loops over frozenset edges that
``hgsurv.hyperedges`` vectorizes: each returns a list of (frozenset of
vertex ids, weight) pairs, in the order the vectorized builder emits rows.
``hypergraph(v, pairs)`` turns such a list into a weighted ``GeneGraph``.
``pairwise_distances`` is the intra-slide distance matrix as one
``np.linalg.norm`` over the N x N x 2 pair differences.

Two convolution oracles, independent of each other and of ``hgsurv.hgcore``'s
cached operator:

- dense: P realized from explicit diagonal matrices, and the edge-weight
  gradient from the Jacobian dP/dw_e written out per edge;
- scatter: P @ X and the edge-weight gradient computed edge by edge with
  ``np.add.at`` gathers and scatters over index arrays read from the
  graph's public ``edges``.

Both take either graph type; for a unit-weight ``Hypergraph`` every weight
is 1.

Each ``conv_backward_*`` returns (dL/dX, dL/dTheta, dL/dweights) of
``sum(hg_conv_forward(X, hg, theta) * d_out)``, a leaky layer.

``bank_retrieve_scan`` is ``MemoryBank.retrieve_missing`` as a per-entry
scalar scan over the stored rows. ``bank_load_lines`` is ``MemoryBank.load``
as a line-by-line parse that converts and checks each line before reading
the next, inserting the entries through ``MemoryBank.update``.

``save_checkpoint_with_layout_keys`` writes a version-2 checkpoint as
``save_checkpoint`` wrote it while ``_meta`` also restated the layout: a
``bins`` count and the ``ms_nonlin``/``ga_nonlin`` per-layer flag lists,
every flag True.

``adam_init_per_array`` and ``adam_step_per_array`` are the Adam optimizer
with decoupled weight decay run array by array over the named parameters,
with per-name moment arrays.

``gammaincc`` is the regularized upper incomplete gamma function Q(a, x)
by series and continued fraction; Q(1/2, x/2) is the 1-dof chi-square
tail that ``hgsurv.metrics.chi2_sf_1dof`` computes in closed form.
"""

from __future__ import annotations

import json
import math

import numpy as np

from hgsurv.attention import attn_scores, softmax_rows
from hgsurv.hgcore import GeneGraph, leaky, leaky_grad
from hgsurv.hyperedges import cosine_similarity_matrix
from hgsurv.membank import MemoryBank


def member_rows(sets) -> np.ndarray:
    """Member rows of vertex-id sets, padded with -1."""
    width = max((len(m) for m in sets), default=1)
    rows = [sorted(int(v) for v in m) for m in sets]
    return np.array([[-1] * (width - len(r)) + r for r in rows], dtype=np.intp).reshape(len(rows), width)


def hypergraph(num_vertices: int, pairs) -> GeneGraph:
    """Weighted GeneGraph from (vertex-id set, weight) pairs."""
    return GeneGraph(num_vertices, member_rows([m for m, _ in pairs]), [w for _, w in pairs])


def _nearest_by_key(keys: np.ndarray, n_pick: int) -> np.ndarray:
    """Indices of the n_pick smallest keys; equal keys resolved by lowest index."""
    return np.argsort(keys, kind="stable")[:n_pick]


def pairwise_distances(coords) -> np.ndarray:
    """Euclidean distances between every pair of rows, reduced over their N x N x d differences."""
    coords = np.asarray(coords, dtype=np.float64)
    return np.linalg.norm(coords[:, None] - coords[None, :], axis=2)


def intra_slide_sets(coords, lam: int, index_offset: int = 0):
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    n_pick = min(lam, n) - 1
    edges = []
    for center in range(n):
        d = np.linalg.norm(coords - coords[center], axis=1)
        d[center] = np.inf  # self excluded, re-added below
        picked = _nearest_by_key(d, n_pick)
        members = frozenset(int(j) + index_offset for j in picked) | {center + index_offset}
        edges.append((members, 1.0))
    return edges


def inter_slide_sets(feats, lam: int):
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    sims = cosine_similarity_matrix(feats)
    n_pick = min(lam, n) - 1
    edges = []
    for center in range(n):
        key = -sims[center]
        key[center] = np.inf
        picked = _nearest_by_key(key, n_pick)
        members = frozenset(int(j) for j in picked) | {center}
        edges.append((members, 1.0))
    return edges


def gene_attentive_sets(gene_feats, patch_feats, wq, wk, beta_fraction: float):
    """(edges, scores, probs, retained) of the gene-attentive graph."""
    n_genes, n_patches = gene_feats.shape[0], patch_feats.shape[0]
    keep = min(math.ceil(beta_fraction * n_patches), n_patches)
    scores = attn_scores(gene_feats, patch_feats, wq, wk)
    probs = softmax_rows(scores)
    edges = []
    retained = []
    for w in range(n_genes):
        picked = np.sort(_nearest_by_key(-probs[w], keep))
        retained.append(picked)
        weight = float(probs[w, picked].sum() * n_patches / keep)
        members = frozenset(int(j) for j in picked) | {n_patches + w}
        edges.append((members, weight))
    return edges, scores, probs, retained


def random_gene_sets(n_genes: int, n_patches: int, beta_fraction: float, rng: np.random.Generator):
    keep = min(math.ceil(beta_fraction * n_patches), n_patches)
    edges = []
    for w in range(n_genes):
        picked = rng.choice(n_patches, size=keep, replace=False)
        members = frozenset(int(j) for j in picked) | {n_patches + w}
        edges.append((members, 1.0))
    return edges


def merge_sets(*edge_lists):
    """Union of edge lists; set-identical edges are kept once (first weight wins)."""
    seen: dict[frozenset[int], float] = {}
    for edges in edge_lists:
        for members, w in edges:
            members = frozenset(members)
            if members not in seen:
                seen[members] = float(w)
    return list(seen.items())


def incidence(hg) -> tuple[np.ndarray, np.ndarray]:
    """Binary V x E incidence matrix, from the edges property, and the weight vector."""
    H = np.zeros((hg.num_vertices, hg.num_edges))
    for e, (members, _) in enumerate(hg.edges):
        for v in members:
            H[v, e] = 1.0
    return H, np.array([wt for _, wt in hg.edges], dtype=np.float64)


def degrees(hg) -> tuple[np.ndarray, np.ndarray]:
    """Weighted vertex degrees (H @ w) and edge sizes (column sums of H)."""
    H, w = incidence(hg)
    return H @ w, H.sum(axis=0)


def _dense_parts(hg):
    H, w = incidence(hg)
    de = H.sum(axis=0)
    dv = H @ w
    r = np.array([1.0 / np.sqrt(x) if x > 0 else 0.0 for x in dv])
    return H, w, de, dv, r


def propagation_matrix(hg) -> np.ndarray:
    """Dense V x V realization of P = Dv^-1/2 H W De^-1 H^T Dv^-1/2."""
    if hg.num_edges == 0:
        return np.zeros((hg.num_vertices, hg.num_vertices))
    H, w, de, _, r = _dense_parts(hg)
    return np.diag(r) @ H @ np.diag(w / de) @ H.T @ np.diag(r)


def conv_forward_dense(X, hg, theta) -> np.ndarray:
    return leaky(propagation_matrix(hg) @ X @ theta)


def conv_backward_dense(X, hg, theta, d_out):
    M = propagation_matrix(hg)
    g = d_out * leaky_grad(M @ X @ theta)
    d_theta = (M @ X).T @ g
    d_px = g @ theta.T
    d_x = M.T @ d_px
    d_w = np.zeros(hg.num_edges)
    if hg.num_edges == 0:
        return d_x, d_theta, d_w
    H, w, de, dv, r = _dense_parts(hg)
    Ht = H @ np.diag(w / de) @ H.T
    R = np.diag(r)
    dL_dP = d_px @ X.T
    for e in range(hg.num_edges):
        h = H[:, e]
        # dr_v/dw_e = -1/2 dv_v^{-3/2} for v in e
        dR = np.diag([-0.5 * dv[v] ** -1.5 * h[v] if dv[v] > 0 else 0.0 for v in range(len(h))])
        dP = R @ np.outer(h, h) @ R / de[e] + dR @ Ht @ R + R @ Ht @ dR
        d_w[e] = np.sum(dL_dP * dP)
    return d_x, d_theta, d_w


def _index_arrays(hg):
    """Edge-major vertex ids, edge ids, edge sizes and weights, read from the public edges."""
    pairs = hg.edges
    vidx = np.array([int(v) for members, _ in pairs for v in members], dtype=np.intp)
    eidx = np.array([e for e, (members, _) in enumerate(pairs) for _ in members], dtype=np.intp)
    sizes = np.array([len(members) for members, _ in pairs], dtype=np.float64)
    return vidx, eidx, sizes, np.array([w for _, w in pairs], dtype=np.float64)


def _degrees_scatter(hg) -> tuple[np.ndarray, np.ndarray]:
    """Weighted vertex degrees and their inverse square roots (0 where the degree is 0)."""
    vidx, eidx, _, weights = _index_arrays(hg)
    dv = np.zeros(hg.num_vertices)
    if hg.num_edges:
        np.add.at(dv, vidx, weights[eidx])
    r = np.zeros_like(dv)
    pos = dv > 0
    r[pos] = 1.0 / np.sqrt(dv[pos])
    return dv, r


def propagate_scatter(hg, X: np.ndarray) -> np.ndarray:
    """P @ X via edge-wise gather/scatter."""
    if hg.num_edges == 0:
        return np.zeros_like(X, dtype=np.float64)
    vidx, eidx, sizes, weights = _index_arrays(hg)
    _, r = _degrees_scatter(hg)
    Y = X * r[:, None]
    S = np.zeros((hg.num_edges, X.shape[1]))
    np.add.at(S, eidx, Y[vidx])
    M = S * (weights / sizes)[:, None]
    Z = np.zeros_like(Y)
    np.add.at(Z, vidx, M[eidx])
    return Z * r[:, None]


def conv_forward_scatter(X, hg, theta) -> np.ndarray:
    return leaky(propagate_scatter(hg, X) @ theta)


def conv_backward_scatter(X, hg, theta, d_out):
    PX = propagate_scatter(hg, X)
    g = d_out * leaky_grad(PX @ theta)
    d_theta = PX.T @ g
    d_px = g @ theta.T
    d_x = propagate_scatter(hg, d_px)
    if hg.num_edges == 0:
        return d_x, d_theta, np.zeros(0)

    vidx, eidx, sizes, weights = _index_arrays(hg)
    dv, r = _degrees_scatter(hg)
    Y = X * r[:, None]
    S = np.zeros((hg.num_edges, X.shape[1]))
    np.add.at(S, eidx, Y[vidx])
    M = S * (weights / sizes)[:, None]
    Z = np.zeros_like(Y)
    np.add.at(Z, vidx, M[eidx])

    RdU = d_px * r[:, None]
    Q = np.zeros((hg.num_edges, X.shape[1]))
    np.add.at(Q, eidx, RdU[vidx])
    d_w = np.einsum("ef,ef->e", Q, S / sizes[:, None])

    M2 = Q * (weights / sizes)[:, None]
    HtRdU = np.zeros_like(Y)
    np.add.at(HtRdU, vidx, M2[eidx])
    d_r = np.einsum("vf,vf->v", d_px, Z) + np.einsum("vf,vf->v", HtRdU, X)
    dr_ddv = np.zeros_like(dv)
    pos = dv > 0
    dr_ddv[pos] = -0.5 * dv[pos] ** -1.5
    np.add.at(d_w, eidx, (d_r * dr_ddv)[vidx])
    return d_x, d_theta, d_w


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0  # zero-norm vectors score 0 against everything
    return float(u @ v / (nu * nv))


def bank_retrieve_scan(keys, values, query: np.ndarray, mu: int) -> np.ndarray:
    """Softmax-weighted sum of the values of the top-mu keys by cosine, ties to the lowest index."""
    sims = np.array([_cosine(query, k) for k in keys])
    order = np.argsort(-sims, kind="stable")[:mu]
    sel = sims[order]
    w = np.exp(sel - sel.max())
    w /= w.sum()
    out = np.zeros(len(query), dtype=np.float64)
    for weight, idx in zip(w, order):
        out += weight * values[idx]
    return out


def bank_load_lines(path) -> MemoryBank:
    """A bank file parsed line by line; the first faulty line raises, naming the file and the line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty bank file")
    try:
        head = dict(tok.split("=", 1) for tok in lines[0].split())
    except ValueError:
        head = {}
    if "d" not in head or "theta" not in head:
        raise ValueError(f"{path} line 1: malformed header {lines[0]!r}")
    d = int(head["d"])
    bank = MemoryBank(d=d, theta=float(head["theta"]), mu=int(head.get("mu", 1)))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 1 + 2 * d:
            raise ValueError(f"{path} line {lineno}: expected {1 + 2 * d} fields, got {len(parts)}")
        if "\x00" in parts[0]:
            raise ValueError(f"{path} line {lineno}: key {parts[0]!r} holds a NUL")
        if parts[0] in bank.key_ids:
            raise ValueError(f"{path} line {lineno}: duplicate key {parts[0]!r}")
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path} line {lineno}: non-finite value")
        bank.update(parts[0], np.array(row[:d]), np.array(row[d:]))
    return bank


def save_checkpoint_with_layout_keys(path, params, cfg, gene_raw_lens) -> None:
    meta = {"version": 2, "d": params.d, "bins": cfg.bins, "gene_raw_lens": list(gene_raw_lens),
            "ms_nonlin": [True] * cfg.ms_layers, "ga_nonlin": [True] * cfg.ga_layers, "config": cfg.to_dict()}
    np.savez(path, flat=params.flat, _meta=np.array(json.dumps(meta, sort_keys=True)))


def adam_init_per_array(params) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.arrays().items()},
        "v": {k: np.zeros_like(v) for k, v in params.arrays().items()},
    }


def adam_step_per_array(
    params, grads, state: dict, lr: float, weight_decay: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> None:
    state["t"] += 1
    t = state["t"]
    for name, p in params.arrays().items():
        g = grads[name]
        m, v = state["m"][name], state["v"][name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * weight_decay * p  # decoupled weight decay
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def gammaincc(a: float, x: float, tol: float = 1e-12, max_iter: int = 500) -> float:
    """Regularized upper incomplete gamma via series / continued fraction."""
    if x == 0:
        return 1.0
    if x < a + 1.0:
        # lower series, then complement
        term = 1.0 / a
        total = term
        k = a
        for _ in range(max_iter):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * tol:
                break
        p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return 1.0 - p
    # Lentz continued fraction for the upper function
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
