"""Hyperedge builders: spatial intra-slide, feature-similarity inter-slide,
and attention-driven gene-patch edges, plus their union.

Every builder emits one edge per center vertex containing the center and
its lambda-1 neighbors (rank-based realization of the distance/similarity
thresholds). Ties are broken toward the lowest vertex index so edge lists
are fully deterministic. Edges are integer member rows, one row per edge,
built for all centers in one array pass; a slide builder's rows list vertex
ids in ascending order. ``merge`` hands their union to ``Hypergraph``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import attn_scores, softmax_rows
from .hgcore import Hypergraph


def _center_edges(keys: np.ndarray, lam: int) -> np.ndarray:
    """Member rows for an N x N key matrix, one per center: row c holds c and the min(lam, N) - 1
    others of smallest key in row c, equal keys going to the lowest column, in ascending order.

    The center's own key becomes -inf (the diagonal is overwritten), so it is
    always taken. The candidates are every key up to the row's min(lam, N)-th
    smallest; a row with more keys tied with that one than it needs keeps,
    counted in column order, only the ties it needs.
    """
    n = keys.shape[0]
    k = min(lam, n)
    keys.flat[:: n + 1] = -np.inf
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1 : k]
    take = keys <= kth
    if np.count_nonzero(take) > n * k:  # ties to cut; a row without any keeps what it took
        below, tied = keys < kth, keys == kth
        take = below | (tied & (np.cumsum(tied, axis=1) <= k - below.sum(axis=1, keepdims=True)))
    return np.flatnonzero(take).reshape(n, k) % n  # flat index -> column


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """N x N distances between 2-D points: bit for bit np.linalg.norm over their N x N x 2 differences."""
    x, y = np.asarray(coords, dtype=np.float64).T
    dist = np.square(x[:, None] - x)
    dist += np.square(y[:, None] - y)
    return np.sqrt(dist, out=dist)


def intra_slide_edges(coords: np.ndarray, lam: int, index_offset: int = 0) -> np.ndarray:
    """One spatial edge per patch of a single slide, as N member rows.

    coords: N x 2 patch coordinates. Vertex ids are index_offset + row id,
    letting callers stack several slides into one vertex space.
    """
    if len(coords) < 1:
        raise ValueError("slide must contain at least one patch")
    return _center_edges(pairwise_distances(coords), lam) + index_offset


def cosine_similarity_matrix(feats: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; rows with zero norm score 0 against everything.

    A nonzero row whose norm underflows to 0 or overflows to inf is divided by
    its largest magnitude before its norm is taken; every other row is used as given.
    """
    feats = np.asarray(feats, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        norms = np.linalg.norm(feats, axis=1)
    lost = ((norms == 0) | (norms == np.inf)) & feats.any(axis=1)
    if lost.any():
        feats = feats.copy()
        feats[lost] /= np.abs(feats[lost]).max(axis=1, keepdims=True)
        norms[lost] = np.linalg.norm(feats[lost], axis=1)
    unit = feats / np.where(norms > 0, norms, 1.0)[:, None]
    sims = unit @ unit.T
    zero = norms == 0
    sims[zero, :] = sims[:, zero] = 0.0
    return sims


def inter_slide_edges(feats: np.ndarray, lam: int) -> np.ndarray:
    """One feature-similarity edge per patch over the pooled multi-slide patch set."""
    if len(feats) < 1:
        raise ValueError("at least one patch required")
    sims = cosine_similarity_matrix(feats)
    return _center_edges(np.negative(sims, out=sims), lam)


@dataclass
class GeneEdgeBuild:
    """Gene-attentive edges plus the attention intermediates training needs.

    Vertex convention: patches occupy ids 0..N-1, gene group w gets id N+w.
    Edge weights are the retained softmax mass rescaled so that uniform
    attention yields weight 1.0; this keeps the loss differentiable in the
    attention parameters.
    """

    edges: np.ndarray  # W x (keep + 1) member rows: retained patches, then the gene vertex
    weights: np.ndarray  # W
    scores: np.ndarray  # W x N raw attention scores
    probs: np.ndarray  # W x N softmax rows
    retained: np.ndarray  # W x keep, per gene the retained patch indices, ascending


def _gene_keep(beta_fraction: float, n_patches: int) -> int:
    keep = math.ceil(beta_fraction * n_patches)
    if keep <= 0:
        raise ValueError("empty gene edge")
    return min(keep, n_patches)


def _with_gene_vertex(patches: np.ndarray, n_patches: int) -> np.ndarray:
    return np.concatenate((patches, n_patches + np.arange(len(patches))[:, None]), axis=1)


def gene_attentive_edges(
    gene_feats: np.ndarray,
    patch_feats: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    beta_fraction: float,
) -> GeneEdgeBuild:
    gene_feats = np.asarray(gene_feats, dtype=np.float64)
    patch_feats = np.asarray(patch_feats, dtype=np.float64)
    n_genes, n_patches = gene_feats.shape[0], patch_feats.shape[0]
    if n_genes < 1 or n_patches < 1:
        raise ValueError("need at least one gene group and one patch")
    keep = _gene_keep(beta_fraction, n_patches)
    scores = attn_scores(gene_feats, patch_feats, wq, wk)
    if not np.isfinite(scores).all():  # an overflowed forward pass, not bad input
        raise FloatingPointError("non-finite attention scores")
    probs = softmax_rows(scores)
    # the lowest-index rule as a stable sort: W rows, so sorting them whole is cheap
    retained = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, :keep], axis=1)
    weights = probs[np.arange(n_genes)[:, None], retained].sum(axis=1) * n_patches / keep
    return GeneEdgeBuild(edges=_with_gene_vertex(retained, n_patches), weights=weights,
                         scores=scores, probs=probs, retained=retained)


def random_gene_edges(
    n_genes: int, n_patches: int, beta_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Feature-blind uniform edge sampler with the same edge sizes (ablation baseline)."""
    keep = _gene_keep(beta_fraction, n_patches)
    picked = np.array([rng.choice(n_patches, size=keep, replace=False) for _ in range(n_genes)])
    return _with_gene_vertex(picked, n_patches)


def merge(num_vertices: int, *edge_lists: np.ndarray) -> Hypergraph:
    """Union of unit-weight member-row lists as one Hypergraph; set-identical edges are kept
    once, at their first occurrence, so edge order is that of the inputs."""
    rows = np.full((sum(len(m) for m in edge_lists), max(m.shape[1] for m in edge_lists)), -1)
    start = 0
    for m in edge_lists:  # a narrower list's pads follow its members until Hypergraph sorts the rows
        rows[start : (start := start + len(m)), : m.shape[1]] = m
    return Hypergraph(num_vertices, rows)
