"""Hyperedge builders: spatial intra-slide, feature-similarity inter-slide,
and attention-driven gene-patch edges, plus their union.

Every builder emits one edge per center vertex containing the center and
its lambda-1 neighbors (rank-based realization of the distance/similarity
thresholds). Ties are broken toward the lowest vertex index so edge lists
are fully deterministic. Edges are integer member rows, one row per edge,
built for all centers in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttnParams, attn_scores, softmax_rows
from .hgcore import Hypergraph


def _center_edges(keys: np.ndarray, lam: int) -> np.ndarray:
    """Member rows [center, its lam-1 smallest-key others, smallest first] for an N x N key
    matrix; the center's own key is excluded, and equal keys resolve to the lowest index.

    The candidates are every key up to the row's (lam-1)-th smallest (ties
    included), in row-major order; a stable sort by (row, key) keeps equal
    keys in column order, and each row keeps its first lam-1.
    """
    n = keys.shape[0]
    n_pick = min(lam, n) - 1
    keys.flat[:: n + 1] = np.inf  # self excluded, re-added as the first column
    picked = np.empty((n, 0), dtype=np.intp)
    if n_pick > 0:
        kth = np.partition(keys, n_pick - 1, axis=1)[:, n_pick - 1 : n_pick]
        row, col = np.nonzero(keys <= kth)
        order = np.lexsort((keys[row, col], row))  # row is sorted already, so row[order] == row
        rank = np.arange(row.size) - np.searchsorted(row, row)  # position within the row
        picked = col[order[rank < n_pick]].reshape(n, n_pick)
    return np.concatenate((np.arange(n)[:, None], picked), axis=1)


def intra_slide_edges(coords: np.ndarray, lam: int, index_offset: int = 0) -> np.ndarray:
    """One spatial edge per patch of a single slide, as N member rows.

    coords: N x 2 patch coordinates. Vertex ids are index_offset + row id,
    letting callers stack several slides into one vertex space.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] < 1:
        raise ValueError("slide must contain at least one patch")
    dists = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
    return _center_edges(dists, lam) + index_offset


def cosine_similarity_matrix(feats: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; rows with zero norm score 0 against everything."""
    feats = np.asarray(feats, dtype=np.float64)
    norms = np.linalg.norm(feats, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = feats / safe[:, None]
    sims = unit @ unit.T
    zero = norms == 0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return sims


def inter_slide_edges(feats: np.ndarray, lam: int) -> np.ndarray:
    """One feature-similarity edge per patch over the pooled multi-slide patch set."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[0] < 1:
        raise ValueError("at least one patch required")
    return _center_edges(-cosine_similarity_matrix(feats), lam)


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
    attn_params: AttnParams,
    beta_fraction: float,
) -> GeneEdgeBuild:
    gene_feats = np.asarray(gene_feats, dtype=np.float64)
    patch_feats = np.asarray(patch_feats, dtype=np.float64)
    n_genes, n_patches = gene_feats.shape[0], patch_feats.shape[0]
    if n_genes < 1 or n_patches < 1:
        raise ValueError("need at least one gene group and one patch")
    keep = _gene_keep(beta_fraction, n_patches)
    scores = attn_scores(gene_feats, patch_feats, attn_params)
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
    """Union of unit-weight member-row lists; set-identical edges are kept once,
    at their first occurrence, so edge order is that of the inputs."""
    rows = np.full((sum(len(m) for m in edge_lists), max(m.shape[1] for m in edge_lists)), -1)
    start = 0
    for m in edge_lists:  # pads first, as in a sorted row
        rows[start : (start := start + len(m)), rows.shape[1] - m.shape[1] :] = np.sort(m, axis=1)
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their input order
    srt = rows[order]
    first = np.concatenate(([True], (srt[1:] != srt[:-1]).any(axis=1)))
    return Hypergraph(num_vertices, rows[np.sort(order[first])])
