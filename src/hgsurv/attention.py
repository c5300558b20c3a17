"""Scaled dot-product cross-attention scoring between gene groups and patches.

Scores only: score(g, p) = (g Wq) . (p Wk) / sqrt(d_k). There is no value
projection; the scores drive hyperedge selection and the heatmap export,
feature mixing happens in the hypergraph convolution.
"""

from __future__ import annotations

import numpy as np


def attn_scores(genes: np.ndarray, patches: np.ndarray, wq: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """W x N score matrix (genes wq)(patches wk)^T / sqrt(d_k), for d x d_k projections wq, wk."""
    genes = np.asarray(genes, dtype=np.float64)
    patches = np.asarray(patches, dtype=np.float64)
    if genes.shape[1] != wq.shape[0] or patches.shape[1] != wk.shape[0]:
        raise ValueError("feature width does not match projection rows")
    return (genes @ wq) @ (patches @ wk).T / np.sqrt(wq.shape[1])


def attn_scores_backward(
    genes: np.ndarray,
    patches: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    d_scores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode gradients (d_genes, d_patches, d_wq, d_wk)."""
    genes = np.asarray(genes, dtype=np.float64)
    patches = np.asarray(patches, dtype=np.float64)
    d_scores = np.asarray(d_scores, dtype=np.float64)
    if d_scores.shape != (genes.shape[0], patches.shape[0]):
        raise ValueError("d_scores shape must be (n_genes, n_patches)")
    scale = 1.0 / np.sqrt(wq.shape[1])
    q = genes @ wq
    k = patches @ wk
    d_q = scale * d_scores @ k
    d_k_ = scale * d_scores.T @ q
    d_genes = d_q @ wq.T
    d_patches = d_k_ @ wk.T
    d_wq = genes.T @ d_q
    d_wk = patches.T @ d_k_
    return d_genes, d_patches, d_wq, d_wk


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the scores given dL/d(softmax rows)."""
    inner = np.sum(d_probs * probs, axis=1, keepdims=True)
    return probs * (d_probs - inner)


def heatmap_rows(
    scores: np.ndarray, coords: np.ndarray, gene_names: list[str]
) -> list[tuple[str, float, float, float]]:
    """(gene_name, x, y, softmax_weight) rows; per-gene weights sum to 1."""
    scores = np.asarray(scores, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if scores.shape[0] != len(gene_names):
        raise ValueError("one gene name per score row required")
    if scores.shape[1] != coords.shape[0]:
        raise ValueError("score columns and coords rows must align")
    weights = softmax_rows(scores)
    rows = []
    for w, name in enumerate(gene_names):
        for j in range(coords.shape[0]):
            rows.append((name, float(coords[j, 0]), float(coords[j, 1]), float(weights[w, j])))
    return rows


def write_heatmap(path, scores: np.ndarray, coords: np.ndarray, gene_names: list[str]) -> None:
    """Delimited-text export: gene,x,y,weight."""
    with open(path, "w") as fh:
        fh.write("gene,x,y,weight\n")
        for name, x, y, weight in heatmap_rows(scores, coords, gene_names):
            fh.write(f"{name},{x!r},{y!r},{weight!r}\n")
