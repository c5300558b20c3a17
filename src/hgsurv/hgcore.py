"""Hypergraph representation and the normalized hypergraph convolution.

One layer computes

    out = sigma( Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} X Theta )

where H is the vertex x edge incidence matrix, W = diag(edge weights),
Dv the weighted vertex degrees, De the edge sizes and sigma a leaky
rectifier (HGNN, Feng et al., AAAI 2019). The propagation operator
P = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} is symmetric, which the backward
pass exploits (dX = P dZ).

A hypergraph is stored as integer member rows, one per edge, from which
the edge-major index arrays (vertex id, edge id) are derived. P does not
depend on the layer parameters, so each Hypergraph builds it once, on
first use, and keeps it; every propagation after that is the matmul P @ X.
P is built without the V x E incidence matrix: one np.bincount over the
member pairs a*V + b of every edge, weighted r_a r_b w_e / |e| with
r = Dv^{-1/2}, which is O(E k^2) work for edges of at most k members. The
cached P costs 8 V^2 bytes: 0.3 MB at V = 192 (three slides of 64
patches) and 75 MB at V = 3072 (three slides of 1024 patches), where the
pair indices and values add about 9 MB while it is built. The edge-weight
gradient comes from per-edge sums over the member rows, again without an
incidence.

Vertices with degree zero receive propagation coefficient 0, so their
pre-activation rows are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEAKY_SLOPE = 0.01


def leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def leaky_grad(x: np.ndarray) -> np.ndarray:
    # derivative at exactly 0 is taken from the x >= 0 branch
    return np.where(x >= 0, 1.0, LEAKY_SLOPE)


@dataclass(eq=False)
class Hypergraph:
    """Vertex count plus edges as integer member rows.

    Row e of ``members`` (E x k) holds the vertex ids of edge e; edges with
    fewer than k members are padded with -1. The constructor sorts each row,
    pads first, and derives the edge-major index arrays that the degrees,
    the operator and the weight gradient are built from. ``weights`` holds
    one positive weight per edge, 1 when omitted.
    """

    num_vertices: int
    members: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be nonnegative")
        m = np.sort(np.asarray(self.members, dtype=np.intp), axis=1)
        valid = m >= 0
        if m.size and (m.min() < -1 or m.max() >= self.num_vertices):
            raise ValueError(f"vertex id out of range [0, {self.num_vertices}) in member rows")
        self._eidx, col = valid.nonzero()
        self._vidx = m[self._eidx, col]
        self._sizes = np.bincount(self._eidx, minlength=len(m))
        if not self._sizes.all():
            raise ValueError("empty hyperedge")
        same = m[:, 1:] == m[:, :-1]
        if same.any() and (same & valid[:, 1:]).any():  # pads may repeat, members may not
            raise ValueError("vertex repeated within a hyperedge")
        w = np.ones(len(m)) if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(m),):
            raise ValueError("one weight per edge required")
        if not (w > 0).all():
            raise ValueError(f"non-positive edge weight {w[~(w > 0)][0]}")
        self.members, self.weights = m, w
        # r = Dv^{-1/2} from the weighted degrees, with a trailing 0 that a pad (-1) reads
        self._r = _inv_sqrt(np.bincount(self._vidx, w[self._eidx], minlength=self.num_vertices + 1))
        self._P: np.ndarray | None = None  # propagation operator, built by _operator

    @property
    def num_edges(self) -> int:
        return len(self.members)

    @property
    def edges(self) -> list[tuple[np.ndarray, float]]:
        """(member ids, weight) per edge, derived on demand for inspection."""
        return [(row[row >= 0], float(w)) for row, w in zip(self.members, self.weights)]


def _inv_sqrt(dv: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(np.where(dv > 0, dv, np.inf))  # 0 where the degree is 0


def _operator(hg: Hypergraph) -> np.ndarray:
    """The hypergraph's propagation operator P, built on first use and kept.

    P[a, b] sums r_a r_b w_e / |e| over the edges e holding both a and b, in
    one bincount over the member pairs a*V + b of every row. A pad (-1)
    reads r = 0 and is counted at vertex 0, so it adds exact zeros.
    """
    if hg._P is None:
        V, m = hg.num_vertices, np.maximum(hg.members, 0)
        rm = hg._r[hg.members]  # E x k, 0 at the pads
        vals = rm[:, :, None] * rm[:, None, :] * (hg.weights / hg._sizes)[:, None, None]
        pairs = m[:, :, None] * V + m[:, None, :]
        hg._P = np.bincount(pairs.ravel(), vals.ravel(), minlength=V * V).reshape(V, V)
    return hg._P


def _edge_sums(hg: Hypergraph, Y: np.ndarray) -> np.ndarray:
    """Per edge, the sum of Y's rows over its members; a pad reads the appended zero row."""
    return np.concatenate([Y, np.zeros_like(Y[:1])])[hg.members].sum(axis=1)


def _propagate(hg: Hypergraph, X: np.ndarray) -> np.ndarray:
    """P @ X with the hypergraph's cached operator."""
    if X.shape[0] != hg.num_vertices:
        raise ValueError(f"X has {X.shape[0]} rows, hypergraph has {hg.num_vertices} vertices")
    return _operator(hg) @ X


def hg_conv_forward(X: np.ndarray, hg: Hypergraph, theta: np.ndarray, nonlin: bool) -> np.ndarray:
    """One layer: leaky(P X theta) if nonlin, else P X theta, for a d_in x d_out theta."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != theta.shape[0]:
        raise ValueError(f"feature width {X.shape[1]} does not match theta rows {theta.shape[0]}")
    pre = _propagate(hg, X) @ theta
    return leaky(pre) if nonlin else pre


def hg_conv_backward_ext(
    X: np.ndarray,
    hg: Hypergraph,
    theta: np.ndarray,
    nonlin: bool,
    d_out: np.ndarray,
    want_weight_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Reverse-mode gradients (dL/dX, dL/dTheta, dL/d(edge weights) or None) of hg_conv_forward.

    The weight gradient accounts for the explicit W factor and for the
    dependence of both Dv^{-1/2} scalings on the weights. It is built from
    per-edge sums over the member rows, and from PX and dX = P dU, which
    the pass computes anyway.
    """
    X = np.asarray(X, dtype=np.float64)
    d_out = np.asarray(d_out, dtype=np.float64)
    PX = _propagate(hg, X)
    pre = PX @ theta
    if d_out.shape != pre.shape:
        raise ValueError(f"upstream gradient shape {d_out.shape} != output shape {pre.shape}")
    g = d_out * leaky_grad(pre) if nonlin else d_out
    d_theta = PX.T @ g
    d_px = g @ theta.T
    d_x = _propagate(hg, d_px)  # P is symmetric
    if not want_weight_grad or hg.num_edges == 0:
        return d_x, d_theta, None

    r = hg._r[:-1, None]
    # direct W-factor term: <q_e, s_e> / |e| with q_e = sum_{v in e} r_v dU_v, s_e = sum_{v in e} r_v X_v
    d_w = np.einsum("ef,ef->e", _edge_sums(hg, d_px * r), _edge_sums(hg, X * r)) / hg._sizes
    # Dv^{-1/2} terms: P = R Htilde R gives dL/dr_v = (<dU_v, (PX)_v> + <X_v, dX_v>) / r_v,
    # and dr_v/dDv_v = -r_v^3 / 2, so edge e collects -r_v^2 / 2 (...) over its members
    d_r = np.einsum("vf,vf->v", d_px, PX) + np.einsum("vf,vf->v", X, d_x)
    d_w += _edge_sums(hg, -0.5 * r[:, 0] ** 2 * d_r)
    return d_x, d_theta, d_w


def stack_forward(X: np.ndarray, hg: Hypergraph, thetas: list, nonlin: list[bool]) -> list[np.ndarray]:
    """Apply the layers (theta, nonlin flag) in order; returns [X, X1, ..., XL] for the backward pass."""
    acts = [np.asarray(X, dtype=np.float64)]
    for theta, nl in zip(thetas, nonlin, strict=True):
        acts.append(hg_conv_forward(acts[-1], hg, theta, nl))
    return acts


def stack_backward(
    hg: Hypergraph,
    thetas: list[np.ndarray],
    nonlin: list[bool],
    activations: list[np.ndarray],
    d_out: np.ndarray,
    want_weight_grad: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | None]:
    """Gradients of a stack_forward run: (dX0, [dTheta per layer], dWeights or None).

    Edge-weight gradients are summed over layers since every layer shares
    the same hypergraph.
    """
    if not len(activations) == len(thetas) + 1 == len(nonlin) + 1:
        raise ValueError("activations must be the stack_forward output")
    d_x = np.asarray(d_out, dtype=np.float64)
    d_thetas: list[np.ndarray] = [None] * len(thetas)  # type: ignore[list-item]
    d_w_total = np.zeros(hg.num_edges, dtype=np.float64) if want_weight_grad else None
    for i in range(len(thetas) - 1, -1, -1):
        d_x, d_theta, d_w = hg_conv_backward_ext(
            activations[i], hg, thetas[i], nonlin[i], d_x, want_weight_grad=want_weight_grad
        )
        d_thetas[i] = d_theta
        if want_weight_grad and d_w is not None:
            d_w_total += d_w
    return d_x, d_thetas, d_w_total
