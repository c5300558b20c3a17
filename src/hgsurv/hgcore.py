"""Hypergraph representation and the normalized hypergraph convolution.

One layer computes

    out = sigma( Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} X Theta )

where H is the vertex x edge incidence matrix, W = diag(edge weights),
Dv the weighted vertex degrees, De the edge sizes and sigma a leaky
rectifier (HGNN, Feng et al., AAAI 2019). The propagation operator
P = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} is symmetric, which the backward
pass exploits (dX = P dZ).

P does not depend on the layer parameters, so each Hypergraph builds it
once, on first use, as a dense V x V matrix and keeps it; every propagation
after that is the matmul P @ X. The dense incidence that P is built from
is not kept. The cached P costs O(V^2) memory, 8 V^2 bytes: 0.3 MB at
V = 192 (three slides of 64 patches), but 134 MB at V = 4096.

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


@dataclass
class Hypergraph:
    """Vertex count plus a list of (vertex-id set, positive weight) edges."""

    num_vertices: int
    edges: list[tuple[frozenset[int], float]]

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be nonnegative")
        norm = []
        for members, w in self.edges:
            members = frozenset(int(v) for v in members)
            if not members:
                raise ValueError("empty hyperedge")
            if min(members) < 0 or max(members) >= self.num_vertices:
                raise ValueError(f"vertex id out of range in edge {sorted(members)}")
            w = float(w)
            if not w > 0:
                raise ValueError(f"non-positive edge weight {w}")
            norm.append((members, w))
        self.edges = norm
        # edge-major index arrays that the degrees and the operator are built from
        vidx, eidx = [], []
        for e, (members, _) in enumerate(self.edges):
            for v in sorted(members):
                vidx.append(v)
                eidx.append(e)
        self._vidx = np.asarray(vidx, dtype=np.intp)
        self._eidx = np.asarray(eidx, dtype=np.intp)
        self._weights = np.asarray([w for _, w in self.edges], dtype=np.float64)
        self._sizes = np.asarray([len(m) for m, _ in self.edges], dtype=np.float64)
        self._P: np.ndarray | None = None  # propagation operator, built by _operator

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def with_weights(self, weights) -> "Hypergraph":
        """Same edge sets, new weights."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(self.edges),):
            raise ValueError("one weight per edge required")
        return Hypergraph(self.num_vertices, [(m, w) for (m, _), w in zip(self.edges, weights)])


@dataclass
class ConvLayerParams:
    theta: np.ndarray  # d_in x d_out
    use_nonlinearity: bool = True

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2 or not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be a finite 2-d matrix")


def incidence(hg: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Binary V x E incidence matrix and the per-edge weight vector."""
    H = np.zeros((hg.num_vertices, hg.num_edges), dtype=np.float64)
    if hg.num_edges:
        H[hg._vidx, hg._eidx] = 1.0
    return H, hg._weights.copy()


def degrees(hg: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Weighted vertex degrees (sum of incident edge weights) and edge sizes."""
    dv = np.bincount(hg._vidx, weights=hg._weights[hg._eidx], minlength=hg.num_vertices)
    return dv.astype(np.float64, copy=False), hg._sizes.copy()


def _inv_sqrt(dv: np.ndarray) -> np.ndarray:
    r = np.zeros_like(dv)
    pos = dv > 0
    r[pos] = 1.0 / np.sqrt(dv[pos])
    return r


def _operator(hg: Hypergraph) -> np.ndarray:
    """The hypergraph's propagation operator P, built on first use and kept."""
    if hg._P is None:
        H, w = incidence(hg)
        A = H * _inv_sqrt(degrees(hg)[0])[:, None]
        hg._P = (A * (w / hg._sizes)) @ A.T
    return hg._P


def _propagate(hg: Hypergraph, X: np.ndarray) -> np.ndarray:
    """P @ X with the hypergraph's cached operator."""
    if X.shape[0] != hg.num_vertices:
        raise ValueError(f"X has {X.shape[0]} rows, hypergraph has {hg.num_vertices} vertices")
    return _operator(hg) @ X


def hg_conv_forward(X: np.ndarray, hg: Hypergraph, params: ConvLayerParams) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != params.theta.shape[0]:
        raise ValueError(f"feature width {X.shape[1]} does not match theta rows {params.theta.shape[0]}")
    pre = _propagate(hg, X) @ params.theta
    return leaky(pre) if params.use_nonlinearity else pre


def hg_conv_backward(
    X: np.ndarray, hg: Hypergraph, params: ConvLayerParams, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients (dL/dX, dL/dTheta) of hg_conv_forward."""
    d_x, d_theta, _ = hg_conv_backward_ext(X, hg, params, d_out, want_weight_grad=False)
    return d_x, d_theta


def hg_conv_backward_ext(
    X: np.ndarray,
    hg: Hypergraph,
    params: ConvLayerParams,
    d_out: np.ndarray,
    want_weight_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass, optionally including dL/d(edge weights).

    The weight gradient accounts for the explicit W factor and for the
    dependence of both Dv^{-1/2} scalings on the weights. It works on the
    dense V x E incidence, which is small for the graphs that need it (the
    gene-attentive graph has one edge per gene group).
    """
    X = np.asarray(X, dtype=np.float64)
    d_out = np.asarray(d_out, dtype=np.float64)
    PX = _propagate(hg, X)
    pre = PX @ params.theta
    if d_out.shape != pre.shape:
        raise ValueError(f"upstream gradient shape {d_out.shape} != output shape {pre.shape}")
    g = d_out * leaky_grad(pre) if params.use_nonlinearity else d_out
    d_theta = PX.T @ g
    d_px = g @ params.theta.T
    d_x = _propagate(hg, d_px)  # P is symmetric
    if not want_weight_grad or hg.num_edges == 0:
        return d_x, d_theta, None

    H, w = incidence(hg)
    dv, sizes = degrees(hg)
    r = _inv_sqrt(dv)
    c = (w / sizes)[:, None]
    S = H.T @ (X * r[:, None])  # s_e = sum_{v in e} r_v X_v
    # Z = Htilde(Y) with Htilde = H W De^{-1} H^T and Y = R X
    Z = H @ (S * c)

    # direct W-factor term: <q_e, s_e / |e|> with q_e = sum_{v in e} r_v dU_v
    Q = H.T @ (d_px * r[:, None])
    d_w = np.einsum("ef,ef->e", Q, S / sizes[:, None])

    # Dv^{-1/2} terms: dL/dr_v = <dU_v, Z_v> + <(Htilde R dU)_v, X_v>
    HtRdU = H @ (Q * c)
    d_r = np.einsum("vf,vf->v", d_px, Z) + np.einsum("vf,vf->v", HtRdU, X)
    dr_ddv = np.zeros_like(dv)
    pos = dv > 0
    dr_ddv[pos] = -0.5 * dv[pos] ** -1.5
    d_w += H.T @ (d_r * dr_ddv)
    return d_x, d_theta, d_w


def stack_forward(X: np.ndarray, hg: Hypergraph, layers: list[ConvLayerParams]) -> list[np.ndarray]:
    """Apply layers in order; returns [X, X1, ..., XL] for use by the backward pass."""
    acts = [np.asarray(X, dtype=np.float64)]
    for layer in layers:
        acts.append(hg_conv_forward(acts[-1], hg, layer))
    return acts


def stack_backward(
    hg: Hypergraph,
    layers: list[ConvLayerParams],
    activations: list[np.ndarray],
    d_out: np.ndarray,
    want_weight_grad: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | None]:
    """Gradients of a stack_forward run: (dX0, [dTheta per layer], dWeights or None).

    Edge-weight gradients are summed over layers since every layer shares
    the same hypergraph.
    """
    if len(activations) != len(layers) + 1:
        raise ValueError("activations must be the stack_forward output")
    d_x = np.asarray(d_out, dtype=np.float64)
    d_thetas: list[np.ndarray] = [None] * len(layers)  # type: ignore[list-item]
    d_w_total = np.zeros(hg.num_edges, dtype=np.float64) if want_weight_grad else None
    for i in range(len(layers) - 1, -1, -1):
        d_x, d_theta, d_w = hg_conv_backward_ext(
            activations[i], hg, layers[i], d_x, want_weight_grad=want_weight_grad
        )
        d_thetas[i] = d_theta
        if want_weight_grad and d_w is not None:
            d_w_total += d_w
    return d_x, d_thetas, d_w_total


def dump_edges(hg: Hypergraph, path) -> None:
    """Debug dump: one line per edge, `w v0 v1 ...` with sorted vertex ids."""
    with open(path, "w") as fh:
        for members, w in hg.edges:
            fh.write(" ".join([repr(w)] + [str(v) for v in sorted(members)]) + "\n")
