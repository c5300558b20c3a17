"""Hypergraphs and the normalized hypergraph convolution out = sigma(P X Theta), with

    P = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}

where H is the vertex x edge incidence matrix, W = diag(edge weights), Dv
the weighted vertex degrees H w, De the edge sizes and sigma the leaky
rectifier of every layer (HGNN, Feng et al., AAAI 2019). P is symmetric, so
the backward pass makes one propagation, P g for the pre-activation
gradient g: dTheta = X^T (P g) and dX = (P g) Theta^T. Vertices of degree
zero get propagation coefficient 0: their rows of P X are zero.

``Hypergraph`` has unit weights. It holds the multi-slide graph, fixed per
patient, and the stand-in self-loop as integer member rows, and builds the
dense P once, on first use, from one np.bincount over the member pairs of
every edge (no incidence matrix). P costs 8 V^2 bytes: 0.3 MB at V = 192
(three slides of 64 patches), 75 MB at V = 3072 (three of 1024).

``GeneGraph`` is weighted. It holds the gene-attentive graph, one edge per
gene group, rebuilt every step with weights from the attention, as its dense
V x E incidence H. It propagates as r * (H (c * (H^T (r * X)))) with
c = w / |e| and r = (H w)^{-1/2}, in O(V E d) and with no V x V array, and
it owns the edge-weight gradient.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.01


def leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def leaky_grad(x: np.ndarray) -> np.ndarray:
    # derivative at exactly 0 from the x >= 0 branch; leaky keeps x's sign, so x may be the output
    return np.where(x >= 0, 1.0, LEAKY_SLOPE)


def _inv_sqrt(dv: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(np.where(dv > 0, dv, np.inf))  # 0 where the degree is 0


def _sorted_rows(num_vertices: int, members) -> np.ndarray:
    """Member rows (E x k, padded with -1), each sorted with its pads first; rejects out-of-range
    ids, empty edges and repeated members."""
    if num_vertices < 0:
        raise ValueError("num_vertices must be nonnegative")
    m = np.sort(np.asarray(members, dtype=np.intp, order="C"), axis=1)  # C order: a row views as bytes
    if m.size and (m[:, 0].min() < -1 or m[:, -1].max() >= num_vertices):
        raise ValueError(f"vertex id out of range [0, {num_vertices}) in member rows")
    if np.count_nonzero(m[:, -1:] >= 0) < len(m):  # an empty row ends in a pad
        raise ValueError("empty hyperedge")
    same = m[:, 1:] == m[:, :-1]
    if same.any() and (same & (m[:, 1:] >= 0)).any():  # pads may repeat, members may not
        raise ValueError("vertex repeated within a hyperedge")
    return m


class Hypergraph:
    """Unit-weight hypergraph: vertex count plus edges as integer member rows. Row e of ``members``
    (E x k) holds edge e's vertex ids, sorted, padded first with -1; an edge given twice is kept once."""

    def __init__(self, num_vertices: int, members):
        m = _sorted_rows(num_vertices, members)
        rows = m.view(np.dtype((np.void, m.itemsize * m.shape[1]))).ravel()  # one byte string per row
        first = np.unique(rows, return_index=True)[1]  # by a stable sort: each distinct row's first copy
        self.num_vertices, self.members = num_vertices, m[np.sort(first)]
        # r = Dv^{-1/2} from the vertex degrees, with a trailing 0 that a pad (-1) reads
        self._r = _inv_sqrt(np.bincount(self.members[self.members >= 0], minlength=num_vertices + 1))
        self._P: np.ndarray | None = None  # propagation operator, built by propagate

    @property
    def num_edges(self) -> int:
        return len(self.members)

    @property
    def edges(self) -> list[tuple[np.ndarray, float]]:
        """(member ids, 1.0) per edge, derived on demand for inspection."""
        return [(row[row >= 0], 1.0) for row in self.members]

    def propagate(self, X: np.ndarray) -> np.ndarray:
        """P @ X. P[a, b] sums r_a r_b / |e| over the edges e holding a and b, one bincount over
        the member pairs a*V + b; a pad (-1) reads r = 0 and counts at vertex 0, adding exact zeros."""
        if self._P is None:
            V, m = self.num_vertices, np.maximum(self.members, 0)
            rm = self._r[self.members]  # E x k, 0 at the pads
            vals = np.einsum("ei,ej->eij", rm, rm)
            vals *= 1.0 / (self.members >= 0).sum(axis=1)[:, None, None]
            pairs = (m * V)[:, :, None] + m[:, None, :]
            self._P = np.bincount(pairs.ravel(), vals.ravel(), minlength=V * V).reshape(V, V)
        return self._P @ X


class GeneGraph:
    """Weighted hypergraph of few edges, kept as its dense V x E incidence ``H``. ``members`` are
    rows as for ``Hypergraph``, padded with -1; ``weights`` holds one positive weight per edge."""

    def __init__(self, num_vertices: int, members, weights):
        m = _sorted_rows(num_vertices, members)
        eidx, col = (m >= 0).nonzero()
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(members),):
            raise ValueError("one weight per edge required")
        if not (w > 0).all():
            raise ValueError(f"non-positive edge weight {w[~(w > 0)][0]}")
        self.num_vertices, self.weights = num_vertices, w
        self.H = np.zeros((num_vertices, len(w)))
        self.H[m[eidx, col], eidx] = 1.0
        self._sizes = self.H.sum(axis=0)
        self._c = (w / self._sizes)[:, None]
        self._r = _inv_sqrt(self.H @ w)[:, None]

    @property
    def num_edges(self) -> int:
        return self.H.shape[1]

    @property
    def edges(self) -> list[tuple[np.ndarray, float]]:
        """(member ids, weight) per edge, derived on demand for inspection."""
        return [(np.flatnonzero(h), float(w)) for h, w in zip(self.H.T, self.weights)]

    def propagate(self, X: np.ndarray) -> np.ndarray:
        """P @ X as r * (H (c * (H^T (r * X))))."""
        return self._r * (self.H @ (self._c * (self.H.T @ (self._r * X))))

    def weight_grad(self, X, d_u, d_x, dot_u_px) -> np.ndarray:
        """dL/d(edge weights) of a layer with input X, from dU = dL/d(PX), dX = P dU and rows' <dU, PX>.

        W gives <q_e, s_e> / |e| with q = H^T (r * dU), s = H^T (r * X). P = R Htilde R gives
        dL/dr_v = (<dU_v, (PX)_v> + <X_v, dX_v>) / r_v and dr_v/dDv_v = -r_v^3 / 2, so edge e
        also collects -r_v^2 / 2 (...) over its members.
        """
        r, HT = self._r, self.H.T
        d_w = np.einsum("ef,ef->e", HT @ (r * d_u), HT @ (r * X)) / self._sizes
        return d_w + HT @ (-0.5 * r[:, 0] ** 2 * (dot_u_px + np.einsum("vf,vf->v", X, d_x)))


def hg_conv_forward(X: np.ndarray, hg: Hypergraph | GeneGraph, theta: np.ndarray) -> np.ndarray:
    """One layer, leaky(P X theta), for a d_in x d_out theta."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != hg.num_vertices:
        raise ValueError(f"X has {X.shape[0]} rows, hypergraph has {hg.num_vertices} vertices")
    if X.shape[1] != theta.shape[0]:
        raise ValueError(f"feature width {X.shape[1]} does not match theta rows {theta.shape[0]}")
    return leaky(hg.propagate(X) @ theta)


def hg_conv_backward_ext(X: np.ndarray, hg: Hypergraph | GeneGraph, theta: np.ndarray,
                         out: np.ndarray, d_out: np.ndarray) -> tuple:
    """Reverse-mode gradients (dL/dX, dL/dTheta, dL/d(edge weights)) of out = hg_conv_forward(X, hg,
    theta); the weight gradient is None for a unit-weight Hypergraph.

    One propagation, Pg = P g. The weight gradient reads the row-wise
    <d_out, out>, which equals <dU, PX> since g * pre = d_out * out.
    """
    X = np.asarray(X, dtype=np.float64)
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != out.shape:
        raise ValueError(f"upstream gradient shape {d_out.shape} != output shape {out.shape}")
    g = d_out * leaky_grad(out)
    Pg = hg.propagate(g)
    d_x = Pg @ theta.T
    if isinstance(hg, GeneGraph):
        return d_x, X.T @ Pg, hg.weight_grad(X, g @ theta.T, d_x, np.einsum("vf,vf->v", d_out, out))
    return d_x, X.T @ Pg, None


def stack_forward(X: np.ndarray, hg: Hypergraph | GeneGraph, thetas: list) -> list:
    """Apply the layers (one theta each) in order; returns [X, X1, ..., XL] for the backward."""
    acts = [np.asarray(X, dtype=np.float64)]
    for theta in thetas:
        acts.append(hg_conv_forward(acts[-1], hg, theta))
    return acts


def stack_backward(hg: Hypergraph | GeneGraph, thetas: list[np.ndarray], activations: list[np.ndarray],
                   d_out: np.ndarray) -> tuple:
    """Gradients of a stack_forward run: (dX0, [dTheta per layer], dWeights summed over the layers,
    which share the graph; None for a Hypergraph)."""
    if len(activations) != len(thetas) + 1:
        raise ValueError("activations must be the stack_forward output")
    d_x = np.asarray(d_out, dtype=np.float64)
    d_thetas: list[np.ndarray] = [None] * len(thetas)  # type: ignore[list-item]
    d_w_total = np.zeros(hg.num_edges) if isinstance(hg, GeneGraph) else None
    for i in range(len(thetas) - 1, -1, -1):
        d_x, d_thetas[i], d_w = hg_conv_backward_ext(activations[i], hg, thetas[i], activations[i + 1], d_x)
        if d_w is not None:
            d_w_total += d_w
    return d_x, d_thetas, d_w_total
