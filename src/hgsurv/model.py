"""End-to-end pipeline: genomic MLP encoder, multi-slide hypergraph stack,
gene-attentive hypergraph stack, mean pooling, hazard head; plus manual
reverse-mode gradients, Adam training, evaluation, and checkpoints.

Pipeline per patient:
  1. patch features pass an affine d->d adapter; gene groups pass per-group
     MLPs (raw_len -> d -> d, leaky hidden).
  2. spatial + feature-similarity hyperedges over all patches, then the
     multi-slide convolution stack.
  3. attention scores between encoded genes and patch representations pick
     the gene-attentive hyperedges; one convolution stack over the joint
     patch+gene node set refines both modalities. Gene edges carry the
     retained softmax mass (rescaled so uniform attention gives weight 1),
     which is what makes the attention parameters trainable.
  4. mean-pool both node groups, concatenate, affine head -> bin logits.

A missing modality is replaced by a bank retrieval, injected as a single
already-encoded stand-in node that flows through the remaining stages.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attention import attn_scores_backward, softmax_rows_backward
from .datamodel import Censor, Cohort, PatientRecord
from .hgcore import GeneGraph, Hypergraph, leaky, leaky_grad, stack_backward, stack_forward
from .hyperedges import (
    GeneEdgeBuild,
    gene_attentive_edges,
    inter_slide_edges,
    intra_slide_edges,
    merge,
    random_gene_edges,
)
from .membank import MemoryBank, Modality
from .metrics import SurvPoint, c_index
from .survival import HazardOutput, hazards_from_logits, nll_loss


class EdgeMode(Enum):
    INTRA_ONLY = "intra"
    INTER_ONLY = "inter"
    BOTH = "both"


class FusionMode(Enum):
    HYPERGRAPH_ATTN = "hga"
    RANDOM_EDGES = "random"
    CONCAT = "concat"


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    epochs: int = 30
    lam: int = 9
    beta_fraction: float = 0.05
    seed: int = 0
    bins: int = 4
    edge_mode: EdgeMode = EdgeMode.BOTH
    fusion_mode: FusionMode = FusionMode.HYPERGRAPH_ATTN
    n_max: int = 64  # per-slide patch cap
    bank_theta: float = 0.9
    bank_mu: int = 1
    ms_layers: int = 2
    ga_layers: int = 1

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 1 or self.lam < 1 or self.bins < 2:
            raise ValueError("invalid training configuration")
        if not 0 < self.beta_fraction <= 1:
            raise ValueError("beta_fraction must be in (0, 1]")
        if self.n_max < 1 or self.bank_mu < 1 or not 0 <= self.bank_theta <= 1:
            raise ValueError("n_max and bank_mu must be >= 1 and bank_theta in [0, 1]")

    def to_dict(self) -> dict:
        out = {}
        for k, v in self.__dict__.items():
            out[k] = v.value if isinstance(v, Enum) else v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        data["edge_mode"] = EdgeMode(data["edge_mode"])
        data["fusion_mode"] = FusionMode(data["fusion_mode"])
        return cls(**data)


def substream(seed: int, *tags) -> np.random.Generator:
    """Named deterministic substream: independent of call order."""
    entropy = [seed & 0xFFFFFFFF] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def param_layout(d: int, n_bins: int, gene_raw_lens: list[int], n_ms: int, n_ga: int) -> list:
    """(name, shape) of every parameter, in the order of the flat buffer."""
    layout = [("adapter_w", (d, d)), ("adapter_b", (d,))]
    for w, m in enumerate(gene_raw_lens):
        layout += [(f"gene{w}_w1", (m, d)), (f"gene{w}_b1", (d,))]
        layout += [(f"gene{w}_w2", (d, d)), (f"gene{w}_b2", (d,))]
    layout += [("attn_wq", (d, d)), ("attn_wk", (d, d))]
    layout += [(f"ms{i}_theta", (d, d)) for i in range(n_ms)]
    layout += [(f"ga{i}_theta", (d, d)) for i in range(n_ga)]
    return layout + [("head_w", (2 * d, n_bins)), ("head_b", (n_bins,))]


class FlatViews(dict):
    """Name -> view into one new zeroed float64 vector ``flat``, in ``param_layout`` order, and the
    views every step reads, gathered once: each gene group's (w1, b1, w2, b2) and each stack's thetas."""

    def __init__(self, d: int, n_bins: int, gene_raw_lens: list[int], n_ms: int, n_ga: int):
        super().__init__()
        self.layout = param_layout(d, n_bins, gene_raw_lens, n_ms, n_ga)
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in self.layout))
        start = 0
        for name, shape in self.layout:
            self[name] = self.flat[start : (start := start + math.prod(shape))].reshape(shape)
        parts = ("w1", "b1", "w2", "b2")
        self.genes = [tuple(self[f"gene{w}_{p}"] for p in parts) for w in range(len(gene_raw_lens))]
        self.ms_thetas = [self[f"ms{i}_theta"] for i in range(n_ms)]
        self.ga_thetas = [self[f"ga{i}_theta"] for i in range(n_ga)]


class ModelParams(FlatViews):
    """The parameters, each stack's per-layer nonlinearity flags and the one gradient buffer ``grads``.
    ``values`` (name -> array) is copied in by name, or ``flat`` (the whole vector) in one
    assignment, else every parameter is 0; all must be finite."""

    def __init__(self, d: int, n_bins: int, gene_raw_lens: list[int], ms_nonlin: list[bool],
                 ga_nonlin: list[bool], values=None, flat=None):
        sizes = (d, n_bins, gene_raw_lens, len(ms_nonlin), len(ga_nonlin))
        super().__init__(*sizes)
        self.d, self.n_bins, self.ms_nonlin, self.ga_nonlin = d, n_bins, list(ms_nonlin), list(ga_nonlin)
        if flat is not None:
            if np.shape(flat) != self.flat.shape:
                raise ValueError(f"flat parameter vector has length {np.size(flat)}, "
                                 f"but the layout needs {self.flat.size}")
            self.flat[...] = flat
        elif values is not None:
            for name, view in self.items():
                if name not in values:
                    raise ValueError(f"parameter {name} is missing")
                value = values[name]
                if np.shape(value) != view.shape:
                    raise ValueError(f"{name} has shape {np.shape(value)}, expected {view.shape}")
                view[...] = value
        if not np.isfinite(self.flat).all():
            bad = next(name for name, view in self.items() if not np.isfinite(view).all())
            raise ValueError(f"parameter {bad} is not finite")
        self.grads = FlatViews(*sizes)

    def arrays(self) -> "ModelParams":
        """The name -> view map itself (perfbench's gradient check writes through it)."""
        return self


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_params(
    d: int, n_bins: int, gene_raw_lens: list[int], cfg: TrainConfig, rng: np.random.Generator
) -> ModelParams:
    """Zero biases; Glorot matrices drawn every gene_w1, every gene_w2, then in layout order."""
    params = ModelParams(d, n_bins, gene_raw_lens, [True] * cfg.ms_layers, [True] * cfg.ga_layers)
    draws = [f"gene{w}_{part}" for part in ("w1", "w2") for w in range(len(gene_raw_lens))]
    draws += [name for name, shape in params.layout if len(shape) == 2 and not name.startswith("gene")]
    for name in draws:
        params[name][...] = _glorot(rng, *params[name].shape)
    return params


# ---------------------------------------------------------------------------
# forward


@dataclass
class PreparedRecord:
    """Per-record tensors that stay fixed across epochs."""

    patient_id: str
    x_raw: np.ndarray | None  # N x d pooled multi-slide patch features
    coords: np.ndarray | None
    hg_ms: Hypergraph | None  # multi-slide hypergraph (parameter independent)
    gene_raw: list[np.ndarray] | None
    record: PatientRecord


def _subsample(slide, n_max: int, seed: int, patient_id: str):
    """The slide's features and coords, cut to n_max rows drawn from a substream named after
    the slide; a slide that fits is returned whole and draws nothing."""
    if slide.n_patches <= n_max:
        return slide.features, slide.coords
    rng = substream(seed, "subsample", patient_id, slide.slide_id)
    idx = np.sort(rng.choice(slide.n_patches, size=n_max, replace=False))
    return slide.features[idx], slide.coords[idx]


def build_multislide_graph(
    feats: np.ndarray, slide_coords: list[np.ndarray], lam: int, edge_mode: EdgeMode
) -> Hypergraph:
    """Union of intra-slide spatial and inter-slide similarity edges over the slides' stacked patches."""
    lists = []
    if edge_mode in (EdgeMode.INTRA_ONLY, EdgeMode.BOTH):
        offset = 0
        for coords in slide_coords:
            lists.append(intra_slide_edges(coords, lam, index_offset=offset))
            offset += coords.shape[0]
    if edge_mode in (EdgeMode.INTER_ONLY, EdgeMode.BOTH):
        lists.append(inter_slide_edges(feats, lam))
    return merge(feats.shape[0], *lists)


def prepare_record(
    record: PatientRecord, cfg: TrainConfig, missing: Modality | None = None
) -> PreparedRecord:
    """Per-record tensors; with pathology withheld, its tensors and hypergraph stay None."""
    x_raw = coords = hg_ms = None
    if record.has_pathology and missing is not Modality.PATH:
        feats, crds = [], []
        for s in record.slides:
            f, c = _subsample(s, cfg.n_max, cfg.seed, record.patient_id)
            feats.append(f)
            crds.append(c)
        x_raw = np.vstack(feats)
        coords = np.vstack(crds)
        hg_ms = build_multislide_graph(x_raw, crds, cfg.lam, cfg.edge_mode)
    gene_raw = list(record.genes.groups) if record.has_genes else None
    return PreparedRecord(
        patient_id=record.patient_id,
        x_raw=x_raw,
        coords=coords,
        hg_ms=hg_ms,
        gene_raw=gene_raw,
        record=record,
    )


@dataclass
class ForwardResult:
    output: HazardOutput
    logits: np.ndarray
    pooled_p: np.ndarray
    pooled_g: np.ndarray
    # intermediates for the backward pass / exports
    x_raw: np.ndarray
    xp: np.ndarray
    hg_ms: Hypergraph
    acts_ms: list[np.ndarray]
    gene_pre1: list[np.ndarray] | None
    gene_hidden: list[np.ndarray] | None
    genes_enc: np.ndarray
    gene_build: GeneEdgeBuild | None
    hg_ga: GeneGraph | None
    acts_ga: list[np.ndarray] | None
    n_patches: int
    n_groups: int
    fusion: np.ndarray
    missing: Modality | None


def _encode_genes(gene_raw, params):
    pre1, hidden, enc = [], [], []
    for raw, (w1, b1, w2, b2) in zip(gene_raw, params.genes, strict=True):
        p1 = raw @ w1 + b1
        h = leaky(p1)
        enc.append(h @ w2 + b2)
        pre1.append(p1)
        hidden.append(h)
    return pre1, hidden, np.vstack(enc)


_STANDIN_GRAPH = Hypergraph(1, [[0]])  # the stand-in's self-loop, shared so P is built once


def forward(
    prepared: PreparedRecord,
    params: ModelParams,
    cfg: TrainConfig,
    bank: MemoryBank | None = None,
    missing: Modality | None = None,
) -> ForwardResult:
    record = prepared.record
    miss_path = missing is Modality.PATH or not record.has_pathology
    miss_gene = missing is Modality.GENE or not record.has_genes
    if miss_path and miss_gene:
        raise ValueError(f"{record.patient_id}: both modalities missing")
    if (miss_path or miss_gene) and bank is None:
        raise ValueError(f"{record.patient_id}: missing modality requires a memory bank")

    gene_pre1 = gene_hidden = None
    if not miss_gene:
        gene_pre1, gene_hidden, genes_enc = _encode_genes(prepared.gene_raw, params)

    if not miss_path:
        x_raw = prepared.x_raw
        hg_ms = prepared.hg_ms
        xp = x_raw @ params["adapter_w"] + params["adapter_b"]
    else:
        query = genes_enc.mean(axis=0)
        standin = bank.retrieve_missing(query, available=Modality.GENE)
        x_raw = standin[None, :]
        hg_ms = _STANDIN_GRAPH
        xp = x_raw  # stand-in enters already encoded

    acts_ms = stack_forward(xp, hg_ms, params.ms_thetas, params.ms_nonlin)
    ph = acts_ms[-1]
    n = ph.shape[0]

    if miss_gene:
        # deepest pathology summary computable without genes
        query = ph.mean(axis=0)
        standin = bank.retrieve_missing(query, available=Modality.PATH)
        genes_enc = standin[None, :]

    w_eff = genes_enc.shape[0]
    gene_build = None
    hg_ga = acts_ga = None
    if cfg.fusion_mode is FusionMode.CONCAT:
        pooled_p = ph.mean(axis=0)
        pooled_g = genes_enc.mean(axis=0)
    else:
        if cfg.fusion_mode is FusionMode.HYPERGRAPH_ATTN:
            gene_build = gene_attentive_edges(genes_enc, ph, params["attn_wq"], params["attn_wk"],
                                              cfg.beta_fraction)
            hg_ga = GeneGraph(n + w_eff, gene_build.edges, gene_build.weights)
        else:  # each edge holds its own gene vertex, so no two coincide and no merge is needed
            rng = substream(cfg.seed, "random-edges", record.patient_id)
            hg_ga = GeneGraph(n + w_eff, random_gene_edges(w_eff, n, cfg.beta_fraction, rng), np.ones(w_eff))
        acts_ga = stack_forward(np.vstack([ph, genes_enc]), hg_ga, params.ga_thetas, params.ga_nonlin)
        pooled_p = acts_ga[-1][:n].mean(axis=0)
        pooled_g = acts_ga[-1][n:].mean(axis=0)

    fusion = np.concatenate([pooled_p, pooled_g])
    logits = fusion @ params["head_w"] + params["head_b"]
    if not np.isfinite(logits).all():  # an overflowed forward pass, not bad input
        raise FloatingPointError("non-finite logits")
    output = hazards_from_logits(logits)
    return ForwardResult(
        output=output,
        logits=logits,
        pooled_p=pooled_p,
        pooled_g=pooled_g,
        x_raw=x_raw,
        xp=xp,
        hg_ms=hg_ms,
        acts_ms=acts_ms,
        gene_pre1=gene_pre1,
        gene_hidden=gene_hidden,
        genes_enc=genes_enc,
        gene_build=gene_build,
        hg_ga=hg_ga,
        acts_ga=acts_ga,
        n_patches=n,
        n_groups=w_eff,
        fusion=fusion,
        missing=Modality.PATH if miss_path else (Modality.GENE if miss_gene else None),
    )


def forward_record(
    record: PatientRecord,
    params: ModelParams,
    cfg: TrainConfig,
    bank: MemoryBank | None = None,
    missing: Modality | None = None,
) -> ForwardResult:
    return forward(prepare_record(record, cfg, missing), params, cfg, bank=bank, missing=missing)


# ---------------------------------------------------------------------------
# backward


def zero_grads(params: ModelParams) -> FlatViews:
    """The params' one gradient buffer, cleared. All of it: concat fusion leaves ga/attn unwritten."""
    params.grads.flat.fill(0)
    return params.grads


def backward(
    fwd: ForwardResult,
    prepared: PreparedRecord,
    params: ModelParams,
    cfg: TrainConfig,
    d_logits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter (complete records only).

    The result is the params' one gradient buffer, so the next backward call
    with the same params overwrites it.
    """
    if fwd.missing is not None:
        raise ValueError("backward requires a complete-modality forward")
    grads = zero_grads(params)
    n, w_eff = fwd.n_patches, fwd.n_groups

    grads["head_w"][:] = np.outer(fwd.fusion, d_logits)
    grads["head_b"][:] = d_logits
    d_fusion = params["head_w"] @ d_logits
    d_pooled_p, d_pooled_g = d_fusion[: params.d], d_fusion[params.d :]

    d_ph = np.zeros_like(fwd.acts_ms[-1])
    d_genes_enc = np.zeros((w_eff, params.d))

    if cfg.fusion_mode is FusionMode.CONCAT:
        d_ph += d_pooled_p / n
        d_genes_enc += d_pooled_g / w_eff
    else:
        d_xg_out = np.vstack(
            [np.tile(d_pooled_p / n, (n, 1)), np.tile(d_pooled_g / w_eff, (w_eff, 1))]
        )
        d_xg_in, d_thetas, d_w = stack_backward(fwd.hg_ga, params.ga_thetas, params.ga_nonlin, fwd.acts_ga,
                                                d_xg_out)
        for g, dt in zip(grads.ga_thetas, d_thetas):
            g[:] = dt
        d_ph += d_xg_in[:n]
        d_genes_enc += d_xg_in[n:]
        if cfg.fusion_mode is FusionMode.HYPERGRAPH_ATTN:
            build = fwd.gene_build
            d_probs = np.zeros_like(build.probs)
            np.put_along_axis(d_probs, build.retained, (d_w * n / build.retained.shape[1])[:, None], axis=1)
            d_scores = softmax_rows_backward(build.probs, d_probs)
            dg_attn, dp_attn, d_wq, d_wk = attn_scores_backward(
                fwd.genes_enc, fwd.acts_ms[-1], params["attn_wq"], params["attn_wk"], d_scores
            )
            d_genes_enc += dg_attn
            d_ph += dp_attn
            grads["attn_wq"][:] = d_wq
            grads["attn_wk"][:] = d_wk

    d_xp, d_thetas_ms, _ = stack_backward(fwd.hg_ms, params.ms_thetas, params.ms_nonlin, fwd.acts_ms, d_ph)
    for g, dt in zip(grads.ms_thetas, d_thetas_ms):
        g[:] = dt
    grads["adapter_w"][:] = fwd.x_raw.T @ d_xp
    grads["adapter_b"][:] = d_xp.sum(axis=0)

    for w in range(w_eff):
        dg = d_genes_enc[w]
        h = fwd.gene_hidden[w]
        g_w1, g_b1, g_w2, g_b2 = grads.genes[w]
        g_w2[:] = np.outer(h, dg)
        g_b2[:] = dg
        dh = params.genes[w][2] @ dg  # the group's w2
        dpre1 = dh * leaky_grad(fwd.gene_pre1[w])
        g_w1[:] = np.outer(prepared.gene_raw[w], dpre1)
        g_b1[:] = dpre1
    return grads


# ---------------------------------------------------------------------------
# optimizer and training


def adam_init(params: ModelParams) -> dict:
    n = params.flat.size
    return {"t": 0, "m": np.zeros(n), "v": np.zeros(n), "scratch": np.empty((2, n))}


def adam_step(params: ModelParams, grads: FlatViews, state: dict, lr: float, weight_decay: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam step with decoupled weight decay, fused over the flat vectors. Temporaries go to
    the scratch rows: allocating one per operation would cost more than the arithmetic."""
    state["t"] = t = state["t"] + 1
    p, g, m, v, (s, u) = params.flat, grads.flat, state["m"], state["v"], state["scratch"]
    m *= beta1
    m += np.multiply(g, 1 - beta1, out=s)
    v *= beta2
    v += np.multiply(np.multiply(g, 1 - beta2, out=s), g, out=s)
    p -= np.multiply(p, lr * weight_decay, out=s)  # decoupled weight decay
    m_hat, v_hat = np.divide(m, 1 - beta1**t, out=s), np.divide(v, 1 - beta2**t, out=u)
    p -= np.divide(np.multiply(m_hat, lr, out=s), np.add(np.sqrt(v_hat, out=u), eps, out=u), out=s)


def train_epoch(
    prepared: list[PreparedRecord],
    params: ModelParams,
    opt_state: dict,
    cfg: TrainConfig,
    bank: MemoryBank,
    epoch: int,
) -> float:
    """One pass over the fold: per-patient Adam step, then bank update."""
    for p in prepared:
        if p.x_raw is None or p.gene_raw is None:
            raise ValueError(f"{p.patient_id}: training requires both modalities")
    order = substream(cfg.seed, "order", epoch).permutation(len(prepared))
    total = 0.0
    for idx in order:
        rec = prepared[idx]
        try:
            fwd = forward(rec, params, cfg)
        except FloatingPointError as exc:
            raise ValueError(f"{rec.patient_id}: {exc} in epoch {epoch}") from exc
        loss, grad_logits = nll_loss([fwd.output], [rec.record.label])
        grads = backward(fwd, rec, params, cfg, grad_logits[0])
        if not (math.isfinite(loss) and np.isfinite(grads.flat).all()):
            raise ValueError(f"{rec.patient_id}: non-finite loss or gradient in epoch {epoch}")
        adam_step(params, grads, opt_state, cfg.lr, cfg.weight_decay)
        bank.update(rec.patient_id, fwd.pooled_p, fwd.pooled_g)
        total += loss
    return total / len(prepared)


@dataclass
class TrainResult:
    params: ModelParams
    bank: MemoryBank
    epoch_losses: list[float]


def train_fold(
    records: list[PatientRecord],
    d: int,
    gene_raw_lens: list[int],
    cfg: TrainConfig,
    fold: int = 0,
) -> TrainResult:
    rng = substream(cfg.seed, "init", fold)
    params = init_params(d, cfg.bins, gene_raw_lens, cfg, rng)
    opt_state = adam_init(params)
    bank = MemoryBank(d=d, theta=cfg.bank_theta, mu=cfg.bank_mu)
    prepared = [prepare_record(r, cfg) for r in records]
    losses = []
    for epoch in range(cfg.epochs):
        losses.append(train_epoch(prepared, params, opt_state, cfg, bank, epoch))
    return TrainResult(params=params, bank=bank, epoch_losses=losses)


@dataclass
class EvalResult:
    c_index: float
    risks: list[tuple[str, float]]


def evaluate(
    records: list[PatientRecord],
    params: ModelParams,
    cfg: TrainConfig,
    bank: MemoryBank | None = None,
    missing: Modality | None = None,
) -> EvalResult:
    risks = []
    points = []
    for record in records:
        fwd = forward_record(record, params, cfg, bank=bank, missing=missing)
        risks.append((record.patient_id, fwd.output.risk))
        points.append(
            SurvPoint(
                time=record.label.time,
                event=record.label.censor is Censor.EVENT,
                risk=fwd.output.risk,
            )
        )
    return EvalResult(c_index=c_index(points), risks=risks)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 2  # v2: one `flat` member; v1: one member per parameter name


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig, gene_raw_lens: list[int]) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "d": params.d,
        "bins": params.n_bins,
        "gene_raw_lens": list(gene_raw_lens),
        "ms_nonlin": params.ms_nonlin,
        "ga_nonlin": params.ga_nonlin,
        "config": cfg.to_dict(),
    }
    np.savez(path, flat=params.flat, _meta=np.array(json.dumps(meta, sort_keys=True)))


def load_checkpoint(
    path, expect_d: int | None = None, expect_bins: int | None = None
) -> tuple[ModelParams, TrainConfig, dict]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["_meta"]))
        version = meta.get("version")
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        if expect_d is not None and meta["d"] != expect_d:
            raise ValueError(f"checkpoint d={meta['d']} does not match expected d={expect_d}")
        if expect_bins is not None and meta["bins"] != expect_bins:
            raise ValueError(f"checkpoint bins={meta['bins']} does not match expected bins={expect_bins}")
        cfg = TrainConfig.from_dict(meta["config"])
        dims = (meta["d"], meta["bins"], meta["gene_raw_lens"], meta["ms_nonlin"], meta["ga_nonlin"])
        if version == 1:
            params = ModelParams(*dims, values=data)
        else:
            params = ModelParams(*dims, flat=data["flat"])
    return params, cfg, meta


def cohort_gene_raw_lens(cohort: Cohort) -> list[int]:
    if cohort.gene_layout is None:
        raise ValueError("no patient with gene data in cohort")
    return cohort.gene_layout
