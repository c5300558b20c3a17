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
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attention import AttnParams, attn_scores_backward, softmax_rows_backward
from .datamodel import Censor, Cohort, PatientRecord
from .hgcore import (
    ConvLayerParams,
    Hypergraph,
    leaky,
    leaky_grad,
    stack_backward,
    stack_forward,
)
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


@dataclass
class ModelParams:
    adapter_w: np.ndarray  # d x d
    adapter_b: np.ndarray  # d
    gene_w1: list[np.ndarray]  # per group, raw_len x d
    gene_b1: list[np.ndarray]
    gene_w2: list[np.ndarray]  # d x d
    gene_b2: list[np.ndarray]
    attn: AttnParams
    ms_layers: list[ConvLayerParams]
    ga_layers: list[ConvLayerParams]
    head_w: np.ndarray  # 2d x B
    head_b: np.ndarray  # B

    @property
    def d(self) -> int:
        return self.adapter_w.shape[0]

    @property
    def n_bins(self) -> int:
        return self.head_b.shape[0]

    @property
    def n_groups(self) -> int:
        return len(self.gene_w1)

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> live array reference, in a stable order."""
        out = {"adapter_w": self.adapter_w, "adapter_b": self.adapter_b}
        for w in range(self.n_groups):
            out[f"gene{w}_w1"] = self.gene_w1[w]
            out[f"gene{w}_b1"] = self.gene_b1[w]
            out[f"gene{w}_w2"] = self.gene_w2[w]
            out[f"gene{w}_b2"] = self.gene_b2[w]
        out["attn_wq"] = self.attn.wq
        out["attn_wk"] = self.attn.wk
        for i, layer in enumerate(self.ms_layers):
            out[f"ms{i}_theta"] = layer.theta
        for i, layer in enumerate(self.ga_layers):
            out[f"ga{i}_theta"] = layer.theta
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_params(
    d: int, n_bins: int, gene_raw_lens: list[int], cfg: TrainConfig, rng: np.random.Generator
) -> ModelParams:
    gene_w1 = [_glorot(rng, m, d) for m in gene_raw_lens]
    gene_b1 = [np.zeros(d) for _ in gene_raw_lens]
    gene_w2 = [_glorot(rng, d, d) for _ in gene_raw_lens]
    gene_b2 = [np.zeros(d) for _ in gene_raw_lens]
    return ModelParams(
        adapter_w=_glorot(rng, d, d),
        adapter_b=np.zeros(d),
        gene_w1=gene_w1,
        gene_b1=gene_b1,
        gene_w2=gene_w2,
        gene_b2=gene_b2,
        attn=AttnParams(wq=_glorot(rng, d, d), wk=_glorot(rng, d, d)),
        ms_layers=[ConvLayerParams(theta=_glorot(rng, d, d)) for _ in range(cfg.ms_layers)],
        ga_layers=[ConvLayerParams(theta=_glorot(rng, d, d)) for _ in range(cfg.ga_layers)],
        head_w=_glorot(rng, 2 * d, n_bins),
        head_b=np.zeros(n_bins),
    )


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


def _subsample(slide_feats, slide_coords, n_max, rng):
    n = slide_feats.shape[0]
    if n <= n_max:
        return slide_feats, slide_coords
    idx = np.sort(rng.choice(n, size=n_max, replace=False))
    return slide_feats[idx], slide_coords[idx]


def build_multislide_graph(
    feats: np.ndarray, coords: np.ndarray, slide_of: np.ndarray, lam: int, edge_mode: EdgeMode
) -> Hypergraph:
    """Union of intra-slide spatial and inter-slide similarity edges."""
    n = feats.shape[0]
    lists = []
    if edge_mode in (EdgeMode.INTRA_ONLY, EdgeMode.BOTH):
        for sid in np.unique(slide_of):
            mask = slide_of == sid
            offset = int(np.nonzero(mask)[0][0])
            lists.append(intra_slide_edges(coords[mask], lam, index_offset=offset))
    if edge_mode in (EdgeMode.INTER_ONLY, EdgeMode.BOTH):
        lists.append(inter_slide_edges(feats, lam))
    return merge(n, *lists)


def prepare_record(
    record: PatientRecord, cfg: TrainConfig, missing: Modality | None = None
) -> PreparedRecord:
    """Per-record tensors; with pathology withheld, its tensors and hypergraph stay None."""
    x_raw = coords = hg_ms = None
    if record.has_pathology and missing is not Modality.PATH:
        feats, crds, owner = [], [], []
        for s in record.slides:
            rng = substream(cfg.seed, "subsample", record.patient_id, s.slide_id)
            f, c = _subsample(s.features, s.coords, cfg.n_max, rng)
            feats.append(f)
            crds.append(c)
            owner.append(np.full(f.shape[0], len(owner)))
        x_raw = np.vstack(feats)
        coords = np.vstack(crds)
        slide_of = np.concatenate(owner)
        hg_ms = build_multislide_graph(x_raw, coords, slide_of, cfg.lam, cfg.edge_mode)
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
    hg_ga: Hypergraph | None
    acts_ga: list[np.ndarray] | None
    n_patches: int
    n_groups: int
    fusion: np.ndarray
    missing: Modality | None


def _encode_genes(gene_raw, params):
    pre1, hidden, enc = [], [], []
    for w, raw in enumerate(gene_raw):
        p1 = raw @ params.gene_w1[w] + params.gene_b1[w]
        h = leaky(p1)
        enc.append(h @ params.gene_w2[w] + params.gene_b2[w])
        pre1.append(p1)
        hidden.append(h)
    return pre1, hidden, np.vstack(enc)


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
        xp = x_raw @ params.adapter_w + params.adapter_b
    else:
        query = genes_enc.mean(axis=0)
        standin = bank.retrieve_missing(query, available=Modality.GENE)
        x_raw = standin[None, :]
        hg_ms = Hypergraph(1, [(frozenset({0}), 1.0)])  # the stand-in's self-loop
        xp = x_raw  # stand-in enters already encoded

    acts_ms = stack_forward(xp, hg_ms, params.ms_layers)
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
            gene_build = gene_attentive_edges(genes_enc, ph, params.attn, cfg.beta_fraction)
            edges = gene_build.edges
        else:
            rng = substream(cfg.seed, "random-edges", record.patient_id)
            edges = random_gene_edges(w_eff, n, cfg.beta_fraction, rng)
        hg_ga = merge(n + w_eff, edges)
        acts_ga = stack_forward(np.vstack([ph, genes_enc]), hg_ga, params.ga_layers)
        pooled_p = acts_ga[-1][:n].mean(axis=0)
        pooled_g = acts_ga[-1][n:].mean(axis=0)

    fusion = np.concatenate([pooled_p, pooled_g])
    logits = fusion @ params.head_w + params.head_b
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


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays().items()}


def backward(
    fwd: ForwardResult,
    prepared: PreparedRecord,
    params: ModelParams,
    cfg: TrainConfig,
    d_logits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter (complete records only)."""
    if fwd.missing is not None:
        raise ValueError("backward requires a complete-modality forward")
    grads = zero_grads(params)
    n, w_eff = fwd.n_patches, fwd.n_groups

    grads["head_w"][:] = np.outer(fwd.fusion, d_logits)
    grads["head_b"][:] = d_logits
    d_fusion = params.head_w @ d_logits
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
        want_w = cfg.fusion_mode is FusionMode.HYPERGRAPH_ATTN
        d_xg_in, d_thetas, d_w = stack_backward(
            fwd.hg_ga, params.ga_layers, fwd.acts_ga, d_xg_out, want_weight_grad=want_w
        )
        for i, dt in enumerate(d_thetas):
            grads[f"ga{i}_theta"][:] = dt
        d_ph += d_xg_in[:n]
        d_genes_enc += d_xg_in[n:]
        if want_w:
            build = fwd.gene_build
            keep = len(build.retained[0])
            d_probs = np.zeros_like(build.probs)
            for w in range(w_eff):
                d_probs[w, build.retained[w]] = d_w[w] * n / keep
            d_scores = softmax_rows_backward(build.probs, d_probs)
            dg_attn, dp_attn, d_wq, d_wk = attn_scores_backward(
                fwd.genes_enc, fwd.acts_ms[-1], params.attn, d_scores
            )
            d_genes_enc += dg_attn
            d_ph += dp_attn
            grads["attn_wq"][:] = d_wq
            grads["attn_wk"][:] = d_wk

    d_xp, d_thetas_ms, _ = stack_backward(fwd.hg_ms, params.ms_layers, fwd.acts_ms, d_ph)
    for i, dt in enumerate(d_thetas_ms):
        grads[f"ms{i}_theta"][:] = dt
    grads["adapter_w"][:] = fwd.x_raw.T @ d_xp
    grads["adapter_b"][:] = d_xp.sum(axis=0)

    for w in range(w_eff):
        dg = d_genes_enc[w]
        h = fwd.gene_hidden[w]
        grads[f"gene{w}_w2"][:] = np.outer(h, dg)
        grads[f"gene{w}_b2"][:] = dg
        dh = params.gene_w2[w] @ dg
        dpre1 = dh * leaky_grad(fwd.gene_pre1[w])
        grads[f"gene{w}_w1"][:] = np.outer(prepared.gene_raw[w], dpre1)
        grads[f"gene{w}_b1"][:] = dpre1
    return grads


# ---------------------------------------------------------------------------
# optimizer and training


def adam_init(params: ModelParams) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.arrays().items()},
        "v": {k: np.zeros_like(v) for k, v in params.arrays().items()},
    }


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float,
    weight_decay: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
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
        fwd = forward(rec, params, cfg)
        loss, grad_logits = nll_loss([fwd.output], [rec.record.label])
        grads = backward(fwd, rec, params, cfg, grad_logits[0])
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

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig, gene_raw_lens: list[int]) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "d": params.d,
        "bins": params.n_bins,
        "gene_raw_lens": list(gene_raw_lens),
        "ms_nonlin": [l.use_nonlinearity for l in params.ms_layers],
        "ga_nonlin": [l.use_nonlinearity for l in params.ga_layers],
        "config": cfg.to_dict(),
    }
    arrays = dict(params.arrays())
    arrays["_meta"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez(path, **arrays)


def load_checkpoint(
    path, expect_d: int | None = None, expect_bins: int | None = None
) -> tuple[ModelParams, TrainConfig, dict]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["_meta"]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        if expect_d is not None and meta["d"] != expect_d:
            raise ValueError(f"checkpoint d={meta['d']} does not match expected d={expect_d}")
        if expect_bins is not None and meta["bins"] != expect_bins:
            raise ValueError(
                f"checkpoint bins={meta['bins']} does not match expected bins={expect_bins}"
            )
        cfg = TrainConfig.from_dict(meta["config"])
        n_groups = len(meta["gene_raw_lens"])
        params = ModelParams(
            adapter_w=data["adapter_w"].copy(),
            adapter_b=data["adapter_b"].copy(),
            gene_w1=[data[f"gene{w}_w1"].copy() for w in range(n_groups)],
            gene_b1=[data[f"gene{w}_b1"].copy() for w in range(n_groups)],
            gene_w2=[data[f"gene{w}_w2"].copy() for w in range(n_groups)],
            gene_b2=[data[f"gene{w}_b2"].copy() for w in range(n_groups)],
            attn=AttnParams(wq=data["attn_wq"].copy(), wk=data["attn_wk"].copy()),
            ms_layers=[
                ConvLayerParams(theta=data[f"ms{i}_theta"].copy(), use_nonlinearity=nl)
                for i, nl in enumerate(meta["ms_nonlin"])
            ],
            ga_layers=[
                ConvLayerParams(theta=data[f"ga{i}_theta"].copy(), use_nonlinearity=nl)
                for i, nl in enumerate(meta["ga_nonlin"])
            ],
            head_w=data["head_w"].copy(),
            head_b=data["head_b"].copy(),
        )
    return params, cfg, meta


def cohort_gene_raw_lens(cohort: Cohort) -> list[int]:
    for p in cohort.patients:
        if p.genes is not None:
            return p.genes.raw_lengths
    raise ValueError("no patient with gene data in cohort")
