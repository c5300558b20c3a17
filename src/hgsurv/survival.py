"""Discrete-time hazard head, survival transform, risk score, and the
censored negative log-likelihood with exact logit gradients.

Per-bin hazards come from a sigmoid over B logits, clamped to
[EPS, 1-EPS] so every logarithm below is finite. Survival is the running
product of (1 - hazard). The printed form of the training objective in
the source literature sums log-probabilities without negation; what is
implemented here is the standard negated loss:

    event at bin t:    -log h[t] - log S[t-1]      (S[-1] = 1)
    censored at bin t: -log S[t]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Censor, SurvivalLabel

EPS = 1e-7


@dataclass
class HazardOutput:
    hazards: np.ndarray  # B values in (0, 1)
    survival: np.ndarray  # B values, cumulative product of 1 - hazard
    risk: float  # -sum(survival), strictly increasing in every hazard

    @property
    def n_bins(self) -> int:
        return self.hazards.shape[0]


def hazards_from_logits(logits: np.ndarray) -> HazardOutput:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or not np.all(np.isfinite(logits)):
        raise ValueError("logits must be a finite vector")
    hazards = np.clip(1.0 / (1.0 + np.exp(-logits)), EPS, 1.0 - EPS)
    survival = np.cumprod(1.0 - hazards)
    return HazardOutput(hazards=hazards, survival=survival, risk=float(-survival.sum()))


def _sample_loss_and_hazard_grad(out: HazardOutput, label: SurvivalLabel) -> tuple[float, np.ndarray]:
    h = out.hazards
    t = label.bin
    if not 0 <= t < h.shape[0]:
        raise ValueError(f"bin {t} outside [0, {h.shape[0]})")
    d_h = np.zeros_like(h)
    log1m = np.log(1.0 - h)
    if label.censor is Censor.EVENT:
        loss = -np.log(h[t]) - log1m[:t].sum()
        d_h[t] = -1.0 / h[t]
        d_h[:t] = 1.0 / (1.0 - h[:t])
    else:
        loss = -log1m[: t + 1].sum()
        d_h[: t + 1] = 1.0 / (1.0 - h[: t + 1])
    return float(loss), d_h


def nll_loss(
    outputs: list[HazardOutput], labels: list[SurvivalLabel]
) -> tuple[float, list[np.ndarray]]:
    """Batch loss (sum over samples) and per-sample gradients w.r.t. the logits."""
    if not outputs:
        raise ValueError("empty batch")
    if len(outputs) != len(labels):
        raise ValueError("outputs and labels must align")
    total = 0.0
    grads = []
    for out, label in zip(outputs, labels):
        loss, d_h = _sample_loss_and_hazard_grad(out, label)
        total += loss
        # clamped hazards sit exactly at EPS / 1-EPS and get zero gradient
        h = out.hazards
        interior = (h != EPS) & (h != 1.0 - EPS)
        grads.append(d_h * np.where(interior, h * (1.0 - h), 0.0))
    return total, grads
