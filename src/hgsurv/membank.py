"""Memory bank of paired pathology/genomic summary vectors.

During training every patient's pooled summaries are written with a
momentum rule (theta weights the NEW features). At inference the bank
substitutes a missing modality: cosine-match the available summary
against the stored column of the same modality, then softmax-average the
missing column over the top-mu entries.

File format: header `d=<int> theta=<real> mu=<int>`, then one line per
entry `key_id p0 ... p{d-1} g0 ... g{d-1}` in decimal text; floats are
repr()'d so a round-trip is bit-exact. Each key appears once; `load`
rejects a repeated key rather than momentum-blending it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Modality(Enum):
    PATH = "path"
    GENE = "gene"


@dataclass
class BankEntry:
    key_id: str
    path_vec: np.ndarray
    gene_vec: np.ndarray


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0  # zero-norm vectors score 0 against everything
    return float(u @ v / (nu * nv))


@dataclass
class MemoryBank:
    d: int
    theta: float = 0.9  # momentum on the new features
    mu: int = 1  # retrieval count
    entries: list[BankEntry] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        self._index = {e.key_id: i for i, e in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)

    def update(self, key_id: str, path_vec: np.ndarray, gene_vec: np.ndarray) -> None:
        path_vec = np.asarray(path_vec, dtype=np.float64)
        gene_vec = np.asarray(gene_vec, dtype=np.float64)
        if path_vec.shape != (self.d,) or gene_vec.shape != (self.d,):
            raise ValueError(f"bank vectors must have length {self.d}")
        if key_id not in self._index:
            self._index[key_id] = len(self.entries)
            self.entries.append(BankEntry(key_id, path_vec.copy(), gene_vec.copy()))
            return
        e = self.entries[self._index[key_id]]
        e.path_vec = self.theta * path_vec + (1.0 - self.theta) * e.path_vec
        e.gene_vec = self.theta * gene_vec + (1.0 - self.theta) * e.gene_vec

    def retrieve_missing(
        self, available_vec: np.ndarray, available: Modality, mu: int | None = None
    ) -> np.ndarray:
        """Softmax-weighted top-mu aggregate of the missing modality's column."""
        if not self.entries:
            raise ValueError("cold memory: bank is empty")
        available_vec = np.asarray(available_vec, dtype=np.float64)
        if available_vec.shape != (self.d,):
            raise ValueError(f"query must have length {self.d}")
        mu = self.mu if mu is None else mu
        mu = min(mu, len(self.entries))
        if available is Modality.PATH:
            keys = [e.path_vec for e in self.entries]
            values = [e.gene_vec for e in self.entries]
        else:
            keys = [e.gene_vec for e in self.entries]
            values = [e.path_vec for e in self.entries]
        sims = np.array([_cosine(available_vec, k) for k in keys])
        order = np.argsort(-sims, kind="stable")[:mu]  # ties -> lowest entry index
        sel = sims[order]
        w = np.exp(sel - sel.max())
        w /= w.sum()
        out = np.zeros(self.d, dtype=np.float64)
        for weight, idx in zip(w, order):
            out += weight * values[idx]
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"d={self.d} theta={self.theta!r} mu={self.mu}\n")
            for e in self.entries:
                vals = [repr(float(v)) for v in e.path_vec] + [repr(float(v)) for v in e.gene_vec]
                fh.write(" ".join([e.key_id] + vals) + "\n")

    @classmethod
    def load(cls, path) -> "MemoryBank":
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
        bank = cls(d=d, theta=float(head["theta"]), mu=int(head.get("mu", 1)))
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 1 + 2 * d:
                raise ValueError(f"{path} line {lineno}: expected {1 + 2 * d} fields, got {len(parts)}")
            if parts[0] in bank._index:
                raise ValueError(f"{path} line {lineno}: duplicate key {parts[0]!r}")
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            bank.update(parts[0], vec[:d], vec[d:])
        return bank
