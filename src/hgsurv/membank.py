"""Memory bank of paired pathology/genomic summary vectors.

During training every patient's pooled summaries are written with a
momentum rule (theta weights the NEW features). At inference the bank
substitutes a missing modality: cosine-match the available summary
against the stored column of the same modality in one vectorized pass (a
zero norm product scores 0; np.einsum, unlike BLAS gemv, rounds equal rows
equally, so exact ties stay exact), then softmax-average the missing
column over the top-mu entries, ties going to the lowest entry index.

Entry i is row i of the pathology and genomic columns, two K x d matrices
in one float64 buffer that doubles when full. Non-finite input is rejected.

File format: header `d=<int> theta=<real> mu=<int>`, then one line per
entry `key_id p0 ... p{d-1} g0 ... g{d-1}` in decimal text; floats are
repr()'d so a round-trip is bit-exact. Each key appears once; `load`
rejects a repeated key rather than momentum-blending it. `load` parses the
file in one streaming pass: each line is split once and its field count and
key are checked without converting anything, and the numeric fields of all
lines go through one np.fromiter(map(float, ...)) and one np.isfinite, so
only one line's fields are held as strings at a time. Only a failed
conversion or a non-finite value re-scans the lines, to name the first bad
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np


class Modality(Enum):
    PATH = "path"
    GENE = "gene"


@dataclass
class MemoryBank:
    d: int
    theta: float = 0.9  # momentum on the new features
    mu: int = 1  # retrieval count
    key_ids: list[str] = field(default_factory=list, init=False)
    _index: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _buf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        self._buf = np.empty((2, 0, self.d))

    def __len__(self) -> int:
        return len(self.key_ids)

    def column(self, modality: Modality) -> np.ndarray:
        """Read-only K x d view of one modality's stored vectors; row i is entry i."""
        view = self._buf[0 if modality is Modality.PATH else 1, : len(self)]
        view.flags.writeable = False
        return view

    def _checked(self, vecs: list, what: str) -> np.ndarray:
        if any(np.shape(v) != (self.d,) for v in vecs):
            raise ValueError(f"{what} must have length {self.d}")
        arr = np.array(vecs, dtype=np.float64)  # one (len(vecs), d) array, one finite check
        if not np.isfinite(arr).all():
            raise ValueError(f"{what} must be finite")
        return arr

    def update(self, key_id: str, path_vec: np.ndarray, gene_vec: np.ndarray) -> None:
        pair = self._checked([path_vec, gene_vec], "bank vectors")
        row = self._index.get(key_id)
        if row is not None:
            self._buf[:, row] = self.theta * pair + (1.0 - self.theta) * self._buf[:, row]
            return
        row = len(self)
        if row == self._buf.shape[1]:  # full: double the capacity
            self._buf = np.concatenate([self._buf, np.empty((2, max(1, row), self.d))], axis=1)
        self._buf[:, row] = pair
        self._index[key_id] = row
        self.key_ids.append(key_id)

    def retrieve_missing(
        self, available_vec: np.ndarray, available: Modality, mu: int | None = None
    ) -> np.ndarray:
        """Softmax-weighted top-mu aggregate of the missing modality's column."""
        if not (n := len(self)):
            raise ValueError("cold memory: bank is empty")
        query = self._checked([available_vec], "query")[0]
        mu = min(self.mu if mu is None else mu, n)
        other = Modality.GENE if available is Modality.PATH else Modality.PATH
        keys, values = self.column(available), self.column(other)
        norms = np.sqrt(np.einsum("ij,ij->i", keys, keys)) * np.linalg.norm(query)
        sims = np.divide(np.einsum("ij,j->i", keys, query), norms, out=np.zeros(n), where=norms != 0)
        # top-mu, ties -> lowest entry index: only the entries at or above the mu-th largest
        # value are stably sorted
        top = np.flatnonzero(sims >= np.partition(sims, n - mu)[n - mu])
        order = top[np.argsort(-sims[top], kind="stable")[:mu]]
        w = np.exp(sims[order] - sims[order[0]])  # order[0] holds the maximum
        return (w / w.sum()) @ values[order]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"d={self.d} theta={self.theta!r} mu={self.mu}\n")
            for key_id, p, g in zip(self.key_ids, *self._buf[:, : len(self)].tolist()):
                fh.write(" ".join([key_id] + [repr(v) for v in p + g]) + "\n")

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
        error = None

        def numeric_fields():  # each line's fields after its key, up to the first malformed line
            nonlocal error
            for lineno, line in enumerate(lines[1:], start=2):
                if not (parts := line.split()):
                    continue
                if len(parts) != 1 + 2 * d:
                    error = f"{path} line {lineno}: expected {1 + 2 * d} fields, got {len(parts)}"
                    return
                if parts[0] in bank._index:
                    error = f"{path} line {lineno}: duplicate key {parts[0]!r}"
                    return
                bank._index[parts[0]] = len(bank._index)
                yield parts[1:]

        try:
            values = np.fromiter(map(float, chain.from_iterable(numeric_fields())), dtype=np.float64)
        except ValueError:
            values = None
        # a bad value: re-scan to name its line, which comes before any malformed one's
        if values is None or not np.isfinite(values).all():
            for lineno, line in enumerate(lines[1:], start=2):
                try:
                    row = [float(v) for v in line.split()[1:]]
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"{path} line {lineno}: non-finite value")
        if error is not None:
            raise ValueError(error)
        bank.key_ids = list(bank._index)
        bank._buf = values.reshape(-1, 2, d).transpose(1, 0, 2).copy()
        return bank
