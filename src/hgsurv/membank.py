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

File format: the text file is the file of record. Its header is
`d=<int> theta=<real> mu=<int>`, then one line per entry
`key_id p0 ... p{d-1} g0 ... g{d-1}` in decimal text; floats are repr()'d
so a round-trip is bit-exact. Each key appears once; `load` rejects a
repeated key rather than momentum-blending it.

`save` also writes a binary mirror at `<path>.npz`, so `hgsurv train`
writes one more file per fold (`fold_k.bank.txt.npz`). It holds the live
(2, K, d) buffer `buf`, the keys in row order `keys`, and `sha256`, the
SHA-256 of the text bytes it mirrors (hashed line by line as the text is
written, so the file is never held whole). A bank with a key that is not one
whitespace-free token, or that a fixed-width string array would change,
gets no mirror. `load` reads the text's bytes once and builds the bank from
the mirror only when the mirror opens, its digest equals the hash of those
bytes, its buffer is finite float64 with the header's d, and its keys are
unique and as many as the buffer's rows. Otherwise it parses the text, so
an edited, replaced or older-version bank is never served from a stale
mirror.

The text parse is one streaming pass: each line is split once and its field
count and key are checked without converting anything, and the numeric
fields of all lines go through one np.fromiter(map(float, ...)) and one
np.isfinite, so only one line's fields are held as strings at a time. Only
a failed conversion or a non-finite value re-scans the lines, to name the
first bad one.
"""

from __future__ import annotations

import hashlib
import math
import zipfile
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path

import numpy as np


class Modality(Enum):
    PATH = "path"
    GENE = "gene"


@dataclass
class MemoryBank:
    d: int
    theta: float = 0.9  # momentum on the new features
    mu: int = 1  # retrieval count
    _index: dict[str, int] = field(default_factory=dict, init=False, repr=False)  # key -> row
    _buf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        self._buf = np.empty((2, 0, self.d))

    def __len__(self) -> int:
        return len(self._index)

    @property
    def key_ids(self) -> list[str]:
        """The entries' keys in row order."""
        return list(self._index)

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

    def retrieve_missing(self, available_vec: np.ndarray, available: Modality) -> np.ndarray:
        """Softmax-weighted top-mu aggregate of the missing modality's column."""
        if not (n := len(self)):
            raise ValueError("cold memory: bank is empty")
        query = self._checked([available_vec], "query")[0]
        mu = min(self.mu, n)
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
        """Write the text file at ``path`` and its binary mirror at ``<path>.npz``."""
        digest = hashlib.sha256()
        rows = zip(self._index, *self._buf[:, : len(self)].tolist())
        lines = chain([f"d={self.d} theta={self.theta!r} mu={self.mu}"],
                      (" ".join([key_id] + [repr(v) for v in p + g]) for key_id, p, g in rows))
        with open(path, "wb") as fh:
            for line in lines:
                data = f"{line}\n".encode()
                fh.write(data)
                digest.update(data)
        mirror = f"{path}.npz"
        keys = np.array(self.key_ids, dtype=str)
        # a key the text cannot hold as one token, or that a fixed-width string array changes
        # (a trailing NUL), gets no mirror; load then parses the text
        if keys.tolist() != self.key_ids or any(k.split() != [k] for k in self.key_ids):
            Path(mirror).unlink(missing_ok=True)
            return
        with open(mirror, "wb") as fh:  # through a handle: np.savez appends .npz to a bare path
            np.savez(fh, buf=self._buf[:, : len(self)], keys=keys, sha256=np.array(digest.hexdigest()))

    @classmethod
    def load(cls, path) -> "MemoryBank":
        """The bank in the text file at ``path``, built from its mirror when the mirror checks out."""
        with open(path, "rb") as fh:
            raw = fh.read()
        # the first line as splitlines() gives it, without decoding or splitting the rest
        if not (first := raw[: raw.find(b"\n") + 1 or None].decode().splitlines()):
            raise ValueError(f"{path}: empty bank file")
        try:
            head = dict(tok.split("=", 1) for tok in first[0].split())
        except ValueError:
            head = {}
        if "d" not in head or "theta" not in head:
            raise ValueError(f"{path} line 1: malformed header {first[0]!r}")
        d = int(head["d"])
        bank = cls(d=d, theta=float(head["theta"]), mu=int(head.get("mu", 1)))
        if (mirrored := _read_mirror(f"{path}.npz", raw, d)) is not None:
            bank._buf, keys = mirrored
            bank._index = {key: row for row, key in enumerate(keys)}
            return bank
        lines, error = raw.decode().splitlines(), None

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
        bank._buf = values.reshape(-1, 2, d).transpose(1, 0, 2).copy()
        return bank


def _read_mirror(mirror: str, text: bytes, d: int):
    """(buffer, keys) of the binary mirror when it opens and holds the SHA-256 of ``text``, a
    finite (2, K, d) float64 buffer and K unique keys; else None."""
    try:
        with open(mirror, "rb") as fh, np.load(fh) as npz:  # np.load leaks a handle it opens and fails on
            buf, keys, digest = npz["buf"], npz["keys"], str(npz["sha256"])
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if (digest != hashlib.sha256(text).hexdigest() or keys.dtype.kind != "U" or keys.ndim != 1
            or buf.dtype != np.float64 or buf.shape != (2, keys.size, d)):
        return None
    keys = keys.tolist()
    if len(set(keys)) != len(keys) or not np.isfinite(buf).all():
        return None
    return buf, keys
