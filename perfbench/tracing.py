"""In-memory span tracer installed around hgsurv's public functions from outside.

A wrapper is installed at every name a caller looks up: each attribute of a
loaded ``hgsurv`` module that is bound to the original function (``model``
imports ``stack_forward``, ``c_index`` and others by name), and the method on
the class for ``MemoryBank``. Spans are ``[name, start, end, parent, run_id]``
rows kept in a list; the benchmark writes them out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run_id: str):
        self.run_id = run_id
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, count=None):
        """Wrap fn in a span; count(counts, args, kwargs, result) runs in its own span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                # bookkeeping gets a span of its own so no layer's self time absorbs it
                cidx = self.begin("tracer.count")
                try:
                    count(self.counts, args, kwargs, result)
                finally:
                    self.end(cidx)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name, count or None) per function.

        owner is a module (the wrapper replaces every ``hgsurv`` module binding
        of the same function object) or a class (the method is replaced on it).
        """
        for owner, attr, name, count in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, count))
                else:
                    wrapped = self.wrap(raw, name, count)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, count)
            for modname, mod in list(sys.modules.items()):
                if not modname.startswith("hgsurv") or mod is None:
                    continue
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus the part covered by child spans.

    Children of one span run one after another in this single-threaded
    program; each child interval is clipped to its parent before subtracting.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    out: dict[str, float] = {}
    for (name, start, end, _, _), cov in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - cov
    return out


# -- counters ----------------------------------------------------------------


def _count_conv(counts, args, kwargs, result) -> None:
    hg = args[1] if len(args) > 1 else kwargs["hg"]
    counts["hgcore.vertices"] += hg.num_vertices
    counts["hgcore.incidences"] += sum(len(members) for members, _ in hg.edges)


def _count_edges(counts, args, kwargs, result) -> None:
    edges = result.edges if hasattr(result, "edges") else result
    counts["hyperedges.edges_built"] += len(edges)


def _count_scanned(counts, args, kwargs, result) -> None:
    counts["membank.entries_scanned"] += len(args[0])


def comparable_pairs(times: np.ndarray, events: np.ndarray) -> int:
    """Pairs (i, j) with t_i < t_j and an event at i, counted by sorting."""
    later = np.sort(times)
    t_ev = times[events]
    return int((later.size - np.searchsorted(later, t_ev, side="right")).sum())


def _count_pairs(counts, args, kwargs, result) -> None:
    points = args[0] if args else kwargs["points"]
    t = np.array([p.time for p in points], dtype=np.float64)
    e = np.array([p.event for p in points], dtype=bool)
    counts["metrics.c_index.pairs"] += comparable_pairs(t, e)


def targets():
    """Every traced function of hgsurv, with its span name and counter."""
    from hgsurv import attention, datamodel, hgcore, hyperedges, membank, metrics, model, survival

    return [
        (datamodel, "save_cohort", "datamodel.save_cohort", None),
        (datamodel, "load_cohort", "datamodel.load_cohort", None),
        (hyperedges, "intra_slide_edges", "hyperedges.intra_slide_edges", _count_edges),
        (hyperedges, "inter_slide_edges", "hyperedges.inter_slide_edges", _count_edges),
        (hyperedges, "merge", "hyperedges.merge", None),
        (hyperedges, "gene_attentive_edges", "hyperedges.gene_attentive_edges", _count_edges),
        (model, "prepare_record", "model.prepare_record", None),
        (model, "forward", "model.forward", None),
        (model, "backward", "model.backward", None),
        (model, "adam_step", "model.adam_step", None),
        (model, "save_checkpoint", "model.save_checkpoint", None),
        (model, "load_checkpoint", "model.load_checkpoint", None),
        (hgcore, "hg_conv_forward", "hgcore.hg_conv_forward", _count_conv),
        (hgcore, "hg_conv_backward_ext", "hgcore.hg_conv_backward_ext", _count_conv),
        (attention, "attn_scores", "attention.attn_scores", None),
        (attention, "attn_scores_backward", "attention.attn_scores_backward", None),
        (attention, "softmax_rows", "attention.softmax_rows", None),
        (survival, "nll_loss", "survival.nll_loss", None),
        (survival, "hazards_from_logits", "survival.hazards_from_logits", None),
        (membank.MemoryBank, "update", "membank.update", None),
        (membank.MemoryBank, "retrieve_missing", "membank.retrieve_missing", _count_scanned),
        (membank.MemoryBank, "save", "membank.save", None),
        (membank.MemoryBank, "load", "membank.load", None),
        (metrics, "c_index", "metrics.c_index", _count_pairs),
    ]

