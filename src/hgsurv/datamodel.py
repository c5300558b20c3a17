"""Core domain types shared across the pipeline, with validation and the
on-disk cohort format.

Cohort directory layout:

    cohort.json            d, bin edges, patient -> slide/gene file map, folds
    survival.csv           patient_id,time_months,event   (event=1: occurred)
    patches/<slide>.csv    header x,y,f0,...,f{d-1}, one patch per row
    genes/<patient>.csv    one row per group: name,v0,v1,...

Floats are written with repr() so a round-trip re-parses bit-exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np


class SlideKind(Enum):
    FFPE = "FFPE"
    FF = "FF"


class Censor(Enum):
    """Event semantics are kept symbolic; the loss maps them to indicators."""

    EVENT = "event"
    CENSORED = "censored"


@dataclass
class Slide:
    slide_id: str
    kind: SlideKind
    features: np.ndarray  # N x d
    coords: np.ndarray  # N x 2

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError(f"slide {self.slide_id}: needs at least one patch")
        if self.coords.shape != (self.features.shape[0], 2):
            raise ValueError(f"slide {self.slide_id}: coords must be N x 2")

    @property
    def n_patches(self) -> int:
        return self.features.shape[0]


@dataclass
class GeneGroups:
    groups: list[np.ndarray]  # raw per-group vectors, variable lengths allowed
    group_names: list[str]

    def __post_init__(self):
        self.groups = [np.asarray(g, dtype=np.float64) for g in self.groups]
        if len(self.groups) < 1:
            raise ValueError("at least one gene group required")
        if len(self.group_names) != len(self.groups):
            raise ValueError("one name per group required")
        if len(set(self.group_names)) != len(self.group_names):
            raise ValueError("group names must be unique")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def raw_lengths(self) -> list[int]:
        return [g.shape[0] for g in self.groups]


@dataclass
class SurvivalLabel:
    time: float  # months
    censor: Censor
    bin: int

    def __post_init__(self):
        if not (np.isfinite(self.time) and self.time >= 0):
            raise ValueError("time must be a nonnegative finite value")


@dataclass
class PatientRecord:
    patient_id: str
    slides: list[Slide]
    genes: GeneGroups | None
    label: SurvivalLabel

    @property
    def has_pathology(self) -> bool:
        return len(self.slides) > 0

    @property
    def has_genes(self) -> bool:
        return self.genes is not None


@dataclass
class Cohort:
    patients: list[PatientRecord]
    d: int
    bin_edges: np.ndarray  # B + 1 strictly increasing values
    folds: np.ndarray  # per-patient fold index, aligned with patients

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=np.float64)
        self.folds = np.asarray(self.folds, dtype=np.intp)

    @property
    def n_bins(self) -> int:
        return self.bin_edges.shape[0] - 1

    @property
    def n_folds(self) -> int:
        return int(self.folds.max()) + 1 if self.folds.size else 0

    @property
    def gene_layout(self) -> list[int] | None:
        """Gene group lengths of the first patient with genes; validation holds every patient to them."""
        return next((p.genes.raw_lengths for p in self.patients if p.genes is not None), None)


def bin_for_time(time: float, bin_edges: np.ndarray) -> int:
    """Map a time to its bin; outer edges act as -inf/+inf."""
    interior = np.asarray(bin_edges, dtype=np.float64)[1:-1]
    return int(np.searchsorted(interior, time, side="right"))


@dataclass
class BinAssignment:
    bin_edges: np.ndarray
    bins: np.ndarray
    used_fallback: bool  # equal-width edges were substituted for quantiles


def assign_bins(times, censors, n_bins: int) -> BinAssignment:
    """Quantile bin edges from the uncensored times, plus per-patient bins.

    Falls back to equal-width edges (flagged) when the quantiles collapse,
    e.g. all times equal or too few distinct event times.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    times = np.asarray(times, dtype=np.float64)
    censors = list(censors)
    if times.shape[0] != len(censors):
        raise ValueError("times and censors must align")
    uncensored = times[[c is Censor.EVENT for c in censors]]
    ref = uncensored if uncensored.size else times
    fallback = uncensored.size == 0

    qs = np.quantile(ref, np.linspace(0, 1, n_bins + 1))
    if not np.all(np.diff(qs) > 0):
        fallback = True
        lo, hi = float(times.min()), float(times.max())
        if hi > lo:
            qs = np.linspace(lo, hi, n_bins + 1)
        else:
            qs = lo + np.arange(n_bins + 1, dtype=np.float64)
    bins = np.array([bin_for_time(t, qs) for t in times], dtype=np.intp)
    return BinAssignment(bin_edges=qs, bins=bins, used_fallback=fallback)


def validate_cohort(cohort: Cohort) -> list[str]:
    """Every invariant violation, tagged with the offending patient."""
    problems = []
    if cohort.bin_edges.ndim != 1 or cohort.bin_edges.shape[0] < 3:
        problems.append("cohort: bin_edges must hold at least 3 values")
    elif not np.all(np.diff(cohort.bin_edges) > 0):
        problems.append("cohort: bin_edges must be strictly increasing")
    if cohort.folds.shape[0] != len(cohort.patients):
        problems.append("cohort: folds must align with patients")
    layout = cohort.gene_layout
    for i, p in enumerate(cohort.patients):
        if not p.has_pathology and not p.has_genes:
            problems.append(f"{p.patient_id}: empty record (no modality present)")
        for s in p.slides:
            if s.features.shape[1] != cohort.d:
                problems.append(
                    f"{p.patient_id}: slide {s.slide_id} width {s.features.shape[1]} != cohort d {cohort.d}"
                )
            if not np.all(np.isfinite(s.features)) or not np.all(np.isfinite(s.coords)):
                problems.append(f"{p.patient_id}: slide {s.slide_id} has non-finite entries")
        if p.genes is not None and p.genes.raw_lengths != layout:
            problems.append(f"{p.patient_id}: gene group lengths {p.genes.raw_lengths} != {layout} "
                            "of the first patient with genes")
        if p.genes is not None and not np.isfinite(np.concatenate(p.genes.groups)).all():
            for name, values in zip(p.genes.group_names, p.genes.groups):
                if not np.isfinite(values).all():
                    problems.append(f"{p.patient_id}: gene group {name} has non-finite entries")
        if cohort.bin_edges.shape[0] >= 3 and np.all(np.diff(cohort.bin_edges) > 0):
            expect = bin_for_time(p.label.time, cohort.bin_edges)
            if p.label.bin != expect:
                problems.append(
                    f"{p.patient_id}: bin {p.label.bin} inconsistent with edges (expect {expect})"
                )
        if cohort.folds.shape[0] == len(cohort.patients) and cohort.folds[i] < 0:
            problems.append(f"{p.patient_id}: negative fold index")
    return problems


# ---------------------------------------------------------------------------
# cohort file I/O


def _write_csv_row(fh, values) -> None:
    fh.write(",".join(values) + "\n")


def save_cohort(cohort: Cohort, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "patches"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "genes"), exist_ok=True)

    manifest = {
        "d": cohort.d,
        "bin_edges": [float(v) for v in cohort.bin_edges],
        "patients": [],
    }
    with open(os.path.join(out_dir, "survival.csv"), "w") as surv:
        surv.write("patient_id,time_months,event\n")
        for i, p in enumerate(cohort.patients):
            event = 1 if p.label.censor is Censor.EVENT else 0
            _write_csv_row(surv, [p.patient_id, repr(float(p.label.time)), str(event)])
            entry = {
                "patient_id": p.patient_id,
                "fold": int(cohort.folds[i]),
                "slides": [],
                "genes_file": None,
            }
            for s in p.slides:
                rel = os.path.join("patches", f"{s.slide_id}.csv")
                entry["slides"].append({"slide_id": s.slide_id, "kind": s.kind.value, "file": rel})
                with open(os.path.join(out_dir, rel), "w") as fh:
                    fh.write("x,y," + ",".join(f"f{j}" for j in range(cohort.d)) + "\n")
                    for r in range(s.n_patches):
                        vals = [repr(float(s.coords[r, 0])), repr(float(s.coords[r, 1]))]
                        vals += [repr(float(v)) for v in s.features[r]]
                        _write_csv_row(fh, vals)
            if p.genes is not None:
                rel = os.path.join("genes", f"{p.patient_id}.csv")
                entry["genes_file"] = rel
                with open(os.path.join(out_dir, rel), "w") as fh:
                    for name, vec in zip(p.genes.group_names, p.genes.groups):
                        _write_csv_row(fh, [name] + [repr(float(v)) for v in vec])
            manifest["patients"].append(entry)
    with open(os.path.join(out_dir, "cohort.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _floats(fields: list[str], path: str, lineno: int, width: int | None = None) -> list[float]:
    """One line's fields as floats; a wrong field count or a non-number fails naming the file and line."""
    if width is not None and len(fields) != width:
        raise ValueError(f"{path} line {lineno}: expected {width} fields, got {len(fields)}")
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise ValueError(f"{path} line {lineno}: {exc}") from None


def load_cohort(in_dir: str) -> Cohort:
    manifest_path = os.path.join(in_dir, "cohort.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no cohort manifest at {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    d = int(manifest["d"])
    bin_edges = np.asarray(manifest["bin_edges"], dtype=np.float64)

    listed = {entry["patient_id"] for entry in manifest["patients"]}
    labels: dict[str, tuple[float, Censor]] = {}
    with open(os.path.join(in_dir, "survival.csv")) as fh:
        header = fh.readline()
        if header.strip() != "patient_id,time_months,event":
            raise ValueError(f"survival.csv: unexpected header {header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 3:
                raise ValueError(f"survival.csv line {lineno}: expected 3 fields")
            pid, time_s, event_s = parts
            if event_s not in ("0", "1"):
                raise ValueError(f"survival.csv line {lineno}: event flag {event_s!r} is not 0 or 1")
            if pid in labels:
                raise ValueError(f"survival.csv line {lineno}: patient {pid} listed twice")
            if pid not in listed:
                raise ValueError(f"survival.csv line {lineno}: patient {pid} is not in cohort.json")
            time = _floats([time_s], "survival.csv", lineno)[0]
            if not 0.0 <= time < np.inf:  # NaN fails too
                raise ValueError(f"survival.csv line {lineno}: time {time_s!r} is negative or not finite")
            labels[pid] = (time, Censor.EVENT if event_s == "1" else Censor.CENSORED)

    patients = []
    folds = []
    for entry in manifest["patients"]:
        pid = entry["patient_id"]
        if pid not in labels:
            raise ValueError(f"patient {pid} missing from survival.csv")
        time, censor = labels[pid]
        slides = []
        for sinfo in entry["slides"]:
            path = os.path.join(in_dir, sinfo["file"])
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                if header[:2] != ["x", "y"] or len(header) != d + 2:
                    raise ValueError(f"{path}: malformed patch table header")
                rows = [_floats(line.strip().split(","), path, lineno, d + 2)
                        for lineno, line in enumerate(fh, start=2) if line.strip()]
            arr = np.array(rows, dtype=np.float64).reshape(len(rows), d + 2)
            slides.append(
                Slide(
                    slide_id=sinfo["slide_id"],
                    kind=SlideKind(sinfo["kind"]),
                    features=arr[:, 2:],
                    coords=arr[:, :2],
                )
            )
        genes = None
        if entry.get("genes_file"):
            names, groups = [], []
            path = os.path.join(in_dir, entry["genes_file"])
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    parts = line.strip().split(",")
                    names.append(parts[0])
                    groups.append(np.array(_floats(parts[1:], path, lineno), dtype=np.float64))
            genes = GeneGroups(groups=groups, group_names=names)
        label = SurvivalLabel(time=time, censor=censor, bin=bin_for_time(time, bin_edges))
        patients.append(PatientRecord(patient_id=pid, slides=slides, genes=genes, label=label))
        folds.append(int(entry["fold"]))
    return Cohort(patients=patients, d=d, bin_edges=bin_edges, folds=np.asarray(folds, dtype=np.intp))
