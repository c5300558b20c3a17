"""Seed-controlled synthetic cohort generator with a planted risk signal.

Each patient carries a latent risk z ~ N(0,1). A spatially contiguous
subset of patches per slide ("informative region", the INFORMATIVE_FRAC
= 0.4 share of its patches) is shifted by z * signal_strength along a
fixed direction; gene-group vectors are shifted the same way along
per-group directions. Slides can optionally carry their own random batch
offset (slide_offset_noise), which confounds cross-slide feature
similarity but not spatial neighborhoods. Survival times are
TIME_SCALE = 24 months times exp(-signal_strength * z) times a noise
factor, so they shrink as z grows; the noise is tempered by
signal_strength so the planted ordering sharpens as the signal does.
At signal_strength == 0 the times are plain exponentials and all
features are independent of survival.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import (
    Censor,
    Cohort,
    GeneGroups,
    PatientRecord,
    Slide,
    SlideKind,
    SurvivalLabel,
    assign_bins,
    assign_folds,
)

INFORMATIVE_FRAC = 0.4  # share of each slide's patches in its informative region
TIME_SCALE = 24.0  # months: the survival time of a patient at z = 0 before the noise factor

GENE_GROUP_NAMES = [
    "tumor_suppression",
    "oncogenesis",
    "kinases",
    "cell_differentiation",
    "transcription",
    "cytokines",
]


@dataclass
class SynthConfig:
    n_patients: int = 60
    slides_per_patient: tuple[int, int] = (2, 3)
    patches_per_slide: int = 16
    d: int = 32
    w_groups: int = 6
    signal_strength: float = 1.0
    censor_rate: float = 0.2
    seed: int = 0
    feature_noise: float = 1.5
    slide_offset_noise: float = 0.0  # optional per-slide batch effect
    n_bins: int = 4
    n_folds: int = 5

    def __post_init__(self):
        if self.n_patients < 1 or self.patches_per_slide < 1 or self.d < 1 or self.w_groups < 1:
            raise ValueError("counts must be positive")
        if not (1 <= self.slides_per_patient[0] <= self.slides_per_patient[1]):
            raise ValueError("invalid slides_per_patient range")
        if not 0.0 <= self.censor_rate < 1.0:
            raise ValueError("censor_rate must lie in [0, 1)")
        if self.signal_strength < 0:
            raise ValueError("signal_strength must be nonnegative")
        if self.n_folds < 1:
            raise ValueError("n_folds must be >= 1")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")

    def gene_raw_lengths(self) -> list[int]:
        return [12 + 2 * w for w in range(self.w_groups)]


@dataclass
class SynthLatent:
    z: np.ndarray  # per-patient latent risk
    true_times: np.ndarray  # event times before censoring


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def generate(config: SynthConfig) -> Cohort:
    cohort, _ = generate_detailed(config)
    return cohort


def generate_detailed(config: SynthConfig) -> tuple[Cohort, SynthLatent]:
    ss = np.random.SeedSequence(config.seed)
    structure_rng, latent_rng, path_rng, gene_rng, time_rng, fold_rng = (
        np.random.default_rng(child) for child in ss.spawn(6)
    )
    d, s = config.d, config.signal_strength
    dir_patch = _unit(structure_rng, d)
    dir_cluster = _unit(structure_rng, d)
    proto_bg = 0.5 * structure_rng.standard_normal(d)
    raw_lens = config.gene_raw_lengths()
    gene_protos = [0.5 * structure_rng.standard_normal(m) for m in raw_lens]
    gene_dirs = [_unit(structure_rng, m) for m in raw_lens]
    group_names = [
        GENE_GROUP_NAMES[w] if w < len(GENE_GROUP_NAMES) else f"group_{w}"
        for w in range(config.w_groups)
    ]

    z = latent_rng.standard_normal(config.n_patients)
    patients = []
    true_times = np.zeros(config.n_patients)
    times = np.zeros(config.n_patients)
    censors: list[Censor] = []
    for i in range(config.n_patients):
        pid = f"P{i:03d}"
        lo, hi = config.slides_per_patient
        n_slides = int(path_rng.integers(lo, hi + 1))
        slides = []
        for k in range(n_slides):
            n_p = config.patches_per_slide
            side = math.ceil(math.sqrt(n_p))
            cells = [(r, c) for r in range(side) for c in range(side)][:n_p]
            coords = np.array(cells, dtype=np.float64) * 100.0 + path_rng.uniform(-30, 30, (n_p, 2))
            n_inf = int(round(INFORMATIVE_FRAC * n_p))
            corner = int(path_rng.integers(4))
            if corner in (2, 3):  # column-major scan
                order = sorted(range(n_p), key=lambda j: (cells[j][1], cells[j][0]))
            else:
                order = list(range(n_p))
            if corner in (1, 3):
                order = order[::-1]
            informative = np.zeros(n_p, dtype=bool)
            informative[np.asarray(order[:n_inf], dtype=np.intp)] = True
            feats = proto_bg + config.feature_noise * path_rng.standard_normal((n_p, d))
            if config.slide_offset_noise > 0:
                feats += config.slide_offset_noise * path_rng.standard_normal(d)
            feats[informative] += 1.5 * dir_cluster + s * z[i] * dir_patch
            kind = SlideKind.FFPE if k % 2 == 0 else SlideKind.FF
            slides.append(Slide(slide_id=f"{pid}_S{k}", kind=kind, features=feats, coords=coords))
        groups = []
        for w in range(config.w_groups):
            vec = (
                gene_protos[w]
                + s * z[i] * gene_dirs[w]
                + 0.5 * config.feature_noise * gene_rng.standard_normal(raw_lens[w])
            )
            groups.append(vec)
        genes = GeneGroups(groups=groups, group_names=list(group_names))

        # tempered noise: the z -> time link tightens as the signal grows
        e = time_rng.exponential()
        t_true = TIME_SCALE * math.exp(-s * z[i]) * e ** (1.0 / (1.0 + 2.0 * s))
        censored = time_rng.random() < config.censor_rate
        t_obs = t_true * time_rng.uniform(0.1, 1.0) if censored else t_true
        true_times[i] = t_true
        times[i] = t_obs
        censors.append(Censor.CENSORED if censored else Censor.EVENT)
        label = SurvivalLabel(time=float(t_obs), censor=censors[-1], bin=0)
        patients.append(PatientRecord(patient_id=pid, slides=slides, genes=genes, label=label))

    assignment = assign_bins(times, censors, config.n_bins)
    for p, b in zip(patients, assignment.bins):
        p.label.bin = int(b)
    folds = assign_folds(fold_rng, config.n_patients, config.n_folds)
    cohort = Cohort(patients=patients, d=d, bin_edges=assignment.bin_edges, folds=folds)
    return cohort, SynthLatent(z=z, true_times=true_times)
