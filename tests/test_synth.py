import hashlib

import numpy as np
import pytest

from hgsurv.datamodel import Censor, validate_cohort
from hgsurv.synth import SynthConfig, generate, generate_detailed


def cohort_digest(cohort):
    h = hashlib.sha256()
    for p in cohort.patients:
        h.update(p.patient_id.encode())
        h.update(np.float64(p.label.time).tobytes())
        h.update(p.label.censor.value.encode())
        for s in p.slides:
            h.update(s.features.tobytes())
            h.update(s.coords.tobytes())
        for g in p.genes.groups:
            h.update(g.tobytes())
    h.update(cohort.bin_edges.tobytes())
    h.update(cohort.folds.tobytes())
    return h.hexdigest()


class TestGenerate:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(n_patients=8, patches_per_slide=6, d=8, w_groups=3, seed=11)
        assert cohort_digest(generate(cfg)) == cohort_digest(generate(cfg))

    def test_different_seeds_differ(self):
        a = SynthConfig(n_patients=8, patches_per_slide=6, d=8, w_groups=3, seed=1)
        b = SynthConfig(n_patients=8, patches_per_slide=6, d=8, w_groups=3, seed=2)
        assert cohort_digest(generate(a)) != cohort_digest(generate(b))

    def test_passes_validation(self):
        cohort = generate(SynthConfig(n_patients=10, seed=4))
        assert validate_cohort(cohort) == []

    def test_censor_rate_zero_all_events(self):
        cohort = generate(SynthConfig(n_patients=15, censor_rate=0.0, seed=5))
        assert all(p.label.censor is Censor.EVENT for p in cohort.patients)

    def test_structure(self):
        cfg = SynthConfig(
            n_patients=7, slides_per_patient=(1, 2), patches_per_slide=9, d=12, w_groups=4, seed=6
        )
        cohort = generate(cfg)
        assert len(cohort.patients) == 7
        assert cohort.d == 12
        assert cohort.n_bins == 4
        for p in cohort.patients:
            assert 1 <= len(p.slides) <= 2
            assert all(s.n_patches == 9 for s in p.slides)
            assert p.genes.n_groups == 4
            assert p.genes.raw_lengths == cfg.gene_raw_lengths()

    def test_folds_balanced(self):
        cohort = generate(SynthConfig(n_patients=20, n_folds=5, seed=7))
        counts = np.bincount(cohort.folds)
        assert counts.tolist() == [4, 4, 4, 4, 4]

    def test_rejects_full_censoring(self):
        with pytest.raises(ValueError):
            SynthConfig(censor_rate=1.0)

    @pytest.mark.parametrize("bad, message", [({"n_folds": 0}, "n_folds must be >= 1"),
                                              ({"n_folds": -2}, "n_folds must be >= 1"),
                                              ({"n_bins": 1}, "n_bins must be >= 2")])
    def test_rejects_fold_and_bin_counts(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(**bad)

    def test_more_folds_than_patients_allowed(self):
        assert generate(SynthConfig(n_patients=1, seed=2)).folds.tolist() == [0]

    def test_slide_offsets_shift_whole_slides(self):
        base = dict(n_patients=4, patches_per_slide=6, d=8, w_groups=2, seed=13)
        plain = generate(SynthConfig(slide_offset_noise=0.0, **base))
        shifted = generate(SynthConfig(slide_offset_noise=2.0, **base))
        assert validate_cohort(shifted) == []
        # per-slide mean displacement is much larger than within-slide spread changes
        for p0, p1 in zip(plain.patients, shifted.patients):
            for s0, s1 in zip(p0.slides, p1.slides):
                delta = s1.features.mean(axis=0) - s0.features.mean(axis=0)
                assert np.linalg.norm(delta) > 0.5


class TestPlantedSignal:
    def test_strong_signal_kendall_concordance(self):
        # direct pair-counting oracle between latent risk and times
        cfg = SynthConfig(n_patients=60, signal_strength=2.0, censor_rate=0.0, seed=0)
        cohort, latent = generate_detailed(cfg)
        t = np.array([p.label.time for p in cohort.patients])
        z = latent.z
        conc = disc = 0
        for i in range(60):
            for j in range(i + 1, 60):
                s = (z[i] - z[j]) * (t[i] - t[j])
                if s < 0:
                    conc += 1
                elif s > 0:
                    disc += 1
        assert (conc - disc) / (conc + disc) >= 0.9

    def test_null_signal_times_unrelated_to_latent(self):
        cfg = SynthConfig(n_patients=60, signal_strength=0.0, censor_rate=0.0, seed=9)
        cohort, latent = generate_detailed(cfg)
        t = np.array([p.label.time for p in cohort.patients])
        z = latent.z
        conc = disc = 0
        for i in range(60):
            for j in range(i + 1, 60):
                s = (z[i] - z[j]) * (t[i] - t[j])
                conc += s < 0
                disc += s > 0
        tau = (conc - disc) / (conc + disc)
        assert abs(tau) < 0.35  # ~4 sigma under the null at n=60

    def test_censored_observed_before_true_time(self):
        cfg = SynthConfig(n_patients=40, censor_rate=0.5, seed=10)
        cohort, latent = generate_detailed(cfg)
        for p, t_true in zip(cohort.patients, latent.true_times):
            if p.label.censor is Censor.CENSORED:
                assert p.label.time < t_true
            else:
                assert p.label.time == pytest.approx(t_true)
