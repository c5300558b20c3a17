import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import adam_init_per_array, adam_step_per_array, save_checkpoint_with_layout_keys

from hgsurv import hgcore, hyperedges, model
from hgsurv.datamodel import Censor, GeneGroups, PatientRecord, Slide, SlideKind, SurvivalLabel
from hgsurv.membank import MemoryBank, Modality
from hgsurv.model import (
    EdgeMode,
    FusionMode,
    ModelParams,
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    cohort_gene_raw_lens,
    evaluate,
    forward,
    forward_record,
    init_params,
    load_checkpoint,
    prepare_record,
    save_checkpoint,
    substream,
    train_epoch,
    train_fold,
    zero_grads,
)
from hgsurv.survival import nll_loss
from hgsurv.synth import SynthConfig, generate, generate_detailed

MICRO_SYNTH = dict(
    n_patients=1,
    slides_per_patient=(2, 2),
    patches_per_slide=3,
    d=4,
    w_groups=2,
    signal_strength=1.0,
    censor_rate=0.0,
    n_bins=2,
    n_folds=1,
)


def micro_setup(seed=3, cfg_seed=5, **cfg_kw):
    cohort, _ = generate_detailed(SynthConfig(seed=seed, **MICRO_SYNTH))
    rec = cohort.patients[0]
    cfg = TrainConfig(lam=2, beta_fraction=0.5, bins=2, seed=cfg_seed, **cfg_kw)
    params = init_params(4, SynthConfig(**MICRO_SYNTH).gene_raw_lengths(), cfg, substream(cfg_seed, "init"))
    return rec, cfg, params


def loss_of(prepared, params, cfg, label):
    fwd = forward(prepared, params, cfg)
    return nll_loss([fwd.output], [label])[0]


class TestDegenerateGraphIdentity:
    """lam=1 self-edges plus full gene edges with identity layers reduce to pooling."""

    def build(self, d=4, n=5, w=2, seed=0):
        rng = np.random.default_rng(seed)
        feats = np.abs(rng.standard_normal((n, d)))  # nonneg: every leaky layer acts as the identity
        coords = rng.uniform(0, 100, (n, 2))
        slides = [Slide("s0", SlideKind.FFPE, feats, coords)]
        genes = GeneGroups(
            groups=[rng.uniform(0.1, 2.0, d) for _ in range(w)],  # nonneg: hidden leaky is identity
            group_names=[f"g{i}" for i in range(w)],
        )
        rec = PatientRecord("p", slides, genes, SurvivalLabel(1.0, Censor.EVENT, 0))
        cfg = TrainConfig(lam=1, beta_fraction=1.0, bins=2, seed=1)
        params = ModelParams(d, 2, [d] * w, 2, 1)  # biases stay 0
        for name in ["adapter_w", "attn_wq", "attn_wk", "ms0_theta", "ms1_theta", "ga0_theta"]:
            params[name][...] = np.eye(d)
        for w1, _, w2, _ in params.genes:
            w1[...] = w2[...] = np.eye(d)
        params["head_w"][...] = np.random.default_rng(9).standard_normal((2 * d, 2))
        return rec, cfg, params

    def test_patch_rows_collapse_and_output_depends_on_mean_only(self):
        rec, cfg, params = self.build()
        fwd = forward_record(rec, params, cfg)
        pf = fwd.acts_ga[-1][: len(fwd.acts_ms[-1])]
        # every patch row of the fused representation is identical
        assert np.abs(pf - pf[0]).max() <= 1e-12
        # replacing all patches by their mean leaves the output unchanged
        rec_mean, _, _ = self.build()
        mean_feat = rec.slides[0].features.mean(axis=0)
        rec_mean.slides[0].features = np.tile(mean_feat, (5, 1))
        fwd_mean = forward_record(rec_mean, params, cfg)
        np.testing.assert_allclose(fwd_mean.logits, fwd.logits, atol=1e-12)

    def test_patch_permutation_invariance(self):
        rec, cfg, params = self.build()
        fwd = forward_record(rec, params, cfg)
        perm = np.random.default_rng(2).permutation(5)
        rec.slides[0].features = rec.slides[0].features[perm]
        rec.slides[0].coords = rec.slides[0].coords[perm]
        fwd_perm = forward_record(rec, params, cfg)
        np.testing.assert_allclose(fwd_perm.logits, fwd.logits, atol=1e-12)


class TestForwardContracts:
    def test_forward_deterministic_bitwise(self):
        rec, cfg, params = micro_setup()
        a = forward_record(rec, params, cfg)
        b = forward_record(rec, params, cfg)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.output.hazards, b.output.hazards)

    def test_missing_gene_uses_single_entry_bank(self):
        rec, cfg, params = micro_setup()
        bank = MemoryBank(d=4)
        bank.update("other", np.array([1.0, 2, 3, 4]), np.array([4.0, 3, 2, 1]))
        fwd = forward_record(rec, params, cfg, bank=bank, missing=Modality.GENE)
        np.testing.assert_array_equal(fwd.genes_enc[0], [4.0, 3, 2, 1])
        assert np.all(np.isfinite(fwd.logits))
        assert len(fwd.genes_enc) == 1

    def test_missing_path_single_standin_node(self):
        rec, cfg, params = micro_setup()
        bank = MemoryBank(d=4)
        bank.update("other", np.array([1.0, 2, 3, 4]), np.array([4.0, 3, 2, 1]))
        fwd = forward_record(rec, params, cfg, bank=bank, missing=Modality.PATH)
        assert len(fwd.acts_ms[-1]) == 1
        np.testing.assert_array_equal(fwd.x_raw[0], [1.0, 2, 3, 4])
        assert np.all(np.isfinite(fwd.logits))

    def test_missing_path_builds_no_slide_graph(self, monkeypatch):
        cohort = generate(SynthConfig(n_patients=8, patches_per_slide=5, d=4, w_groups=2,
                                      n_bins=2, seed=4))
        cfg = TrainConfig(lam=3, beta_fraction=0.5, bins=2, seed=2)
        params = init_params(4, cohort_gene_raw_lens(cohort), cfg, substream(2, "init"))
        bank = MemoryBank(d=4)
        rng = np.random.default_rng(0)
        for k in range(3):
            bank.update(f"b{k}", rng.standard_normal(4), rng.standard_normal(4))
        # reference: each record with its slides removed, so that pathology is absent, not withheld
        expected = [forward(prepare_record(dataclasses.replace(rec, slides=[]), cfg), params, cfg,
                            bank=bank).output.risk for rec in cohort.patients]
        calls = {"intra_slide_edges": 0, "inter_slide_edges": 0}
        for name in calls:
            original = getattr(model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        ev = evaluate(cohort.patients, params, cfg, bank, missing=Modality.PATH)
        assert calls == {"intra_slide_edges": 0, "inter_slide_edges": 0}
        assert [risk for _, risk in ev.risks] == expected  # bit-identical
        evaluate(cohort.patients, params, cfg, bank)
        assert calls["intra_slide_edges"] > 0 and calls["inter_slide_edges"] > 0

    def test_both_missing_rejected(self):
        rec, cfg, params = micro_setup()
        rec.genes = None
        bank = MemoryBank(d=4)
        bank.update("o", np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="both modalities"):
            forward_record(rec, params, cfg, bank=bank, missing=Modality.PATH)

    def test_missing_without_bank_rejected(self):
        rec, cfg, params = micro_setup()
        with pytest.raises(ValueError, match="memory bank"):
            forward_record(rec, params, cfg, missing=Modality.GENE)

    def test_record_with_absent_genes_triggers_retrieval(self):
        rec, cfg, params = micro_setup()
        rec.genes = None
        bank = MemoryBank(d=4)
        bank.update("o", np.ones(4), 2 * np.ones(4))
        prepared = prepare_record(rec, cfg)
        assert prepared.gene_raw is None
        fwd = forward(prepared, params, cfg, bank=bank)
        np.testing.assert_array_equal(fwd.genes_enc, 2 * np.ones((1, 4)))

    @pytest.mark.parametrize("withheld, absent", [(Modality.PATH, dict(slides=[])),
                                                  (Modality.GENE, dict(genes=None))])
    @pytest.mark.parametrize("fusion", list(FusionMode))
    def test_withheld_modality_is_decided_by_prepare_record(self, withheld, absent, fusion):
        """forward reads presence from the prepared record alone: withholding a modality in
        prepare_record gives the pass a record with that modality absent gets, bit for bit."""
        rec, cfg, params = micro_setup(fusion_mode=fusion)
        bank = MemoryBank(d=4)
        rng = np.random.default_rng(1)
        for k in range(3):
            bank.update(f"b{k}", rng.standard_normal(4), rng.standard_normal(4))
        withheld_prep = prepare_record(rec, cfg, withheld)
        absent_prep = prepare_record(dataclasses.replace(rec, **absent), cfg)
        for field in ("x_raw", "coords", "hg_ms", "gene_raw"):
            assert (getattr(withheld_prep, field) is None) == (getattr(absent_prep, field) is None), field
        got = forward(withheld_prep, params, cfg, bank)
        want = forward(absent_prep, params, cfg, bank)
        for field in ("logits", "pooled_p", "pooled_g", "x_raw", "genes_enc"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for a, b in zip(got.acts_ms + (got.acts_ga or []), want.acts_ms + (want.acts_ga or []), strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(got.output.hazards, want.output.hazards)

    @pytest.mark.parametrize("withheld", list(Modality))
    def test_backward_rejects_a_withheld_modality(self, withheld):
        rec, cfg, params = micro_setup()
        bank = MemoryBank(d=4)
        bank.update("o", np.ones(4), 2 * np.ones(4))
        prepared = prepare_record(rec, cfg, withheld)
        fwd = forward(prepared, params, cfg, bank)
        _, grad_logits = nll_loss([fwd.output], [rec.label])
        with pytest.raises(ValueError, match="complete-modality"):
            backward(fwd, prepared, params, cfg, grad_logits[0])


class TestFullPipelineGradient:
    def test_matches_finite_differences(self):
        rec, cfg, params = micro_setup()
        prepared = prepare_record(rec, cfg)
        fwd = forward(prepared, params, cfg)
        _, grad_logits = nll_loss([fwd.output], [rec.label])
        grads = backward(fwd, prepared, params, cfg, grad_logits[0])
        for name, arr in params.arrays().items():
            g = grads[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                h = 1e-6 * max(1.0, abs(orig))
                arr[ix] = orig + h
                lp = loss_of(prepared, params, cfg, rec.label)
                arr[ix] = orig - h
                lm = loss_of(prepared, params, cfg, rec.label)
                arr[ix] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - g[ix]) <= 1e-3 * max(abs(fd), abs(g[ix]), 1e-6), (
                    f"{name}{ix}: fd={fd:.3e} analytic={g[ix]:.3e}"
                )

    def test_every_parameter_gets_gradient_during_toy_epoch(self):
        cohort, _ = generate_detailed(
            SynthConfig(n_patients=4, slides_per_patient=(2, 2), patches_per_slide=4, d=4,
                        w_groups=2, n_bins=2, n_folds=1, seed=8)
        )
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=2, beta_fraction=0.5, bins=2, seed=2)
        params = init_params(4, cohort_gene_raw_lens(cohort), cfg, substream(2, "init"))
        # accumulate |grad| over one epoch's steps
        totals = {k: 0.0 for k in params.arrays()}
        opt = adam_init(params)
        bank = MemoryBank(d=4)
        for rec in cohort.patients:
            prepared = prepare_record(rec, cfg)
            fwd = forward(prepared, params, cfg)
            _, gl = nll_loss([fwd.output], [rec.label])
            grads = backward(fwd, prepared, params, cfg, gl[0])
            for k, g in grads.items():
                totals[k] += float(np.abs(g).sum())
            adam_step(params, grads, opt, cfg.lr, cfg.weight_decay)
            bank.update(rec.patient_id, fwd.pooled_p, fwd.pooled_g)
        dead = [k for k, v in totals.items() if v == 0.0]
        assert dead == [], f"dead parameter tensors: {dead}"

    def test_random_edges_mode_gives_attention_zero_gradient(self):
        rec, cfg, params = micro_setup(fusion_mode=FusionMode.RANDOM_EDGES)
        prepared = prepare_record(rec, cfg)
        fwd = forward(prepared, params, cfg)
        _, gl = nll_loss([fwd.output], [rec.label])
        grads = backward(fwd, prepared, params, cfg, gl[0])
        assert np.all(grads["attn_wq"] == 0.0)
        assert np.all(grads["attn_wk"] == 0.0)

    def test_random_edges_ignore_features(self):
        rec, cfg, params = micro_setup(fusion_mode=FusionMode.RANDOM_EDGES)
        fwd1 = forward_record(rec, params, cfg)
        rec.slides[0].features = rec.slides[0].features + 3.0  # features change
        fwd2 = forward_record(rec, params, cfg)
        assert [set(e) for e, _ in fwd1.hg_ga.edges] == [set(e) for e, _ in fwd2.hg_ga.edges]


class TestTraining:
    def test_lr_zero_leaves_params_unchanged(self):
        cohort = generate(SynthConfig(n_patients=3, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cfg = TrainConfig(lr=0.0, epochs=2, lam=3, beta_fraction=0.5, bins=4, seed=6)
        raw = cohort_gene_raw_lens(cohort)
        result = train_fold(cohort.patients, 8, raw, cfg, fold=0)
        fresh = init_params(8, raw, cfg, substream(6, "init", 0))
        for name, arr in result.params.arrays().items():
            np.testing.assert_array_equal(arr, fresh.arrays()[name])
        assert len(result.epoch_losses) == 2

    def test_loss_decreases_on_single_patient(self):
        cohort = generate(SynthConfig(n_patients=1, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cfg = TrainConfig(lr=5e-3, epochs=2, lam=3, beta_fraction=0.5, bins=4, seed=6)
        result = train_fold(cohort.patients, 8, cohort_gene_raw_lens(cohort), cfg)
        assert result.epoch_losses[1] <= result.epoch_losses[0]

    @pytest.mark.parametrize("fusion", [FusionMode.HYPERGRAPH_ATTN, FusionMode.RANDOM_EDGES])
    def test_training_step_propagates_once_per_layer_and_pass(self, monkeypatch, fusion):
        """Two slide-graph layers and one gene-graph layer: forward and backward each propagate once
        per layer, 6 in all, of which 4 are the slide graph's."""
        cohort = generate(SynthConfig(n_patients=1, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=3, beta_fraction=0.5, bins=4, seed=6, fusion_mode=fusion)
        params = init_params(8, cohort_gene_raw_lens(cohort), cfg, substream(6, "init"))
        prepared = [prepare_record(r, cfg) for r in cohort.patients]
        calls = {hgcore.Hypergraph: 0, hgcore.GeneGraph: 0}
        for cls in calls:
            def counted(graph, X, _cls=cls, _original=cls.propagate):
                calls[_cls] += 1
                return _original(graph, X)

            monkeypatch.setattr(cls, "propagate", counted)
        train_epoch(prepared, params, adam_init(params), cfg, MemoryBank(d=8), 0)
        assert calls == {hgcore.Hypergraph: 4, hgcore.GeneGraph: 2}

    def test_incomplete_training_record_rejected(self):
        cohort = generate(SynthConfig(n_patients=2, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cohort.patients[0].genes = None
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=3, beta_fraction=0.5, bins=4, seed=6)
        params = init_params(8, [12, 14], cfg, substream(6, "init"))
        prepared = [prepare_record(r, cfg) for r in cohort.patients]
        with pytest.raises(ValueError, match="both modalities"):
            train_epoch(prepared, params, adam_init(params), cfg, MemoryBank(d=8), 0)

    def test_training_deterministic(self):
        cohort = generate(SynthConfig(n_patients=4, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cfg = TrainConfig(lr=2e-3, epochs=2, lam=3, beta_fraction=0.5, bins=4, seed=6)
        raw = cohort_gene_raw_lens(cohort)
        r1 = train_fold(cohort.patients, 8, raw, cfg)
        r2 = train_fold(cohort.patients, 8, raw, cfg)
        for name, arr in r1.params.arrays().items():
            np.testing.assert_array_equal(arr, r2.params.arrays()[name])
        assert r1.epoch_losses == r2.epoch_losses

    def test_separable_toy_learns_and_handles_missing(self):
        cohort = generate(SynthConfig(n_patients=30, patches_per_slide=9, d=16, w_groups=3,
                                      signal_strength=2.5, censor_rate=0.1, seed=12))
        cfg = TrainConfig(lr=2e-3, epochs=15, lam=5, beta_fraction=0.3, bins=4, seed=3)
        result = train_fold(cohort.patients, 16, cohort_gene_raw_lens(cohort), cfg)
        ev = evaluate(cohort.patients, result.params, cfg, result.bank)
        assert ev.c_index >= 0.9  # training-fold fit on a separable toy
        ev_gene = evaluate(cohort.patients, result.params, cfg, result.bank, missing=Modality.GENE)
        ev_path = evaluate(cohort.patients, result.params, cfg, result.bank, missing=Modality.PATH)
        assert abs(ev.c_index - ev_gene.c_index) <= 0.15
        assert abs(ev.c_index - ev_path.c_index) <= 0.15


class TestEdgeCases:
    def test_subsampling_caps_patches_per_slide(self):
        cohort = generate(SynthConfig(n_patients=1, patches_per_slide=80, d=8, w_groups=2, seed=1))
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=5, beta_fraction=0.2, bins=4, seed=2)
        prep = prepare_record(cohort.patients[0], cfg)
        assert prep.x_raw.shape[0] == 64 * len(cohort.patients[0].slides)
        # deterministic across calls
        prep2 = prepare_record(cohort.patients[0], cfg)
        np.testing.assert_array_equal(prep.x_raw, prep2.x_raw)

    def test_substream_only_for_subsampled_slides(self, monkeypatch):
        cohort = generate(SynthConfig(n_patients=1, slides_per_patient=(2, 2), patches_per_slide=80, d=8,
                                      w_groups=2, seed=1))
        rec = cohort.patients[0]
        small, big = rec.slides
        small.features, small.coords = small.features[:64], small.coords[:64]  # fits n_max = 64
        calls = []

        def counted(*args, _original=model.substream):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(model, "substream", counted)
        cfg = TrainConfig(lam=5, beta_fraction=0.2, bins=4, seed=2)
        prep = prepare_record(rec, cfg)
        assert calls == [(2, "subsample", rec.patient_id, big.slide_id)]
        # the oversized slide keeps the rows its named substream draws
        rng = substream(2, "subsample", rec.patient_id, big.slide_id)
        idx = np.sort(rng.choice(80, size=64, replace=False))
        np.testing.assert_array_equal(prep.x_raw, np.vstack([small.features, big.features[idx]]))
        np.testing.assert_array_equal(prep.coords, np.vstack([small.coords, big.coords[idx]]))
        calls.clear()
        prep = prepare_record(rec, TrainConfig(lam=5, beta_fraction=0.2, bins=4, seed=2, n_max=80))
        assert calls == []
        np.testing.assert_array_equal(prep.x_raw, np.vstack([small.features, big.features]))

    def test_lambda_exceeding_patch_count_clamps(self):
        cohort = generate(SynthConfig(n_patients=2, patches_per_slide=4, slides_per_patient=(1, 1),
                                      d=8, w_groups=2, seed=3))
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=25, beta_fraction=0.5, bins=4, seed=2)
        result = train_fold(cohort.patients, 8, cohort_gene_raw_lens(cohort), cfg)
        assert np.isfinite(result.epoch_losses[0])

    def test_single_patch_patient_inter_only(self):
        cohort = generate(SynthConfig(n_patients=2, patches_per_slide=1, slides_per_patient=(1, 1),
                                      d=8, w_groups=2, seed=5))
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=9, beta_fraction=1.0, bins=4, seed=2,
                          edge_mode=EdgeMode.INTER_ONLY)
        result = train_fold(cohort.patients, 8, cohort_gene_raw_lens(cohort), cfg)
        assert np.isfinite(result.epoch_losses[0])

    def test_non_default_bin_count(self):
        cohort = generate(SynthConfig(n_patients=8, patches_per_slide=4, d=8, w_groups=2,
                                      seed=4, n_bins=3))
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=2, beta_fraction=0.5, bins=3, seed=2)
        result = train_fold(cohort.patients, 8, cohort_gene_raw_lens(cohort), cfg)
        assert result.params["head_b"].shape == (3,)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rec, cfg, params = micro_setup()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, cfg, [12, 14])
        loaded, loaded_cfg, meta = load_checkpoint(path, expect_d=4, expect_bins=2)
        for name, arr in params.arrays().items():
            np.testing.assert_array_equal(arr, loaded.arrays()[name])
        assert loaded_cfg == cfg
        assert meta == {"version": 2, "d": 4, "gene_raw_lens": [12, 14], "config": cfg.to_dict()}

    def test_v2_keeps_flat_bit_identical_and_rejects_a_wrong_length(self, tmp_path):
        rec, cfg, params = micro_setup()
        rng = np.random.default_rng(3)
        params.flat[:] = rng.standard_normal(params.flat.size) * 10.0 ** rng.integers(-300, 300, params.flat.size)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, cfg, [12, 14])
        with np.load(path) as data:
            assert set(data.files) == {"_meta", "flat"}
            meta = str(data["_meta"])
        assert json.loads(meta)["version"] == 2
        loaded = load_checkpoint(path)[0]
        assert loaded.flat.tobytes() == params.flat.tobytes()
        short = tmp_path / "short.npz"
        np.savez(short, flat=params.flat[:-1], _meta=np.array(meta))
        with pytest.raises(ValueError, match=f"length {params.flat.size - 1}, but the layout needs {params.flat.size}"):
            load_checkpoint(short)

    def test_non_finite_parameter_named(self, tmp_path):
        rec, cfg, params = micro_setup()
        params["head_b"][1] = np.nan  # written past the constructor's check, as a corrupted file would be
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, cfg, [12, 14])
        with pytest.raises(ValueError, match="parameter head_b is not finite"):
            load_checkpoint(path)

    def test_rejects_mismatched_dims(self, tmp_path):
        rec, cfg, params = micro_setup()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, cfg, [12, 14])
        with pytest.raises(ValueError, match="d="):
            load_checkpoint(path, expect_d=8)
        with pytest.raises(ValueError, match="bins="):
            load_checkpoint(path, expect_bins=6)

    def test_layout_keys_of_earlier_files_are_ignored(self, tmp_path):
        rec, cfg, params = micro_setup(ms_layers=1, ga_layers=2)
        params.flat[:] = np.random.default_rng(3).standard_normal(params.flat.size)
        path = tmp_path / "ckpt.npz"
        save_checkpoint_with_layout_keys(path, params, cfg, [12, 14])
        loaded, loaded_cfg, meta = load_checkpoint(path, expect_d=4, expect_bins=2)
        assert (meta["bins"], meta["ms_nonlin"], meta["ga_nonlin"]) == (2, [True], [True, True])
        assert loaded_cfg == cfg and loaded.flat.tobytes() == params.flat.tobytes()
        assert list(loaded) == list(params)
        with pytest.raises(ValueError, match="checkpoint bins=2 does not match expected bins=3"):
            load_checkpoint(path, expect_bins=3)


def names_today(n_groups, n_ms, n_ga):
    """Checkpoint key names of the parameters, in the order arrays() lists them."""
    names = ["adapter_w", "adapter_b"]
    for w in range(n_groups):
        names += [f"gene{w}_w1", f"gene{w}_b1", f"gene{w}_w2", f"gene{w}_b2"]
    names += ["attn_wq", "attn_wk"] + [f"ms{i}_theta" for i in range(n_ms)]
    return names + [f"ga{i}_theta" for i in range(n_ga)] + ["head_w", "head_b"]


def two_group_values():
    """A name -> array mapping for d=2, gene groups of raw lengths 3 and 5, two ms layers,
    one ga layer and 3 bins; every d x d matrix holds a distinct value."""
    square = ["adapter_w", "gene0_w2", "gene1_w2", "attn_wq", "attn_wk", "ms0_theta", "ms1_theta",
              "ga0_theta"]
    values = {k: np.full((2, 2), float(i)) for i, k in enumerate(square)}
    values.update(gene0_w1=np.ones((3, 2)), gene1_w1=np.ones((5, 2)), head_w=np.ones((4, 3)))
    for name in ["adapter_b", "gene0_b1", "gene0_b2", "gene1_b1", "gene1_b2", "head_b"]:
        values[name] = np.zeros(3 if name == "head_b" else 2)
    return values


class TestFlatBuffer:
    def test_fields_are_views_of_one_buffer(self):
        for params in (micro_setup()[2], TestDegenerateGraphIdentity().build()[2]):
            arrays = params.arrays()
            assert list(arrays) == names_today(2, 2, 1)
            flat = arrays.flat
            assert flat.dtype == np.float64 and flat.flags.c_contiguous
            assert flat.size == sum(a.size for a in arrays.values())
            assert all(np.shares_memory(a, flat) for a in arrays.values())
            fields = []
            for group in params.genes:
                fields += group
            fields += params.ms_thetas + params.ga_thetas
            names = [n for n in names_today(2, 2, 1) if n.startswith(("gene", "ms", "ga"))]
            assert all(f is arrays[n] for f, n in zip(fields, names, strict=True))
            flat[:] = np.arange(flat.size)
            assert params["head_b"][-1] == flat.size - 1 and params["adapter_w"][0, 1] == 1.0
            assert params.arrays() is arrays  # cached, not rebuilt

    def test_constructor_copies_and_rejects_bad_shapes(self):
        values = two_group_values()
        params = ModelParams(2, 3, [3, 5], 2, 1, values)
        assert not any(np.shares_memory(params.flat, a) for a in values.values())
        assert params.d == 2 and params["head_b"].shape == (3,)
        np.testing.assert_array_equal(params.genes[1][0], np.ones((5, 2)))
        with pytest.raises(ValueError, match="head_w"):
            ModelParams(2, 3, [3, 5], 2, 1, {**values, "head_w": np.ones((5, 3))})
        with pytest.raises(ValueError, match="gene0_b2"):
            ModelParams(2, 3, [3, 5], 2, 1, {**values, "gene0_b2": np.zeros(3)})
        with pytest.raises(ValueError, match="gene1_w1"):  # a raw length that does not fit
            ModelParams(2, 3, [3, 4], 2, 1, values)
        del values["gene1_b1"]
        with pytest.raises(ValueError, match="gene1_b1"):
            ModelParams(2, 3, [3, 5], 2, 1, values)

    def test_constructor_copies_each_array_to_its_own_name(self):
        # every d x d field gets a distinct value, so a copy by position into a reordered
        # layout would show even though all the shapes agree
        values = two_group_values()
        params = ModelParams(2, 3, [3, 5], 2, 1, values)
        for name, value in values.items():
            np.testing.assert_array_equal(params.arrays()[name], value, err_msg=name)

    @pytest.mark.parametrize("bad, first", [(["head_b"], "head_b"), (["head_w", "gene1_w1"], "gene1_w1"),
                                            (["ga0_theta"], "ga0_theta")])
    def test_constructor_names_the_first_non_finite_parameter(self, bad, first):
        values = two_group_values()
        for name in bad:
            values[name] = values[name].copy()
            values[name].flat[-1] = np.nan if name != "head_w" else np.inf
        with pytest.raises(ValueError, match=f"parameter {first} is not finite"):
            ModelParams(2, 3, [3, 5], 2, 1, values)

    def test_zero_grads_is_one_zero_vector_apart_from_params(self):
        _, _, params = micro_setup()
        grads = zero_grads(params)
        assert list(grads) == list(params.arrays())
        assert grads.flat.shape == params.arrays().flat.shape and not grads.flat.any()
        assert all(np.shares_memory(g, grads.flat) for g in grads.values())
        assert not np.shares_memory(grads.flat, params.arrays().flat)

    def test_backward_reuses_one_buffer_cleared_whole(self):
        rec, cfg, params = micro_setup()
        prepared = prepare_record(rec, cfg)
        grads = {}
        for fusion in (FusionMode.HYPERGRAPH_ATTN, FusionMode.CONCAT):
            c = TrainConfig(**{**cfg.__dict__, "fusion_mode": fusion})
            fwd = forward(prepared, params, c)
            _, gl = nll_loss([fwd.output], [rec.label])
            grads[fusion] = backward(fwd, prepared, params, c, gl[0])
            snapshot = grads[fusion].flat.copy()
            assert backward(fwd, prepared, params, c, gl[0]).flat.tolist() == snapshot.tolist()
            assert grads[fusion]["attn_wq"].any() == (fusion is FusionMode.HYPERGRAPH_ATTN)
        assert grads[FusionMode.HYPERGRAPH_ATTN] is grads[FusionMode.CONCAT]
        concat = grads[FusionMode.CONCAT]
        assert not concat["attn_wq"].any() and not concat["attn_wk"].any() and not concat["ga0_theta"].any()


@st.composite
def adam_runs(draw):
    """A random parameter layout and a few steps of random gradients and hyper-parameters."""
    d = draw(st.integers(1, 5))
    raw_lens = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    cfg = TrainConfig(bins=draw(st.integers(2, 4)), ms_layers=draw(st.integers(0, 2)),
                      ga_layers=draw(st.integers(0, 2)), seed=draw(st.integers(0, 2**16)))
    steps = draw(st.integers(1, 4))
    lr = draw(st.sampled_from([0.0, 1e-4, 2e-3, 0.5]))
    wd = draw(st.sampled_from([0.0, 1e-5, 1e-2]))
    return d, raw_lens, cfg, steps, lr, wd, draw(st.integers(0, 2**32 - 1))


class TestFusedAdam:
    @given(adam_runs())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_array_oracle_bitwise(self, run):
        d, raw_lens, cfg, steps, lr, wd, seed = run
        fused, ref = (init_params(d, raw_lens, cfg, substream(cfg.seed, "init")) for _ in range(2))
        s_fused, s_ref = adam_init(fused), adam_init_per_array(ref)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            g = rng.standard_normal(fused.arrays().flat.size) * rng.choice([1e-6, 1.0, 1e3])
            g[rng.random(g.size) < 0.2] = 0.0
            g_fused, g_ref = zero_grads(fused), zero_grads(ref)
            g_fused.flat[:] = g
            g_ref.flat[:] = g
            adam_step(fused, g_fused, s_fused, lr, wd)
            adam_step_per_array(ref, g_ref, s_ref, lr, wd)
            assert np.array_equal(fused.arrays().flat, ref.arrays().flat)
        assert s_fused["t"] == s_ref["t"] == steps
        assert np.array_equal(s_fused["m"], np.concatenate([m.ravel() for m in s_ref["m"].values()]))
        assert np.array_equal(s_fused["v"], np.concatenate([v.ravel() for v in s_ref["v"].values()]))

    def test_train_fold_matches_run_with_oracle_adam(self, monkeypatch):
        cohort = generate(SynthConfig(n_patients=5, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cfg = TrainConfig(lr=2e-3, weight_decay=1e-3, epochs=3, lam=3, beta_fraction=0.5, bins=4, seed=6)
        raw = cohort_gene_raw_lens(cohort)
        fused = train_fold(cohort.patients, 8, raw, cfg)
        monkeypatch.setattr(model, "adam_init", adam_init_per_array)
        monkeypatch.setattr(model, "adam_step", adam_step_per_array)
        ref = train_fold(cohort.patients, 8, raw, cfg)
        assert fused.epoch_losses == ref.epoch_losses
        for name, arr in fused.params.arrays().items():
            assert np.array_equal(arr, ref.params.arrays()[name]), name


class TestNonFiniteGuard:
    @pytest.mark.parametrize("where", ["loss", "gradient"])
    def test_names_patient_and_epoch(self, monkeypatch, where):
        cohort = generate(SynthConfig(n_patients=3, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cfg = TrainConfig(lr=1e-3, epochs=1, lam=3, beta_fraction=0.5, bins=4, seed=6)
        params = init_params(8, cohort_gene_raw_lens(cohort), cfg, substream(6, "init"))
        prepared = [prepare_record(r, cfg) for r in cohort.patients]
        bad = cohort.patients[1]
        if where == "loss":
            def poisoned(outputs, labels, _original=model.nll_loss):
                loss, grads = _original(outputs, labels)
                return (np.nan if labels[0] is bad.label else loss), grads

            monkeypatch.setattr(model, "nll_loss", poisoned)
        else:
            def poisoned(fwd, prepared, *args, _original=model.backward):
                grads = _original(fwd, prepared, *args)
                if prepared.record.patient_id == bad.patient_id:
                    grads["ms0_theta"][0, 0] = np.inf
                return grads

            monkeypatch.setattr(model, "backward", poisoned)
        with pytest.raises(ValueError, match=f"{bad.patient_id}: non-finite loss or gradient in epoch 3"):
            train_epoch(prepared, params, adam_init(params), cfg, MemoryBank(d=8), 3)
        assert np.isfinite(params.arrays().flat).all()  # the bad step was not applied


class TestHookContract:
    """The benchmark clocks training and evaluation through these module-level lookups."""

    def test_training_and_evaluation_call_through_module_names(self, monkeypatch):
        cohort = generate(SynthConfig(n_patients=4, patches_per_slide=4, d=8, w_groups=2, seed=4))
        cfg = TrainConfig(lr=1e-3, epochs=2, lam=3, beta_fraction=0.5, bins=4, seed=6)
        names = ["prepare_record", "train_epoch", "forward", "backward", "adam_step", "forward_record"]
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _original=getattr(model, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        n = len(cohort.patients)
        result = train_fold(cohort.patients, 8, cohort_gene_raw_lens(cohort), cfg)
        steps = n * cfg.epochs
        assert calls == dict(prepare_record=n, train_epoch=cfg.epochs, forward=steps, backward=steps,
                             adam_step=steps, forward_record=0)
        calls.update(dict.fromkeys(names, 0))
        evaluate(cohort.patients, result.params, cfg, result.bank)
        assert calls["forward_record"] == n and calls["forward"] == n
        assert calls["train_epoch"] == calls["adam_step"] == 0


    def test_parameter_mapping_contract(self):
        """What the benchmark's gradient check reads and writes: arrays() and backward's keys."""
        rec, cfg, params = micro_setup()
        arrays = params.arrays()
        layout = model.param_layout(4, 2, SynthConfig(**MICRO_SYNTH).gene_raw_lengths(), cfg.ms_layers,
                                    cfg.ga_layers)
        assert [(name, a.shape) for name, a in arrays.items()] == layout
        assert all(a.base is arrays.flat for a in arrays.values())
        prepared = prepare_record(rec, cfg)
        fwd = forward(prepared, params, cfg)
        _, gl = nll_loss([fwd.output], [rec.label])
        assert list(backward(fwd, prepared, params, cfg, gl[0])) == list(arrays)
        for name in ("head_b", "gene1_w1", "ms0_theta", "attn_wk"):
            before = forward(prepared, params, cfg).logits
            arrays[name][...] += 0.5
            assert not np.array_equal(forward(prepared, params, cfg).logits, before), name

    def test_graph_contract(self):
        """What the benchmark's counters read: builder lengths, edge sizes, retained indices."""
        cohort = generate(SynthConfig(n_patients=1, slides_per_patient=(2, 2), patches_per_slide=5, d=8,
                                      w_groups=3, seed=4))
        rec = cohort.patients[0]
        cfg = TrainConfig(lam=3, beta_fraction=0.5, bins=4, seed=6)
        params = init_params(8, cohort_gene_raw_lens(cohort), cfg, substream(6, "init"))
        slide = rec.slides[0]
        assert len(hyperedges.intra_slide_edges(slide.coords, cfg.lam)) == slide.n_patches
        assert len(hyperedges.inter_slide_edges(slide.features, cfg.lam)) == slide.n_patches
        prepared = prepare_record(rec, cfg)
        fwd = forward(prepared, params, cfg)
        build = fwd.gene_build
        for hg, rows in ((prepared.hg_ms, prepared.hg_ms.members), (fwd.hg_ga, build.edges)):
            pairs = hg.edges
            assert len(pairs) == hg.num_edges
            assert sum(len(members) for members, _ in pairs) == np.count_nonzero(rows >= 0)
            assert all(isinstance(w, float) for _, w in pairs)
        n_patches, n_groups = len(fwd.acts_ms[-1]), len(fwd.genes_enc)
        assert len(build.edges) == n_groups == len(list(build.retained))
        keep = math.ceil(cfg.beta_fraction * n_patches)
        for w, idx in enumerate(build.retained):
            assert idx.ndim == 1 and idx.dtype.kind == "i" and len(idx) == keep
            assert set(idx.tolist()) | {n_patches + w} == set(fwd.hg_ga.edges[w][0].tolist())
        assert build.scores.shape == (n_groups, n_patches)


class TestCheckpointV1:
    def test_v1_file_loads_and_saves_equal_arrays(self, tmp_path):
        rng = np.random.default_rng(0)
        d, bins, raw_lens = 3, 2, [5, 4]
        shapes = {"adapter_w": (d, d), "adapter_b": (d,), "head_w": (2 * d, bins), "head_b": (bins,)}
        for w, m in enumerate(raw_lens):
            shapes.update({f"gene{w}_w1": (m, d), f"gene{w}_b1": (d,), f"gene{w}_w2": (d, d), f"gene{w}_b2": (d,)})
        names = names_today(len(raw_lens), 2, 1)
        stored = {name: rng.standard_normal(shapes.get(name, (d, d))) for name in names}
        cfg = TrainConfig(bins=bins, ms_layers=2, ga_layers=1)
        meta = {"version": 1, "d": d, "bins": bins, "gene_raw_lens": raw_lens, "ms_nonlin": [True, False],
                "ga_nonlin": [True], "config": cfg.to_dict()}
        v1 = tmp_path / "v1.npz"
        np.savez(v1, **stored, _meta=np.array(json.dumps(meta, sort_keys=True)))
        params, loaded_cfg, loaded_meta = load_checkpoint(v1, expect_d=d, expect_bins=bins)
        assert loaded_cfg == cfg and loaded_meta == meta
        assert list(params.arrays()) == names
        for name in names:
            np.testing.assert_array_equal(params.arrays()[name], stored[name])
        np.testing.assert_array_equal(params.genes[1][0], stored["gene1_w1"])
        resaved = tmp_path / "resaved.npz"
        save_checkpoint(resaved, params, cfg, raw_lens)
        with np.load(resaved) as b:
            assert set(b.files) == {"_meta", "flat"}
        reloaded = load_checkpoint(resaved)[0]
        for name in names:
            np.testing.assert_array_equal(reloaded[name], stored[name])
