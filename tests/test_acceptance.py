"""Acceptance suite: one test per criterion, each ending in a printed
PASS line with the measured quantities.

The synthetic-cohort training runs are shared through a session fixture;
`pytest tests/test_acceptance.py -v -s` shows one line per criterion.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from hgsurv.attention import attn_scores, attn_scores_backward
from hgsurv.cli import main as cli_main
from hgsurv.datamodel import Censor
from hgsurv.hgcore import hg_conv_backward_ext, hg_conv_forward
from hgsurv.hyperedges import cosine_similarity_matrix, inter_slide_edges, intra_slide_edges
from hgsurv.membank import MemoryBank, Modality
from hgsurv.metrics import SurvPoint, c_index, km_curve, logrank_test, stratify_median
from hgsurv.model import (
    EdgeMode,
    FusionMode,
    TrainConfig,
    backward,
    cohort_gene_raw_lens,
    evaluate,
    forward,
    init_params,
    prepare_record,
    substream,
    train_fold,
)
from hgsurv.survival import hazards_from_logits, nll_loss
from hgsurv.synth import SynthConfig, generate, generate_detailed
from oracles import hypergraph, propagation_matrix

pytestmark = pytest.mark.slow  # minutes of training: `pytest -m "not slow"` leaves them out

SEEDS = [0, 1, 2, 3, 4]
TOY = dict(n_patients=60, signal_strength=2.0, censor_rate=0.2)
RECIPE = dict(lr=2e-3, epochs=15, lam=9, beta_fraction=0.25, bins=4)


def toy_config(seed, **overrides):
    return TrainConfig(seed=seed, **{**RECIPE, **overrides})


def run_cv(cohort, cfg, want_missing=False, collect_points=False):
    raw = cohort_gene_raw_lens(cohort)
    out = {"c": [], "c_gene": [], "c_path": [], "points": [], "fold_seconds": []}
    for fold in range(cohort.n_folds):
        train_recs = [p for i, p in enumerate(cohort.patients) if cohort.folds[i] != fold]
        val_recs = [p for i, p in enumerate(cohort.patients) if cohort.folds[i] == fold]
        t0 = time.perf_counter()
        result = train_fold(train_recs, cohort.d, raw, cfg, fold=fold)
        out["fold_seconds"].append(time.perf_counter() - t0)
        ev = evaluate(val_recs, result.params, cfg, result.bank)
        out["c"].append(ev.c_index)
        if want_missing:
            out["c_gene"].append(
                evaluate(val_recs, result.params, cfg, result.bank, missing=Modality.GENE).c_index
            )
            out["c_path"].append(
                evaluate(val_recs, result.params, cfg, result.bank, missing=Modality.PATH).c_index
            )
        if collect_points:
            for rec, (_, risk) in zip(val_recs, ev.risks):
                out["points"].append(
                    SurvPoint(time=rec.label.time, event=rec.label.censor is Censor.EVENT, risk=risk)
                )
    return out


@pytest.fixture(scope="session")
def toy_results():
    results = {"both": {}, "intra": {}, "inter": {}, "random": {}, "null": {}}
    for seed in SEEDS:
        cohort = generate(SynthConfig(seed=seed, **TOY))
        results["both"][seed] = run_cv(cohort, toy_config(seed), want_missing=True, collect_points=True)
        results["intra"][seed] = run_cv(cohort, toy_config(seed, edge_mode=EdgeMode.INTRA_ONLY))
        results["inter"][seed] = run_cv(cohort, toy_config(seed, edge_mode=EdgeMode.INTER_ONLY))
        results["random"][seed] = run_cv(cohort, toy_config(seed, fusion_mode=FusionMode.RANDOM_EDGES))
        null_cohort = generate(SynthConfig(seed=seed, **{**TOY, "signal_strength": 0.0}))
        results["null"][seed] = run_cv(null_cohort, toy_config(seed))
    return results


def seed_means(block):
    return [float(np.mean(block[seed]["c"])) for seed in SEEDS]


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, full check suite under 30 s


def _check_grid(arr, grad, loss, tol):
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = arr[ix]
        h = 1e-6 * max(1.0, abs(orig))
        arr[ix] = orig + h
        lp = loss()
        arr[ix] = orig - h
        lm = loss()
        arr[ix] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - grad[ix]) <= tol * max(abs(fd), abs(grad[ix]), 1e-6), (
            f"index {ix}: fd={fd:.4e} analytic={grad[ix]:.4e}"
        )


def test_criterion_1_gradient_correctness():
    t_start = time.perf_counter()
    rng = np.random.default_rng(17)

    # hypergraph convolution
    for _ in range(3):
        v = int(rng.integers(3, 12))
        edges = [
            (frozenset(int(x) for x in rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)),
             float(rng.uniform(0.3, 2.0)))
            for _ in range(int(rng.integers(2, 2 * v)))
        ]
        g = hypergraph(v, edges)
        X = rng.standard_normal((v, 4))
        theta = rng.standard_normal((4, 3))
        d_up = rng.standard_normal((v, 3))
        dx, dth, _ = hg_conv_backward_ext(X, g, theta, hg_conv_forward(X, g, theta), d_up)
        loss = lambda: float(np.sum(hg_conv_forward(X, g, theta) * d_up))
        _check_grid(X, dx, loss, 1e-4)
        _check_grid(theta, dth, loss, 1e-4)

    # attention scoring
    genes, patches = rng.standard_normal((3, 5)), rng.standard_normal((6, 5))
    wq, wk = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    d_up = rng.standard_normal((3, 6))
    a_loss = lambda: float(np.sum(attn_scores(genes, patches, wq, wk) * d_up))
    for arr, grad in zip((genes, patches, wq, wk),
                         attn_scores_backward(genes, patches, wq, wk, d_up)):
        _check_grid(arr, grad, a_loss, 1e-4)

    # censored discrete-hazard loss
    from hgsurv.datamodel import SurvivalLabel

    logits = [rng.standard_normal(4) for _ in range(4)]
    labels = [
        SurvivalLabel(1.0, Censor.EVENT, 0),
        SurvivalLabel(2.0, Censor.CENSORED, 1),
        SurvivalLabel(3.0, Censor.EVENT, 3),
        SurvivalLabel(4.0, Censor.CENSORED, 3),
    ]
    _, grads = nll_loss([hazards_from_logits(l) for l in logits], labels)
    for i in range(4):
        l_loss = lambda: nll_loss([hazards_from_logits(l) for l in logits], labels)[0]
        _check_grid(logits[i], grads[i], l_loss, 1e-4)

    # full micro-pipeline: 6 patches, 2 gene groups, d=4, 2 bins
    cohort, _ = generate_detailed(
        SynthConfig(n_patients=1, slides_per_patient=(2, 2), patches_per_slide=3, d=4,
                    w_groups=2, censor_rate=0.0, n_bins=2, n_folds=1, seed=3)
    )
    rec = cohort.patients[0]
    cfg = TrainConfig(lam=2, beta_fraction=0.5, bins=2, seed=5)
    params = init_params(4, cohort_gene_raw_lens(cohort), cfg, substream(5, "init"))
    prepared = prepare_record(rec, cfg)
    fwd = forward(prepared, params, cfg)
    _, gl = nll_loss([fwd.output], [rec.label])
    pipeline_grads = backward(fwd, prepared, params, cfg, gl[0])

    def p_loss():
        f = forward(prepared, params, cfg)
        return nll_loss([f.output], [rec.label])[0]

    for name, arr in params.arrays().items():
        _check_grid(arr, pipeline_grads[name], p_loss, 1e-3)

    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"\n[acceptance] criterion 1 (gradient correctness): PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(23)

    # kNN builders vs brute force, 50 random instances up to N=200
    for trial in range(50):
        n = int(rng.integers(2, 201))
        lam = int(rng.integers(1, 16))
        if trial % 2 == 0:
            coords = rng.uniform(0, 1000, (n, 2))
            keys = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
            got = [set(e) for e in intra_slide_edges(coords, lam)]
        else:
            feats = rng.standard_normal((n, 8))
            keys = -cosine_similarity_matrix(feats)
            got = [set(e) for e in inter_slide_edges(feats, lam)]
        expect = []
        for c in range(n):
            order = sorted((j for j in range(n) if j != c), key=lambda j: (keys[c, j], j))
            expect.append(set(order[: min(lam, n) - 1]) | {c})
        assert got == expect

    # C-index vs exhaustive pair enumeration, 100 random instances
    checked = 0
    for trial in range(130):
        if checked >= 100:
            break
        n = int(rng.integers(2, 51))
        pts = [
            SurvPoint(time=float(rng.integers(1, 15)), event=bool(rng.random() < 0.7),
                      risk=float(rng.integers(-4, 5)))
            for _ in range(n)
        ]
        num = den = 0.0
        for i in range(n):
            for j in range(n):
                if i != j and pts[i].event and pts[i].time < pts[j].time:
                    den += 1
                    if pts[i].risk > pts[j].risk:
                        num += 1
                    elif pts[i].risk == pts[j].risk:
                        num += 0.5
        if den == 0:
            with pytest.raises(ValueError):
                c_index(pts)
            continue
        assert c_index(pts) == num / den
        checked += 1
    assert checked >= 100

    # Kaplan-Meier against a hand-tabled product-limit case
    km = km_curve(
        [
            SurvPoint(2.0, True, 0), SurvPoint(3.0, False, 0), SurvPoint(5.0, True, 0),
            SurvPoint(5.0, True, 0), SurvPoint(7.0, False, 0), SurvPoint(11.0, True, 0),
        ]
    )
    # hand table: t=2: 5/6; t=5: (5/6)(2/4); t=11: (5/6)(2/4)(0/1)
    np.testing.assert_allclose(km.times, [2.0, 5.0, 11.0])
    assert abs(km.survival[0] - 5 / 6) <= 1e-9
    assert abs(km.survival[1] - 5 / 12) <= 1e-9
    assert abs(km.survival[2] - 0.0) <= 1e-9

    # log-rank against a hand-tabled O/E/V computation
    a = [SurvPoint(1.0, True, 0), SurvPoint(3.0, True, 0), SurvPoint(4.0, False, 0),
         SurvPoint(6.0, True, 0), SurvPoint(8.0, False, 0)]
    b = [SurvPoint(2.0, True, 0), SurvPoint(5.0, True, 0), SurvPoint(7.0, True, 0),
         SurvPoint(9.0, True, 0), SurvPoint(10.0, False, 0)]
    # hand table over pooled event times 1,2,3,5,6,7,9:
    # t=1: dA=1 nA=5 nB=5 -> e=.5 v=.25        t=2: dB=1 nA=4 nB=5 -> e=4/9 v=20/81
    # t=3: dA=1 nA=4 nB=4 -> e=.5 v=.25        t=5: dB=1 nA=2 nB=4 -> e=2/6 v=8/36
    # t=6: dA=1 nA=2 nB=3 -> e=.4 v=.24        t=7: dB=1 nA=1 nB=3 -> e=.25 v=3/16
    # t=9: dB=1 nA=0 nB=2 -> e=0  v=0
    o_minus_e = (1 - 0.5) + (0 - 4 / 9) + (1 - 0.5) + (0 - 2 / 6) + (1 - 0.4) + (0 - 0.25) + 0.0
    v = 0.25 + 20 / 81 + 0.25 + 8 / 36 + 0.24 + 3 / 16 + 0.0
    chi2, _ = logrank_test(a, b)
    assert abs(chi2 - o_minus_e**2 / v) <= 1e-9
    print("\n[acceptance] criterion 2 (oracle equivalence): PASS "
          "(50 kNN instances, 100 C-index instances, KM + log-rank hand tables)")


# ---------------------------------------------------------------------------
# criterion 3: convolution invariants


def test_criterion_3_convolution_invariants():
    rng = np.random.default_rng(31)
    worst_sym = worst_const = worst_agree = worst_equi = 0.0
    for trial in range(20):
        v = int(rng.integers(2, 14))
        edges = [
            (frozenset(int(x) for x in rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)), 1.0)
            for _ in range(int(rng.integers(1, 2 * v)))
        ]
        g = hypergraph(v, edges)
        M = propagation_matrix(g)
        worst_sym = max(worst_sym, float(np.abs(M - M.T).max()))

        X = rng.standard_normal((v, 3))
        theta = rng.standard_normal((3, 3))
        sparse = g.propagate(X) @ theta
        worst_agree = max(worst_agree, float(np.abs(sparse - M @ X @ theta).max()))

        perm = rng.permutation(v)
        g_perm = hypergraph(v, [(frozenset(int(perm[u]) for u in e), w) for e, w in g.edges])
        out_perm = g_perm.propagate(X[np.argsort(perm)]) @ theta
        worst_equi = max(worst_equi, float(np.abs(out_perm[perm] - sparse).max()))

        g_all = hypergraph(v, [(frozenset(range(v)), 1.0)])
        Xc = np.outer(np.ones(v), rng.standard_normal(3))
        worst_const = max(worst_const, float(np.abs(propagation_matrix(g_all) @ Xc - Xc).max()))

    assert worst_sym <= 1e-12
    assert worst_const <= 1e-12
    assert worst_agree <= 1e-10
    assert worst_equi <= 1e-10
    print(f"\n[acceptance] criterion 3 (convolution invariants): PASS "
          f"(symmetry {worst_sym:.1e}, constants {worst_const:.1e}, "
          f"dense-sparse {worst_agree:.1e}, equivariance {worst_equi:.1e})")


# ---------------------------------------------------------------------------
# criteria 4, 5, 7, 8: synthetic end-to-end runs


def test_criterion_4_end_to_end_learning(toy_results):
    means = seed_means(toy_results["both"])
    mean_c = float(np.mean(means))
    max_fold = max(max(toy_results["both"][s]["fold_seconds"]) for s in SEEDS)
    null_mean = float(np.mean(seed_means(toy_results["null"])))
    assert mean_c >= 0.80, f"strong-signal mean C-index {mean_c:.3f} < 0.80"
    assert max_fold < 120.0, f"slowest fold took {max_fold:.1f}s"
    assert abs(null_mean - 0.5) <= 0.1, f"null-signal mean C-index {null_mean:.3f} outside 0.5+-0.1"
    print(f"\n[acceptance] criterion 4 (end-to-end learning): PASS "
          f"(strong-signal C {mean_c:.3f}, null C {null_mean:.3f}, slowest fold {max_fold:.1f}s)")


def test_criterion_5_missing_modality_recovery(toy_results):
    full = seed_means(toy_results["both"])
    gene = [float(np.mean(toy_results["both"][s]["c_gene"])) for s in SEEDS]
    path = [float(np.mean(toy_results["both"][s]["c_path"])) for s in SEEDS]
    gap_gene = float(np.mean(full)) - float(np.mean(gene))
    gap_path = float(np.mean(full)) - float(np.mean(path))
    assert abs(gap_gene) <= 0.15, f"gene-withheld gap {gap_gene:.3f} exceeds 0.15"
    assert abs(gap_path) <= 0.15, f"path-withheld gap {gap_path:.3f} exceeds 0.15"
    assert all(c > 0.5 for c in gene), f"gene-withheld per-seed C {gene}"
    assert all(c > 0.5 for c in path), f"path-withheld per-seed C {path}"
    print(f"\n[acceptance] criterion 5 (missing-modality recovery): PASS "
          f"(full {np.mean(full):.3f}, missing-gene {np.mean(gene):.3f}, "
          f"missing-path {np.mean(path):.3f})")


def test_criterion_6_memory_bank_contracts(tmp_path):
    rng = np.random.default_rng(41)
    for trial in range(100):
        n, d = int(rng.integers(1, 12)), int(rng.integers(2, 8))
        bank = MemoryBank(d=d)
        for i in range(n):
            bank.update(f"k{i}", rng.standard_normal(d), rng.standard_normal(d))
        q = rng.standard_normal(d)
        avail = Modality.PATH if trial % 2 == 0 else Modality.GENE

        def cos(u, v):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            return 0.0 if nu == 0 or nv == 0 else float(u @ v / (nu * nv))

        keys = list(bank.column(avail))
        vals = list(bank.column(Modality.GENE if avail is Modality.PATH else Modality.PATH))
        best = min(range(n), key=lambda i: (-cos(q, keys[i]), i))
        bank.mu = 1
        got = bank.retrieve_missing(q, avail)
        np.testing.assert_array_equal(got, vals[best])  # mu=1 == exact nearest neighbor

        mu = int(rng.integers(1, n + 1))
        bank.mu = mu
        out = bank.retrieve_missing(q, avail)
        order = sorted(range(n), key=lambda i: (-cos(q, keys[i]), i))[:mu]
        sel = np.array([vals[i] for i in order])
        for u in rng.standard_normal((25, d)):
            proj = sel @ u
            assert proj.min() - 1e-9 <= out @ u <= proj.max() + 1e-9

    # bank file round-trip, bit exact
    bank = MemoryBank(d=5, theta=0.7, mu=2)
    for i in range(7):
        bank.update(f"p{i}", rng.standard_normal(5), rng.standard_normal(5))
    p1, p2 = tmp_path / "b1.txt", tmp_path / "b2.txt"
    bank.save(p1)
    MemoryBank.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    print("\n[acceptance] criterion 6 (memory-bank contracts): PASS "
          "(100 banks, nearest-neighbor + convex hull + file round-trip)")


def test_criterion_7_stratification_significance(toy_results):
    p_values = []
    for seed in SEEDS:
        points = toy_results["both"][seed]["points"]
        high, low = stratify_median(points)
        _, p = logrank_test(high, low)
        p_values.append(p)
    n_sig = sum(p < 0.05 for p in p_values)
    assert n_sig >= 4, f"log-rank p-values {p_values}"
    print(f"\n[acceptance] criterion 7 (stratification significance): PASS "
          f"({n_sig}/5 seeds with p<0.05; p-values {[f'{p:.2g}' for p in p_values]})")


def test_criterion_8_ablation_direction(toy_results):
    both = float(np.mean(seed_means(toy_results["both"])))
    intra = float(np.mean(seed_means(toy_results["intra"])))
    inter = float(np.mean(seed_means(toy_results["inter"])))
    rand = float(np.mean(seed_means(toy_results["random"])))
    assert both >= max(intra, inter), f"both {both:.3f} < max(intra {intra:.3f}, inter {inter:.3f})"
    assert both >= rand, f"attention fusion {both:.3f} < random edges {rand:.3f}"
    print(f"\n[acceptance] criterion 8 (ablation direction): PASS "
          f"(both {both:.3f} >= intra {intra:.3f}/inter {inter:.3f}; "
          f"attention {both:.3f} >= random {rand:.3f})")


# ---------------------------------------------------------------------------
# criterion 9: determinism of command outputs


def _digest_dir(path):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()


def _manifest_minus_timing(path):
    with open(path) as fh:
        m = json.load(fh)
    m.pop("timing_sec", None)
    return json.dumps(m, sort_keys=True)


def test_criterion_9_determinism(tmp_path):
    gen = ["--n", "14", "--patches", "6", "--d", "8", "--w-groups", "2", "--signal", "2.0",
           "--folds", "2", "--seed", "9"]
    train = ["--epochs", "2", "--lr", "2e-3", "--lambda", "3", "--beta-frac", "0.4", "--seed", "9"]
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    assert cli_main(["generate", "--out", str(c1), *gen]) == 0
    assert cli_main(["generate", "--out", str(c2), *gen]) == 0
    assert _digest_dir(c1) == _digest_dir(c2)

    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    assert cli_main(["train", "--cohort", str(c1), "--out", str(t1), *train]) == 0
    assert cli_main(["train", "--cohort", str(c1), "--out", str(t2), *train]) == 0
    assert _manifest_minus_timing(t1 / "manifest.json") == _manifest_minus_timing(t2 / "manifest.json")
    assert (t1 / "fold_0.npz").read_bytes() == (t2 / "fold_0.npz").read_bytes()
    assert (t1 / "fold_0.bank.txt").read_bytes() == (t2 / "fold_0.bank.txt").read_bytes()
    assert (t1 / "fold_0.bank.txt.npz").read_bytes() == (t2 / "fold_0.bank.txt.npz").read_bytes()

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    ev = ["eval", "--cohort", str(c1), "--ckpt-dir", str(t1), "--missing", "gene"]
    assert cli_main([*ev, "--out", str(e1)]) == 0
    assert cli_main([*ev, "--out", str(e2)]) == 0
    assert _manifest_minus_timing(e1 / "eval_manifest.json") == _manifest_minus_timing(
        e2 / "eval_manifest.json"
    )
    print("\n[acceptance] criterion 9 (determinism): PASS "
          "(generate bytes, train/eval manifests, checkpoints, banks)")
