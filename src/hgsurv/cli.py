"""Command-line entry point: generate synthetic cohorts, train with k-fold
cross-validation, evaluate (optionally withholding a modality), export
attention heatmaps and Kaplan-Meier tables, and run the ablation grid.

Exit codes: 0 success, 1 validation error, 2 runtime error. Manifests are
JSON with stable key order; wall-clock lives under "timing_sec" so that
reruns with a fixed seed are byte-identical outside that section.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .attention import write_heatmap
from .datamodel import Censor, Cohort, load_cohort, save_cohort, validate_cohort
from .membank import MemoryBank, Modality
from .metrics import SurvPoint, c_index, km_curve, logrank_test, stratify_median, write_km_export
from .model import (
    EdgeMode,
    FusionMode,
    TrainConfig,
    cohort_gene_raw_lens,
    evaluate,
    forward,
    load_checkpoint,
    prepare_record,
    save_checkpoint,
    substream,
    train_fold,
)
from .synth import SynthConfig, generate


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code clashes with ours
        raise ValidationError(message)


def _write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _resolve(args, key, config_file: dict, default):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config_file:
        return config_file[key]
    return default


def _load_config_file(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"config file {args.config}: {exc}") from exc


# Fields whose flag is spelled differently; a config file may use either name.
_FLAG_NAMES = {"weight_decay": "wd", "beta_fraction": "beta_frac", "fusion_mode": "fusion"}
_FIELD_NAMES = {flag: name for name, flag in _FLAG_NAMES.items()}


def _train_config(args) -> TrainConfig:
    """Every TrainConfig field from its flag, else the --config file, else the default."""
    raw = _load_config_file(args)
    resolved = TrainConfig().to_dict()
    _reject_unknown_keys(args, raw, [*resolved, *_FIELD_NAMES])
    cf = {_FIELD_NAMES.get(k, k): v for k, v in raw.items()}
    if len(cf) < len(raw):
        raise ValidationError(f"config file {args.config}: a field is set under both its names")
    for name, default in resolved.items():
        flag = getattr(args, _FLAG_NAMES.get(name, name), None)
        value = cf.get(name, default) if flag is None else flag
        try:
            resolved[name] = value if isinstance(default, str) else type(default)(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{name}: {exc}") from exc
    try:
        return TrainConfig.from_dict(resolved)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _resolve_folds(cohort: Cohort, n_folds: int | None, seed: int) -> np.ndarray:
    if n_folds is None or n_folds == cohort.n_folds:
        return cohort.folds
    perm = substream(seed, "folds").permutation(len(cohort.patients))
    folds = np.zeros(len(cohort.patients), dtype=np.intp)
    folds[perm] = np.arange(len(cohort.patients)) % n_folds
    return folds


def _split(cohort: Cohort, folds: np.ndarray, fold: int):
    n_folds = int(folds.max()) + 1
    if n_folds == 1:
        return list(cohort.patients), list(cohort.patients)
    train = [p for i, p in enumerate(cohort.patients) if folds[i] != fold]
    val = [p for i, p in enumerate(cohort.patients) if folds[i] == fold]
    return train, val


def _load_cohort_checked(path: str) -> Cohort:
    if not os.path.isdir(path):
        raise ValidationError(f"cohort directory {path} does not exist")
    try:
        cohort = load_cohort(path)
    except (ValueError, FileNotFoundError) as exc:
        raise ValidationError(str(exc)) from exc
    problems = validate_cohort(cohort)
    if problems:
        raise ValidationError("invalid cohort: " + "; ".join(problems[:5]))
    return cohort


# generate's config keys (its flags' names) and their defaults
_GENERATE_DEFAULTS = dict(n=60, slides_min=2, slides_max=3, patches=16, d=32, w_groups=6, signal=1.0,
                          censor_rate=0.2, seed=0, noise=1.5, bins=4, folds=5)


def _reject_unknown_keys(args, raw: dict, known) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValidationError(f"config file {args.config}: unknown key(s) {', '.join(unknown)}")


def cmd_generate(args) -> int:
    cf = _load_config_file(args)
    _reject_unknown_keys(args, cf, _GENERATE_DEFAULTS)
    v = {k: _resolve(args, k, cf, default) for k, default in _GENERATE_DEFAULTS.items()}
    try:
        config = SynthConfig(
            n_patients=int(v["n"]),
            slides_per_patient=(int(v["slides_min"]), int(v["slides_max"])),
            patches_per_slide=int(v["patches"]),
            d=int(v["d"]),
            w_groups=int(v["w_groups"]),
            signal_strength=float(v["signal"]),
            censor_rate=float(v["censor_rate"]),
            seed=int(v["seed"]),
            feature_noise=float(v["noise"]),
            n_bins=int(v["bins"]),
            n_folds=int(v["folds"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    cohort = generate(config)
    save_cohort(cohort, args.out)
    n_events = sum(1 for p in cohort.patients if p.label.censor is Censor.EVENT)
    print(
        f"wrote cohort to {args.out}: {len(cohort.patients)} patients, "
        f"{n_events} events, d={cohort.d}, bins={cohort.n_bins}, folds={cohort.n_folds}"
    )
    return 0


def _training_setup(args):
    """Cohort, config, fold assignment and gene raw lengths of a train or ablate run."""
    cohort = _load_cohort_checked(args.cohort)
    cfg = _train_config(args)
    if cfg.bins != cohort.n_bins:
        raise ValidationError(f"--bins {cfg.bins} does not match cohort bins {cohort.n_bins}")
    incomplete = [p.patient_id for p in cohort.patients if not (p.has_pathology and p.has_genes)]
    if incomplete:
        raise ValidationError(f"incomplete training records: {', '.join(incomplete[:5])}")
    os.makedirs(args.out, exist_ok=True)
    return cohort, cfg, _resolve_folds(cohort, args.folds, cfg.seed), cohort_gene_raw_lens(cohort)


def _cross_validate(cohort: Cohort, folds: np.ndarray, cfg: TrainConfig, raw_lens: list[int]):
    """Per fold: (fold, train records, held-out records, TrainResult, EvalResult on the held-out)."""
    for fold in range(int(folds.max()) + 1):
        train_recs, val_recs = _split(cohort, folds, fold)
        result = train_fold(train_recs, cohort.d, raw_lens, cfg, fold=fold)
        yield fold, train_recs, val_recs, result, evaluate(val_recs, result.params, cfg, result.bank)


def cmd_train(args) -> int:
    cohort, cfg, folds, raw_lens = _training_setup(args)
    fold_rows = []
    timing = {}
    t_all = t0 = time.perf_counter()
    for fold, train_recs, val_recs, result, ev in _cross_validate(cohort, folds, cfg, raw_lens):
        save_checkpoint(os.path.join(args.out, f"fold_{fold}.npz"), result.params, cfg, raw_lens)
        result.bank.save(os.path.join(args.out, f"fold_{fold}.bank.txt"))
        fold_rows.append(
            {
                "fold": fold,
                "n_train": len(train_recs),
                "n_val": len(val_recs),
                "c_index": ev.c_index,
                "final_loss": result.epoch_losses[-1],
            }
        )
        timing[f"fold_{fold}"] = time.perf_counter() - t0
        print(f"fold {fold}: val C-index {ev.c_index:.4f} (final loss {result.epoch_losses[-1]:.4f})")
        t0 = time.perf_counter()
    timing["total"] = time.perf_counter() - t_all
    cs = [r["c_index"] for r in fold_rows]
    manifest = {
        "command": "train",
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "n_folds": len(fold_rows),
        "folds": fold_rows,
        "c_index_mean": float(np.mean(cs)),
        "c_index_std": float(np.std(cs)),
        "timing_sec": timing,
    }
    _write_manifest(os.path.join(args.out, "manifest.json"), manifest)
    print(f"mean C-index {np.mean(cs):.4f} +/- {np.std(cs):.4f}; manifest in {args.out}")
    return 0


def _load_fold_artifacts(ckpt_dir: str, fold: int, cohort: Cohort):
    ckpt = os.path.join(ckpt_dir, f"fold_{fold}.npz")
    bank_path = os.path.join(ckpt_dir, f"fold_{fold}.bank.txt")
    if not os.path.exists(ckpt) or not os.path.exists(bank_path):
        raise ValidationError(f"missing checkpoint or bank for fold {fold} in {ckpt_dir}")
    try:
        params, cfg, _ = load_checkpoint(ckpt, expect_d=cohort.d, expect_bins=cohort.n_bins)
    except ValueError as exc:
        if "does not match expected" in str(exc):
            raise ValidationError(str(exc)) from exc
        raise  # corrupt artifacts are runtime failures
    bank = MemoryBank.load(bank_path)
    if bank.d != params.d:
        raise ValidationError(f"bank {bank_path} has d={bank.d} but checkpoint {ckpt} has d={params.d}")
    return params, cfg, bank


def cmd_eval(args) -> int:
    cohort = _load_cohort_checked(args.cohort)
    if not os.path.isdir(args.ckpt_dir):
        raise ValidationError(f"checkpoint directory {args.ckpt_dir} does not exist")
    train_manifest_path = os.path.join(args.ckpt_dir, "manifest.json")
    if not os.path.exists(train_manifest_path):
        raise ValidationError(f"no train manifest in {args.ckpt_dir}")
    with open(train_manifest_path) as fh:
        train_manifest = json.load(fh)
    n_folds = train_manifest["n_folds"]
    missing = None if args.missing == "none" else Modality(args.missing)
    os.makedirs(args.out, exist_ok=True)

    fold_rows = []
    pooled: list[SurvPoint] = []
    timing = {}
    t_all = time.perf_counter()
    base_cfg = None
    for fold in range(n_folds):
        t0 = time.perf_counter()
        params, cfg, bank = _load_fold_artifacts(args.ckpt_dir, fold, cohort)
        base_cfg = cfg
        folds = _resolve_folds(cohort, n_folds, cfg.seed)
        _, val_recs = _split(cohort, folds, fold)
        ev = evaluate(val_recs, params, cfg, bank, missing=missing)
        fold_rows.append({"fold": fold, "n_val": len(val_recs), "c_index": ev.c_index})
        for rec, (pid, risk) in zip(val_recs, ev.risks):
            pooled.append(
                SurvPoint(time=rec.label.time, event=rec.label.censor is Censor.EVENT, risk=risk)
            )
        timing[f"fold_{fold}"] = time.perf_counter() - t0
        print(f"fold {fold}: C-index {ev.c_index:.4f} (missing={args.missing})")
    cs = [r["c_index"] for r in fold_rows]
    manifest = {
        "command": "eval",
        "missing": args.missing,
        "config": base_cfg.to_dict(),
        "n_folds": n_folds,
        "folds": fold_rows,
        "c_index_mean": float(np.mean(cs)),
        "c_index_std": float(np.std(cs)),
        "pooled_c_index": c_index(pooled),
    }

    if args.km_out is not None:
        high, low = stratify_median(pooled)
        chi2, p = logrank_test(high, low)
        curves = [km_curve(high, group="high"), km_curve(low, group="low")]
        write_km_export(args.km_out, curves)
        manifest["logrank_chi2"] = chi2
        manifest["logrank_p"] = p
        print(f"log-rank chi2 {chi2:.4f}, p {p:.4g}; KM table in {args.km_out}")

    if args.heatmap_out is not None:
        _export_heatmap(args, cohort, n_folds)

    timing["total"] = time.perf_counter() - t_all
    manifest["timing_sec"] = timing
    _write_manifest(os.path.join(args.out, "eval_manifest.json"), manifest)
    print(f"pooled C-index {manifest['pooled_c_index']:.4f}; manifest in {args.out}")
    return 0


def _export_heatmap(args, cohort: Cohort, n_folds: int) -> None:
    params, cfg, bank = _load_fold_artifacts(args.ckpt_dir, 0, cohort)
    if cfg.fusion_mode is not FusionMode.HYPERGRAPH_ATTN:
        raise ValidationError("heatmap export requires an attention-fused checkpoint")
    folds = _resolve_folds(cohort, n_folds, cfg.seed)
    _, val_recs = _split(cohort, folds, 0)
    record = None
    if args.heatmap_patient is not None:
        matches = [p for p in cohort.patients if p.patient_id == args.heatmap_patient]
        if not matches:
            raise ValidationError(f"patient {args.heatmap_patient} not in cohort")
        record = matches[0]
    else:
        record = val_recs[0]
    if not (record.has_pathology and record.has_genes):
        raise ValidationError(f"patient {record.patient_id} lacks a modality; no heatmap")
    prepared = prepare_record(record, cfg)
    fwd = forward(prepared, params, cfg, bank=bank)
    write_heatmap(args.heatmap_out, fwd.gene_build.scores, prepared.coords, record.genes.group_names)
    print(f"heatmap for {record.patient_id} in {args.heatmap_out}")


def cmd_ablate(args) -> int:
    cohort, base, folds, raw_lens = _training_setup(args)
    lambdas = [5, 9, 25]
    cells = []
    timing = {}
    t_all = time.perf_counter()
    for lam in lambdas:
        for edge_mode in EdgeMode:
            for fusion in FusionMode:
                cfg = dataclasses.replace(base, lam=lam, edge_mode=edge_mode, fusion_mode=fusion)
                t0 = time.perf_counter()
                fold_rows = [{"fold": fold, "c_index": ev.c_index}
                             for fold, *_, ev in _cross_validate(cohort, folds, cfg, raw_lens)]
                cs = [r["c_index"] for r in fold_rows]
                cell = {
                    "lambda": lam,
                    "edge_mode": edge_mode.value,
                    "fusion": fusion.value,
                    "c_index_mean": float(np.mean(cs)),
                    "c_index_std": float(np.std(cs)),
                    "folds": fold_rows,
                }
                cells.append(cell)
                timing[f"lam{lam}_{edge_mode.value}_{fusion.value}"] = time.perf_counter() - t0
                print(
                    f"lambda={lam:2d} edge={edge_mode.value:5s} fusion={fusion.value:6s} "
                    f"C-index {cell['c_index_mean']:.4f} +/- {cell['c_index_std']:.4f}"
                )
    timing["total"] = time.perf_counter() - t_all
    manifest = {
        "command": "ablate",
        "seed": base.seed,
        "config": base.to_dict(),
        "n_folds": int(folds.max()) + 1,
        "cells": cells,
        "timing_sec": timing,
    }
    _write_manifest(os.path.join(args.out, "ablation.json"), manifest)
    print(f"{len(cells)} cells; manifest in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hgsurv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic cohort")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--w-groups", dest="w_groups", type=int)
    g.add_argument("--patches", type=int)
    g.add_argument("--slides-min", dest="slides_min", type=int)
    g.add_argument("--slides-max", dest="slides_max", type=int)
    g.add_argument("--signal", type=float)
    g.add_argument("--censor-rate", dest="censor_rate", type=float)
    g.add_argument("--noise", type=float)
    g.add_argument("--bins", type=int)
    g.add_argument("--folds", type=int)
    g.add_argument("--config")
    g.set_defaults(func=cmd_generate)

    def add_train_flags(p):
        p.add_argument("--cohort", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--folds", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--wd", type=float)
        p.add_argument("--lambda", dest="lam", type=int)
        p.add_argument("--beta-frac", dest="beta_frac", type=float)
        p.add_argument("--bins", type=int)
        p.add_argument("--config")

    t = sub.add_parser("train", help="k-fold training with held-out evaluation")
    add_train_flags(t)
    t.add_argument("--edge-mode", dest="edge_mode", choices=[m.value for m in EdgeMode])
    t.add_argument("--fusion", choices=[m.value for m in FusionMode])
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate saved checkpoints")
    e.add_argument("--cohort", required=True)
    e.add_argument("--ckpt-dir", dest="ckpt_dir", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--missing", choices=["none", "path", "gene"], default="none")
    e.add_argument("--km-out", dest="km_out")
    e.add_argument("--heatmap-out", dest="heatmap_out")
    e.add_argument("--heatmap-patient", dest="heatmap_patient")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="run the lambda x edge-mode x fusion grid")
    add_train_flags(a)
    a.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
