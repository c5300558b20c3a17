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
from .datamodel import Censor, Cohort, assign_folds, load_cohort, save_cohort, validate_cohort
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


def _load_config_file(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"config file {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config file {args.config}: the top level must be a JSON object")
    return raw


# the JSON values a setting takes, by the type of its default; a boolean is never a number
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}

# TrainConfig fields whose flag is spelled differently; a config file may use either name.
_FLAG_NAMES = {"weight_decay": "wd", "beta_fraction": "beta_frac", "fusion_mode": "fusion"}


def _resolve_settings(args, defaults: dict, flag_names: dict) -> dict:
    """Each setting in ``defaults`` from its flag, else from the --config file under its name or
    its flag's name (``flag_names`` maps the names whose flag is spelled differently), else its
    default. Every config value must have its default's type."""
    raw = _load_config_file(args)
    names = {name: name for name in defaults} | {flag: name for name, flag in flag_names.items()}
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ValidationError(f"config file {args.config}: unknown key(s) {', '.join(unknown)}")
    cf = {names[k]: v for k, v in raw.items()}
    if len(cf) < len(raw):
        raise ValidationError(f"config file {args.config}: a field is set under both its names")
    resolved = dict(defaults)
    for name, value in cf.items():
        kind = type(defaults[name])
        accepted, what = _JSON_KINDS[kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValidationError(f"config file {args.config}: {name} must be {what}, got {value!r}")
        resolved[name] = kind(value)
    for name in defaults:
        if (flag := getattr(args, flag_names.get(name, name), None)) is not None:
            resolved[name] = flag
    return resolved


def _resolve_folds(cohort: Cohort, n_folds: int | None, seed: int) -> np.ndarray:
    if n_folds is None or n_folds == cohort.n_folds:
        return cohort.folds
    return assign_folds(substream(seed, "folds"), len(cohort.patients), n_folds)


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


# generate's flags, which are also its config keys, and the SynthConfig field each sets;
# --slides-min and --slides-max set the two ends of slides_per_patient
_GENERATE_FIELDS = {"n": "n_patients", "seed": "seed", "d": "d", "w_groups": "w_groups",
                    "patches": "patches_per_slide", "slides_min": "slides_per_patient",
                    "slides_max": "slides_per_patient", "signal": "signal_strength",
                    "censor_rate": "censor_rate", "noise": "feature_noise", "bins": "n_bins",
                    "folds": "n_folds"}


def _generate_defaults() -> dict:
    base = SynthConfig()
    defaults = {flag: getattr(base, field) for flag, field in _GENERATE_FIELDS.items()}
    defaults["slides_min"], defaults["slides_max"] = base.slides_per_patient
    return defaults


def cmd_generate(args) -> int:
    v = _resolve_settings(args, _generate_defaults(), {})
    fields = {field: v[flag] for flag, field in _GENERATE_FIELDS.items()}
    fields["slides_per_patient"] = (v["slides_min"], v["slides_max"])
    try:
        config = SynthConfig(**fields)
    except ValueError as exc:
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
    """Cohort, config, fold assignment and gene raw lengths of a train or ablate run; every fold's
    held-out patients must hold a comparable pair, or that fold's C-index would be undefined."""
    cohort = _load_cohort_checked(args.cohort)
    try:
        cfg = TrainConfig.from_dict(_resolve_settings(args, TrainConfig().to_dict(), _FLAG_NAMES))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if cfg.bins != cohort.n_bins:
        raise ValidationError(f"--bins {cfg.bins} does not match cohort bins {cohort.n_bins}")
    incomplete = [p.patient_id for p in cohort.patients if not (p.has_pathology and p.has_genes)]
    if incomplete:
        raise ValidationError(f"incomplete training records: {', '.join(incomplete[:5])}")
    if args.folds is not None and not 1 <= args.folds <= len(cohort.patients):
        raise ValidationError(f"--folds {args.folds} must lie in [1, {len(cohort.patients)}], "
                              "the number of patients in the cohort")
    folds = _resolve_folds(cohort, args.folds, cfg.seed)
    for fold in range(int(folds.max()) + 1):
        val = _split(cohort, folds, fold)[1]
        event_times = [p.label.time for p in val if p.label.censor is Censor.EVENT]
        if not event_times or min(event_times) >= max(p.label.time for p in val):
            raise ValidationError(f"fold {fold}: no held-out patient has an event earlier than another "
                                  "held-out patient's time, so its C-index is undefined")
    os.makedirs(args.out, exist_ok=True)
    return cohort, cfg, folds, cohort_gene_raw_lens(cohort)


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
        params, cfg, meta = load_checkpoint(ckpt, expect_d=cohort.d, expect_bins=cohort.n_bins)
    except ValueError as exc:
        if "does not match expected" in str(exc):
            raise ValidationError(str(exc)) from exc
        raise  # corrupt artifacts are runtime failures
    layout = cohort.gene_layout
    if layout is not None and meta["gene_raw_lens"] != layout:
        raise ValidationError(f"checkpoint {ckpt} has gene group lengths {meta['gene_raw_lens']} "
                              f"but the cohort has {layout}")
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
        if fold == 0:
            fold0 = params, cfg, val_recs
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
        _export_heatmap(args, cohort, *fold0)

    timing["total"] = time.perf_counter() - t_all
    manifest["timing_sec"] = timing
    _write_manifest(os.path.join(args.out, "eval_manifest.json"), manifest)
    print(f"pooled C-index {manifest['pooled_c_index']:.4f}; manifest in {args.out}")
    return 0


def _export_heatmap(args, cohort: Cohort, params, cfg: TrainConfig, val_recs: list) -> None:
    """The attention heatmap of one patient under fold 0's model: --heatmap-patient, else fold 0's
    first held-out patient."""
    if cfg.fusion_mode is not FusionMode.HYPERGRAPH_ATTN:
        raise ValidationError("heatmap export requires an attention-fused checkpoint")
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
    fwd = forward(prepared, params, cfg)  # a complete record draws nothing from the bank
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
    for flag, default in _generate_defaults().items():
        g.add_argument("--" + flag.replace("_", "-"), dest=flag, type=type(default))
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
