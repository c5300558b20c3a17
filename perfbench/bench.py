"""hgsurv benchmark: one cross-validation fold trained and evaluated through
the library, the way ``hgsurv train`` and ``hgsurv eval`` run each fold.

The library is driven instead of the CLI so that the timed units hold a
fold's work and not process start-up. Inputs come only from
``synth.generate`` with the ``--seed`` given, so the same seed gives the same
cohort and training run.

A run first times set-up (generate, save, load and validate the cohort,
several times). It then interleaves, for ``--seconds``, the units of four
phases: training (``train_fold`` for fold 0, then ``save_checkpoint`` and
``MemoryBank.save``) and three evaluation phases (``load_checkpoint``,
``MemoryBank.load`` and ``evaluate`` with nothing, genes or pathology
withheld). Each rate is a unit's operations (training steps or evaluated
patients) over a unit time put together from upper deciles over the run:
those of each kind of per-patient operation, and that of the rest of a unit.
The correctness checks run after the timed phases.

With ``--trace 1`` the run repeats rounds of one unit of each phase, each
unit run back to back untraced and traced, and reports per-layer self times
and counts and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
from hgsurv import datamodel, model, synth
from hgsurv.datamodel import Cohort
from hgsurv.membank import MemoryBank, Modality

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

RECIPE = dict(lr=2e-3, epochs=15, lam=9, beta_fraction=0.25)


@dataclass(frozen=True)
class Workload:
    name: str
    cohort: dict  # SynthConfig fields other than the seed
    train: dict  # TrainConfig fields other than the seed
    setup_reps: int  # set-ups per run; setup_s is their median
    c_floor: float | None  # held-out C-index floor with both modalities present


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "toy-fold",
            # a fixed slide count, so that the held-out fold's work is the same for every seed
            cohort=dict(
                n_patients=60, slides_per_patient=(3, 3), signal_strength=2.0, censor_rate=0.2
            ),
            train=RECIPE,
            setup_reps=7,
            c_floor=0.6,
        ),
        Workload(
            "bank-cohort",
            cohort=dict(
                n_patients=2000,
                slides_per_patient=(1, 1),
                patches_per_slide=4,
                signal_strength=2.0,
                censor_rate=0.2,
                n_folds=20,  # 1900 bank entries, 100 held-out patients per pass
            ),
            train={**RECIPE, "epochs": 1},
            setup_reps=3,
            c_floor=0.75,
        ),
    ]
}

STANDIN_SAMPLES = 2  # held-out patients per withheld modality whose stand-in is checked

# share of --seconds each timed phase may spend, and its minimum unit count;
# training comes first because the evaluation passes read its artifacts
PHASES = {"train": (0.34, 1), "none": (0.22, 2), "gene": (0.22, 2), "path": (0.22, 2)}
MISSING = {"none": None, "gene": Modality.GENE, "path": Modality.PATH}

END_TO_END = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_patients_per_s": "patients/s",
    "eval_missing_gene_patients_per_s": "patients/s",
    "eval_missing_path_patients_per_s": "patients/s",
    "peak_rss_mb": "MB",
}
EVAL_METRIC = {
    "none": "eval_patients_per_s",
    "gene": "eval_missing_gene_patients_per_s",
    "path": "eval_missing_path_patients_per_s",
}

SELF_TIMED = [name for _, _, name, _ in tracing.targets()]
COUNTED = [
    "hyperedges.edges_built",
    "model.prepare_record.calls",
    "hgcore.vertices",
    "hgcore.incidences",
    "membank.update.calls",
    "membank.retrieve_missing.calls",
    "membank.entries_scanned",
    "metrics.c_index.pairs",
]
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{name: "count" for name in COUNTED},
    "trace.overhead_pct": "%",
}


@dataclass
class Fold:
    cohort: Cohort
    cfg: model.TrainConfig
    train: list
    val: list
    raw_lens: list[int]
    ckpt: str
    bank_file: str

    @property
    def steps(self) -> int:
        return len(self.train) * self.cfg.epochs


class Phase:
    """Times of one phase's units, split into per-patient operations and the rest.

    The operations are timed by PatientClock, by kind; the rest of a unit is
    its other per-fold work (init_params and saving in training; loading the
    checkpoint and the bank, and c_index, in evaluation). An evaluation phase
    also keeps each pass's C-index and the last pass's artifacts for the
    checks.
    """

    def __init__(self):
        self.units = 0
        self.rest: list[float] = []
        self.ops: dict[str, list[float]] = {}
        self.c_values: list[float] = []
        self.last = None  # (EvalResult, params, cfg, bank)

    def record(self, elapsed: float, op_times: dict[str, list[float]]) -> None:
        self.units += 1
        self.rest.append(elapsed - sum(sum(times) for times in op_times.values()))
        for kind, times in op_times.items():
            self.ops.setdefault(kind, []).extend(times)

    def rate(self, ops_per_unit: int) -> float:
        """Operations per second of a unit whose parts take their upper-decile times."""
        unit = upper_decile(self.rest) + sum(
            len(times) / self.units * upper_decile(times) for times in self.ops.values() if times
        )
        return ops_per_unit / unit


def upper_decile(times: list[float]) -> float:
    """The ninth decile of the times, interpolated between them.

    On a shared host the process runs in a fast and a slow state, up to 2x
    apart, for seconds at a time, and the fast state's share of a run varies
    from run to run. Where the slow state holds more than a tenth of every
    run, as on the host the bounds were set on, the upper decile sits in it,
    while a median or a mean moves with the fast state's share.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


class Tally:
    """Operations attempted and failed: a training step or an evaluated patient."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, unit, ops: int):
        self.attempted += ops
        try:
            return unit()
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            return None


class PatientClock:
    """Times each per-patient operation of the units run inside it, by kind.

    - ``prepare``: a ``model.prepare_record`` call that ``train_fold`` makes
      (evaluation prepares inside ``forward_record``, timed as ``patient``);
    - ``step``: a training step, from one ``model.forward`` call inside
      ``model.train_epoch`` to the next, or to the end of the epoch;
    - ``patient``: an evaluated patient, one ``model.forward_record`` call.

    The wrappers sit at the module names ``train_fold``, ``train_epoch`` and
    ``evaluate`` look up, and are removed on exit.
    """

    NAMES = ("prepare_record", "train_epoch", "forward", "forward_record")

    def __init__(self):
        self.times: dict[str, list[float]] = {"prepare": [], "step": [], "patient": []}

    def clear(self) -> None:
        for times in self.times.values():
            times.clear()

    def __enter__(self):
        self._saved = {name: getattr(model, name) for name in self.NAMES}
        prepare_record, train_epoch, forward, forward_record = self._saved.values()
        in_record = in_epoch = False
        step_start = None  # when the running step's forward began

        def timed_prepare(*args, **kwargs):
            if in_record:
                return prepare_record(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return prepare_record(*args, **kwargs)
            finally:
                self.times["prepare"].append(time.perf_counter() - t0)

        def timed_epoch(*args, **kwargs):
            nonlocal in_epoch, step_start
            in_epoch, step_start = True, None
            try:
                return train_epoch(*args, **kwargs)
            finally:
                if step_start is not None:
                    self.times["step"].append(time.perf_counter() - step_start)
                in_epoch = False

        def stamped_forward(*args, **kwargs):
            nonlocal step_start
            if in_epoch:
                now = time.perf_counter()
                if step_start is not None:
                    self.times["step"].append(now - step_start)
                step_start = now
            return forward(*args, **kwargs)

        def timed_forward_record(*args, **kwargs):
            nonlocal in_record
            in_record = True
            t0 = time.perf_counter()
            try:
                return forward_record(*args, **kwargs)
            finally:
                self.times["patient"].append(time.perf_counter() - t0)
                in_record = False

        model.prepare_record = timed_prepare
        model.train_epoch = timed_epoch
        model.forward = stamped_forward
        model.forward_record = timed_forward_record
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(model, name, original)


# ---------------------------------------------------------------------------
# units of work


def set_up(wl: Workload, seed: int, workdir: Path, rep: int) -> tuple[Cohort, float]:
    """synth.generate -> save_cohort -> load_cohort + validate_cohort, timed."""
    path = str(workdir / f"cohort{rep}")
    t0 = time.perf_counter()
    cohort = synth.generate(synth.SynthConfig(seed=seed, **wl.cohort))
    datamodel.save_cohort(cohort, path)
    loaded = datamodel.load_cohort(path)
    problems = datamodel.validate_cohort(loaded)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(path)
    if problems:
        raise ValueError("invalid cohort: " + "; ".join(problems[:5]))
    return loaded, elapsed


def make_fold(wl: Workload, seed: int, cohort: Cohort, workdir: Path) -> Fold:
    train = [p for i, p in enumerate(cohort.patients) if cohort.folds[i] != 0]
    val = [p for i, p in enumerate(cohort.patients) if cohort.folds[i] == 0]
    return Fold(
        cohort=cohort,
        cfg=model.TrainConfig(seed=seed, **wl.train),
        train=train,
        val=val,
        raw_lens=model.cohort_gene_raw_lens(cohort),
        ckpt=str(workdir / "fold_0.npz"),
        bank_file=str(workdir / "fold_0.bank.txt"),
    )


def train_unit(fold: Fold):
    """One fold's training and its saved artifacts."""
    result = model.train_fold(fold.train, fold.cohort.d, fold.raw_lens, fold.cfg, fold=0)
    model.save_checkpoint(fold.ckpt, result.params, fold.cfg, fold.raw_lens)
    result.bank.save(fold.bank_file)
    return result


def eval_unit(fold: Fold, missing: Modality | None, phase: Phase):
    """One evaluation pass; its C-index and artifacts go to phase."""
    params, cfg, _ = model.load_checkpoint(
        fold.ckpt, expect_d=fold.cohort.d, expect_bins=fold.cohort.n_bins
    )
    bank = MemoryBank.load(fold.bank_file)
    ev = model.evaluate(fold.val, params, cfg, bank, missing=missing)
    phase.c_values.append(ev.c_index)
    phase.last = (ev, params, cfg, bank)
    return ev


def interleave(units: dict, seconds: float) -> None:
    """Run the phases' units interleaved until seconds are spent.

    The next unit is always from the phase furthest below its share of the
    time spent so far, so every phase samples the whole run and a slow
    stretch of the machine falls on all of them alike. The run stops when
    the next unit would end past seconds and each phase has its minimum.
    """
    spent = dict.fromkeys(units, 0.0)
    durations: dict[str, list[float]] = {k: [] for k in units}
    start = time.perf_counter()
    while True:
        short = [k for k in units if len(durations[k]) < PHASES[k][1]]
        key = short[0] if short else min(units, key=lambda k: spent[k] / PHASES[k][0])
        if not short and time.perf_counter() - start + statistics.median(durations[key]) > seconds:
            return
        t0 = time.perf_counter()
        units[key]()
        durations[key].append(time.perf_counter() - t0)
        spent[key] += durations[key][-1]


# ---------------------------------------------------------------------------
# checks


def run_checks(wl: Workload, seed: int, fold: Fold, phases: dict, workdir: Path) -> list[str]:
    """All correctness checks on the artifacts the timed phases left behind."""
    failures: list[str] = []
    if any(phases[k].last is None for k in MISSING):
        return ["an evaluation phase completed no pass"]
    _, params, cfg, bank = phases["none"].last
    for key in MISSING:
        phase = phases[key]
        if len(set(phase.c_values)) != 1:
            failures.append(f"missing={key}: repeated passes disagree on the C-index {phase.c_values}")
        checks.check_c_index(fold.val, phase.last[0], f"missing={key}", failures)
    rng = np.random.default_rng(seed)
    outputs: list = []
    checks.check_standins(fold.val, params, cfg, bank, fold.bank_file, rng, STANDIN_SAMPLES, failures, outputs)
    checks.check_gradient(fold.val + fold.train, params, cfg, rng, failures, outputs)
    checks.check_hazards(outputs, failures)
    checks.check_bank(fold.train, fold.bank_file, str(workdir / "bank_copy.txt"), failures)
    c_both = phases["none"].last[0].c_index
    if wl.c_floor is not None and c_both < wl.c_floor:
        failures.append(f"held-out C-index {c_both:.4f} below the floor {wl.c_floor}")
    return failures


# ---------------------------------------------------------------------------
# runs


def measure(wl: Workload, seed: int, seconds: float, workdir: Path, tally: Tally):
    """Untraced run: end-to-end metrics and the correctness failures."""
    setup_times = []
    for rep in range(wl.setup_reps):
        cohort, elapsed = set_up(wl, seed, workdir, rep)
        setup_times.append(elapsed)
    fold = make_fold(wl, seed, cohort, workdir)
    phases = {key: Phase() for key in PHASES}
    work = {"train": (lambda: train_unit(fold), fold.steps)}
    for key, missing in MISSING.items():
        work[key] = (lambda m=missing, k=key: eval_unit(fold, m, phases[k]), len(fold.val))

    def timed(key):
        unit, ops = work[key]

        def run_unit():
            clock.clear()
            t0 = time.perf_counter()
            if tally.run(unit, ops) is not None:
                phases[key].record(time.perf_counter() - t0, clock.times)

        return run_unit

    with PatientClock() as clock:
        interleave({key: timed(key) for key in phases}, seconds)
    failures = run_checks(wl, seed, fold, phases, workdir)
    metrics = {"setup_s": statistics.median(setup_times)}
    names = {"train": "train_steps_per_s", **EVAL_METRIC}
    for key, phase in phases.items():
        if phase.ops:
            metrics[names[key]] = phase.rate(work[key][1])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, failures


def traced_round(wl, seed, workdir, tally, tracer, tag) -> tuple[list[float], Fold, dict]:
    """One set-up, one training fold and one pass per evaluation mode.

    Each unit runs twice in a row, untraced and traced, so the two times it
    adds to [untraced, traced] see the machine in the same state; which of
    the two goes first alternates from unit to unit.
    """
    times = [0.0, 0.0]
    order = [(False, True), (True, False)]

    def paired(name, unit):
        order.reverse()
        for traced in order[0]:
            if traced:
                tracer.install(tracing.targets())
            t0 = time.perf_counter()
            try:
                with tracer.span(name, f"{tag}/{name}") if traced else nullcontext():
                    result = unit()
            finally:
                times[traced] += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
        return result

    cohort = paired("phase.setup", lambda: set_up(wl, seed, workdir, 0)[0])
    fold = make_fold(wl, seed, cohort, workdir)
    paired("phase.train", lambda: tally.run(lambda: train_unit(fold), fold.steps))
    phases = {key: Phase() for key in MISSING}
    for key, missing in MISSING.items():
        paired(
            f"phase.eval_{key}",
            lambda: tally.run(lambda: eval_unit(fold, missing, phases[key]), len(fold.val)),
        )
    return times, fold, phases


def trace(wl: Workload, seed: int, seconds: float, workdir: Path, tally: Tally, trace_file: Path):
    """Traced run: per-layer self times and counts, and the tracing overhead."""
    plain = traced = 0.0
    rounds = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        (dt_plain, dt_traced), fold, phases = traced_round(
            wl, seed, workdir, tally, tracer, f"r{len(rounds)}"
        )
        plain += dt_plain
        traced += dt_traced
        rounds.append(tracer)
        if time.perf_counter() - start + dt_plain + dt_traced > seconds:
            break
    with open(trace_file, "w") as fh:
        json.dump([{"spans": t.spans, "counts": dict(t.counts)} for t in rounds], fh)
        fh.write("\n")
    failures = run_checks(wl, seed, fold, phases, workdir)
    per_round = [tracing.self_times(t.spans) for t in rounds]
    metrics = {
        f"{name}.self_s": statistics.median(r.get(name, 0.0) for r in per_round) for name in SELF_TIMED
    }
    for name in COUNTED:
        metrics[name] = rounds[0].counts[name]
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return metrics, failures


def run(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        if traced:
            metrics, failures = trace(
                wl, seed, seconds, workdir, tally, OUT / f"trace-{wl.name}-seed{seed}.json"
            )
            units = PER_LAYER
        else:
            metrics, failures = measure(wl, seed, seconds, workdir, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    missing = [name for name in units if name not in metrics]
    if missing:
        failures.append("no value for " + ", ".join(missing))
    return {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:12s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:12s} operations attempted {result['attempted']}, failed {result['failed']}")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1
