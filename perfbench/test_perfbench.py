"""Fast tests for the benchmark: python3 -m pytest perfbench -q

Each workload runs at a tiny size, untraced and traced, and must pass its
correctness checks; the self-time arithmetic is checked on a hand-made span
tree; BENCHMARK.json must name exactly the metrics the benchmark prints.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import tracing  # noqa: E402
from hgsurv import model  # noqa: E402

TINY = {
    "toy-fold": dict(cohort=dict(n_patients=15, patches_per_slide=6, censor_rate=0.0), train=dict(epochs=2)),
    "bank-cohort": dict(cohort=dict(n_patients=40, n_folds=4), train={}),
}


def tiny(name: str) -> bench.Workload:
    wl = bench.WORKLOADS[name]
    return replace(
        wl,
        cohort={**wl.cohort, **TINY[name]["cohort"]},
        train={**wl.train, **TINY[name]["train"]},
        setup_reps=2,
        c_floor=None,
    )


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_runs_and_passes_checks(name):
    result = bench.run(tiny(name), seed=1, seconds=0.3, traced=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_functions(name):
    originals = (model.forward, model.prepare_record, bench.MemoryBank.update, bench.MemoryBank.load)
    result = bench.run(tiny(name), seed=2, seconds=0.3, traced=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    for counted in bench.COUNTED:
        assert result["metrics"][counted]["value"] > 0, counted
    assert (model.forward, model.prepare_record, bench.MemoryBank.update, bench.MemoryBank.load) == originals


def test_patient_clock_times_every_step_and_patient(tmp_path):
    wl = tiny("toy-fold")
    cohort, _ = bench.set_up(wl, 3, tmp_path, 0)
    fold = bench.make_fold(wl, 3, cohort, tmp_path)
    originals = [getattr(model, name) for name in bench.PatientClock.NAMES]
    with bench.PatientClock() as clock:
        bench.train_unit(fold)
        counts = {kind: len(times) for kind, times in clock.times.items()}
        assert counts == {"prepare": len(fold.train), "step": fold.steps, "patient": 0}
        clock.clear()
        bench.eval_unit(fold, None, bench.Phase())
        counts = {kind: len(times) for kind, times in clock.times.items()}
        assert counts == {"prepare": 0, "step": 0, "patient": len(fold.val)}
    assert [getattr(model, name) for name in bench.PatientClock.NAMES] == originals


def test_phase_rate_takes_upper_deciles():
    phase = bench.Phase()
    phase.record(1.0 + 0.1 * 4 + 0.5, {"step": [0.1] * 4, "prepare": [0.5]})
    phase.record(2.0 + 0.3 * 4 + 0.7, {"step": [0.3] * 4, "prepare": [0.7]})
    assert phase.rest == pytest.approx([1.0, 2.0])
    assert bench.upper_decile([1.0, 2.0]) == pytest.approx(1.9)
    assert bench.upper_decile([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(4.6)
    assert phase.rate(4) == pytest.approx(4 / (1.9 + 4 * 0.3 + 1 * 0.68))


def test_self_times_on_hand_made_tree():
    spans = [
        ["a", 0.0, 10.0, -1, "r"],
        ["b", 1.0, 4.0, 0, "r"],
        ["c", 5.0, 9.0, 0, "r"],
        ["d", 6.0, 8.0, 2, "r"],
        ["b", 9.5, 10.5, 0, "r"],  # runs past its parent: only 0.5 s of it is covered
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"a": 10.0 - 3.0 - 4.0 - 0.5, "b": 3.0 + 1.0, "c": 4.0 - 2.0, "d": 2.0})


def test_comparable_pairs_matches_pair_loop():
    times = [3.0, 1.0, 2.0, 2.0, 5.0, 1.0]
    events = [True, True, False, True, False, True]
    loop = sum(1 for i in range(6) for j in range(6) if events[i] and times[i] < times[j])
    assert tracing.comparable_pairs(np.array(times), np.array(events)) == loop


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-fold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0 and proc.stdout == ""
