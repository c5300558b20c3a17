"""Correctness checks run outside the timed phases.

Each check rebuilds its expectation from a computation independent of
hgsurv (a pair loop, a numpy cosine argmax over the bank file, a finite
difference) or from a property the method must have. A check appends a
message to ``failures`` instead of raising, so one run reports all of them.
"""

from __future__ import annotations

import filecmp

import numpy as np

from hgsurv import model, survival
from hgsurv.datamodel import Censor
from hgsurv.membank import MemoryBank, Modality

FD_STEP = 1e-6
FD_RTOL = 1e-4
FD_ATOL = 1e-7
FD_TRIALS = 8
FD_CANDIDATES = 4


def pair_loop_c_index(times, events, risks) -> float:
    """Harrell's C by visiting every ordered pair; tied risks count 0.5."""
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if not events[i]:
            continue
        for j in range(n):
            if times[i] < times[j]:
                den += 1.0
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / den


def check_c_index(records, ev, label: str, failures: list[str]) -> None:
    ids = [pid for pid, _ in ev.risks]
    if ids != [r.patient_id for r in records]:
        failures.append(f"{label}: risks are not aligned with the held-out records")
        return
    expect = pair_loop_c_index(
        [r.label.time for r in records],
        [r.label.censor is Censor.EVENT for r in records],
        [risk for _, risk in ev.risks],
    )
    if abs(ev.c_index - expect) > 1e-12:
        failures.append(f"{label}: c_index {ev.c_index!r} != pair count {expect!r}")


def read_bank(path) -> tuple[int, list[str], np.ndarray, np.ndarray]:
    """(mu, keys, pathology column, genomic column) parsed from a bank file."""
    with open(path) as fh:
        head = dict(tok.split("=", 1) for tok in fh.readline().split())
        rows = [line.split() for line in fh if line.strip()]
    d = int(head["d"])
    vals = np.array([[float(v) for v in r[1:]] for r in rows], dtype=np.float64).reshape(-1, 2 * d)
    return int(head["mu"]), [r[0] for r in rows], vals[:, :d], vals[:, d:]


def nearest_rows(query: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of values whose key is the cosine argmax for query (near-ties all kept)."""
    norms = np.linalg.norm(keys, axis=1) * np.linalg.norm(query)
    cos = np.where(norms > 0, keys @ query / np.where(norms > 0, norms, 1.0), 0.0)
    return values[cos >= cos.max() - 1e-12]


def check_standins(records, params, cfg, bank, bank_file, rng, samples, failures, outputs) -> None:
    """The retrieved stand-in equals the bank row an independent argmax picks (mu=1)."""
    mu, _, path_col, gene_col = read_bank(bank_file)
    if mu != 1:
        failures.append(f"stand-in check needs mu=1, bank has mu={mu}")
        return
    picks = rng.choice(len(records), size=min(samples, len(records)), replace=False)
    for missing in (Modality.GENE, Modality.PATH):
        for i in picks:
            rec = records[int(i)]
            fwd = model.forward_record(rec, params, cfg, bank=bank, missing=missing)
            outputs.append(fwd.output)
            if missing is Modality.GENE:
                query, got, keys, values = fwd.acts_ms[-1].mean(axis=0), fwd.genes_enc, path_col, gene_col
            else:
                query, got, keys, values = fwd.genes_enc.mean(axis=0), fwd.x_raw, gene_col, path_col
            want = nearest_rows(query, keys, values)
            if got.shape != (1, keys.shape[1]) or not any(np.array_equal(got[0], w) for w in want):
                failures.append(
                    f"{rec.patient_id} missing={missing.value}: stand-in is not the nearest bank row"
                )


def _clamped(out) -> np.ndarray:
    return (out.hazards == survival.EPS) | (out.hazards == 1.0 - survival.EPS)


def _smooth_between(fwds) -> bool:
    """True when no discrete choice differs between the forward passes.

    A finite difference across a changed top-k gene edge, a leaky-rectifier
    sign flip or a hazard entering or leaving its clamp measures a jump, not
    the derivative.
    """
    ref = fwds[0]
    for f in fwds[1:]:
        for a, b in zip(ref.gene_build.retained, f.gene_build.retained):
            if not np.array_equal(a, b):
                return False
        for acts_a, acts_b in ((ref.acts_ms, f.acts_ms), (ref.acts_ga, f.acts_ga)):
            for x, y in zip(acts_a[1:], acts_b[1:]):
                if not np.array_equal(x >= 0, y >= 0):
                    return False
        if not np.array_equal(_clamped(ref.output), _clamped(f.output)):
            return False
    return True


def check_gradient(records, params, cfg, rng, failures, outputs) -> None:
    """Central finite-difference directional derivative of the NLL vs backward.

    The patient is the first of records (at most FD_CANDIDATES tried) whose
    hazards are all off the clamp, so that the derivative is not trivially 0.
    """
    for record in records[:FD_CANDIDATES]:
        prepared = model.prepare_record(record, cfg)
        f0 = model.forward(prepared, params, cfg)
        outputs.append(f0.output)
        if not _clamped(f0.output).any():
            break

    def loss_and_forward():
        fwd = model.forward(prepared, params, cfg)
        return survival.nll_loss([fwd.output], [record.label])[0], fwd

    _, d_logits = survival.nll_loss([f0.output], [record.label])
    grads = model.backward(f0, prepared, params, cfg, d_logits[0])
    arrays = params.arrays()
    saved = {k: a.copy() for k, a in arrays.items()}

    def shifted(direction, step):
        for k, a in arrays.items():
            a += step * direction[k]
        try:
            return loss_and_forward()
        finally:
            for k, a in arrays.items():
                a[...] = saved[k]

    for _ in range(FD_TRIALS):
        direction = {k: rng.standard_normal(a.shape) for k, a in arrays.items()}
        norm = np.sqrt(sum(float((v * v).sum()) for v in direction.values()))
        direction = {k: v / norm for k, v in direction.items()}
        slope = sum(float((grads[k] * direction[k]).sum()) for k in arrays)
        l_plus, f_plus = shifted(direction, FD_STEP)
        l_minus, f_minus = shifted(direction, -FD_STEP)
        if not _smooth_between([f0, f_plus, f_minus]):
            continue
        fd = (l_plus - l_minus) / (2 * FD_STEP)
        if abs(fd - slope) > FD_ATOL + FD_RTOL * abs(slope):
            failures.append(
                f"{record.patient_id}: finite difference {fd!r} != backward slope {slope!r}"
            )
        return
    failures.append(f"{record.patient_id}: no smooth direction in {FD_TRIALS} finite-difference trials")


def check_hazards(outputs, failures) -> None:
    for out in outputs:
        if not (np.all(out.hazards > 0) and np.all(out.hazards < 1)):
            failures.append("hazards outside (0, 1)")
        if np.any(np.diff(out.survival) > 0) or out.survival[0] > 1:
            failures.append("survival increases")


def check_bank(train_records, bank_file, copy_file, failures) -> None:
    """One entry per training patient, and load then save reproduces the file bytes."""
    _, keys, _, _ = read_bank(bank_file)
    want = sorted(r.patient_id for r in train_records)
    if sorted(keys) != want:
        failures.append(f"bank holds {len(keys)} entries for {len(want)} training patients")
    MemoryBank.load(bank_file).save(copy_file)
    if not filecmp.cmp(bank_file, copy_file, shallow=False):
        failures.append("bank save/load round-trip is not bit-exact")
