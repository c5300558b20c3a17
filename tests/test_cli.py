import dataclasses
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from hgsurv import cli, model
from hgsurv.attention import write_heatmap
from hgsurv.cli import main
from hgsurv.datamodel import load_cohort, save_cohort
from hgsurv.membank import MemoryBank
from hgsurv.model import forward_record, init_params, load_checkpoint, save_checkpoint, substream


def run(*argv):
    return main(list(argv))


def dir_digest(path):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            h.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def manifest_without_timing(path):
    with open(path) as fh:
        m = json.load(fh)
    m.pop("timing_sec", None)
    return json.dumps(m, sort_keys=True)


GEN = ["--n", "16", "--patches", "6", "--d", "8", "--w-groups", "2", "--signal", "2.0", "--folds", "3"]
TRAIN = ["--epochs", "2", "--lr", "2e-3", "--lambda", "3", "--beta-frac", "0.4", "--seed", "5"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    cohort = ws / "cohort"
    assert run("generate", "--out", str(cohort), "--seed", "3", *GEN) == 0
    train_out = ws / "train"
    assert run("train", "--cohort", str(cohort), "--out", str(train_out), *TRAIN) == 0
    return ws


class TestGenerate:
    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--out", str(a), "--seed", "7", *GEN) == 0
        assert run("generate", "--out", str(b), "--seed", "7", *GEN) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--out", str(a), "--seed", "7", *GEN) == 0
        assert run("generate", "--out", str(b), "--seed", "8", *GEN) == 0
        assert dir_digest(a) != dir_digest(b)

    def test_full_censor_rate_is_validation_error(self, tmp_path):
        assert run("generate", "--out", str(tmp_path / "x"), "--censor-rate", "1.0") == 1

    def test_unknown_flag_is_validation_error(self, tmp_path):
        assert run("generate", "--out", str(tmp_path / "x"), "--bogus", "1") == 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus_key": 1, "n": 12}))
        assert run("generate", "--out", str(tmp_path / "x"), "--config", str(cfg_file), *GEN) == 1
        assert "unknown key(s) bogus_key" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("bad, message", [({"n": 6.9}, "n must be an integer, got 6.9"),
                                              ({"folds": True}, "folds must be an integer, got True"),
                                              ({"signal": "2"}, "signal must be a number, got '2'"),
                                              ({"noise": False}, "noise must be a number, got False")])
    def test_config_value_of_the_wrong_type_rejected(self, tmp_path, capsys, bad, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(bad))
        assert run("generate", "--out", str(tmp_path / "x"), "--config", str(cfg_file)) == 1
        assert f"config file {cfg_file}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_integer_config_value_for_a_real_setting(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"signal": 2}))
        assert run("generate", "--out", str(tmp_path / "a"), "--config", str(cfg_file), "--n", "6") == 0
        assert run("generate", "--out", str(tmp_path / "b"), "--signal", "2.0", "--n", "6") == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    @pytest.mark.parametrize("flags, message", [(["--folds", "0"], "n_folds must be >= 1"),
                                                (["--folds", "-2"], "n_folds must be >= 1"),
                                                (["--bins", "1"], "n_bins must be >= 2")])
    def test_bad_fold_or_bin_count_is_validation_error(self, tmp_path, capsys, flags, message):
        assert run("generate", "--out", str(tmp_path / "x"), "--n", "6", *flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "3"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert run("generate", "--out", str(tmp_path / "x"), "--config", str(cfg_file)) == 1
        assert "the top level must be a JSON object" in capsys.readouterr().err

    def test_config_keys_are_flag_names(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 9, "w_groups": 3, "slides_max": 2, "folds": 2}))
        assert run("generate", "--out", str(tmp_path / "x"), "--config", str(cfg_file), "--d", "4") == 0
        cohort = load_cohort(str(tmp_path / "x"))
        assert len(cohort.patients) == 9 and cohort.n_folds == 2 and cohort.d == 4
        assert all(len(p.genes.groups) == 3 and len(p.slides) <= 2 for p in cohort.patients)


class TestTrain:
    def test_manifest_shape(self, workspace):
        with open(workspace / "train" / "manifest.json") as fh:
            m = json.load(fh)
        assert m["command"] == "train"
        assert m["n_folds"] == 3
        assert len(m["folds"]) == 3
        assert set(m["folds"][0]) == {"fold", "n_train", "n_val", "c_index", "final_loss"}
        assert m["config"]["lam"] == 3
        assert "timing_sec" in m

    def test_artifacts_exist(self, workspace):
        for fold in range(3):
            assert (workspace / "train" / f"fold_{fold}.npz").exists()
            assert (workspace / "train" / f"fold_{fold}.bank.txt").exists()
            assert (workspace / "train" / f"fold_{fold}.bank.txt.npz").exists()

    def test_lr_zero_checkpoint_equals_init(self, workspace, tmp_path):
        out = tmp_path / "zero"
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(out),
                   "--epochs", "1", "--lr", "0", "--lambda", "3", "--beta-frac", "0.4",
                   "--seed", "5") == 0
        params, cfg, meta = load_checkpoint(out / "fold_0.npz")
        fresh = init_params(8, 4, meta["gene_raw_lens"], cfg, substream(5, "init", 0))
        for name, arr in params.arrays().items():
            np.testing.assert_array_equal(arr, fresh.arrays()[name])

    def test_missing_cohort_dir(self, tmp_path):
        assert run("train", "--cohort", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 1

    def test_folds_flag_overrides(self, workspace, tmp_path):
        out = tmp_path / "f2"
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(out),
                   "--folds", "2", *TRAIN) == 0
        with open(out / "manifest.json") as fh:
            assert len(json.load(fh)["folds"]) == 2

    def test_rerun_manifest_identical_minus_timing(self, workspace, tmp_path):
        out = tmp_path / "again"
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(out), *TRAIN) == 0
        assert manifest_without_timing(out / "manifest.json") == manifest_without_timing(
            workspace / "train" / "manifest.json"
        )

    def test_config_file_precedence(self, workspace, tmp_path):
        # flags beat the config file, the config file beats defaults
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 1, "lam": 5, "lr": 1e-3}))
        out = tmp_path / "cfgd"
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(out),
                   "--config", str(cfg_file), "--lambda", "3", "--seed", "5") == 0
        with open(out / "manifest.json") as fh:
            resolved = json.load(fh)["config"]
        assert resolved["lam"] == 3  # flag wins
        assert resolved["epochs"] == 1 and resolved["lr"] == 1e-3  # config file wins
        assert resolved["weight_decay"] == 1e-5  # default preserved

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus_key": 1, "epochs": 1}))
        assert run("train", "--cohort", str(workspace / "cohort"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg_file)) == 1
        assert "bogus_key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", [{"bank_mu": 0}, {"n_max": "many"}, {"wd": 1e-3, "weight_decay": 1e-4}])
    def test_invalid_config_value_rejected(self, workspace, tmp_path, bad):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(bad))
        assert run("train", "--cohort", str(workspace / "cohort"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg_file)) == 1

    @pytest.mark.parametrize("bad, message", [({"epochs": 1.7}, "epochs must be an integer, got 1.7"),
                                              ({"lr": True}, "lr must be a number, got True"),
                                              ({"fusion": 3}, "fusion_mode must be a string, got 3"),
                                              ({"bank_mu": "2"}, "bank_mu must be an integer, got '2'")])
    def test_config_value_of_the_wrong_type_rejected(self, workspace, tmp_path, capsys, bad, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(bad))
        assert run("train", "--cohort", str(workspace / "cohort"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg_file)) == 1
        assert f"config file {cfg_file}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("folds", ["0", "-1", "17"])
    def test_fold_count_outside_the_cohort_rejected(self, workspace, tmp_path, capsys, command, folds):
        assert run(command, "--cohort", str(workspace / "cohort"), "--out", str(tmp_path / "o"),
                   "--folds", folds, *TRAIN) == 1
        assert f"--folds {folds} must lie in [1, 16]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("folds", ["16", "8"])
    def test_fold_without_a_comparable_pair_rejected_before_training(self, workspace, tmp_path, capsys,
                                                                    monkeypatch, command, folds):
        monkeypatch.setattr(cli, "train_fold", None)  # nothing may be trained
        assert run(command, "--cohort", str(workspace / "cohort"), "--out", str(tmp_path / "o"),
                   "--folds", folds, *TRAIN) == 1
        assert re.search(r"error: fold \d+: no held-out patient has an event earlier than another held-out "
                         r"patient's time, so its C-index is undefined", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_config_sets_every_field(self, workspace, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_max": 32, "bank_mu": 2, "wd": 1e-4}))
        out = tmp_path / "cfgd"
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(out),
                   "--config", str(cfg_file), "--folds", "2", *TRAIN) == 0
        with open(out / "manifest.json") as fh:
            resolved = json.load(fh)["config"]
        assert resolved["n_max"] == 32 and resolved["bank_mu"] == 2
        assert resolved["weight_decay"] == 1e-4  # a flag spelling is accepted as a key
        assert MemoryBank.load(str(out / "fold_0.bank.txt")).mu == 2

    def test_non_finite_gradient_is_runtime_error(self, workspace, tmp_path, monkeypatch, capsys):
        def poisoned(fwd, prepared, *args, _original=model.backward):
            grads = _original(fwd, prepared, *args)
            grads["head_b"][0] = np.nan
            return grads

        monkeypatch.setattr(model, "backward", poisoned)
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(tmp_path / "o"), *TRAIN) == 2
        assert re.search(r"runtime error: P\d+: non-finite loss or gradient in epoch 0", capsys.readouterr().err)

    def test_non_finite_gene_value_is_validation_error(self, workspace, tmp_path, capsys):
        cohort = load_cohort(str(workspace / "cohort"))
        bad = cohort.patients[2]
        bad.genes.groups[1][0] = np.nan
        save_cohort(cohort, str(tmp_path / "nan_cohort"))
        assert run("train", "--cohort", str(tmp_path / "nan_cohort"), "--out", str(tmp_path / "o"), *TRAIN) == 1
        expect = f"{bad.patient_id}: gene group {bad.genes.group_names[1]} has non-finite entries"
        assert expect in capsys.readouterr().err

    @pytest.mark.parametrize("flag, duplicate", [("2", False), ("-1", False), ("0", True)])
    def test_bad_survival_row_is_validation_error(self, workspace, tmp_path, capsys, flag, duplicate):
        save_cohort(load_cohort(str(workspace / "cohort")), str(tmp_path / "bad"))
        path = tmp_path / "bad" / "survival.csv"
        lines = path.read_text().splitlines()
        pid, time, _ = lines[1].split(",")
        if duplicate:
            lines.insert(2, f"{pid},{time},{flag}")
        else:
            lines[1] = f"{pid},{time},{flag}"
        path.write_text("\n".join(lines) + "\n")
        assert run("train", "--cohort", str(tmp_path / "bad"), "--out", str(tmp_path / "o"), *TRAIN) == 1
        expect = f"patient {pid} listed twice" if duplicate else f"event flag '{flag}' is not 0 or 1"
        assert f"survival.csv line {3 if duplicate else 2}: {expect}" in capsys.readouterr().err

    @pytest.mark.parametrize("time, unlisted", [("-1.0", False), ("nan", False), ("2.0", True)])
    def test_bad_survival_label_is_validation_error(self, workspace, tmp_path, capsys, time, unlisted):
        save_cohort(load_cohort(str(workspace / "cohort")), str(tmp_path / "bad"))
        path = tmp_path / "bad" / "survival.csv"
        lines = path.read_text().splitlines()
        pid, _, event = lines[1].split(",")
        if unlisted:
            lines.append(f"p_unlisted,{time},{event}")
        else:
            lines[1] = f"{pid},{time},{event}"
        path.write_text("\n".join(lines) + "\n")
        assert run("train", "--cohort", str(tmp_path / "bad"), "--out", str(tmp_path / "o"), *TRAIN) == 1
        if unlisted:
            expect = f"survival.csv line {len(lines)}: patient p_unlisted is not in cohort.json"
        else:
            expect = f"survival.csv line 2: time '{time}' is negative or not finite"
        assert expect in capsys.readouterr().err

    def test_repeated_patient_id_is_validation_error(self, workspace, tmp_path, capsys):
        save_cohort(load_cohort(str(workspace / "cohort")), str(tmp_path / "dup"))
        path = tmp_path / "dup" / "cohort.json"
        manifest = json.loads(path.read_text())
        first = manifest["patients"][0]
        manifest["patients"].append(first)
        path.write_text(json.dumps(manifest))
        assert run("train", "--cohort", str(tmp_path / "dup"), "--out", str(tmp_path / "o"),
                   "--folds", "1", *TRAIN) == 1
        assert f"{first['patient_id']}: patient id listed 2 times" in capsys.readouterr().err

    def test_missing_manifest_key_is_validation_error(self, workspace, tmp_path, capsys):
        save_cohort(load_cohort(str(workspace / "cohort")), str(tmp_path / "nod"))
        path = tmp_path / "nod" / "cohort.json"
        manifest = json.loads(path.read_text())
        del manifest["d"]
        path.write_text(json.dumps(manifest))
        assert run("train", "--cohort", str(tmp_path / "nod"), "--out", str(tmp_path / "o"), *TRAIN) == 1
        assert f"error: {path}: missing key 'd'" in capsys.readouterr().err

    def test_gene_layout_mismatch_is_validation_error(self, workspace, tmp_path, capsys):
        cohort = load_cohort(str(workspace / "cohort"))
        short = cohort.patients[3]
        short.genes.groups[0] = short.genes.groups[0][:-1]
        save_cohort(cohort, str(tmp_path / "short_cohort"))
        assert run("train", "--cohort", str(tmp_path / "short_cohort"), "--out", str(tmp_path / "o"), *TRAIN) == 1
        assert f"{short.patient_id}: gene group lengths" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    @pytest.mark.parametrize("fusion, what", [("hga", "attention scores"), ("random", "logits"),
                                              ("concat", "logits")])
    def test_overflowing_forward_names_patient_and_epoch(self, workspace, tmp_path, capsys, fusion, what):
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(tmp_path / "o"),
                   *TRAIN, "--lr", "1e300", "--fusion", fusion) == 2
        assert re.search(rf"runtime error: P\d+: non-finite {what} in epoch \d+\n", capsys.readouterr().err)

    def test_malformed_config_file(self, workspace, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("{not json")
        assert run("train", "--cohort", str(workspace / "cohort"),
                   "--out", str(tmp_path / "o"), "--config", str(cfg_file)) == 1


class TestEval:
    def test_missing_none_reproduces_training_c_index_bit_exact(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir",
                   str(workspace / "train"), "--out", str(out), "--missing", "none") == 0
        with open(out / "eval_manifest.json") as fh:
            ev = json.load(fh)
        with open(workspace / "train" / "manifest.json") as fh:
            tr = json.load(fh)
        for fe, ft in zip(ev["folds"], tr["folds"]):
            assert fe["c_index"] == ft["c_index"]

    def test_missing_gene_runs(self, workspace, tmp_path):
        out = tmp_path / "evalg"
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir",
                   str(workspace / "train"), "--out", str(out), "--missing", "gene") == 0
        with open(out / "eval_manifest.json") as fh:
            assert json.load(fh)["missing"] == "gene"

    def test_km_export_and_logrank(self, workspace, tmp_path):
        out = tmp_path / "evalkm"
        km = tmp_path / "km.csv"
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir",
                   str(workspace / "train"), "--out", str(out), "--km-out", str(km)) == 0
        lines = km.read_text().splitlines()
        assert lines[0] == "group,time,survival,at_risk"
        groups = {l.split(",")[0] for l in lines[1:]}
        assert groups <= {"high", "low"} and "high" in groups
        with open(out / "eval_manifest.json") as fh:
            m = json.load(fh)
        assert 0.0 <= m["logrank_p"] <= 1.0

    def test_heatmap_export(self, workspace, tmp_path):
        out = tmp_path / "evalhm"
        hm = tmp_path / "hm.csv"
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir",
                   str(workspace / "train"), "--out", str(out), "--heatmap-out", str(hm),
                   "--heatmap-patient", "P003") == 0
        lines = hm.read_text().splitlines()
        assert lines[0] == "gene,x,y,weight"
        weights = {}
        for line in lines[1:]:
            gene, _, _, w = line.split(",")
            weights.setdefault(gene, 0.0)
            weights[gene] += float(w)
        for total in weights.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_heatmap_patient_prepared_once_and_bytes_unchanged(self, workspace, tmp_path, monkeypatch):
        prepared = []
        original = model.prepare_record

        def counted(record, *args, **kwargs):
            prepared.append(record.patient_id)
            return original(record, *args, **kwargs)

        # every binding the eval command reaches: evaluate's and the heatmap export's
        monkeypatch.setattr(model, "prepare_record", counted)
        monkeypatch.setattr(cli, "prepare_record", counted)
        hm = tmp_path / "hm.csv"
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir",
                   str(workspace / "train"), "--out", str(tmp_path / "o"), "--heatmap-out",
                   str(hm), "--heatmap-patient", "P003") == 0
        # once in its fold's evaluation pass, once for the heatmap
        assert prepared.count("P003") == 2
        monkeypatch.undo()

        # reference bytes: the heatmap computed through forward_record
        cohort = load_cohort(str(workspace / "cohort"))
        params, cfg, _ = load_checkpoint(str(workspace / "train" / "fold_0.npz"))
        bank = MemoryBank.load(str(workspace / "train" / "fold_0.bank.txt"))
        record = next(p for p in cohort.patients if p.patient_id == "P003")
        fwd = forward_record(record, params, cfg, bank=bank)
        ref = tmp_path / "ref.csv"
        write_heatmap(str(ref), fwd.gene_build.scores, model.prepare_record(record, cfg).coords,
                      record.genes.group_names)
        assert hm.read_bytes() == ref.read_bytes()

    def test_heatmap_reuses_fold_0_artifacts(self, workspace, tmp_path, monkeypatch):
        loads = []
        for owner, name in ((cli, "load_checkpoint"), (MemoryBank, "load")):
            def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
                loads.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir", str(workspace / "train"),
                   "--out", str(tmp_path / "o"), "--heatmap-out", str(tmp_path / "hm.csv")) == 0
        assert sorted(loads) == ["load"] * 3 + ["load_checkpoint"] * 3  # one of each per fold

    def test_eval_rerun_manifest_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir",
                str(workspace / "train"), "--missing", "path"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert manifest_without_timing(a / "eval_manifest.json") == manifest_without_timing(
            b / "eval_manifest.json"
        )

    @pytest.mark.parametrize("missing", ["gene", "path"])
    def test_eval_without_bank_mirrors_matches(self, workspace, tmp_path, missing):
        text_only = tmp_path / "text_only"
        shutil.copytree(workspace / "train", text_only)
        for fold in range(3):
            (text_only / f"fold_{fold}.bank.txt.npz").unlink()
        for ckpt_dir, out in ((workspace / "train", tmp_path / "a"), (text_only, tmp_path / "b")):
            assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir", str(ckpt_dir),
                       "--missing", missing, "--out", str(out)) == 0
        assert manifest_without_timing(tmp_path / "a" / "eval_manifest.json") == manifest_without_timing(
            tmp_path / "b" / "eval_manifest.json"
        )

    @pytest.mark.parametrize("name, fold", [("fold_1.bank.txt", 1), ("fold_2.npz", 2)])
    def test_missing_fold_artifact_rejected_before_out(self, workspace, tmp_path, capsys, name, fold):
        partial = tmp_path / "partial"
        shutil.copytree(workspace / "train", partial)
        (partial / name).unlink()
        out = tmp_path / "o"
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir", str(partial),
                   "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert f"missing checkpoint or bank for fold {fold} in {partial}" in captured.err
        assert captured.out == "" and not out.exists()  # no fold was scored

    @pytest.mark.parametrize("missing, absent, kept", [("gene", dict(slides=[]), "slides"),
                                                       ("path", dict(genes=None), "genes")])
    def test_patient_left_with_nothing_rejected_before_out(self, workspace, tmp_path, capsys, missing,
                                                           absent, kept):
        cohort = load_cohort(str(workspace / "cohort"))
        cohort.patients[15] = dataclasses.replace(cohort.patients[15], **absent)
        save_cohort(cohort, str(tmp_path / "c"))
        args = ["eval", "--cohort", str(tmp_path / "c"), "--ckpt-dir", str(workspace / "train")]
        assert run(*args, "--out", str(tmp_path / "o"), "--missing", missing) == 1
        err = capsys.readouterr().err
        assert f"--missing {missing} leaves nothing to evaluate for patients without {kept}: P015" in err
        assert not (tmp_path / "o").exists()
        # with nothing withheld, the bank stands in for the absent modality
        assert run(*args, "--out", str(tmp_path / "none")) == 0

    def test_v1_checkpoint_evaluates_like_its_v2_resave(self, workspace, tmp_path):
        v1, v2 = tmp_path / "v1", tmp_path / "v2"
        shutil.copytree(workspace / "train", v1)
        shutil.copytree(workspace / "train", v2)
        for fold in range(3):  # v1 holds each parameter under its name; v2 is its re-save
            params, cfg, meta = load_checkpoint(v1 / f"fold_{fold}.npz")
            v1_meta = json.dumps({**meta, "version": 1}, sort_keys=True)
            np.savez(v1 / f"fold_{fold}.npz", **params, _meta=np.array(v1_meta))
            save_checkpoint(v2 / f"fold_{fold}.npz", *load_checkpoint(v1 / f"fold_{fold}.npz")[:2],
                            meta["gene_raw_lens"])
        for ckpt_dir in (v1, v2):
            assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir", str(ckpt_dir),
                       "--missing", "gene", "--out", str(ckpt_dir / "eval")) == 0
        assert manifest_without_timing(v1 / "eval" / "eval_manifest.json") == manifest_without_timing(
            v2 / "eval" / "eval_manifest.json"
        )

    def test_corrupt_checkpoint_is_runtime_error(self, workspace, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "train", broken)
        (broken / "fold_0.npz").write_bytes(b"garbage")
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir", str(broken),
                   "--out", str(tmp_path / "o")) == 2

    def test_non_finite_checkpoint_parameter_named(self, workspace, tmp_path, capsys):
        broken = tmp_path / "nan"
        shutil.copytree(workspace / "train", broken)
        params, cfg, meta = load_checkpoint(broken / "fold_0.npz")
        params["head_b"][0] = np.nan
        save_checkpoint(broken / "fold_0.npz", params, cfg, meta["gene_raw_lens"])
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir", str(broken),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "runtime error: parameter head_b is not finite\n" in err

    def test_checkpoint_dim_mismatch_rejected(self, workspace, tmp_path):
        other = tmp_path / "cohort16"
        assert run("generate", "--out", str(other), "--seed", "3", "--n", "16", "--patches",
                   "6", "--d", "16", "--w-groups", "2", "--folds", "3") == 0
        assert run("eval", "--cohort", str(other), "--ckpt-dir", str(workspace / "train"),
                   "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("missing", ["none", "gene"])
    def test_gene_layout_mismatch_rejected(self, workspace, tmp_path, capsys, missing):
        other = tmp_path / "cohort3"
        assert run("generate", "--out", str(other), "--seed", "3", "--n", "16", "--patches",
                   "6", "--d", "8", "--w-groups", "3", "--folds", "3") == 0
        lens = load_cohort(str(other)).patients[0].genes.raw_lengths
        assert run("eval", "--cohort", str(other), "--ckpt-dir", str(workspace / "train"),
                   "--out", str(tmp_path / "o"), "--missing", missing) == 1
        err = capsys.readouterr().err
        trained = load_checkpoint(str(workspace / "train" / "fold_0.npz"))[2]["gene_raw_lens"]
        assert f"gene group lengths {trained} but the cohort has {lens}" in err

    def test_bank_width_mismatch_rejected(self, workspace, tmp_path, capsys):
        narrow = tmp_path / "narrow"
        shutil.copytree(workspace / "train", narrow)
        bank = MemoryBank(d=4)
        bank.update("P000", np.ones(4), np.ones(4))
        bank.save(str(narrow / "fold_0.bank.txt"))
        assert run("eval", "--cohort", str(workspace / "cohort"), "--ckpt-dir", str(narrow),
                   "--out", str(tmp_path / "o"), "--missing", "gene") == 1
        err = capsys.readouterr().err
        assert "d=4" in err and "d=8" in err


@pytest.fixture(scope="module")
def grid(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate")
    code = run("ablate", "--cohort", str(workspace / "cohort"), "--out", str(out),
               "--epochs", "1", "--lr", "1e-3", "--beta-frac", "0.4", "--seed", "5",
               "--folds", "2")
    assert code == 0
    with open(out / "ablation.json") as fh:
        return json.load(fh)


class TestAblate:
    def test_27_cells(self, grid):
        assert len(grid["cells"]) == 27

    def test_config_echo_matches_cells(self, grid):
        seen = set()
        for cell in grid["cells"]:
            key = (cell["lambda"], cell["edge_mode"], cell["fusion"])
            assert key not in seen
            seen.add(key)
            assert cell["lambda"] in (5, 9, 25)
            assert len(cell["folds"]) == 2
        assert len(seen) == 27

    @pytest.mark.parametrize("lam, edge_mode, fusion", [("9", "inter", "random"), ("5", "both", "hga")])
    def test_cell_matches_train_run(self, workspace, grid, tmp_path, lam, edge_mode, fusion):
        out = tmp_path / "train"
        assert run("train", "--cohort", str(workspace / "cohort"), "--out", str(out), "--epochs", "1",
                   "--lr", "1e-3", "--beta-frac", "0.4", "--seed", "5", "--folds", "2", "--lambda", lam,
                   "--edge-mode", edge_mode, "--fusion", fusion) == 0
        with open(out / "manifest.json") as fh:
            trained = [(r["fold"], r["c_index"]) for r in json.load(fh)["folds"]]
        [cell] = [c for c in grid["cells"]
                  if (c["lambda"], c["edge_mode"], c["fusion"]) == (int(lam), edge_mode, fusion)]
        assert [(r["fold"], r["c_index"]) for r in cell["folds"]] == trained


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
