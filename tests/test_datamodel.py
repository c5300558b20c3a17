import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsurv.datamodel import (
    Censor,
    Cohort,
    GeneGroups,
    PatientRecord,
    Slide,
    SlideKind,
    SurvivalLabel,
    assign_bins,
    assign_folds,
    bin_for_time,
    load_cohort,
    save_cohort,
    validate_cohort,
)
from hgsurv.synth import SynthConfig, generate


def events(n):
    return [Censor.EVENT] * n


class TestAssignBins:
    def test_one_per_quantile(self):
        out = assign_bins([1, 2, 3, 4], events(4), 4)
        np.testing.assert_array_equal(out.bins, [0, 1, 2, 3])
        assert not out.used_fallback

    def test_degenerate_equal_times(self):
        out = assign_bins([5, 5, 5, 5], events(4), 2)
        assert out.used_fallback
        np.testing.assert_array_equal(out.bins, [0, 0, 0, 0])

    def test_eight_times_hand_quantiles(self):
        times = [1, 2, 3, 4, 5, 6, 7, 8]
        out = assign_bins(times, events(8), 4)
        # hand oracle: quantile edges at 2.75 / 4.5 / 6.25 (linear interpolation)
        np.testing.assert_allclose(out.bin_edges, [1, 2.75, 4.5, 6.25, 8])
        np.testing.assert_array_equal(out.bins, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_uses_uncensored_only(self):
        times = [1, 2, 3, 4, 100, 200]
        censors = events(4) + [Censor.CENSORED] * 2
        out = assign_bins(times, censors, 4)
        np.testing.assert_allclose(out.bin_edges, [1, 1.75, 2.5, 3.25, 4])
        assert out.bins[4] == 3 and out.bins[5] == 3

    def test_rejects_small_b(self):
        with pytest.raises(ValueError):
            assign_bins([1, 2], events(2), 1)

    def test_monotone_in_time(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 50, 40)
        out = assign_bins(times, events(40), 4)
        order = np.argsort(times)
        assert np.all(np.diff(out.bins[order]) >= 0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        times = rng.uniform(1, 30, 20)
        censors = [Censor.EVENT if rng.random() < 0.8 else Censor.CENSORED for _ in range(20)]
        out = assign_bins(times, censors, 4)
        perm = rng.permutation(20)
        out_p = assign_bins(times[perm], [censors[i] for i in perm], 4)
        np.testing.assert_allclose(out.bin_edges, out_p.bin_edges)
        np.testing.assert_array_equal(out.bins[perm], out_p.bins)

    def test_bin_for_time_clamps(self):
        edges = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert bin_for_time(-5.0, edges) == 0
        assert bin_for_time(100.0, edges) == 3


def tiny_cohort(d=4):
    rng = np.random.default_rng(0)
    slides = [
        Slide("s0", SlideKind.FFPE, rng.standard_normal((3, d)), rng.uniform(0, 10, (3, 2)))
    ]
    genes = GeneGroups(groups=[rng.standard_normal(5), rng.standard_normal(7)], group_names=["a", "b"])
    p0 = PatientRecord("p0", slides, genes, SurvivalLabel(1.0, Censor.EVENT, 0))
    p1 = PatientRecord(
        "p1",
        [Slide("s1", SlideKind.FF, rng.standard_normal((2, d)), rng.uniform(0, 10, (2, 2)))],
        GeneGroups(groups=[rng.standard_normal(5), rng.standard_normal(7)], group_names=["a", "b"]),
        SurvivalLabel(3.0, Censor.CENSORED, 1),
    )
    return Cohort(patients=[p0, p1], d=d, bin_edges=np.array([0.0, 2.0, 4.0]), folds=np.array([0, 1]))


class TestValidateCohort:
    def test_well_formed(self):
        assert validate_cohort(tiny_cohort()) == []

    def test_width_mismatch_names_patient(self):
        cohort = tiny_cohort()
        cohort.patients[1].slides[0].features = np.ones((2, 9))
        problems = validate_cohort(cohort)
        assert any("p1" in p and "width" in p for p in problems)

    def test_empty_record(self):
        cohort = tiny_cohort()
        cohort.patients[0].slides = []
        cohort.patients[0].genes = None
        problems = validate_cohort(cohort)
        assert any("empty record" in p for p in problems)

    def test_bin_mismatch(self):
        cohort = tiny_cohort()
        cohort.patients[0].label.bin = 1
        assert any("inconsistent" in p for p in validate_cohort(cohort))

    def test_gene_layout_mismatch_names_patient(self):
        cohort = tiny_cohort()
        genes = cohort.patients[1].genes
        genes.groups[1] = genes.groups[1][:-1]
        assert validate_cohort(cohort) == [
            "p1: gene group lengths [5, 6] != [5, 7] of the first patient with genes"
        ]

    def test_repeated_patient_id_reported_once_per_id(self):
        cohort = tiny_cohort()
        cohort.patients.append(cohort.patients[0])
        cohort.folds = np.array([0, 1, 0])
        assert validate_cohort(cohort) == ["p0: patient id listed 2 times"]


class TestAssignFolds:
    def test_round_robin_over_the_permutation(self):
        perm = np.random.default_rng(3).permutation(7)
        folds = assign_folds(np.random.default_rng(3), 7, 3)
        assert [folds[i] for i in perm] == [0, 1, 2, 0, 1, 2, 0]


class TestTypes:
    def test_slide_requires_patches(self):
        with pytest.raises(ValueError):
            Slide("s", SlideKind.FFPE, np.zeros((0, 4)), np.zeros((0, 2)))

    def test_gene_names_unique(self):
        with pytest.raises(ValueError):
            GeneGroups(groups=[np.ones(3), np.ones(3)], group_names=["a", "a"])

    def test_label_rejects_negative_time(self):
        with pytest.raises(ValueError):
            SurvivalLabel(time=-1.0, censor=Censor.EVENT, bin=0)


class TestRoundTrip:
    def test_synthetic_cohort_round_trips_bit_exact(self, tmp_path):
        cohort = generate(SynthConfig(n_patients=6, patches_per_slide=5, d=6, w_groups=3, seed=3))
        save_cohort(cohort, tmp_path / "c")
        loaded = load_cohort(tmp_path / "c")
        assert loaded.d == cohort.d
        np.testing.assert_array_equal(loaded.bin_edges, cohort.bin_edges)
        np.testing.assert_array_equal(loaded.folds, cohort.folds)
        assert len(loaded.patients) == len(cohort.patients)
        for a, b in zip(cohort.patients, loaded.patients):
            assert a.patient_id == b.patient_id
            assert a.label.time == b.label.time
            assert a.label.censor == b.label.censor
            assert a.label.bin == b.label.bin
            assert len(a.slides) == len(b.slides)
            for sa, sb in zip(a.slides, b.slides):
                assert sa.slide_id == sb.slide_id and sa.kind == sb.kind
                np.testing.assert_array_equal(sa.features, sb.features)
                np.testing.assert_array_equal(sa.coords, sb.coords)
            assert a.genes.group_names == b.genes.group_names
            for ga, gb in zip(a.genes.groups, b.genes.groups):
                np.testing.assert_array_equal(ga, gb)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cohort(tmp_path / "nope")

    def test_malformed_survival_header(self, tmp_path):
        cohort = tiny_cohort()
        save_cohort(cohort, tmp_path / "c")
        (tmp_path / "c" / "survival.csv").write_text("bogus\n")
        with pytest.raises(ValueError, match="header"):
            load_cohort(tmp_path / "c")


def replace_line(lineno, text):
    return lambda lines: lines[: lineno - 1] + [text] + lines[lineno:]


def drop_last_field(lineno):
    return lambda lines: replace_line(lineno, lines[lineno - 1].rsplit(",", 1)[0])(lines)


def set_field(lineno, col, value):
    def edit(lines):
        fields = lines[lineno - 1].split(",")
        fields[col] = value
        return replace_line(lineno, ",".join(fields))(lines)

    return edit


class TestLoadErrors:
    """Bad cohort files fail naming the file and line; tiny_cohort's survival.csv reads
    header, p0,1.0,1 and p1,3.0,0."""

    @pytest.mark.parametrize("rel, edit, message", [
        ("survival.csv", replace_line(2, "p0,1.0,2"), "survival.csv line 2: event flag '2' is not 0 or 1"),
        ("survival.csv", replace_line(3, "p1,3.0,-1"), "survival.csv line 3: event flag '-1' is not 0 or 1"),
        ("survival.csv", lambda lines: lines + ["p0,5.0,0"], "survival.csv line 4: patient p0 listed twice"),
        ("survival.csv", replace_line(2, "p0,abc,1"), "survival.csv line 2: could not convert string to float"),
        ("survival.csv", replace_line(2, "p0,-1.0,1"), "survival.csv line 2: time '-1.0' is negative or not finite"),
        ("survival.csv", replace_line(3, "p1,nan,0"), "survival.csv line 3: time 'nan' is negative or not finite"),
        ("survival.csv", lambda lines: lines + ["p9,2.0,1"], "survival.csv line 4: patient p9 is not in cohort.json"),
        ("patches/s0.csv", set_field(3, 2, "abc"), "s0.csv line 3: could not convert string to float"),
        ("patches/s0.csv", drop_last_field(3), "s0.csv line 3: expected 6 fields, got 5"),
        ("genes/p1.csv", set_field(2, 1, "abc"), "p1.csv line 2: could not convert string to float"),
    ], ids=["event-2", "event-minus-1", "duplicate-patient", "survival-time", "negative-time", "nan-time",
            "unlisted-patient", "patch-value", "short-patch-row", "gene-value"])
    def test_names_file_and_line(self, tmp_path, rel, edit, message):
        save_cohort(tiny_cohort(), tmp_path / "c")
        path = tmp_path / "c" / rel
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_cohort(tmp_path / "c")

    @pytest.mark.parametrize("drop", [("d",), ("patients",), ("patients", 1, "fold"),
                                      ("patients", 0, "slides", 0, "kind")])
    def test_missing_manifest_key_names_file_and_key(self, tmp_path, drop):
        save_cohort(tiny_cohort(), tmp_path / "c")
        path = tmp_path / "c" / "cohort.json"
        manifest = json.loads(path.read_text())
        owner = manifest
        for step in drop[:-1]:
            owner = owner[step]
        del owner[drop[-1]]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing key {drop[-1]!r}")):
            load_cohort(str(tmp_path / "c"))
