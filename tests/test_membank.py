import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgsurv.membank import MemoryBank, Modality, _read_mirror
from oracles import bank_load_lines, bank_retrieve_scan


def bank_with(entries, d=2, theta=0.9, mu=1):
    b = MemoryBank(d=d, theta=theta, mu=mu)
    for key, p, g in entries:
        b.update(key, np.asarray(p, dtype=float), np.asarray(g, dtype=float))
    return b


class TestUpdate:
    def test_theta_one_replaces(self):
        b = bank_with([("k", [1, 1], [2, 2])], theta=1.0)
        b.update("k", np.array([5.0, 6.0]), np.array([7.0, 8.0]))
        np.testing.assert_array_equal(b.column(Modality.PATH)[0], [5, 6])
        np.testing.assert_array_equal(b.column(Modality.GENE)[0], [7, 8])

    def test_theta_zero_keeps_first(self):
        b = bank_with([("k", [1, 1], [2, 2])], theta=0.0)
        b.update("k", np.array([9.0, 9.0]), np.array([9.0, 9.0]))
        np.testing.assert_array_equal(b.column(Modality.PATH)[0], [1, 1])
        np.testing.assert_array_equal(b.column(Modality.GENE)[0], [2, 2])

    def test_half_momentum_hand_combination(self):
        b = bank_with([("k", [0, 0], [0, 0])], theta=0.5)
        b.update("k", np.array([2.0, 4.0]), np.array([6.0, 8.0]))
        np.testing.assert_allclose(b.column(Modality.PATH)[0], [1, 2])
        np.testing.assert_allclose(b.column(Modality.GENE)[0], [3, 4])

    def test_identical_update_is_fixed_point(self):
        for theta in (0.0, 0.3, 0.9, 1.0):
            b = bank_with([("k", [1.5, -2.0], [0.5, 0.25])], theta=theta)
            before_p = b.column(Modality.PATH)[0].copy()
            b.update("k", np.array([1.5, -2.0]), np.array([0.5, 0.25]))
            np.testing.assert_allclose(b.column(Modality.PATH)[0], before_p, atol=1e-15)

    def test_dim_mismatch(self):
        b = MemoryBank(d=3)
        with pytest.raises(ValueError):
            b.update("k", np.ones(2), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        b = bank_with([("k", [1, 1], [2, 2])])
        with pytest.raises(ValueError, match="finite"):
            b.update("k", np.array([bad, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            b.update("j", np.array([1.0, 1.0]), np.array([0.0, bad]))
        assert len(b) == 1
        np.testing.assert_array_equal(b.column(Modality.PATH), [[1, 1]])

    def test_new_key_inserted_as_is(self):
        b = MemoryBank(d=2, theta=0.25)
        b.update("k", np.array([3.0, 4.0]), np.array([5.0, 6.0]))
        np.testing.assert_array_equal(b.column(Modality.PATH)[0], [3, 4])

    @pytest.mark.parametrize("key", ["a b", "a\x00", "", " a", "a\n", "a\u2028b", 7])
    def test_key_that_is_not_one_token_free_of_nul_rejected(self, key):
        b = bank_with([("k", [1, 1], [2, 2])])
        message = f"bank key {key!r} is not a non-empty string free of whitespace and NUL"
        with pytest.raises(ValueError, match=re.escape(message)):
            b.update(key, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert b.key_ids == ["k"]


class TestRetrieve:
    def test_mu_one_is_exact_nearest_neighbor(self):
        b = bank_with(
            [("a", [1, 0], [10, 0]), ("b", [0, 1], [0, 10]), ("c", [0.7, 0.7], [5, 5])]
        )
        b.mu = 1
        got = b.retrieve_missing(np.array([0.9, 0.1]), Modality.PATH)
        np.testing.assert_array_equal(got, [10, 0])

    def test_single_entry_any_mu(self):
        b = bank_with([("a", [1, 0], [3, 7])])
        for mu in (1, 2, 50):
            b.mu = mu
            np.testing.assert_array_equal(b.retrieve_missing(np.array([0.0, 1.0]), Modality.PATH), [3, 7])

    def test_three_entry_hand_softmax(self):
        b = bank_with(
            [("a", [1, 0], [1, 1]), ("b", [0.8, 0.6], [2, 2]), ("c", [0, 1], [3, 3])]
        )
        q = np.array([1.0, 0.0])
        sims = np.array([1.0, 0.8, 0.0])  # hand cosine table
        w = np.exp(sims[:2] - 1.0)
        w = w / w.sum()
        expect = w[0] * np.array([1.0, 1.0]) + w[1] * np.array([2.0, 2.0])
        b.mu = 2
        got = b.retrieve_missing(q, Modality.PATH)
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_gene_side_query(self):
        b = bank_with([("a", [9, 9], [1, 0]), ("b", [4, 4], [0, 1])])
        b.mu = 1
        got = b.retrieve_missing(np.array([0.0, 2.0]), Modality.GENE)
        np.testing.assert_array_equal(got, [4, 4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        b = bank_with([("a", [1, 0], [10, 0]), ("b", [0, 1], [0, 10])])
        for avail in Modality:
            with pytest.raises(ValueError, match="query must be finite"):
                b.retrieve_missing(np.array([bad, 0.0]), avail)

    def test_cold_memory(self):
        with pytest.raises(ValueError, match="cold memory"):
            MemoryBank(d=2).retrieve_missing(np.array([1.0, 0.0]), Modality.PATH)

    def test_mu_clamped_to_bank_size(self):
        b = bank_with([("a", [1, 0], [1, 0]), ("b", [0, 1], [0, 1])])
        b.mu = 99
        out = b.retrieve_missing(np.array([1.0, 1.0]), Modality.PATH)
        assert np.all(np.isfinite(out))

    def test_ties_broken_by_lowest_index(self):
        b = bank_with([("a", [1, 0], [111, 0]), ("b", [1, 0], [222, 0])])
        b.mu = 1
        got = b.retrieve_missing(np.array([1.0, 0.0]), Modality.PATH)
        np.testing.assert_array_equal(got, [111, 0])

    def test_tied_maxima_after_lower_entries(self):
        # entries 1, 3 and 4 tie for the maximum cosine; entry 2 is second best
        b = bank_with([("a", [0, 1], [10, 0]), ("b", [1, 0], [11, 0]), ("c", [1, 1], [12, 0]),
                       ("d", [2, 0], [13, 0]), ("e", [3, 0], [14, 0])])
        q = np.array([5.0, 0.0])
        b.mu = 1
        np.testing.assert_array_equal(b.retrieve_missing(q, Modality.PATH), [11, 0])
        keys, values = list(b.column(Modality.PATH)), list(b.column(Modality.GENE))
        for mu in (2, 3, 4, 5):
            b.mu = mu
            np.testing.assert_allclose(b.retrieve_missing(q, Modality.PATH),
                                       bank_retrieve_scan(keys, values, q, mu), rtol=0, atol=1e-12)
        b.mu = 3
        np.testing.assert_allclose(b.retrieve_missing(q, Modality.PATH), [(11 + 13 + 14) / 3, 0])

    def test_equal_keys_tie_to_first_at_model_width(self):
        # every key equal: each query must pick entry 0, whatever the row's offset
        rng = np.random.default_rng(7)
        for _ in range(20):
            key = rng.standard_normal(32)
            b = bank_with([(f"k{i}", key, np.full(32, float(i))) for i in range(43)], d=32)
            b.mu = 1
            for q in (rng.standard_normal(32), key):
                np.testing.assert_array_equal(b.retrieve_missing(q, Modality.PATH), np.zeros(32))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        b = bank_with([(f"k{i}", rng.standard_normal(2), rng.standard_normal(2)) for i in range(6)])
        q = rng.standard_normal(2)
        b.mu = 3
        a = b.retrieve_missing(q, Modality.PATH)
        c = b.retrieve_missing(q, Modality.PATH)
        np.testing.assert_array_equal(a, c)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_convex_hull_of_selected(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 8)), 3
        b = MemoryBank(d=d)
        for i in range(n):
            b.update(f"k{i}", rng.standard_normal(d), rng.standard_normal(d))
        mu = int(rng.integers(1, n + 1))
        q = rng.standard_normal(d)
        b.mu = mu
        out = b.retrieve_missing(q, Modality.PATH)
        # independent re-selection of the top-mu by cosine, ties to lowest index
        def cos(u, v):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            return 0.0 if nu == 0 or nv == 0 else float(u @ v / (nu * nv))

        order = sorted(range(n), key=lambda i: (-cos(q, b.column(Modality.PATH)[i]), i))[:mu]
        sel = np.array([b.column(Modality.GENE)[i] for i in order])
        # supporting-hyperplane criterion along many random directions
        for u in rng.standard_normal((50, d)):
            proj = sel @ u
            assert proj.min() - 1e-9 <= out @ u <= proj.max() + 1e-9


ROW_KINDS = ("normal", "zero", "duplicate", "doubled", "integer")


@st.composite
def bank_histories(draw):
    """Rows of each kind inserted in drawn order, then momentum updates of drawn rows.

    Returns the bank and a plain replay of its rows as [key, path, gene] lists.
    """
    d = draw(st.integers(min_value=1, max_value=40))
    theta = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=70))
    n_updates = draw(st.integers(min_value=0, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    bank, rows = MemoryBank(d=d, theta=theta), []
    for i, kind in enumerate(kinds):
        if kind in ("duplicate", "doubled") and rows:
            _, p, g = rows[int(rng.integers(len(rows)))]
            p, g = (p, g) if kind == "duplicate" else (2.0 * p, 2.0 * g)
        elif kind == "zero":
            p, g = np.zeros(d), np.zeros(d)
        elif kind == "integer":  # entries in {-1, 0, 1}: parallel rows differ by powers of 2 only,
            # so mathematically equal cosines stay exactly equal under any summation order
            p, g = (rng.integers(-1, 2, d).astype(float) for _ in range(2))
        else:
            p, g = rng.standard_normal(d), rng.standard_normal(d)
        bank.update(f"k{i}", p, g)
        rows.append([f"k{i}", p.copy(), g.copy()])
    for _ in range(n_updates):
        row = rows[int(rng.integers(len(rows)))]
        p, g = rng.standard_normal(d), rng.standard_normal(d)
        bank.update(row[0], p, g)
        row[1] = theta * p + (1.0 - theta) * row[1]
        row[2] = theta * g + (1.0 - theta) * row[2]
    return bank, rows


class TestScanOracle:
    @given(
        bank_histories(),
        st.sampled_from(["normal", "zero", "stored", "integer"]),
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @example(
        (bank_with([("a", [0, 0], [1, 2]), ("b", [3, 4], [5, 6]), ("c", [3, 4], [7, 8])]),
         [["a", np.zeros(2), np.array([1.0, 2.0])], ["b", np.array([3.0, 4.0]), np.array([5.0, 6.0])],
          ["c", np.array([3.0, 4.0]), np.array([7.0, 8.0])]]),
        "stored", 2, 0,
    )
    def test_matches_scalar_scan(self, history, query_kind, mu, seed):
        bank, rows = history
        rng = np.random.default_rng(seed)
        assert len(bank) == len(rows) and bank.key_ids == [r[0] for r in rows]
        for avail, col, other in ((Modality.PATH, 1, 2), (Modality.GENE, 2, 1)):
            keys, values = [r[col] for r in rows], [r[other] for r in rows]
            np.testing.assert_array_equal(bank.column(avail), np.array(keys))  # momentum bit-identical
            if query_kind == "zero":
                q = np.zeros(bank.d)
            elif query_kind == "stored":
                q = keys[int(rng.integers(len(keys)))].copy()
            elif query_kind == "integer":
                q = rng.integers(-3, 4, bank.d).astype(float)
            else:
                q = rng.standard_normal(bank.d)
            bank.mu = 1
            np.testing.assert_array_equal(
                bank.retrieve_missing(q, avail), bank_retrieve_scan(keys, values, q, 1)
            )
            bank.mu = mu
            np.testing.assert_allclose(
                bank.retrieve_missing(q, avail), bank_retrieve_scan(keys, values, q, mu),
                rtol=0, atol=1e-12,
            )


class TestSaveLoad:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "bank.txt"
        b = MemoryBank(d=3, theta=0.75, mu=2)
        b.save(path)
        loaded = MemoryBank.load(path)
        assert loaded.d == 3 and loaded.theta == 0.75 and loaded.mu == 2
        assert len(loaded) == 0

    def test_two_entry_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        b = bank_with(
            [("a", rng.standard_normal(4), rng.standard_normal(4)),
             ("b", rng.standard_normal(4), rng.standard_normal(4))],
            d=4,
            theta=1 / 3,
        )
        path = tmp_path / "bank.txt"
        b.save(path)
        loaded = MemoryBank.load(path)
        assert loaded.theta == b.theta
        assert b.key_ids == loaded.key_ids
        np.testing.assert_array_equal(b.column(Modality.PATH), loaded.column(Modality.PATH))
        np.testing.assert_array_equal(b.column(Modality.GENE), loaded.column(Modality.GENE))
        # and the file itself round-trips byte-identically
        path2 = tmp_path / "bank2.txt"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_line_rejected(self, tmp_path):
        path = tmp_path / "bank.txt"
        bank_with([("a", [1, 2], [3, 4])]).save(path)
        text = path.read_text().splitlines()
        text[1] = " ".join(text[1].split()[:-1])  # drop last field
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            MemoryBank.load(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("not a header\n")
        with pytest.raises(ValueError, match="line 1"):
            MemoryBank.load(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("d=2 theta=0.9 mu=1\nK 1.0 1.0 1.0 1.0\nJ 0.5 0.5 0.5 0.5\nK 0.0 0.0 0.0 0.0\n")
        with pytest.raises(ValueError, match=r"bank\.txt line 4: duplicate key 'K'"):
            MemoryBank.load(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_field_rejected(self, tmp_path, bad):
        path = tmp_path / "bank.txt"
        path.write_text(f"d=2 theta=0.9 mu=1\nK 1.0 1.0 1.0 1.0\nJ 0.5 {bad} 0.5 0.5\n")
        with pytest.raises(ValueError, match=r"bank\.txt line 3: non-finite"):
            MemoryBank.load(path)

    def test_non_numeric_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("d=2 theta=0.9 mu=1\nJ 0.5 0.5 0.5 0.5\nK 1.0 abc 1.0 1.0\n")
        with pytest.raises(ValueError, match=r"bank\.txt line 3: could not convert string to float: 'abc'"):
            MemoryBank.load(path)


FAULTS = ("truncated", "duplicate", "nul key", "non-numeric", "nan", "inf", "-inf")


def _field_texts(rng: np.random.Generator, n: int) -> list[str]:
    """n numeric fields as a saved bank or a hand edit could hold them: repr floats across the
    exponent range, signed zeros, a subnormal and plain integers."""
    kind = rng.integers(0, 5, n)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    texts = [repr(float(v)) for v in vals]
    for i in np.flatnonzero(kind == 1):
        texts[i] = str(int(rng.integers(-9, 10)))
    for i in np.flatnonzero(kind == 2):
        texts[i] = ("0.0", "-0.0", "5e-324", "-1.7976931348623157e+308")[int(rng.integers(4))]
    return texts


@st.composite
def bank_files(draw):
    """A bank file's text: d from 1 to 40, 0 to 70 entries (the doubling boundaries drawn
    often), blank and whitespace-only lines in between, and up to three faulty lines."""
    d = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 70]),
                       st.integers(min_value=0, max_value=70)))
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(min_value=0, max_value=69)),
                           max_size=3)) if n else []
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = [[f"P{i:03d}"] + _field_texts(rng, 2 * d) for i in range(n)]
    for fault, at in faults:
        row = rows[at % n]
        if fault == "truncated":
            del row[-1]
        elif fault == "duplicate":
            row[0] = rows[int(rng.integers(n))][0]
        elif fault == "nul key":
            row[0] += "\x00"
        else:
            row[1 + int(rng.integers(len(row) - 1))] = "abc" if fault == "non-numeric" else fault
    lines = [f"d={d} theta={draw(st.sampled_from([0.0, 0.9, 1 / 3]))!r} mu=2"]
    for row in rows:
        lines += [""] * int(rng.random() < 0.1) + ["  "] * int(rng.random() < 0.05) + [" ".join(row)]
    return "\n".join(lines) + "\n" * int(rng.integers(0, 3))


class TestLoadOracle:
    @given(bank_files())
    @settings(max_examples=150, deadline=None)
    def test_matches_line_by_line_parse(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("bank") / "bank.txt"
        path.write_text(text)
        try:
            want = bank_load_lines(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                MemoryBank.load(path)
            assert str(got.value) == str(exc)
            return
        bank = MemoryBank.load(path)
        assert (bank.d, bank.theta, bank.mu) == (want.d, want.theta, want.mu)
        assert bank.key_ids == want.key_ids
        for modality in Modality:
            assert bank.column(modality).tobytes() == want.column(modality).tobytes()
        # the loaded buffer grows like the oracle's built one
        new = np.arange(2 * bank.d, dtype=float)
        for b in (bank, want):
            b.update("new", new[: b.d], new[b.d :])
        assert bank.column(Modality.GENE).tobytes() == want.column(Modality.GENE).tobytes()

    @pytest.mark.parametrize("fault, message", [
        ("truncated", "line 3: expected 5 fields, got 4"),
        ("duplicate", "line 3: duplicate key 'J'"),
        ("nul key", "line 3: key 'K\\x00' holds a NUL"),
        ("non-numeric", "line 3: could not convert string to float: 'abc'"),
        ("nan", "line 3: non-finite value"),
        ("inf", "line 3: non-finite value"),
        ("-inf", "line 3: non-finite value"),
    ])
    def test_faults_named_alike(self, tmp_path, fault, message):
        third = {"truncated": "K 1.0 1.0 1.0", "duplicate": "J 1.0 1.0 1.0 1.0",
                 "nul key": "K\x00 1.0 1.0 1.0 1.0",
                 "non-numeric": "K 1.0 abc 1.0 1.0"}.get(fault, f"K 1.0 1.0 {fault} 1.0")
        path = tmp_path / "bank.txt"
        path.write_text(f"d=2 theta=0.9 mu=1\nJ 0.5 0.5 0.5 0.5\n{third}\nL 1.0 1.0 1.0 1.0\n")
        for load in (MemoryBank.load, bank_load_lines):
            with pytest.raises(ValueError) as exc:
                load(path)
            assert str(exc.value) == f"{path} {message}"


def assert_same_bank(got: MemoryBank, want: MemoryBank):
    assert (got.d, got.theta, got.mu) == (want.d, want.theta, want.mu)
    assert got.key_ids == want.key_ids
    for modality in Modality:
        assert got.column(modality).tobytes() == want.column(modality).tobytes()


def saved_bank(tmp_path, d=3, n=5, seed=0):
    rng = np.random.default_rng(seed)
    path = tmp_path / "bank.txt"
    bank_with([(f"k{i}", rng.standard_normal(d), rng.standard_normal(d)) for i in range(n)], d=d).save(path)
    return path


class TestMirror:
    def test_save_writes_text_digest_buffer_and_keys(self, tmp_path):
        path = saved_bank(tmp_path)
        bank = bank_load_lines(path)
        with np.load(f"{path}.npz") as npz:
            assert sorted(npz.files) == ["buf", "keys", "sha256"]
            assert str(npz["sha256"]) == hashlib.sha256(path.read_bytes()).hexdigest()
            assert npz["keys"].tolist() == bank.key_ids
            np.testing.assert_array_equal(npz["buf"],
                                          [bank.column(Modality.PATH), bank.column(Modality.GENE)])

    def test_edited_text_wins_over_its_mirror(self, tmp_path):
        path = saved_bank(tmp_path)
        lines = path.read_text().splitlines()
        fields = lines[2].split()
        fields[3] = "0.125"  # entry 1's third pathology value
        lines[2] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        loaded = MemoryBank.load(path)
        assert loaded.column(Modality.PATH)[1, 2] == 0.125
        assert_same_bank(loaded, bank_load_lines(path))

    @pytest.mark.parametrize("damage", ["deleted", "empty", "truncated", "garbled", "member missing"])
    def test_damaged_mirror_falls_back_to_the_text(self, tmp_path, damage):
        path = saved_bank(tmp_path)
        mirror = tmp_path / "bank.txt.npz"
        data = mirror.read_bytes()
        if damage == "deleted":
            mirror.unlink()
        elif damage == "empty":
            mirror.write_bytes(b"")
        elif damage == "truncated":
            mirror.write_bytes(data[: len(data) // 2])
        elif damage == "garbled":
            mirror.write_bytes(bytes(b ^ 0x5A for b in data))
        else:
            with open(mirror, "wb") as fh:  # no keys
                np.savez(fh, buf=np.zeros((2, 5, 3)),
                         sha256=np.array(hashlib.sha256(path.read_bytes()).hexdigest()))
        assert_same_bank(MemoryBank.load(path), bank_load_lines(path))

    @pytest.mark.parametrize("fault", ["valid", "nan", "inf", "repeated key", "other digest", "wider",
                                       "narrower", "fewer keys", "three columns", "float32", "bytes keys"])
    def test_mirror_used_only_when_it_checks_out(self, tmp_path, fault):
        path = saved_bank(tmp_path)
        want = bank_load_lines(path)
        # the mirror differs from the text, so a load that used it shows
        buf = 2.0 * np.array([want.column(Modality.PATH), want.column(Modality.GENE)])
        keys, sha256 = [f"m{i}" for i in range(5)], hashlib.sha256(path.read_bytes()).hexdigest()
        if fault in ("nan", "inf"):
            buf[1, 4, 0] = float(fault)
        elif fault == "repeated key":
            keys[3] = keys[1]
        elif fault == "other digest":
            sha256 = hashlib.sha256(b"another text").hexdigest()
        elif fault == "wider":
            buf = np.concatenate([buf, buf[:, :, :1]], axis=2)
        elif fault == "narrower":
            buf = buf[:, :, :2]
        elif fault == "fewer keys":
            keys = keys[:4]
        elif fault == "three columns":
            buf = np.concatenate([buf, buf[:1]])
        elif fault == "float32":
            buf = buf.astype(np.float32)
        elif fault == "bytes keys":
            keys = [k.encode() for k in keys]
        with open(f"{path}.npz", "wb") as fh:
            np.savez(fh, buf=buf, keys=np.array(keys), sha256=np.array(sha256))
        loaded = MemoryBank.load(path)
        if fault == "valid":
            assert loaded.key_ids == keys
            assert loaded.column(Modality.GENE).tobytes() == buf[1].tobytes()
        else:
            assert_same_bank(loaded, want)

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(0, 3, 0.9, 1, 0)  # the empty bank
    def test_mirror_load_matches_text_parse_and_round_trips(self, tmp_path_factory, n, d, theta, mu, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((n, 2, d)) * 10.0 ** rng.integers(-300, 300, (n, 2, d))
        special = rng.random((n, 2, d)) < 0.1
        vals[special] = rng.choice([0.0, -0.0, 5e-324, -1.7976931348623157e308], special.sum())
        bank = MemoryBank(d=d, theta=theta, mu=mu)
        for i, (p, g) in enumerate(vals):
            bank.update(f"P{i}", p, g)
        folder = tmp_path_factory.mktemp("bank")
        path, again = folder / "bank.txt", folder / "again.txt"
        bank.save(path)
        assert _read_mirror(f"{path}.npz", path.read_bytes(), d) is not None
        loaded = MemoryBank.load(path)
        assert_same_bank(loaded, bank_load_lines(path))
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        assert (folder / "again.txt.npz").read_bytes() == (folder / "bank.txt.npz").read_bytes()
