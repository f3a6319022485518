import re

import numpy as np
import pytest

from cdfnet.committee import (
    ScoreTable,
    accuracy,
    committee_predict,
    normalize_table,
    read_score_file,
    table_predict,
    write_score_file,
)
from cdfnet.errors import AlignmentError, ContractError, FormatError


def _table(network_id, rows, ids=None):
    rows = np.asarray(rows, dtype=np.float64)
    if ids is None:
        ids = range(rows.shape[0])
    return ScoreTable(network_id, tuple(ids), rows)


def _minmax_rows_oracle(raw):
    """Reference for normalize_table: per-row min-max as a scalar loop."""
    out = []
    for row in raw:
        lo, hi = float(row.min()), float(row.max())
        out.append(np.zeros_like(row) if hi == lo else (row - lo) / (hi - lo))
    return np.stack(out)


def _minmax(row):
    return normalize_table("n", [0], np.atleast_2d(row)).scores[0]


class TestMinmax:
    def test_examples(self):
        assert np.array_equal(_minmax([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])
        assert np.array_equal(_minmax([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])
        assert np.array_equal(_minmax([-1.0, 0.0]), [0.0, 1.0])

    def test_keeps_image_ids(self):
        out = normalize_table("n", [7, 3], np.array([[3.0, -2.0], [1.0, 1.0]]))
        assert out.image_ids == (7, 3)
        assert np.array_equal(out.scores, [[1.0, 0.0], [0.0, 0.0]])

    def test_preserves_ranking(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((100, 8))
        out = normalize_table("n", range(100), raw).scores
        for s, o in zip(raw, out):
            assert np.array_equal(np.argsort(s, kind="stable"), np.argsort(o, kind="stable"))
            assert np.argmax(o) == np.argmax(s)

    def test_range(self):
        rng = np.random.default_rng(1)
        out = normalize_table("n", range(50), rng.standard_normal((50, 5)) * 100).scores
        assert np.all(out.min(axis=1) == 0.0) and np.all(out.max(axis=1) == 1.0)


class TestSum:
    """committee_predict sums the members' tables, then takes the argmax."""

    def test_direct_sum(self):
        # 0.9 + 0.4 = 1.3 beats 0.1 + 0.6 = 0.7, though b alone votes class 1
        assert committee_predict([_table("a", [[0.9, 0.1]]), _table("b", [[0.4, 0.6]])]) == [0]

    def test_identity_on_single_table(self):
        t = _table("solo", [[0.0, 1.0], [1.0, 0.5]])
        assert committee_predict([t]) == table_predict(t) == [1, 0]

    def test_copies_keep_argmax(self):
        rng = np.random.default_rng(2)
        t = _table("n", rng.random((20, 10)))
        for n in (2, 3, 5):
            assert committee_predict([t] * n) == table_predict(t)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        tables = [_table(f"n{i}", rng.random((200, 4))) for i in range(4)]
        base = committee_predict(tables)
        assert len(set(base)) == 4  # every class wins somewhere
        for perm in ([3, 1, 0, 2], [2, 3, 1, 0]):
            assert committee_predict([tables[i] for i in perm]) == base

    def test_image_id_mismatch(self):
        with pytest.raises(AlignmentError):
            committee_predict(
                [_table("a", [[0.0, 1.0]], ids=[1]), _table("b", [[0.0, 1.0]], ids=[2])]
            )

    def test_class_count_mismatch(self):
        with pytest.raises(AlignmentError):
            committee_predict([_table("a", [[0.0, 1.0]]), _table("b", [[0.0, 1.0, 0.5]])])

    def test_unnormalized_rejected(self):
        # a member with a score outside [0, 1] cannot reach the committee
        with pytest.raises(ContractError, match="'b'"):
            committee_predict([_table("a", [[0.0, 1.0]]), _table("b", [[0.0, 2.0]])])

    def test_empty_list_rejected(self):
        with pytest.raises(AlignmentError):
            committee_predict([])


class TestPredict:
    def test_split_decision(self):
        # 60/40 vs 45/55: class 0 wins 1.05 to 0.95
        tables = [_table("a", [[0.60, 0.40]]), _table("b", [[0.45, 0.55]])]
        assert committee_predict(tables) == [0]

    def test_committee_of_one(self):
        rng = np.random.default_rng(4)
        t = _table("one", rng.random((15, 3)))
        assert committee_predict([t]) == table_predict(t)

    def test_tie_breaks_low(self):
        assert table_predict(_table("t", [[0.5, 0.5, 0.2]])) == [0]

    def test_accuracy(self):
        assert accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75
        with pytest.raises(AlignmentError):
            accuracy([0, 1], [0, 1, 2])

    def test_accuracy_of_nothing_refused(self):
        # the mean of no hits would be a NaN accuracy
        with pytest.raises(ValueError, match="no predictions"):
            accuracy([], [])


class TestNormalizeTable:
    def test_per_image_rows_span_unit_interval(self):
        t = normalize_table("n", [0, 1], np.array([[1.0, 3.0], [10.0, 30.0]]))
        assert np.array_equal(t.scores, [[0.0, 1.0], [0.0, 1.0]])
        assert t.image_ids == (0, 1)

    def test_matches_per_row_oracle_bitwise(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            raw = rng.standard_normal((30, 10)) * 10.0 ** rng.integers(-3, 4)
            raw[::7] = rng.standard_normal()  # constant rows
            if trial == 0:
                raw[:] = 2.5  # an all-constant table
            t = normalize_table("n", range(30), raw)
            expect = _minmax_rows_oracle(raw)
            assert np.array_equal(t.scores, expect)
            assert t.scores.tobytes() == expect.tobytes()  # signed zeros too


class TestTablePredict:
    # one network's decision: the argmax of its rescaled score row
    def test_argmax(self):
        assert table_predict(_table("n", [[0.1, 0.9, 0.3]])) == [1]

    def test_tie_lowest_index(self):
        assert table_predict(_table("n", [[0.5, 0.5], [0.0, 0.0]])) == [0, 0]

    def test_single_class(self):
        assert table_predict(_table("n", [[1.0], [0.0]])) == [0, 0]

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        s = rng.random((50, 6))
        base = table_predict(_table("n", s))
        warped = table_predict(_table("n", s**3))
        assert base == warped


class TestScoreFiles:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        t = _table("net-a", rng.random((30, 10)), ids=rng.permutation(1000)[:30])
        path = tmp_path / "scores.txt"
        write_score_file(path, t)
        back = read_score_file(path)
        assert back.network_id == t.network_id
        assert back.image_ids == t.image_ids
        assert np.array_equal(back.scores, t.scores)  # bit exact via repr

    def test_same_table_same_bytes(self, tmp_path):
        t = _table("net", np.random.default_rng(6).random((5, 4)))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_score_file(p1, t)
        write_score_file(p2, t)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "s.txt"
        write_score_file(path, _table("n1", [[0.25, 0.75]], ids=[42]))
        lines = path.read_text().splitlines()
        assert lines[0] == "scores v1 n1 2"
        assert lines[1] == "42 0.25 0.75"

    def test_unnormalized_values_detected(self, tmp_path):
        path = tmp_path / "s.txt"
        for value in ("1.5", "-0.25", "nan", "inf", "-inf"):
            path.write_text(f"scores v1 n1 2\n0 0.5 0.5\n1 0.0 {value}\n")
            with pytest.raises(FormatError, match=re.escape(str(path))):
                read_score_file(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        # a table whose fourth row cannot be formatted fails midway through the write
        class Unwritable:
            def __float__(self):
                raise OSError("disk full")

        path = tmp_path / "s.txt"
        write_score_file(path, _table("n1", [[0.25, 0.75]], ids=[42]))
        before = path.read_bytes()
        bad = _table("n1", np.full((6, 2), 0.5))
        scores = bad.scores.astype(object)
        scores[3, 0] = Unwritable()
        object.__setattr__(bad, "scores", scores)
        with pytest.raises(OSError, match="disk full"):
            write_score_file(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.txt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("points v1 n1 2\n0 0.5 0.5\n")
        with pytest.raises(FormatError):
            read_score_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("scores v9 n1 2\n0 0.5 0.5\n")
        with pytest.raises(FormatError, match="version"):
            read_score_file(path)

    def test_wrong_token_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("scores v1 n1 3\n0 0.5 0.5\n")
        with pytest.raises(FormatError):
            read_score_file(path)

    def test_bad_float(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("scores v1 n1 2\n0 0.5 zebra\n")
        with pytest.raises(FormatError):
            read_score_file(path)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("scores v1 n1 2\n")
        with pytest.raises(FormatError):
            read_score_file(path)

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_bad_class_count(self, tmp_path, count):
        path = tmp_path / "bad.txt"
        path.write_text(f"scores v1 n1 {count}\n0\n")
        with pytest.raises(FormatError, match="bad class count in header"):
            read_score_file(path)


class TestTableValidation:
    def test_network_id_no_spaces(self):
        with pytest.raises(ValueError):
            _table("bad id", [[0.0, 1.0]])
        with pytest.raises(ValueError):
            _table("", [[0.0, 1.0]])
        with pytest.raises(ValueError, match="ASCII"):
            _table("r\u00e9seau", [[0.0, 1.0]])

    def test_row_count_must_match_ids(self):
        with pytest.raises(ValueError):
            ScoreTable("n", (0, 1, 2), np.zeros((2, 4)))

    def test_normalized_range_enforced(self):
        for bad in (1.2, -1e-300, np.nan, np.inf, -np.inf):
            with pytest.raises(ContractError, match="outside"):
                _table("n", [[0.0, 1.0], [0.5, bad]])
        _table("n", [[0.0, 1.0], [0.5, 0.5]])
