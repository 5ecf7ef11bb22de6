"""Tests for XD-Relations (Section 4.1): journaling, instantaneous views,
windows and deltas."""

import pytest

from repro.continuous.xdrelation import XDRelation
from repro.devices.scenario import surveillance_schema, temperatures_schema
from repro.errors import SchemaError, SerenaError


def finite():
    return XDRelation(surveillance_schema())


def stream():
    return XDRelation(temperatures_schema(), infinite=True)


class TestJournal:
    def test_insert_and_instantaneous(self):
        xd = finite()
        xd.insert([("A", "office", 28.0)], instant=1)
        assert len(xd.instantaneous(0)) == 0
        assert len(xd.instantaneous(1)) == 1
        assert len(xd.instantaneous(5)) == 1

    def test_insert_returns_new_count(self):
        xd = finite()
        assert xd.insert([("A", "office", 28.0)], instant=1) == 1
        assert xd.insert([("A", "office", 28.0)], instant=1) == 0  # duplicate

    def test_delete(self):
        xd = finite()
        t = ("A", "office", 28.0)
        xd.insert([t], instant=1)
        assert xd.delete([t], instant=3) == 1
        assert len(xd.instantaneous(2)) == 1
        assert len(xd.instantaneous(3)) == 0

    def test_delete_absent_is_zero(self):
        xd = finite()
        assert xd.delete([("A", "office", 28.0)], instant=1) == 0

    def test_writes_must_be_time_ordered(self):
        xd = finite()
        xd.insert([("A", "office", 28.0)], instant=5)
        with pytest.raises(SerenaError, match="non-decreasing"):
            xd.insert([("B", "roof", 25.0)], instant=4)

    def test_same_instant_insert_delete_cancels(self):
        xd = finite()
        t = ("A", "office", 28.0)
        xd.insert([t], instant=1)
        xd.delete([t], instant=1)
        assert len(xd.instantaneous(1)) == 0
        assert xd.inserted_at(1) == frozenset()
        assert xd.deleted_at(1) == frozenset()

    def test_initial_tuples_at_instant_zero(self):
        xd = XDRelation(surveillance_schema(), initial=[("A", "office", 28.0)])
        assert len(xd.instantaneous(0)) == 1
        assert xd.inserted_at(0) == {("A", "office", 28.0)}

    def test_tuples_validated(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            finite().insert([("only-one-value",)], instant=0)


class TestStreams:
    def test_append_only(self):
        xd = stream()
        xd.insert([("s1", "office", 20.0, 1)], instant=1)
        with pytest.raises(SerenaError, match="append-only"):
            xd.delete([("s1", "office", 20.0, 1)], instant=2)

    def test_instantaneous_is_prefix(self):
        xd = stream()
        for i in range(1, 4):
            xd.insert([("s1", "office", 20.0 + i, i)], instant=i)
        assert len(xd.instantaneous(2)) == 2
        assert len(xd.instantaneous(3)) == 3

    def test_infinite_flag(self):
        assert stream().infinite
        assert not finite().infinite


class TestDeltasAndWindows:
    def test_inserted_at(self):
        xd = stream()
        xd.insert([("s1", "office", 20.0, 1)], instant=1)
        xd.insert([("s1", "office", 21.0, 2)], instant=2)
        assert xd.inserted_at(1) == {("s1", "office", 20.0, 1)}
        assert xd.inserted_at(2) == {("s1", "office", 21.0, 2)}
        assert xd.inserted_at(3) == frozenset()

    def test_deleted_at(self):
        xd = finite()
        t = ("A", "office", 28.0)
        xd.insert([t], instant=1)
        xd.delete([t], instant=2)
        assert xd.deleted_at(2) == {t}

    def test_window_boundaries(self):
        """window(τ, p) covers (τ−p, τ] exactly."""
        xd = stream()
        for i in range(1, 6):
            xd.insert([("s1", "office", float(i), i)], instant=i)
        window = xd.window(5, 2)  # instants 4 and 5
        assert {t[3] for t in window} == {4, 5}

    def test_window_excludes_future(self):
        xd = stream()
        xd.insert([("s1", "office", 1.0, 1)], instant=1)
        xd.insert([("s1", "office", 5.0, 5)], instant=5)
        assert {t[3] for t in xd.window(2, 10)} == {1}

    def test_window_empty(self):
        assert stream().window(10, 3) == frozenset()

    def test_len_tracks_state(self):
        xd = finite()
        xd.insert([("A", "office", 28.0), ("B", "roof", 25.0)], instant=1)
        assert len(xd) == 2
        xd.delete([("A", "office", 28.0)], instant=2)
        assert len(xd) == 1

    def test_insert_mappings(self):
        xd = finite()
        xd.insert_mappings(
            [{"name": "A", "location": "office", "threshold": 28.0}], instant=0
        )
        assert ("A", "office", 28.0) in xd.instantaneous(0)


class TestBatchAtomicity:
    """A write is validated as a whole before any tuple is applied: a bad
    row anywhere in the batch leaves the relation as it was."""

    GOOD = [("A", "office", 28.0), ("B", "roof", 25.0)]
    BAD_BATCHES = [
        GOOD + [("C", "lab", "hot")],  # wrong type in the last row
        [("C", 7, 20.0)] + GOOD,  # wrong type in the first row
        GOOD + [("C", "lab")],  # wrong arity
        GOOD + [("C", "lab", True)],  # bool is not a REAL
    ]

    @staticmethod
    def fingerprint(xd):
        return (
            len(xd),
            xd.revision,
            xd.last_instant,
            xd.changes_between(0, 100),
            xd.instantaneous(100).tuples,
        )

    @pytest.mark.parametrize("batch", BAD_BATCHES)
    def test_failed_insert_leaves_everything_untouched(self, batch):
        xd = finite()
        xd.insert([("Z", "hall", 1.0)], instant=1)
        before = self.fingerprint(xd)
        with pytest.raises(SchemaError):
            xd.insert(batch, instant=2)
        assert self.fingerprint(xd) == before
        # no journal entry was opened for the refused instant
        assert xd.inserted_at(2) == frozenset()
        xd.insert([("Y", "hall", 2.0)], instant=1)  # instant 1 still writable

    @pytest.mark.parametrize("batch", BAD_BATCHES)
    def test_failed_delete_leaves_everything_untouched(self, batch):
        xd = finite()
        xd.insert(self.GOOD, instant=1)
        before = self.fingerprint(xd)
        with pytest.raises(SchemaError):
            xd.delete(batch, instant=2)
        assert self.fingerprint(xd) == before

    def test_failed_insert_mappings_leaves_everything_untouched(self):
        xd = finite()
        xd.insert(self.GOOD[:1], instant=1)
        before = self.fingerprint(xd)
        good = {"name": "B", "location": "roof", "threshold": 25.0}
        for bad in (
            {"name": "C", "location": "lab", "threshold": "hot"},
            {"name": "C", "location": "lab"},
            {"name": "C", "location": "lab", "threshold": 1.0, "extra": 1},
        ):
            with pytest.raises(SchemaError):
                xd.insert_mappings([good, bad], instant=2)
            with pytest.raises(SchemaError):
                xd.delete_mappings([good, bad], instant=2)
            assert self.fingerprint(xd) == before

    def test_out_of_order_batch_is_refused_whole(self):
        xd = finite()
        xd.insert(self.GOOD[:1], instant=5)
        before = self.fingerprint(xd)
        with pytest.raises(SerenaError, match="non-decreasing"):
            xd.insert(self.GOOD, instant=4)
        assert self.fingerprint(xd) == before

    def test_batch_semantics_match_row_at_a_time(self):
        """Duplicates inside a batch, re-inserts, same-instant
        insert+delete: the set operations net to what the row loop did."""
        xd = finite()
        a, b, c = ("A", "office", 28.0), ("B", "roof", 25.0), ("C", "lab", 1)
        assert xd.insert([a, a, b], instant=1) == 2
        assert xd.insert([a, c], instant=1) == 1  # c coerced to ("C", "lab", 1.0)
        assert ("C", "lab", 1.0) in xd.instantaneous(1).tuples
        assert xd.delete([a, a, ("Q", "x", 0.0)], instant=1) == 1
        assert xd.inserted_at(1) == frozenset({b, ("C", "lab", 1.0)})
        assert xd.deleted_at(1) == frozenset()
        assert xd.delete([b], instant=2) == 1
        assert xd.deleted_at(2) == frozenset({b})
        assert xd.insert([b], instant=2) == 1  # back again the same instant
        assert xd.deleted_at(2) == frozenset() and xd.inserted_at(2) == {b}
        assert xd.revision == 5
