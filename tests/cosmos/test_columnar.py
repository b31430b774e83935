"""Tests for the columnar extent packing and the col/lit expression DSL."""

import numpy as np
import pytest

from repro.cosmos.columnar import ColumnBlock, col, concat_blocks, lit
from repro.cosmos.store import CosmosStore


def _records(n, offset=0):
    return [
        {
            "i": i + offset,
            "rtt_us": 100.0 + i,
            "ok": i % 2 == 0,
            "name": f"s{i}",
        }
        for i in range(n)
    ]


class TestColumnBlockPacking:
    def test_from_records_types(self):
        block = ColumnBlock.from_records(_records(4))
        assert block.n == 4
        assert block.columns["i"].dtype == np.int64
        assert block.columns["rtt_us"].dtype == np.float64
        assert block.columns["ok"].dtype == np.bool_
        assert block.columns["name"].dtype.kind == "U"

    def test_int_float_mix_promotes_to_float(self):
        block = ColumnBlock.from_records([{"v": 1}, {"v": 2.5}])
        assert block.columns["v"].dtype == np.float64

    def test_none_makes_object_column(self):
        block = ColumnBlock.from_records([{"v": 1.0}, {"v": None}])
        assert block.columns["v"].dtype == object
        assert block.columns["v"].tolist() == [1.0, None]

    def test_mixed_kinds_never_coerced(self):
        # numpy would silently stringify np.asarray([1, "a"]); we must not.
        block = ColumnBlock.from_records([{"v": 1}, {"v": "a"}])
        assert block.columns["v"].dtype == object
        assert block.columns["v"].tolist() == [1, "a"]

    def test_bool_int_mix_stays_object(self):
        block = ColumnBlock.from_records([{"v": True}, {"v": 2}])
        assert block.columns["v"].dtype == object
        assert block.columns["v"].tolist() == [True, 2]

    def test_heterogeneous_schema_returns_none(self):
        assert ColumnBlock.from_records([{"a": 1}, {"b": 2}]) is None

    def test_empty_returns_none(self):
        assert ColumnBlock.from_records([]) is None

    def test_to_rows_roundtrip_python_scalars(self):
        records = _records(3)
        rows = ColumnBlock.from_records(records).to_rows()
        assert rows == records
        assert all(type(row["i"]) is int for row in rows)
        assert all(type(row["ok"]) is bool for row in rows)

    def test_size_bytes_tracks_json_order_of_magnitude(self):
        import json

        records = _records(50)
        block = ColumnBlock.from_records(records)
        exact = sum(
            len(json.dumps(r, default=str, separators=(",", ":"))) for r in records
        )
        assert exact * 0.5 <= block.size_bytes() <= exact * 2.0

    def test_concat_blocks(self):
        a = ColumnBlock.from_records(_records(3))
        b = ColumnBlock.from_records(_records(2, offset=3))
        merged = concat_blocks([a, b])
        assert merged.n == 5
        assert merged.columns["i"].tolist() == [0, 1, 2, 3, 4]

    def test_concat_schema_drift_returns_none(self):
        a = ColumnBlock.from_records([{"a": 1}])
        b = ColumnBlock.from_records([{"b": 1}])
        assert concat_blocks([a, b]) is None


class TestStorePacksBlocks:
    def test_append_packs_columns_per_extent(self):
        store = CosmosStore(extent_max_records=4)
        store.append("s", _records(10))
        blocks = [extent.columns for extent in store.stream("s").extents]
        assert len(blocks) == 3
        assert all(block is not None for block in blocks)
        assert [block.n for block in blocks] == [4, 4, 2]

    def test_heterogeneous_chunk_has_no_block(self):
        store = CosmosStore()
        store.append("s", [{"a": 1}, {"b": 2}])
        assert store.stream("s").extents[0].columns is None
        # Size accounting still works without a block.
        assert store.bytes_ingested > 0

    def test_version_bumps_on_mutations(self):
        store = CosmosStore()
        v0 = store.version
        store.append("s", _records(1), t=1.0)
        assert store.version > v0
        v1 = store.version
        store.expire_before("s", 2.0)
        assert store.version > v1

    def test_read_count_counts_scans(self):
        store = CosmosStore()
        store.append("s", _records(4))
        assert store.read_count == 0
        list(store.read("s"))
        list(store.read_where("s", lambda r: True))
        list(store.extents("s"))
        assert store.read_count == 3

    def test_read_copy_false_skips_defensive_copies(self):
        store = CosmosStore()
        store.append("s", _records(1))
        stored = store.stream("s").extents[0].records[0]
        assert next(store.read("s", copy=False)) is stored
        assert next(store.read("s")) is not stored

    def test_read_where_copy_false(self):
        store = CosmosStore()
        store.append("s", _records(2))
        rows = list(store.read_where("s", lambda r: r["i"] == 0, copy=False))
        assert rows[0] is store.stream("s").extents[0].records[0]


class TestExpressions:
    ROWS = [
        {"a": 1, "b": 10.0, "ok": True, "name": "x"},
        {"a": 2, "b": 20.0, "ok": False, "name": "y"},
        {"a": 3, "b": 5.0, "ok": True, "name": "x"},
    ]

    @pytest.fixture()
    def columns(self):
        return ColumnBlock.from_records(self.ROWS).columns

    @pytest.mark.parametrize(
        "expr",
        [
            col("a") == 2,
            col("a") != 2,
            col("a") < 2,
            col("a") <= 2,
            col("a") > 2,
            col("a") >= 2,
            col("ok"),
            ~col("ok"),
            col("ok") & (col("b") > 8.0),
            col("ok") | (col("a") == 2),
            col("a") + col("b") > 12,
            col("b") - col("a") < 10,
            col("a") * 2 >= 4,
            col("b") / 2 > 5,
            col("name") == "x",
            col("a").isin([1, 3]),
            lit(True),
            lit(False),
        ],
    )
    def test_row_and_column_evaluation_agree(self, expr, columns):
        per_row = [bool(expr(row)) for row in self.ROWS]
        vector = np.broadcast_to(
            np.asarray(expr.eval_columns(columns), dtype=bool), (len(self.ROWS),)
        )
        assert per_row == vector.tolist()

    def test_expr_tracks_referenced_columns(self):
        expr = col("ok") & (col("b") > 8.0)
        assert expr.columns == {"ok", "b"}
        assert lit(1).columns == frozenset()

    def test_arithmetic_values_agree(self, columns):
        expr = (col("a") + 1) * col("b")
        per_row = [expr(row) for row in self.ROWS]
        assert expr.eval_columns(columns).tolist() == per_row

    def test_default_fills_a_missing_column(self, columns):
        expr = col("missing", default=col("a")) == 2
        assert expr.columns == {"a"}
        assert [bool(expr(row)) for row in self.ROWS] == [False, True, False]
        assert expr.eval_columns(columns).tolist() == [False, True, False]

    def test_default_is_unused_when_the_column_exists(self, columns):
        expr = col("ok", default=True)
        assert [expr(row) for row in self.ROWS] == [True, False, True]
        assert expr.eval_columns(columns).tolist() == [True, False, True]
        assert col("absent", default=7).eval_columns(columns) == 7
