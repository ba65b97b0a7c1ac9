"""Tests for the grouped-runs join maps (Skinner preprocessor and executor).

``GroupedJoinMap`` replaced the eager ``{decoded value: rows}`` dict with
the hash-join kernel's grouped-runs form plus a binary-search lookup.  The
lookup must preserve the dict's semantics *exactly* — the hash-jump of the
multi-way join and the eddy baseline probe it once per index advance:

* buckets are ascending filtered indices (stable grouping sort);
* float NaN keys and NaN probes never match (pinned join semantics);
* cross-type probes follow Python ``==``: ``1`` finds ``1.0`` and vice
  versa, but only under *exact* conversion (``2**53 + 1`` never finds
  ``2.0**53``), and string-vs-numeric probes match nothing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.meter import CostMeter
from repro.query.predicates import column_equals_column
from repro.query.query import make_query
from repro.engine.joinkernels import GroupedJoinMap
from repro.skinner.preprocessor import preprocess
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table


def _map_for(column_values, column_name="c"):
    table = Table("t", {column_name: column_values})
    positions = np.arange(table.num_rows, dtype=np.int64)
    return GroupedJoinMap(table.column(column_name), positions)


class TestIntKeys:
    def test_buckets_are_ascending_filtered_indices(self):
        jmap = _map_for([5, 1, 5, 3, 5])
        assert list(jmap.get(5)) == [0, 2, 4]
        assert list(jmap.get(1)) == [1]
        assert jmap.get(2) is None

    def test_float_probe_matches_only_exact_integrals(self):
        jmap = _map_for([5, 1, 3])
        assert list(jmap.get(5.0)) == [0]
        assert jmap.get(5.5) is None
        assert jmap.get(float("inf")) is None
        assert jmap.get(float("nan")) is None

    def test_bool_probe_behaves_like_int(self):
        jmap = _map_for([0, 1, 2])
        assert list(jmap.get(True)) == [1]
        assert list(jmap.get(False)) == [0]

    def test_out_of_range_and_string_probes_match_nothing(self):
        jmap = _map_for([5, 1, 3])
        assert jmap.get(2**64) is None
        assert jmap.get(float(2**64)) is None
        assert jmap.get("5") is None
        assert jmap.get(None) is None
        assert jmap.get([5]) is None  # unhashable: never equal to a key


class TestFloatKeys:
    def test_nan_keys_never_match_any_probe(self):
        nan = float("nan")
        jmap = _map_for([1.0, nan, 2.5, nan])
        assert list(jmap.get(1.0)) == [0]
        assert list(jmap.get(2.5)) == [2]
        assert jmap.get(nan) is None
        assert jmap.get(float("nan")) is None

    def test_int_probe_requires_exact_float_conversion(self):
        jmap = _map_for([float(2**53), 1.0])
        assert list(jmap.get(2**53)) == [0]
        # float(2**53 + 1) rounds to 2.0**53; the dict path would not have
        # found a key equal to 2**53 + 1, so neither may this lookup.
        assert jmap.get(2**53 + 1) is None
        assert list(jmap.get(1)) == [1]


class TestStringKeys:
    def test_dictionary_codes_and_absent_values(self):
        jmap = _map_for(["b", "a", "b", "c"])
        assert list(jmap.get("b")) == [0, 2]
        assert list(jmap.get("c")) == [3]
        assert jmap.get("z") is None
        assert jmap.get(1) is None  # numeric vs string: Python == is False


class TestMemoAndEmpty:
    def test_empty_positions(self):
        table = Table("t", {"c": [1, 2, 3]})
        jmap = GroupedJoinMap(table.column("c"), np.empty(0, dtype=np.int64))
        assert len(jmap) == 0
        assert jmap.get(1) is None

    def test_repeated_probes_hit_the_memo(self):
        jmap = _map_for([5, 1, 5])
        first = jmap.get(5)
        assert jmap.get(5) is first  # same cached array, no re-search
        assert jmap.get(7) is None
        assert jmap.get(7) is None

    def test_contains_delegates_to_get(self):
        jmap = _map_for([5, 1])
        assert 5 in jmap
        assert 2 not in jmap


#: Value pools for ``probe_many``: signed zeros, NaN, infinities, integers
#: and floats around 2**53 and at the int64 limits, and strings that only
#: some dictionaries contain.
_POOLS = {
    ColumnType.INT: [0, 1, -1, 5, 7, 2**53, 2**53 + 1, 2**63 - 1, -(2**63)],
    ColumnType.FLOAT: [0.0, -0.0, 1.0, 5.0, 5.5, 7.0, float("nan"), float("inf"),
                       float("-inf"), 2.0**53, 2.0**63, -(2.0**63), 9.2e18],
    ColumnType.STRING: ["a", "b", "c", "d", "e"],
}


def _random_column(draw, ctype):
    """A column of ``ctype`` with a read-only physical array."""
    pool = _POOLS[ctype]
    size = draw(st.integers(min_value=0, max_value=12))
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    if ctype is ColumnType.STRING:
        # Each column draws its own dictionary order and vocabulary.
        extra = draw(st.lists(st.sampled_from(pool), max_size=3))
        dictionary = list(dict.fromkeys(draw(st.permutations(values + extra))))
        codes = np.asarray([dictionary.index(v) for v in values], dtype=np.int64)
        codes.flags.writeable = False
        return Column.from_physical(codes, ctype, dictionary)
    dtype = np.int64 if ctype is ColumnType.INT else np.float64
    data = np.asarray(values, dtype=dtype)
    data.flags.writeable = False
    return Column.from_physical(data, ctype)


@st.composite
def _map_and_probes(draw):
    types = list(_POOLS)
    build = _random_column(draw, draw(st.sampled_from(types)))
    probe = _random_column(draw, draw(st.sampled_from(types)))
    positions = np.asarray(
        sorted(draw(st.sets(st.integers(0, max(0, len(build) - 1)), max_size=len(build)))),
        dtype=np.int64,
    )
    positions = positions[positions < len(build)]
    return GroupedJoinMap(build, positions), probe


class TestProbeMany:
    @settings(max_examples=300, deadline=None)
    @given(_map_and_probes())
    def test_matches_get_elementwise(self, case):
        """Every probe finds exactly the run ``get`` finds for its value."""
        jmap, probe = case
        starts, counts = jmap.probe_many(probe, probe.data)
        assert starts.shape == counts.shape == (len(probe),)
        for i in range(len(probe)):
            expected = jmap.get(probe.value(i))
            if expected is None:
                assert counts[i] == 0, (probe.value(i), i)
            else:
                run = jmap.rows[starts[i]:starts[i] + counts[i]]
                assert list(run) == list(expected), (probe.value(i), i)

    def test_signed_zero_nan_and_precision_edges(self):
        jmap = _map_for([0.0, float("nan"), 2.0**53, 1.5])
        probe = Column.from_physical(
            np.asarray([-0.0, float("nan"), 2.0**53, 1.5, 3.0]), ColumnType.FLOAT)
        _, counts = jmap.probe_many(probe, probe.data)
        assert counts.tolist() == [1, 0, 1, 1, 0]
        ints = Column.from_physical(
            np.asarray([2**53, 2**53 + 1, 0], dtype=np.int64), ColumnType.INT)
        _, counts = jmap.probe_many(ints, ints.data)
        assert counts.tolist() == [1, 0, 1]  # 2**53 + 1 is not exactly a float key

    def test_strings_across_dictionaries_and_absent_values(self):
        jmap = _map_for(["b", "a", "b", "c"])
        probe = Column(["c", "z", "b", "a"], ColumnType.STRING)  # other dictionary
        starts, counts = jmap.probe_many(probe, probe.data)
        assert counts.tolist() == [1, 0, 2, 1]
        assert list(jmap.rows[starts[2]:starts[2] + 2]) == [0, 2]

    def test_empty_map_and_empty_probe(self):
        table = Table("t", {"c": [1, 2, 3]})
        jmap = GroupedJoinMap(table.column("c"), np.empty(0, dtype=np.int64))
        probe = table.column("c")
        starts, counts = jmap.probe_many(probe, probe.data)
        assert counts.tolist() == [0, 0, 0]
        starts, counts = jmap.probe_many(probe, probe.data[:0])
        assert starts.shape == counts.shape == (0,)


def test_preprocessor_builds_grouped_maps_and_charges_scan():
    catalog = Catalog()
    catalog.add_table(Table("r", {"k": [1, 2, 2, 3]}))
    catalog.add_table(Table("s", {"k": [2, 3, 3]}))
    query = make_query(["r", "s"], predicates=[column_equals_column("r", "k", "s", "k")])
    meter = CostMeter()
    prepared = preprocess(catalog, query, None, meter)
    assert set(prepared.join_maps) == {("r", "k"), ("s", "k")}
    assert isinstance(prepared.join_maps[("r", "k")], GroupedJoinMap)
    assert list(prepared.join_maps[("r", "k")].get(2)) == [1, 2]
    assert list(prepared.join_maps[("s", "k")].get(3)) == [1, 2]
    # Build work is charged as scan: filtering (4 + 3) + map build (4 + 3).
    assert meter.tuples_scanned == 14
