"""The record classes' contract: construction, ==, hash and mutability."""

import pytest

from oppm.dag import TextDag, build_dag
from oppm.gen import AdversarialInstance, gen_adversarial
from oppm.pattern import PatternTables, build_pattern_tables
from oppm.stringmatch import MatchStats
from oppm.tree import TextTree, build_tree
from oppm.treematch import TreeMatchReport

TABLE_FIELDS = ("values", "border", "steps")
TREE_FIELDS = (
    "node_count",
    "parent",
    "edge_label",
    "max_depth",
    "preorder",
    "labels",
    "depths",
    "heights",
)
DAG_FIELDS = ("vertex_count", "edges", "out", "longest")


def _read(record, fields):
    return [getattr(record, name) for name in fields]


# each record class, its fields in constructor order and values for them
RECORDS = {
    "PatternTables": (
        PatternTables, TABLE_FIELDS, lambda: _read(build_pattern_tables((2, 1, 3)), TABLE_FIELDS)
    ),
    "MatchStats": (MatchStats, ("goto_count", "fail_count"), lambda: [8, 5]),
    "TextTree": (
        TextTree,
        TREE_FIELDS,
        lambda: _read(build_tree([(0, 2, 1), (0, 1, 1), (1, 3, 2)]), TREE_FIELDS),
    ),
    "TreeMatchReport": (
        TreeMatchReport, ("matched_nodes", "stats"), lambda: [[1, 3], MatchStats(4, 2)]
    ),
    "TextDag": (
        TextDag, DAG_FIELDS, lambda: _read(build_dag(3, [(0, 4, 2), (0, 1, 1)]), DAG_FIELDS)
    ),
    "AdversarialInstance": (
        AdversarialInstance, ("tree", "pattern"), lambda: [gen_adversarial(4, 2).tree, (2, 3)]
    ),
}
FROZEN = ["PatternTables", "TextTree", "TextDag", "AdversarialInstance"]
MUTABLE = ["MatchStats", "TreeMatchReport"]


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction(name):
    cls, fields, values = RECORDS[name]
    args = values()
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    mixed = cls(*args[:1], **dict(zip(fields[1:], args[1:])))
    for record in (by_position, by_keyword, mixed):
        assert _read(record, fields) == args
    assert by_position == by_keyword == mixed


@pytest.mark.parametrize("name", RECORDS)
def test_missing_or_unknown_argument_is_a_type_error(name):
    cls, fields, values = RECORDS[name]
    args = values()
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], args[1:])))
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    cls, fields, values = RECORDS[name]
    record = cls(*values())
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    assert hash(record) == hash(cls(*values()))


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_compare_by_fields_and_are_unhashable(name):
    cls, fields, values = RECORDS[name]
    a, b = cls(*values()), cls(*values())
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    for field in fields:
        setattr(b, field, None)
        assert getattr(b, field) is None
        assert a != b
        setattr(b, field, getattr(a, field))
        assert a == b


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_equals_no_other_type(name):
    cls, _, values = RECORDS[name]
    record = cls(*values())
    assert record != tuple(values())
    assert record != object()
