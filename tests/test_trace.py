import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from ptrun.cli import bundled_data, main
from ptrun.trace import (UNFINISHED_LINE, VOLATILE_KEYS, TraceSchemaError, TraceWriter,
                         read_trace, strip_volatile, structurally_equal)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=12)


RECORDS_TO_WRITE = st.dictionaries(st.text(max_size=8), JSON_VALUES, min_size=1, max_size=5)


class TestTraceWriter:
    @settings(max_examples=200, deadline=None)
    @given(record=RECORDS_TO_WRITE)
    def test_line_equals_the_whole_record_encoded(self, record, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.jsonl"
        writer = TraceWriter(path)
        writer.write(record)
        writer.write(record)
        writer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [json.dumps(record, allow_nan=False)] * 2
        assert writer.records == [record, record]

    @settings(max_examples=100, deadline=None)
    @given(runs=st.lists(st.lists(RECORDS_TO_WRITE, max_size=6), min_size=2, max_size=4))
    def test_each_trace_replaces_the_last_without_a_stale_tail(self, runs, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.jsonl"
        # Forth and back again: each length follows a longer and a shorter one.
        for records in runs + runs[::-1]:
            writer = TraceWriter(path)
            for record in records:
                writer.write(record)
            writer.close()
            assert path.read_text(encoding="utf-8") == "".join(
                json.dumps(record, allow_nan=False) + "\n" for record in records)

    def test_a_file_is_marked_unfinished_until_close(self, tmp_path):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        previous = b'{"type": "header", "schema_version": 3}\n' * 50
        old.write_bytes(previous)
        writers = [TraceWriter(old), TraceWriter(new)]
        for writer in writers:
            writer.write({"type": "header"})
            writer.write({"type": "report"})
        mark = UNFINISHED_LINE.encode()
        assert old.read_bytes() == mark + previous[len(mark):]
        assert new.read_bytes() == b""
        for path, message in ((old, "trace is unfinished"), (new, "trace is empty")):
            with pytest.raises(TraceSchemaError, match=message):
                read_trace(path)
        for writer in writers:
            writer.close()
        assert old.read_bytes() == new.read_bytes() == b'{"type": "header"}\n{"type": "report"}\n'

    def test_a_file_shorter_than_the_mark_is_marked_unfinished(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"{}\n")
        writer = TraceWriter(path)
        assert path.read_text() == UNFINISHED_LINE
        with pytest.raises(TraceSchemaError, match="trace is unfinished"):
            read_trace(path)
        writer.close()
        assert path.read_bytes() == b""

    def test_a_non_finite_float_is_refused_when_written(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl")
        with pytest.raises(ValueError, match="Out of range float"):
            writer.write({"x": math.inf})
        writer.close()

    def test_every_line_of_a_demo_trace_is_its_record_encoded(self, tmp_path, capsys):
        path = tmp_path / "demo.jsonl"
        assert main(["run", "--task-file", str(bundled_data("demo_task.json")),
                     "--metadata", str(bundled_data("demo_metadata.json")),
                     "--config", str(bundled_data("config.json")),
                     "--model", f"scripted:{bundled_data('demo_script.json')}",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        records = read_trace(path)
        assert [record["type"] for record in records].count("step") >= 2
        assert path.read_text(encoding="utf-8").splitlines() == [
            json.dumps(record, allow_nan=False) for record in records]

    def test_a_write_after_a_failed_one_encodes_the_same_objects(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        inner = [1.5, math.nan]
        record = {"type": "step", "event": {"values": inner, "text": "na\u00efve \u2028"}}
        with pytest.raises(ValueError, match="Out of range float"):
            writer.write(record)
        inner[1] = -0.0
        writer.write(record)
        writer.write({"type": "report", "same": record["event"]})
        writer.close()
        assert path.read_text(encoding="utf-8").splitlines() == [
            json.dumps(record, allow_nan=False),
            json.dumps({"type": "report", "same": record["event"]}, allow_nan=False)]

    def test_a_cyclic_value_is_a_recursion_error(self):
        cycle = []
        cycle.append(cycle)
        writer = TraceWriter(os.devnull)
        with pytest.raises(RecursionError):
            writer.write({"type": "step", "cycle": cycle})
        writer.write({"type": "report"})
        writer.close()

    def test_a_symlinked_path_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("stale\n" * 20)
        link.symlink_to(target)
        writer = TraceWriter(link)
        writer.write({"type": "header"})
        writer.close()
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == '{"type": "header"}\n'

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_written_and_not_cut(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            writer = TraceWriter(pipe)
            writer.write({"type": "header"})
            writer.close()
            assert os.read(reader, 4096) == b'{"type": "header"}\n'
        finally:
            os.close(reader)


class TestReadTrace:
    @pytest.mark.parametrize("in_file, message", [(True, "line 2 has no type"),
                                                  (False, "record 1 has no type")],
                             ids=["file", "record-list"])
    def test_a_record_without_a_type_is_a_schema_error(self, in_file, message, tmp_path):
        records = [{"type": "header", "schema_version": 3}, {"role": "profile"}]
        source = tmp_path / "t.jsonl"
        source.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(TraceSchemaError, match=message):
            read_trace(source if in_file else records)


# One NaN object shared by both trees (equal inside a container, as `is`
# comes first there) and fresh ones (never equal).
SHARED_NAN = math.nan
KEYS = st.sampled_from(("a", "b", "c") + VOLATILE_KEYS)
LEAVES = (st.none() | st.booleans() | st.integers(-1, 2) | st.sampled_from([0.5, SHARED_NAN])
          | st.builds(float, st.just("nan")) | st.sampled_from(["", "x", "wall_time"]))
TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3) | st.tuples(children, children)
    | st.dictionaries(KEYS, children, min_size=1, max_size=4),
    max_leaves=10)
# Trace records: dicts that often hold dicts or lists of dicts.
RECORDS = st.dictionaries(
    KEYS, st.dictionaries(KEYS, TREES, max_size=4) | st.lists(TREES, max_size=3) | TREES,
    min_size=1, max_size=4)
STAMPS = st.floats(0, 1) | LEAVES


@st.composite
def restamped(draw, tree):
    """The tree with a new value drawn for every volatile key, at any depth."""
    if isinstance(tree, dict):
        return {key: draw(STAMPS) if key in VOLATILE_KEYS else draw(restamped(value))
                for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(draw(restamped(item)) for item in tree)
    return tree


@st.composite
def edited(draw, tree):
    """The tree with at most one small edit, down a drawn path."""
    if isinstance(tree, dict) and tree and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(tree)))
        out = {**tree, key: draw(edited(tree[key]))}
        if draw(st.booleans()):  # the same members in another key order
            out = dict(reversed(list(out.items())))
        return out
    if isinstance(tree, (list, tuple)) and tree and draw(st.booleans()):
        index = draw(st.integers(0, len(tree) - 1))
        items = list(tree)
        items[index] = draw(edited(items[index]))
        return type(tree)(items)
    action = draw(st.sampled_from(["keep", "replace", "add", "drop", "retype"]))
    if action == "replace":
        return draw(TREES)
    if action == "add" and isinstance(tree, dict):
        return {**tree, draw(KEYS): draw(LEAVES)}
    if action == "drop" and isinstance(tree, dict) and tree:
        key = draw(st.sampled_from(sorted(tree)))
        return {k: v for k, v in tree.items() if k != key}
    if action == "retype":
        if isinstance(tree, (list, tuple)):
            return tuple(tree) if isinstance(tree, list) else list(tree)
        if tree in (0, 1) and not isinstance(tree, float):
            return bool(tree) if type(tree) is int else int(tree)
    return tree


@st.composite
def tree_pairs(draw):
    a = draw(RECORDS) if draw(st.integers(0, 2)) else draw(TREES)
    b = draw(edited(a)) if draw(st.integers(0, 3)) else draw(TREES)
    if draw(st.integers(0, 3)):  # new wall-clock values, mostly
        b = draw(restamped(b))
    return (a, b) if draw(st.booleans()) else (b, a)


class TestStructurallyEqual:
    @settings(max_examples=200, deadline=None)
    @given(pair=tree_pairs())
    def test_matches_comparing_stripped_copies(self, pair):
        a, b = pair
        assert structurally_equal(a, b) == (strip_volatile(a) == strip_volatile(b))

    def test_volatile_keys_are_ignored_at_any_depth(self):
        recorded = {"type": "step", "event": {"attempts": [{"ok": True, "wall_time": 1.0}],
                                              "wall_time": 2.0}}
        recomputed = {"type": "step", "event": {"wall_time": 3.0,
                                                "attempts": [{"wall_time": 4.0, "ok": True}]}}
        assert structurally_equal(recorded, recomputed)
        recomputed["event"]["attempts"][0]["ok"] = 1.0
        assert structurally_equal(recorded, recomputed)  # 1.0 == True, as in the reference
        recomputed["event"]["attempts"][0]["ok"] = False
        assert not structurally_equal(recorded, recomputed)

    def test_tuples_are_compared_whole(self):
        assert not structurally_equal(({"wall_time": 1},), ({"wall_time": 2},))
        assert structurally_equal([{"wall_time": 1}], [{"wall_time": 2}])

    def test_a_lone_nan_differs_from_itself(self):
        assert not structurally_equal(SHARED_NAN, SHARED_NAN)
        assert structurally_equal([SHARED_NAN], [SHARED_NAN])
        assert not structurally_equal([SHARED_NAN], [float("nan")])
