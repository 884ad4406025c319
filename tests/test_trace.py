import json

from hypothesis import given, settings, strategies as st

from ptrun.trace import TraceWriter

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=12)


class TestSplicedMember:
    @settings(max_examples=200, deadline=None)
    @given(record=st.dictionaries(st.text(max_size=8), JSON_VALUES, min_size=1, max_size=5))
    def test_line_equals_the_whole_record_encoded(self, record, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.jsonl"
        last = list(record.values())[-1]
        writer = TraceWriter(path)
        writer.write(record, json.dumps(last, allow_nan=False))
        writer.write(record)
        writer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [json.dumps(record, allow_nan=False)] * 2
        assert writer.records == [record, record]
