import json
import threading

from spans import Tracer, by_name, root_coverage, self_times


def _span(id_, start, end, parent=None, name="x", trace=None):
    return {"id": id_, "start": start, "end": end, "parent": parent, "trace": trace, "name": name}


def test_self_time_is_duration_minus_children():
    spans = [
        _span(1, 0.0, 10.0, name="request"),
        _span(2, 1.0, 4.0, parent=1, name="encode"),
        _span(3, 5.0, 9.0, parent=1, name="score"),
        _span(4, 6.0, 7.0, parent=3, name="topk"),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    assert sum(own.values()) == 10.0  # the parts sum back to the root


def test_overlapping_children_are_not_subtracted_twice():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 6.0, parent=1),
        _span(3, 4.0, 8.0, parent=1),  # overlaps span 2 on [4, 6]
    ]
    assert self_times(spans)[1] == 3.0


def test_by_name_aggregates_counts_totals_and_self():
    spans = [_span(1, 0.0, 4.0, name="a"), _span(2, 1.0, 2.0, parent=1, name="b"), _span(3, 5.0, 6.0, name="a")]
    rows = by_name(spans)
    assert rows["a"]["count"] == 2
    assert rows["a"]["total_s"] == 5.0
    assert rows["a"]["self_s"] == 4.0
    assert rows["b"]["durations_s"] == [1.0]


def test_root_coverage_is_the_union_of_parentless_spans():
    spans = [_span(1, 0.0, 2.0), _span(2, 1.0, 3.0), _span(3, 1.5, 1.6, parent=1), _span(4, 8.0, 12.0)]
    assert root_coverage(spans, 0.0, 10.0) == 0.5  # [0,3] and [8,10]


def test_recorded_spans_nest_and_inherit_the_request_id(tmp_path):
    tracer = Tracer(True)
    with tracer.span("request", trace="r1"):
        with tracer.span("encode"):
            pass
        with tracer.span("score", trace="other"):
            pass
    spans = {s["name"]: s for s in tracer.spans()}
    assert spans["request"]["parent"] is None
    assert spans["encode"]["parent"] == spans["request"]["id"]
    assert spans["encode"]["trace"] == "r1"
    assert spans["score"]["trace"] == "other"
    assert spans["request"]["start"] <= spans["encode"]["start"] <= spans["encode"]["end"] <= spans["request"]["end"]
    written = json.loads(tracer.write(tmp_path / "t.json", meta={"k": 1}).read_text())
    assert written["meta"] == {"k": 1} and len(written["spans"]) == 3
    assert written["spans"][0]["start"] == 0.0


def test_each_thread_has_its_own_parent_stack():
    tracer = Tracer(True)

    def work(tag):
        with tracer.span("outer", trace=tag):
            with tracer.span("inner"):
                pass

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
    with tracer.span("main"):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    spans = tracer.spans()
    outers = {s["id"]: s for s in spans if s["name"] == "outer"}
    assert all(s["parent"] is None for s in outers.values())  # not children of "main"
    for inner in (s for s in spans if s["name"] == "inner"):
        assert inner["trace"] == outers[inner["parent"]]["trace"]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("request", trace="r"):
        pass
    assert tracer.spans() == []
