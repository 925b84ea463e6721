import time

import numpy as np

from loadgen import NO_EVENT, Plan, Reply, make_plans, run_phase
from spans import Tracer


class FakeClient:
    """Answers after ``service_s``; request number ``stall_at`` takes ``stall_s``."""

    def __init__(self, service_s=0.001, stall_at=None, stall_s=0.0, fail_at=(), degrade_at=()):
        self.service_s, self.stall_at, self.stall_s = service_s, stall_at, stall_s
        self.fail_at, self.degrade_at = set(fail_at), set(degrade_at)
        self.calls = 0
        self.events = []

    def event(self, session_id, item, operation):
        self.events.append((session_id, item, operation))
        return True

    def recommend(self, session_id, k):
        call = self.calls
        self.calls += 1
        time.sleep(self.stall_s if call == self.stall_at else self.service_s)
        if call in self.fail_at:
            return Reply(False)  # transport error or non-200
        if call in self.degrade_at:
            return Reply(False, "fallback", list(range(k)))  # 200, but degraded: true
        return Reply(True, "model", list(range(k)))


def _plan(n, spacing_s, events=()):
    item = np.full(n, NO_EVENT)
    for index in events:
        item[index] = 7
    return Plan(np.zeros(n, dtype=int), item, np.ones(n, dtype=int), np.arange(n) * spacing_s)


def test_open_loop_times_a_stalled_server_from_the_due_time():
    # 20 requests due every 20 ms; the 3rd stalls the server for 200 ms.
    client = FakeClient(stall_at=2, stall_s=0.2)
    result = run_phase([client], [_plan(20, 0.02)], ["s0"], [0], "open", 1.0, 5, Tracer(False), "t")
    assert result.sent == result.succeeded == 20
    latency = result.latency_s
    assert latency[0] < 0.05 and latency[1] < 0.05
    assert latency[2] >= 0.2
    # Requests 4..6 were due during the stall: they waited, and it is charged to them.
    assert latency[3] >= 0.15 and latency[4] >= 0.12 and latency[5] >= 0.10
    assert latency[3] > latency[4] > latency[5]
    # The generator reports how late it ran, and it caught up by the end.
    assert max(result.lag_s) >= 0.15
    assert result.lag_s[-1] < 0.05
    assert not result.backlog_grew()


def test_closed_loop_times_from_the_send_so_a_stall_hits_one_request():
    client = FakeClient(stall_at=2, stall_s=0.2)
    result = run_phase([client], [_plan(6, 0.0)], ["s0"], [0], "closed", 5.0, 5, Tracer(False), "t")
    assert result.sent == 6
    slow = [t for t in result.latency_s if t >= 0.15]
    assert len(slow) == 1
    assert result.lag_s == []


def test_backlog_that_keeps_growing_is_flagged():
    # Due every 5 ms, served in 20 ms: the sender falls further behind each request.
    client = FakeClient(service_s=0.02)
    result = run_phase([client], [_plan(40, 0.005)], ["s0"], [0], "open", 0.5, 5, Tracer(False), "t")
    assert result.lag_s[-1] > result.lag_s[5]
    assert result.backlog_grew(limit_s=0.1)


def test_failed_and_degraded_replies_count_as_failed_and_stay_in_the_denominator():
    client = FakeClient(fail_at={1}, degrade_at={3})
    result = run_phase([client], [_plan(6, 0.0)], ["s0"], [0], "closed", 5.0, 5, Tracer(False), "t")
    assert result.sent == 6  # nothing is dropped from the count attempted
    assert result.failed == 2
    assert result.succeeded == 4
    assert len(result.latency_s) == 4  # a failed request has no latency figure
    assert result.sent == result.succeeded + result.failed


def test_events_are_sent_before_their_recommend_and_logged_in_order():
    client = FakeClient()
    result = run_phase([client], [_plan(5, 0.0, events=(1, 3))], ["s0"], [0], "closed", 5.0, 5, Tracer(False), "t")
    assert client.events == [("s0", 7, 1), ("s0", 7, 1)]
    assert result.events == [(0, 7, 1), (0, 7, 1)]
    assert len(result.event_s) == 2
    assert result.consumed == [5]


def test_phase_stops_at_the_deadline_and_reports_what_it_consumed():
    client = FakeClient(service_s=0.01)
    result = run_phase([client], [_plan(10_000, 0.0)], ["s0"], [0], "closed", 0.2, 5, Tracer(False), "t")
    assert 5 <= result.sent < 40
    assert result.consumed == [result.sent]
    assert 0.19 <= result.wall_s < 0.5


def test_plans_are_seeded_and_senders_own_disjoint_sessions():
    items = np.arange(100, 200)
    a = make_plans(3, 2, 10, items, 10, 8, 500, rate=100.0)
    b = make_plans(3, 2, 10, items, 10, 8, 500, rate=100.0)
    c = make_plans(4, 2, 10, items, 10, 8, 500, rate=100.0)
    for left, right in zip(a, b):
        assert np.array_equal(left.session, right.session) and np.array_equal(left.item, right.item)
        assert np.array_equal(left.due, right.due)
    assert not np.array_equal(a[0].session, c[0].session)
    assert set(a[0].session) <= {0, 2, 4, 6, 8} and set(a[1].session) <= {1, 3, 5, 7, 9}
    share = np.mean(a[0].item != NO_EVENT)
    assert 0.06 < share < 0.20  # one event per 8 operations
    assert np.all(np.diff(a[0].due) > 0)
    # 50/s per sender: exactly one arrival in every 20 ms interval, not on its edge.
    assert np.array_equal(np.floor(a[0].due / 0.02), np.arange(500))
    assert len(set(np.round(a[0].due % 0.02, 6))) > 400
    every = make_plans(3, 2, 10, items, 10, 1, 50)
    assert np.all(every[0].item != NO_EVENT)


def test_spans_carry_one_id_per_operation():
    tracer = Tracer(True)
    run_phase([FakeClient()], [_plan(3, 0.0, events=(0,))], ["s0"], [0], "closed", 5.0, 5, tracer, "cap")
    spans = tracer.spans()
    ops = [s for s in spans if s["name"] == "loadgen.op"]
    assert [s["trace"] for s in ops] == ["cap-0-0", "cap-0-1", "cap-0-2"]
    children = [s for s in spans if s["parent"] == ops[0]["id"]]
    assert [s["name"] for s in children] == ["client.event", "client.recommend"]
    assert all(s["trace"] == "cap-0-0" for s in children)
