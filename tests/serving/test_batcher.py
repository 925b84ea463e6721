"""Deterministic tests for the micro-batching scheduler."""

import sys
import threading
import time

import pytest

from repro.serving import DeadlineExceededError, MetricsRegistry, MicroBatcher, QueueFullError


class StubService:
    """Records every top_k_batch call; ranks are the session id repeated."""

    def __init__(self, delay_s: float = 0.0):
        self.calls: list[tuple[tuple[str, ...], int, bool]] = []
        self.delay_s = delay_s

    def top_k_batch(self, session_ids, k=10, exclude_seen=False):
        if self.delay_s:
            time.sleep(self.delay_s)
        self.calls.append((tuple(session_ids), k, exclude_seen))
        return {sid: [hash(sid) % 97] * k for sid in session_ids}


class TestFlushSynchronous:
    """Drive _collect/flush by hand — no worker thread, no timing races."""

    def test_size_triggered_single_flush(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=3)
        futures = [batcher.submit(f"s{i}", k=4) for i in range(3)]
        batch = batcher._collect()  # takes what is queued, never waits for more
        assert len(batch) == 3
        batcher.flush(batch)
        assert [f.result(0) for f in futures] == [[hash(f"s{i}") % 97] * 4 for i in range(3)]
        assert stub.calls == [(("s0", "s1", "s2"), 4, False)]

    def test_collect_takes_the_backlog_and_returns(self):
        batcher = MicroBatcher(StubService(), max_batch_size=100)
        batcher.submit("a")
        batcher.submit("b")
        assert len(batcher._collect()) == 2  # 98 short of a full batch, and back at once
        assert batcher.queue_depth == 0

    def test_groups_by_request_shape(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=3)
        batcher.submit("a", k=2)
        batcher.submit("b", k=2)
        batcher.submit("c", k=5, exclude_seen=True)
        batcher.flush(batcher._collect())
        assert sorted(stub.calls) == [(("a", "b"), 2, False), (("c",), 5, True)]

    def test_expired_requests_never_scored(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=2)
        dead = batcher.submit("dead", deadline_s=-0.001)  # already expired
        live = batcher.submit("live")
        batcher.flush(batcher._collect())
        with pytest.raises(DeadlineExceededError):
            dead.result(0)
        assert live.result(0)
        assert stub.calls == [(("live",), 10, False)]

    def test_scoring_error_propagates_to_waiters(self):
        class Exploding:
            def top_k_batch(self, session_ids, k=10, exclude_seen=False):
                raise RuntimeError("model fell over")

        batcher = MicroBatcher(Exploding(), max_batch_size=2)
        future = batcher.submit("s")
        batcher.flush(batcher._collect())
        with pytest.raises(RuntimeError, match="fell over"):
            future.result(0)


class TestBackpressure:
    def test_queue_full_sheds(self):
        batcher = MicroBatcher(StubService(), max_queue_depth=2)  # worker not started
        batcher.submit("a")
        batcher.submit("b")
        with pytest.raises(QueueFullError):
            batcher.submit("c")


class ParkedService(StubService):
    """A stub whose first model call waits inside ``top_k_batch`` on an Event."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def top_k_batch(self, session_ids, k=10, exclude_seen=False):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(5.0)
        return super().top_k_batch(session_ids, k, exclude_seen)


class TestThreaded:
    """The real worker thread: one trigger (a request is waiting), then the backlog."""

    def park(self, **kwargs):
        """A started batcher whose scorer is inside its first model call."""
        stub = ParkedService()
        batcher = MicroBatcher(stub, **kwargs).start()
        first = batcher.submit("first")
        assert stub.entered.wait(5.0)
        return stub, batcher, first

    def test_lone_request_needs_no_timer(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=100).start()
        try:
            future = batcher.submit("lonely")
            # Nothing else will ever arrive and there is no timer to wait out.
            assert future.result(timeout=5.0)
            assert stub.calls == [(("lonely",), 10, False)]
        finally:
            batcher.stop()

    def test_size_triggered_flush(self):
        stub, batcher, first = self.park(max_batch_size=4)
        try:
            futures = [batcher.submit(f"s{i}") for i in range(6)]
            stub.release.set()
            assert all(len(f.result(timeout=5.0)) == 10 for f in [first] + futures)
            # The backlog of 6 is cut at max_batch_size: two calls, 4 then 2.
            assert [call[0] for call in stub.calls] == [
                ("first",), ("s0", "s1", "s2", "s3"), ("s4", "s5")
            ]
        finally:
            batcher.stop()

    def test_backlog_becomes_one_call(self):
        stub, batcher, first = self.park(max_batch_size=100)
        try:
            futures = [batcher.submit(f"s{i}") for i in range(7)]
            stub.release.set()
            assert all(f.result(timeout=5.0) for f in [first] + futures)
            assert [len(call[0]) for call in stub.calls] == [1, 7]
        finally:
            batcher.stop()

    def test_stop_mid_backlog_flushes_what_it_drained(self):
        stub, batcher, first = self.park(max_batch_size=100)
        futures = [batcher.submit(f"s{i}") for i in range(3)]
        stopper = threading.Thread(target=batcher.stop)
        stopper.start()  # its sentinel queues behind the three requests
        while batcher.queue_depth < 4:
            time.sleep(0.001)
        stub.release.set()
        stopper.join(5.0)
        assert not stopper.is_alive()
        assert all(f.result(timeout=0) for f in [first] + futures)
        assert [len(call[0]) for call in stub.calls] == [1, 3]

    def test_expired_in_queue_is_skipped(self):
        stub, batcher, first = self.park(max_batch_size=100)
        try:
            dead = batcher.submit("dead", deadline_s=0.0)  # expires while the scorer is busy
            live = batcher.submit("live")
            stub.release.set()
            assert live.result(timeout=5.0)
            with pytest.raises(DeadlineExceededError):
                dead.result(0)
            assert [call[0] for call in stub.calls] == [("first",), ("live",)]
        finally:
            batcher.stop()

    def test_concurrent_submitters_coalesce(self):
        """More submitters than cores, a short switch interval: each request scored once."""
        stub = StubService(delay_s=0.002)
        batcher = MicroBatcher(stub, max_batch_size=8).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = {}

            def one(i):
                for j in range(10):
                    results[i, j] = batcher.submit(f"s{i}-{j}").result(timeout=10.0)

            threads = [threading.Thread(target=one, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 160
            scored = sorted(sid for call in stub.calls for sid in call[0])
            assert scored == sorted(f"s{i}-{j}" for i in range(16) for j in range(10))
            assert all(len(call[0]) <= 8 for call in stub.calls)
            assert len(stub.calls) < 160  # the backlog of each call became the next batch
        finally:
            sys.setswitchinterval(interval)
            batcher.stop()

    def test_metrics_reported(self):
        registry = MetricsRegistry()
        batcher = MicroBatcher(StubService(), max_batch_size=2, registry=registry)
        batcher.submit("a")
        batcher.submit("b")
        batcher.flush(batcher._collect())
        snap = registry.snapshot()
        assert snap["batcher_flushes_total"] == 1
        assert snap["batcher_requests_total"] == 2
        assert snap["batcher_batch_size"]["count"] == 1
