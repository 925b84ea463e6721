"""The benchmark's own load generator: seeded plans, closed and open loops.

One *operation* is a recommend, preceded on some operations by an event on the
same session (the click that makes the recommendation stale). Each sender
owns a disjoint set of sessions and a pre-generated plan, so the order of a
session's events is fixed by the seed and the benchmark can rebuild every
session's state from what it sent.

* Closed loop: a sender issues its next operation when the previous one has
  completed; latency runs from the send.
* Open loop: every operation has a due time drawn in advance (a fixed rate,
  each arrival at a seeded instant of its own interval); latency runs **from
  the due time**, so a stall is charged to every request that was due during
  it, and the sender's lateness is reported next to the latencies.

The generator talks to the system through a *client* with ``event`` and
``recommend`` methods: :class:`HttpClient` over a keep-alive connection, an
in-process client for the layer replay, or a fake in the self-tests. It does
not import ``repro.serving.loadgen``: that module is part of the program.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

NO_EVENT = -1


@dataclass
class Reply:
    ok: bool
    source: str = ""
    items: list = field(default_factory=list)


class HttpClient:
    """One keep-alive connection to the gateway."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def _request(self, method: str, path: str, body: bytes | None = None):
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next request reconnects
            return 0, b""

    def event(self, session_id: str, item: int, operation: int) -> bool:
        body = json.dumps({"session_id": session_id, "item": item, "operation": operation}).encode()
        status, raw = self._request("POST", "/events", body)
        return status == 200 and json.loads(raw).get("applied") is True

    def recommend(self, session_id: str, k: int) -> Reply:
        status, raw = self._request("GET", f"/recommend?session_id={session_id}&k={k}")
        if status != 200:
            return Reply(False)
        payload = json.loads(raw)
        ok = payload.get("degraded") is False and len(payload.get("items", ())) == k
        return Reply(ok, payload.get("source", ""), payload.get("items", []))

    def get_text(self, path: str) -> str:
        status, raw = self._request("GET", path)
        return raw.decode() if status == 200 else ""

    def close(self) -> None:
        self.conn.close()


@dataclass
class Plan:
    """One sender's operations, in order."""

    session: np.ndarray  # [N] index into the session-id list
    item: np.ndarray  # [N] raw item id of the preceding event, or NO_EVENT
    operation: np.ndarray  # [N] operation id of that event
    due: np.ndarray  # [N] seconds after the phase start (open loop only)

    def __len__(self) -> int:
        return len(self.session)


def make_plans(
    seed: int,
    senders: int,
    sessions: int,
    items: np.ndarray,
    num_ops: int,
    event_every: int,
    length: int,
    rate: float | None = None,
) -> list[Plan]:
    """Seeded plans, one per sender; sender ``j`` owns sessions ``j, j+senders, ...``.

    An operation carries an event with probability ``1 / event_every``.
    ``rate`` (operations per second over all senders) adds due times; each
    sender gets ``rate / senders``, one arrival per interval at a uniformly
    drawn instant inside it. With only 2 sequential senders, Poisson bursts
    queue inside the generator, and that queue grows faster than the service
    time when the host slows: the p95 then measures the host twice over.
    """
    plans = []
    for sender in range(senders):
        rng = np.random.default_rng([seed, sender, event_every])
        owned = np.arange(sender, sessions, senders)
        session = owned[rng.integers(0, len(owned), length)]
        has_event = rng.random(length) < 1.0 / event_every
        item = np.where(has_event, items[rng.integers(0, len(items), length)], NO_EVENT)
        operation = rng.integers(0, num_ops, length)
        if rate is None:
            due = np.zeros(length)
        else:
            due = (np.arange(length) + rng.random(length)) * (senders / rate)
        plans.append(Plan(session, item.astype(np.int64), operation, due))
    return plans


@dataclass
class PhaseResult:
    """What one phase did, merged over its senders."""

    mode: str
    wall_s: float = 0.0
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latency_s: list = field(default_factory=list)  # whole operation, successful ones only
    recommend_s: list = field(default_factory=list)  # the recommend request alone
    event_s: list = field(default_factory=list)  # the event request alone
    cached: list = field(default_factory=list)  # parallel to recommend_s: answered from cache
    lag_s: list = field(default_factory=list)  # open loop: how late each operation was sent
    events: list = field(default_factory=list)  # (session index, item, operation) applied, per-sender order
    consumed: list = field(default_factory=list)  # plan entries used, per sender

    def merge(self, other: "PhaseResult") -> None:
        self.sent += other.sent
        self.succeeded += other.succeeded
        self.failed += other.failed
        for name in ("latency_s", "recommend_s", "event_s", "cached", "lag_s", "events", "consumed"):
            getattr(self, name).extend(getattr(other, name))

    def backlog_grew(self, limit_s: float = 1.0) -> bool:
        """Open loop only: was the last tenth of the sends typically later than ``limit_s``?

        A rate above capacity leaves the senders seconds behind by the end of
        a phase; a host hiccup of a few hundred milliseconds does not.
        """
        if not self.lag_s:
            return False
        tail = sorted(self.lag_s[-max(1, len(self.lag_s) // 10) :])
        return tail[len(tail) // 2] > limit_s


def _drive(client, plan: Plan, session_ids, start: int, mode: str, t0: float, t_end: float, k: int, tracer, tag: str):
    """One sender's loop over ``plan[start:]`` until ``t_end``."""
    out = PhaseResult(mode)
    clock = time.perf_counter
    index = start
    while index < len(plan):
        if mode == "open":
            due = t0 + plan.due[index] - plan.due[start]
            if due >= t_end:
                break
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            began = clock()
            out.lag_s.append(began - due)
            origin = due
        else:
            began = clock()
            if began >= t_end:
                break
            origin = began
        session = int(plan.session[index])
        session_id = session_ids[session]
        item = int(plan.item[index])
        ok = True
        with tracer.span("loadgen.op", trace=f"{tag}-{index}"):
            if item != NO_EVENT:
                operation = int(plan.operation[index])
                with tracer.span("client.event"):
                    ok = client.event(session_id, item, operation)
                sent_at = clock()
                out.event_s.append(sent_at - began)
                if ok:
                    out.events.append((session, item, operation))
            else:
                sent_at = began
            with tracer.span("client.recommend"):
                reply = client.recommend(session_id, k)
            ended = clock()
        out.sent += 1
        if ok and reply.ok:
            out.succeeded += 1
            out.latency_s.append(ended - origin)
            out.recommend_s.append(ended - sent_at)
            out.cached.append(reply.source == "cache")
        else:
            out.failed += 1
        index += 1
    out.consumed.append(index - start)
    return out


def run_phase(clients, plans, session_ids, starts, mode: str, seconds: float, k: int, tracer, tag: str) -> PhaseResult:
    """Drive every sender on its own thread for ``seconds``; merge what they did."""
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    results: list = [None] * len(clients)
    errors: list = []
    t0 = time.perf_counter() + 0.01  # every sender starts from the same instant
    t_end = t0 + seconds

    def work(slot: int) -> None:
        try:
            while time.perf_counter() < t0:
                time.sleep(0.001)
            results[slot] = _drive(
                clients[slot], plans[slot], session_ids, starts[slot], mode, t0, t_end, k, tracer, f"{tag}-{slot}"
            )
        except Exception as error:  # noqa: BLE001 - reported to the caller below
            errors.append(error)

    threads = [threading.Thread(target=work, args=(slot,), name=f"sender-{slot}") for slot in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"a sender of phase {tag} did not finish")
    merged = PhaseResult(mode, wall_s=time.perf_counter() - t0)
    for result in results:
        merged.merge(result)
    return merged
