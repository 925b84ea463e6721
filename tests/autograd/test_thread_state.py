"""Grad mode, ambient dtype and the active profiler are per thread.

Two threads whose ``no_grad`` / ``default_dtype`` blocks interleave must
each see their own state, and leave the other's alone. ``threading.Event``
hand-offs force the interleaving that a process-wide flag gets wrong: A
enters, B enters, A exits, B exits. With one global, B saved A's "off" on
entry and restores it on exit, leaving gradients off for every thread.
"""

import threading

import numpy as np

from repro import perf
from repro.autograd import Tensor, default_dtype, get_default_dtype, is_grad_enabled, no_grad
from repro.perf.profiler import active_profiler
from repro.reliability import call_with_timeout

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def run_threads(*targets):
    """Run each target on its own thread; re-raise the first failure."""
    errors = []

    def guard(target):
        try:
            target()
        except BaseException as error:  # noqa: BLE001 — relayed to the test
            errors.append(error)

    threads = [threading.Thread(target=guard, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "a thread is stuck at a hand-off"
    if errors:
        raise errors[0]


def state():
    return is_grad_enabled(), get_default_dtype()


def wait(event):
    assert event.wait(timeout=10), "hand-off timed out"


def test_interleaved_blocks_keep_each_threads_state():
    a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))
    seen = {}

    def thread_a():
        with no_grad(), default_dtype(F32):
            seen["a inside"] = state()
            a_in.set()
            wait(b_in)
            seen["a after b entered"] = state()
        seen["a after exit"] = state()
        a_out.set()
        wait(b_out)
        seen["a after b exited"] = state()
        seen["a tensor"] = Tensor(np.ones(2), requires_grad=True).requires_grad

    def thread_b():
        wait(a_in)
        seen["b before"] = state()
        with no_grad(), default_dtype(F32):
            b_in.set()
            wait(a_out)
            seen["b after a exited"] = state()
        seen["b after exit"] = state()
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        seen["b grad"] = x.grad.tolist()
        b_out.set()

    run_threads(thread_a, thread_b)
    assert seen == {
        "a inside": (False, F32),
        "b before": (True, F64),
        "a after b entered": (False, F32),
        "a after exit": (True, F64),
        "b after a exited": (False, F32),
        "b after exit": (True, F64),
        "a after b exited": (True, F64),
        "b grad": [2.0, 4.0],
        "a tensor": True,
    }
    assert state() == (True, F64)


def test_a_new_thread_starts_at_the_defaults():
    seen = []
    with no_grad(), default_dtype(F32):
        run_threads(lambda: seen.append(state()))
        assert state() == (False, F32)
    assert seen == [(True, F64)]


def test_profiler_sees_only_the_thread_that_armed_it():
    armed, other_done = threading.Event(), threading.Event()
    seen = {}

    def profiled():
        with perf.OpProfiler() as prof:
            armed.set()
            wait(other_done)
            x = Tensor([1.0, 2.0], requires_grad=True)
            (x * x).sum().backward()
        seen["nodes"] = prof.backward_nodes

    def other():
        wait(armed)
        seen["other sees"] = active_profiler()
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        for _ in range(5):
            (x * x).sum().backward()
        other_done.set()

    run_threads(profiled, other)
    assert seen["other sees"] is None
    assert seen["nodes"] == 2  # mul and sum on the armed thread only
    assert active_profiler() is None


def test_a_timed_call_runs_under_the_callers_state():
    with no_grad(), default_dtype(F32):
        assert call_with_timeout(state, timeout_s=10.0) == (False, F32)
    assert call_with_timeout(state, timeout_s=10.0) == (True, F64)
