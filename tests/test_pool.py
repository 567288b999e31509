"""Fault tests for :class:`~repro.engine.pool.PersistentWorkerPool`: every
infrastructure failure surfaces as :class:`WorkerPoolError` (or a
``ValueError`` for caller mistakes), and no failure leaves a live
worker process behind."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.engine.pool import PersistentWorkerPool, WorkerPoolError

POOL_NAME = "repro-pool-test"


class _Handler:
    """Replies ``(worker tag, message)``; ``"raise"`` raises and ``"exit"``
    kills the worker process without a reply."""

    def __init__(self, tag):
        self.tag = tag

    def __call__(self, message):
        if message == "raise":
            raise ArithmeticError("handler-marker")
        if message == "exit":
            os._exit(3)
        return self.tag, message


def _handler_factory(tag):
    return _Handler(tag)


def _failing_factory(tag):
    raise LookupError(f"factory-marker-{tag}")


def _live_pool_children():
    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith(POOL_NAME)
    ]


@pytest.fixture
def pool():
    pool = PersistentWorkerPool(_handler_factory, [("a",), ("b",)], name=POOL_NAME)
    yield pool
    pool.close()
    assert not _live_pool_children()


def test_replies_come_back_in_worker_order(pool):
    assert pool.request_all(["x", "y"]) == [("a", "x"), ("b", "y")]


def test_handler_exception_carries_the_remote_traceback(pool):
    pool.submit(0, "raise")
    with pytest.raises(WorkerPoolError) as excinfo:
        pool.result(0)
    message = str(excinfo.value)
    assert "worker 0 raised" in message
    assert "Traceback" in message
    assert "ArithmeticError: handler-marker" in message
    # The worker survives its handler's exception.
    assert pool.request_all(["x", "y"]) == [("a", "x"), ("b", "y")]


def test_worker_exit_mid_request_is_reported(pool):
    with pytest.raises(WorkerPoolError, match="worker 1 died"):
        pool.request_all(["x", "exit"])


def test_failing_factory_fails_the_constructor_and_leaves_no_child():
    with pytest.raises(WorkerPoolError) as excinfo:
        PersistentWorkerPool(_failing_factory, [("a",), ("b",)], name=POOL_NAME)
    assert "failed to initialise" in str(excinfo.value)
    assert "factory-marker-a" in str(excinfo.value)
    assert not _live_pool_children()


@pytest.mark.parametrize("count", [1, 3])
def test_request_all_rejects_the_wrong_message_count(pool, count):
    with pytest.raises(ValueError, match=f"got {count} messages for 2 workers"):
        pool.request_all(["x"] * count)


def test_close_twice_does_not_raise(pool):
    pool.close()
    pool.close()
    assert not _live_pool_children()


def test_close_after_a_worker_died_does_not_raise(pool):
    with pytest.raises(WorkerPoolError):
        pool.request_all(["exit", "x"])
    pool.close()
    assert not _live_pool_children()
