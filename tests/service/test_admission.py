"""Admission control: slot bounds, queue depth/time limits, shed semantics."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.admission import AdmissionController, ShedRequestError


def run(coro):
    return asyncio.run(coro)


class TestAcquireRelease:
    def test_admits_within_capacity(self):
        async def scenario():
            controller = AdmissionController(max_inflight=2)
            wait_a = await controller.acquire()
            wait_b = await controller.acquire()
            assert controller.inflight == 2
            return wait_a, wait_b

        wait_a, wait_b = run(scenario())
        assert wait_a >= 0.0 and wait_b >= 0.0

    def test_release_returns_slot(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1, queue_timeout=0.2)
            await controller.acquire()
            controller.release(0.01)
            assert controller.inflight == 0
            await controller.acquire()  # does not shed: the slot came back
            assert controller.inflight == 1

        run(scenario())

    def test_release_feeds_latency_estimate(self):
        controller = AdmissionController()
        before = controller.stats()["avg_execute_seconds"]
        controller._inflight = 1
        controller.release(10.0)
        assert controller.stats()["avg_execute_seconds"] > before


class TestFastPath:
    def test_a_free_slot_is_taken_without_suspending_or_a_task(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1)
            tasks = len(asyncio.all_tasks())
            attempt = controller.acquire()
            with pytest.raises(StopIteration) as done:
                attempt.send(None)  # completes on its first step
            assert done.value.value == 0.0
            assert len(asyncio.all_tasks()) == tasks
            assert controller.inflight == 1 and controller.admitted == 1

        run(scenario())

    def test_a_newcomer_queues_behind_a_waiter(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1, max_queue=4, queue_timeout=5.0)
            await controller.acquire()
            first = asyncio.ensure_future(controller.acquire())
            await asyncio.sleep(0.01)
            assert controller.waiting == 1
            controller.release()  # the slot is `first`'s; it has not resumed yet
            newcomer = controller.acquire()
            newcomer.send(None)  # suspends: FIFO, it does not take the slot
            newcomer.close()
            await first
            assert controller.inflight == 1 and controller.waiting == 0

        run(scenario())


class TestShedding:
    def test_queue_full_sheds_immediately(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1, max_queue=0, queue_timeout=5.0)
            await controller.acquire()
            started = asyncio.get_running_loop().time()
            with pytest.raises(ShedRequestError) as excinfo:
                await controller.acquire()
            elapsed = asyncio.get_running_loop().time() - started
            assert excinfo.value.reason == "queue full"
            assert excinfo.value.retry_after is not None
            assert elapsed < 1.0  # shed without waiting out the queue timeout
            assert controller.shed == 1

        run(scenario())

    def test_queue_timeout_sheds_waiter(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1, max_queue=4, queue_timeout=0.05)
            await controller.acquire()
            with pytest.raises(ShedRequestError) as excinfo:
                await controller.acquire()
            assert excinfo.value.reason == "queue timeout"
            assert controller.waiting == 0  # waiter fully cleaned up

        run(scenario())

    def test_retry_after_hint_is_clamped(self):
        controller = AdmissionController(max_inflight=2)
        assert 0.05 <= controller.retry_after_hint() <= 30.0
        controller._avg_execute = 10_000.0
        controller._waiting = 50
        assert controller.retry_after_hint() == 30.0

    def test_slot_not_leaked_after_timeout_shed(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1, max_queue=4, queue_timeout=0.05)
            await controller.acquire()
            with pytest.raises(ShedRequestError):
                await controller.acquire()
            controller.release()
            # The returned slot is the only one; acquiring must still work —
            # a leak here would make this hang until the queue timeout sheds.
            await controller.acquire()
            assert controller.inflight == 1

        run(scenario())


class TestClose:
    def test_close_sheds_queued_waiters(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1, max_queue=4, queue_timeout=30.0)
            await controller.acquire()
            waiter = asyncio.ensure_future(controller.acquire())
            await asyncio.sleep(0.01)
            assert controller.waiting == 1
            controller.close()
            with pytest.raises(ShedRequestError) as excinfo:
                await waiter
            assert excinfo.value.reason == "shutting down"
            assert excinfo.value.retry_after is None

        run(scenario())

    def test_closed_controller_refuses_new_arrivals(self):
        async def scenario():
            controller = AdmissionController()
            controller.close()
            with pytest.raises(ShedRequestError) as excinfo:
                await controller.acquire()
            assert excinfo.value.reason == "shutting down"

        run(scenario())


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(queue_timeout=0.0)

    def test_stats_shape(self):
        stats = AdmissionController(max_inflight=3).stats()
        assert stats["max_inflight"] == 3
        assert stats["inflight"] == 0
        assert stats["closed"] is False
