"""BatchQueue: admission control, coalescing, deadlines, close."""

import asyncio
import time

import pytest

from repro.service.batching import BatchQueue, PendingRequest
from repro.service.protocol import ServiceError

from .conftest import small_request


def entry(loop, fault_index=0, deadline=None, **overrides) -> PendingRequest:
    return PendingRequest(
        request=small_request(fault_index, **overrides),
        future=loop.create_future(),
        deadline=deadline,
    )


def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_offer_rejects_beyond_depth(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=2, batch_max=8)
            queue.offer(entry(loop, 0))
            queue.offer(entry(loop, 1))
            with pytest.raises(ServiceError) as exc:
                queue.offer(entry(loop, 2))
            assert exc.value.code == "queue_full"
            assert exc.value.retry_after_s >= 1.0
            assert queue.depth == 2

        run(scenario())

    def test_offer_after_close_is_shutting_down(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            await queue.close()
            with pytest.raises(ServiceError) as exc:
                queue.offer(entry(loop))
            assert exc.value.code == "shutting_down"

        run(scenario())


class TestCoalescing:
    def test_same_key_coalesces_up_to_batch_max(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=3)
            for i in range(5):
                queue.offer(entry(loop, i))
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [0, 1, 2]
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [3, 4]

        run(scenario())

    def test_other_keys_stay_queued_fifo(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=8)
            queue.offer(entry(loop, 0))
            queue.offer(entry(loop, 0, scheme="random"))
            queue.offer(entry(loop, 1))
            first = await queue.next_batch()
            assert [e.request.fault_index for e in first] == [0, 1]
            assert all(e.request.scheme == "two-step" for e in first)
            second = await queue.next_batch()
            assert len(second) == 1
            assert second[0].request.scheme == "random"

        run(scenario())

    def test_lone_entry_dispatches_without_a_timer(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=8)
            queue.offer(entry(loop, 0))
            # The coroutine finishes on its first step: nothing it does
            # suspends, so no timer can hold the batch open.
            step = queue.next_batch()
            with pytest.raises(StopIteration) as done:
                step.send(None)
            assert [e.request.fault_index for e in done.value.value] == [0]

        run(scenario())

    def test_idle_dispatcher_wakes_on_first_offer(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=8)
            waiter = asyncio.ensure_future(queue.next_batch())
            await asyncio.sleep(0)
            assert not waiter.done()  # empty queue: the dispatcher waits
            queue.offer(entry(loop, 0))
            await queue.announce()
            batch = await asyncio.wait_for(waiter, timeout=5)
            assert [e.request.fault_index for e in batch] == [0]

        run(scenario())

    def test_arrivals_while_executing_form_the_next_batch(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=4)
            queue.offer(entry(loop, 0))
            first = await queue.next_batch()
            assert [e.request.fault_index for e in first] == [0]
            # While that batch "executes", five same-key requests and one
            # other-key request queue up.
            for i in (1, 2):
                queue.offer(entry(loop, i))
            queue.offer(entry(loop, 9, scheme="random"))
            for i in (3, 4, 5):
                queue.offer(entry(loop, i))
            batches = [await queue.next_batch() for _ in range(3)]
            assert [[(e.request.scheme, e.request.fault_index) for e in b]
                    for b in batches] == [
                [("two-step", 1), ("two-step", 2), ("two-step", 3),
                 ("two-step", 4)],
                [("random", 9)],
                [("two-step", 5)],
            ]
            assert queue.depth == 0

        run(scenario())

    def test_late_same_key_arrivals_join_the_next_batch(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue(max_depth=16, batch_max=4)
            gate = asyncio.Event()
            batches = []

            async def dispatcher():
                # One dispatcher, as the server runs it: the next batch is
                # formed only after the previous one returns.
                while True:
                    batch = await queue.next_batch()
                    if not batch:
                        return
                    batches.append([e.request.fault_index for e in batch])
                    await gate.wait()

            task = asyncio.ensure_future(dispatcher())
            queue.offer(entry(loop, 0))
            await queue.announce()
            while not batches:
                await asyncio.sleep(0)
            for i in (1, 2):  # late arrivals while batch [0] executes
                queue.offer(entry(loop, i))
                await queue.announce()
            gate.set()
            await queue.close()
            await asyncio.wait_for(task, timeout=5)
            assert batches == [[0], [1, 2]]

        run(scenario())


class TestDeadlines:
    def test_expired_entry_resolves_deadline_exceeded(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            expired = entry(loop, 0, deadline=time.monotonic() - 1)
            live = entry(loop, 1)
            queue.offer(expired)
            queue.offer(live)
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [1]
            with pytest.raises(ServiceError) as exc:
                expired.future.result()
            assert exc.value.code == "deadline_exceeded"

        run(scenario())

    def test_abandoned_entry_is_dropped_silently(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            gone = entry(loop, 0)
            gone.future.cancel()
            queue.offer(gone)
            queue.offer(entry(loop, 1))
            batch = await queue.next_batch()
            assert [e.request.fault_index for e in batch] == [1]

        run(scenario())


class TestClose:
    def test_close_drains_then_returns_empty(self):
        async def scenario():
            loop = asyncio.get_event_loop()
            queue = BatchQueue()
            queue.offer(entry(loop, 0))
            await queue.close()
            batch = await queue.next_batch()
            assert len(batch) == 1  # queued work still served
            assert await queue.next_batch() == []  # then clean exit

        run(scenario())
