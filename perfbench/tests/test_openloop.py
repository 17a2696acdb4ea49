"""Self-tests of the open-loop replay: shedding and coordinated omission."""

import asyncio
import math
import time

import pytest

import openloop
from repro.pipeline import TransactionStream, TransactionStreamConfig
from repro.serving import ScoringService


def small_stream() -> TransactionStream:
    return TransactionStream(
        TransactionStreamConfig(
            num_users=600,
            num_products=400,
            num_days=4,
            transactions_per_day=300,
            num_rings=4,
            ring_size=6,
            ring_transactions_per_day=8,
        )
    )


async def _replay(queue_capacity: int, events, *, stall_at=None, stall=0.0):
    service = ScoringService(
        small_stream(), window_days=2, queue_capacity=queue_capacity
    )
    await service.start()
    try:
        if stall_at is not None:
            # Block the event loop, generator included, for ``stall``.
            asyncio.get_running_loop().call_later(stall_at, time.sleep, stall)
        return await openloop.replay(service, events)
    finally:
        await service.stop()


def test_queue_of_one_sheds_above_capacity():
    # A closed-loop replay of this schedule sheds nothing: it yields to the
    # scorer between arrivals.  Open loop, arrivals pile up behind a slow
    # loop and a one-slot queue must refuse some of them.
    events = openloop.rung_schedule(small_stream(), 200_000.0, 0.1, seed=1)
    rec = asyncio.run(_replay(1, events))
    assert rec.sent == len(events)
    assert rec.shed > 0
    assert rec.scored + rec.shed + rec.expired + rec.errored == rec.sent
    assert math.isinf(openloop.percentile(rec.latency, 100))


def test_generator_stall_shows_in_p99():
    events = openloop.rung_schedule(small_stream(), 2000.0, 1.0, seed=2)
    stall = 0.2
    # A queue deep enough for the backlog the stall leaves behind.
    rec = asyncio.run(_replay(4096, events, stall_at=0.3, stall=stall))
    assert rec.failed == 0
    # About a fifth of the requests were due during the stall: timed from
    # their intended arrival, the stall dominates the tail ...
    assert openloop.percentile(rec.latency, 99) > stall / 2
    assert openloop.percentile(rec.gen_lag, 99) > stall / 2
    # ... while timing from admission (coordinated omission) hides it.
    assert openloop.percentile(rec.admit_latency, 99) < stall / 2


def test_freshness_is_observed_by_later_responses():
    rec = openloop.ReplayRecord(day_end_due=[1.0, 2.0])
    rec.version_seen = {0: 0.5, 1: 1.3, 2: 2.6}
    assert rec.freshness(first_version=1) == pytest.approx([0.3, 0.6])
    rec.version_seen = {0: 0.5, 1: 1.3}
    assert rec.freshness(first_version=1) == pytest.approx([0.3])


def test_percentile_counts_refusals_as_missing_every_limit():
    assert openloop.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert openloop.percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    values = [0.001] * 98 + [math.inf, math.inf]
    assert openloop.percentile(values, 50) == 0.001
    assert math.isinf(openloop.percentile(values, 99))
    with pytest.raises(ValueError):
        openloop.percentile([], 50)
