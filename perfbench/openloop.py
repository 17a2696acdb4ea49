"""Open-loop replay of a serving-load schedule on real time.

:meth:`repro.serving.ScoringService.serve` replays a schedule closed-loop
(it yields to the scorer between arrivals) and times each request from
its admission.  Neither shows what a user sees when the service falls
behind.  Here the generator sends each event at its *intended* time
whether or not earlier requests were answered, and every request is timed
from that intended time, so a stall also charges the requests it delayed
(no coordinated omission).  How late the generator itself ran is recorded
separately.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.serving import DayEnd, LoadGenConfig, LoadGenerator, ScoreRequest

#: Sleep only when the next event is further away than this; closer
#: events are sent in the current wake-up (the loop's timer resolution is
#: about 1 ms, so shorter sleeps would only add lateness).
_SLEEP_SLACK_S = 0.0002
#: Lead time between building the replay and its first intended event.
_LEAD_S = 0.02
#: Ladder limits besides the p99 limit: share of failed requests allowed
#: in a period, growth of the generator's lag allowed over a rung, and the
#: rate range searched.
_FAIL_LIMIT = 0.01
_LAG_LIMIT_S = 0.01
_MIN_RATE = 100.0
_MAX_RATE = 1_024_000.0


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100) by linear interpolation; inf-aware."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return math.inf if pos > lo or ordered[lo] == math.inf else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class ReplayRecord:
    """What one open-loop replay observed (seconds, perf_counter clock)."""

    sent: int = 0
    scored: int = 0
    shed: int = 0
    expired: int = 0
    errored: int = 0
    #: Per request, from intended arrival to answer; failed requests are
    #: recorded as ``inf`` (a refused request misses every latency limit).
    latency: List[float] = field(default_factory=list)
    #: Intended arrival of each entry of ``latency``, from ``started``.
    due: List[float] = field(default_factory=list)
    #: Per scored request, from the ``score()`` call to its answer.
    admit_latency: List[float] = field(default_factory=list)
    #: Per request, how late the generator sent it.
    gen_lag: List[float] = field(default_factory=list)
    #: Time spent awaiting ``ingest`` (backpressure on the generator).
    ingest_wait: float = 0.0
    #: Intended times of the replayed :class:`DayEnd` markers.
    day_end_due: List[float] = field(default_factory=list)
    #: ``version -> first time a response carried it`` (client-observed).
    version_seen: dict = field(default_factory=dict)
    started: float = 0.0
    finished: float = 0.0
    #: CPU time of the event-loop thread (generator plus scoring path).
    loop_cpu: float = 0.0

    @property
    def failed(self) -> int:
        return self.shed + self.expired + self.errored

    @property
    def fail_frac(self) -> float:
        return self.failed / self.sent if self.sent else 0.0

    def freshness(self, first_version: int) -> List[float]:
        """Per replayed day end: intended time -> its version first served.

        The ``i``-th day end of the replay commits window version
        ``first_version + i``; days whose version no response carried are
        left out.
        """
        out = []
        for i, due in enumerate(self.day_end_due):
            seen = [
                t for v, t in self.version_seen.items()
                if v >= first_version + i
            ]
            if seen:
                out.append(min(seen) - due)
        return out

    def periods(self, period: float) -> List[List[float]]:
        """Latencies grouped by ``period`` of intended arrival time."""
        buckets: dict = {}
        for due, latency in zip(self.due, self.latency):
            buckets.setdefault(int(due // period), []).append(latency)
        return [buckets[k] for k in sorted(buckets)]

    def percentile_per_period(self, q: float, period: float) -> List[float]:
        """``q``-th latency percentile of each ``period`` of intended time."""
        return [percentile(bucket, q) for bucket in self.periods(period)]

    def lag_growth(self) -> float:
        """Median generator lag of the last quarter minus the first's."""
        n = len(self.gen_lag)
        if n < 8:
            return 0.0
        quarter = n // 4
        return percentile(self.gen_lag[-quarter:], 50) - percentile(
            self.gen_lag[:quarter], 50
        )


async def _score_one(service, user: int, due: float, rec: ReplayRecord):
    clock = time.perf_counter
    called = clock()
    try:
        response = await service.score(user)
    except asyncio.CancelledError:
        raise
    except Exception:
        rec.errored += 1
        rec.due.append(due - rec.started)
        rec.latency.append(math.inf)
        return
    done = clock()
    rec.due.append(due - rec.started)
    if response.outcome == "scored":
        rec.scored += 1
        rec.latency.append(done - due)
        rec.admit_latency.append(done - called)
        version = response.window_version
        if version not in rec.version_seen:
            rec.version_seen[version] = done
    else:
        if response.outcome == "shed":
            rec.shed += 1
        else:
            rec.expired += 1
        rec.latency.append(math.inf)


async def replay(service, events: Sequence) -> ReplayRecord:
    """Send ``events`` at their intended times; await every answer.

    ``service`` is a started :class:`~repro.serving.ScoringService`.
    Returns once every request is answered and every ingest event (and the
    slide it triggered) is processed.
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    rec = ReplayRecord()
    # In-flight requests only: a finished task leaves the set, so the
    # replay does not pile up garbage-collected objects at high rates.
    pending: set = set()
    # The first event is due ``_LEAD_S`` from now; the schedule's own time
    # origin may lie earlier (a later slice of a longer schedule).
    origin = clock() + _LEAD_S - (events[0].t if events else 0.0)
    rec.started = origin
    cpu_started = time.thread_time()
    for event in events:
        due = origin + event.t
        ahead = due - clock()
        if ahead > _SLEEP_SLACK_S:
            await asyncio.sleep(ahead)
        sent = clock()
        if isinstance(event, ScoreRequest):
            rec.sent += 1
            rec.gen_lag.append(max(0.0, sent - due))
            task = loop.create_task(_score_one(service, event.user, due, rec))
            pending.add(task)
            task.add_done_callback(pending.discard)
        else:
            if isinstance(event, DayEnd):
                rec.day_end_due.append(due)
            await service.ingest(event)
            rec.ingest_wait += clock() - sent
    while pending:
        await asyncio.gather(*pending)
    await service._ingest_queue.join()
    rec.finished = clock()
    rec.loop_cpu = time.thread_time() - cpu_started
    return rec


def rung_schedule(stream, rate: float, seconds: float, seed: int) -> list:
    """Score-only Poisson arrivals at a fixed ``rate`` for ``seconds``."""
    config = LoadGenConfig(
        qps=rate, day_seconds=seconds, burst_factor=1.0, seed=seed
    )
    events = LoadGenerator(stream, config).schedule(0, 1)
    return [e for e in events if isinstance(e, ScoreRequest)]


#: A ladder rung is judged on this many equal periods of its duration.
RUNG_PERIODS = 5


@dataclass
class Rung:
    rate: float
    record: ReplayRecord
    #: Periods of the rung that met the latency and failure limits.
    periods_ok: int
    lag_growth: float
    passed: bool

    def describe(self) -> str:
        return (
            f"{self.rate:.0f}{'+' if self.passed else '-'}"
            f"({self.periods_ok}/{RUNG_PERIODS},"
            f"fail={self.record.fail_frac:.3f},"
            f"lag+={1e3 * self.lag_growth:.1f}ms)"
        )


@dataclass
class LadderResult:
    rungs: List[Rung]
    #: Highest rung rate that passed (0 when none did).
    capacity: float

    def loop_throughput(self) -> float:
        """Requests per loop-thread CPU second on the first rung.

        The first rung always runs at the start rate, so this compares the
        scoring path's cost per request at one fixed load across runs.
        """
        first = self.rungs[0].record
        return first.sent / first.loop_cpu


async def capacity_ladder(
    service,
    stream,
    *,
    seed: int,
    rungs: int,
    rung_seconds: float,
    start_rate: float,
    p99_limit: float,
) -> LadderResult:
    """Find the highest sustainable score rate by a geometric ladder.

    Rates double (or halve) from ``start_rate`` until the knee is
    bracketed, then bisect geometrically between the highest passing and
    the lowest failing rate, for ``rungs`` rungs in all.  A rung is judged
    on ``RUNG_PERIODS`` equal periods of intended arrival time: a period
    is good when its p99 from intended arrival is within ``p99_limit`` and
    at most ``_FAIL_LIMIT`` of its requests failed.  The rung passes when a
    majority of its periods are good and the generator's lag did not grow
    by more than ``_LAG_LIMIT_S`` over the rung.  Above the knee the queue
    stays full and every period sheds; a single stall of the host spoils
    one period only.  A failed rung is run once more before it counts as
    failed.
    """
    lo: Optional[float] = None
    hi: Optional[float] = None
    results: List[Rung] = []
    rate = start_rate
    retried = False
    while len(results) < rungs:
        index = len(results)
        events = rung_schedule(stream, rate, rung_seconds, seed * 1000 + index)
        rec = await replay(service, events)
        periods_ok = sum(
            percentile(period, 99) <= p99_limit
            and sum(map(math.isinf, period)) <= _FAIL_LIMIT * len(period)
            for period in rec.periods(rung_seconds / RUNG_PERIODS)
        )
        growth = rec.lag_growth()
        passed = 2 * periods_ok > RUNG_PERIODS and growth <= _LAG_LIMIT_S
        results.append(Rung(rate, rec, periods_ok, growth, passed))
        if not passed and not retried:
            retried = True
            continue
        retried = False
        if passed:
            lo = rate if lo is None else max(lo, rate)
        else:
            hi = rate if hi is None else min(hi, rate)
        if hi is None:
            rate = min(rate * 2.0, _MAX_RATE)
        elif lo is None:
            rate = max(rate / 2.0, _MIN_RATE)
        else:
            rate = math.sqrt(lo * hi)
    return LadderResult(results, lo or 0.0)
