"""The three benchmark workloads, their references and their checks.

Every workload builds its inputs from the ``seed`` it is given, times its
set-up several times (a fresh stream each time), measures for about
``seconds`` of wall time, then checks the program's answers against a
reference computed once, after the timed part.  See ``README.md`` beside
this file for what each workload stresses and what each metric means.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import GLPEngine
from repro.algorithms import SeededFraudLP
from repro.baselines.cpu_serial import SerialEngine
from repro.bench import datasets as bench_datasets
from repro.bench.baseline import result_payload
from repro.core import hybrid
from repro.core.multigpu import MultiGPUEngine
from repro.gpusim.counters import PerfCounters
from repro.pipeline import (
    ClusterDetector,
    SlidingWindowDetector,
    TransactionStream,
    TransactionStreamConfig,
)
from repro.pipeline import window as window_mod
from repro.pipeline.seeds import SeedStore
from repro.serving import (
    DayEnd,
    LoadGenConfig,
    LoadGenerator,
    ScoringService,
    batch_labels_hash,
)

import openloop
from tracer import FIG7, SERVE, SLIDE, LayerTracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
MAX_ITERATIONS = 20
MAX_HOPS = 6

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Outcome:
    """One workload run: metric values, operation counts, check failures."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Human-readable notes per metric (sample counts, aliases).
    notes: Dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, message: str, ops: int = 1) -> None:
        """Record a correctness check; a failure fails ``ops`` operations."""
        if not ok:
            self.errors.append(message)
            self.failed += ops


def fresh_heap() -> None:
    """Free the previous set-up before timing the next.

    The tracer and slide wrappers, and the program's own object graphs,
    form reference cycles; without a collection the peak RSS would depend
    on when the collector happened to run.
    """
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50(values) -> float:
    return statistics.median(values)


def p99(values) -> float:
    return openloop.percentile(list(values), 99)


def run_ops(op: Callable[[], None], seconds: float, limit: int) -> List[float]:
    """Run ``op`` back to back for about ``seconds``; return each wall time.

    Stops when another op of the median length would overrun ``seconds``
    (at least one op runs), or after ``limit`` ops.
    """
    walls: List[float] = []
    spent = 0.0
    while len(walls) < limit:
        started = time.perf_counter()
        op()
        walls.append(time.perf_counter() - started)
        spent += walls[-1]
        if spent + p50(walls) > seconds:
            break
    return walls


# ----------------------------------------------------------------------
# Per-layer counters read from the return values of traced calls
# ----------------------------------------------------------------------
class LayerCounters:
    """Work counts gathered by the tracer's post-call hooks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.changed_pairs = 0
        self.slides = 0
        self.incremental_plans = 0
        self.affected = 0
        self.iterations = 0
        self.processed_edges = 0
        self.modeled_s = 0.0
        self.h2d_bytes = 0
        self.counters = PerfCounters()

    def hooks(self) -> Dict[str, Callable]:
        return {
            "pipeline.window_slide": self._on_slide,
            "pipeline.dynlp_plan": self._on_plan,
            "core.engine_run": self._on_engine_run,
        }

    def _on_slide(self, diff, args) -> None:
        with self._lock:
            self.slides += 1
            self.changed_pairs += diff.num_changed

    def _on_plan(self, plan, args) -> None:
        with self._lock:
            self.incremental_plans += int(plan.incremental)
            self.affected += plan.num_affected

    def _on_engine_run(self, result, args) -> None:
        engine = args[0]
        devices = getattr(engine, "devices", None) or [engine.device]
        with self._lock:
            self.iterations += result.num_iterations
            self.processed_edges += sum(
                s.processed_edges for s in result.iterations
            )
            self.modeled_s += result.total_seconds
            self.counters.add(result.total_counters)
            self.h2d_bytes += sum(
                d.transfer_summary()["h2d"]["bytes"] for d in devices
            )


class TraceSession:
    """A tracer plus its counters, toggled around the traced phases."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.counters = LayerCounters()
        self.tracer = LayerTracer(post_hooks=self.counters.hooks())
        self.wall = 0.0

    def __enter__(self) -> "TraceSession":
        self.tracer.install()
        self._entered = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall += time.perf_counter() - self._entered
        self.tracer.uninstall()

    def layer_metrics(self, overhead_frac: float) -> Tuple[Dict[str, float], List[str]]:
        """Per-layer metric values plus coverage / self-time errors."""
        spans = self.tracer.spans()
        c = self.counters

        def busy(key):
            return spans[key].busy

        def self_s(key):
            return spans[key].self_time

        metrics = {
            "serving.score_user.busy_s": busy("serving.score_user"),
            "pipeline.stream_generate.busy_s": busy("pipeline.stream_generate"),
            "pipeline.build_window_graph.busy_s": busy(
                "pipeline.build_window_graph"
            ),
            "pipeline.window_slide.busy_s": busy("pipeline.window_slide"),
            "pipeline.window_build.self_s": self_s("pipeline.window_build"),
            "pipeline.warm_start_seeds.busy_s": busy("pipeline.warm_start_seeds"),
            "pipeline.window_seeds.busy_s": busy("pipeline.window_seeds"),
            "pipeline.detect.self_s": self_s("pipeline.detect"),
            "pipeline.dynlp_plan.busy_s": busy("pipeline.dynlp_plan"),
            "pipeline.dynlp_affected.busy_s": busy("pipeline.dynlp_affected"),
            "pipeline.window_diff.changed_pairs": c.changed_pairs,
            "pipeline.dynlp.affected_vertices": c.affected,
            "pipeline.dynlp.incremental_ratio": (
                c.incremental_plans / c.slides if c.slides else 0.0
            ),
            "graph.from_edge_arrays.busy_s": busy("graph.from_edge_arrays"),
            "core.engine_run.self_s": self_s("core.engine_run"),
            "core.engine_run.calls": spans["core.engine_run"].calls,
            "core.iterations": c.iterations,
            "core.processed_edges": c.processed_edges,
            "core.sim_edges_per_s": (
                c.processed_edges / c.modeled_s if c.modeled_s else 0.0
            ),
            "kernels.propagate_pass.self_s": self_s("kernels.propagate_pass"),
            "kernels.expand_frontier.busy_s": busy("kernels.expand_frontier"),
            "kernels.compact_frontier.busy_s": busy("kernels.compact_frontier"),
            "gpusim.count_sector_transactions.busy_s": busy(
                "gpusim.count_sector_transactions"
            ),
            "gpusim.match_any_sync.busy_s": busy("gpusim.match_any_sync"),
            "gpusim.popc.busy_s": busy("gpusim.popc"),
            "gpusim.serialization_cost.busy_s": busy("gpusim.serialization_cost"),
            "gpusim.ballot_sync.busy_s": busy("gpusim.ballot_sync"),
            "gpusim.global_transactions": c.counters.global_transactions,
            "gpusim.shared_atomic_serialized_ops": (
                c.counters.shared_atomic_serialized_ops
            ),
            "gpusim.h2d_bytes": c.h2d_bytes,
            "gpusim.lane_utilization": c.counters.lane_utilization,
            "sketch.countmin_add.busy_s": busy("sketch.countmin_add"),
            "trace.overhead_frac": overhead_frac,
        }
        errors = [
            f"trace coverage: {e}"
            for e in self.tracer.coverage_errors(self.workload)
        ]
        self_sum = sum(span.self_time for span in spans.values())
        if self_sum > self.wall:
            errors.append(
                f"per-layer self times sum to {self_sum:.3f}s, more than the "
                f"traced wall time {self.wall:.3f}s"
            )
        return metrics, errors


SERVING_LAYER_KEYS = (
    "serving.admit_latency_p50_ms",
    "serving.admit_latency_p99_ms",
    "serving.shed",
    "serving.expired",
    "serving.errors",
    "serving.fail_frac",
    "serving.ingest.wait_s",
    "serving.gen_lag_p99_ms",
)


def serving_layer_metrics(rec: Optional[openloop.ReplayRecord]) -> Dict[str, float]:
    if rec is None:
        return {key: 0.0 for key in SERVING_LAYER_KEYS}
    return {
        "serving.admit_latency_p50_ms": 1e3 * p50(rec.admit_latency),
        "serving.admit_latency_p99_ms": 1e3 * p99(rec.admit_latency),
        "serving.shed": rec.shed,
        "serving.expired": rec.expired,
        "serving.errors": rec.errored,
        "serving.fail_frac": rec.fail_frac,
        "serving.ingest.wait_s": rec.ingest_wait,
        "serving.gen_lag_p99_ms": 1e3 * p99(rec.gen_lag),
    }


def overhead(traced: List[float], untraced: List[float]) -> float:
    return p50(traced) / p50(untraced) - 1.0


# ----------------------------------------------------------------------
# serve_bursty
# ----------------------------------------------------------------------
SERVE_STREAM_DAYS = 30
SERVE_WINDOW_DAYS = 14
SERVE_QPS = 1000.0
SERVE_DAY_SECONDS = 1.0
#: Share of ``seconds`` spent in the nominal phase; the ladder gets the rest.
SERVE_NOMINAL_SHARE = 0.75
LADDER_RUNG_SECONDS = 0.5
LADDER_START_RATE = 16000.0


class SlideLog:
    """Instance-level wrapper of a detector's ``slide``.

    Records each slide's wall time on the thread that runs it, its
    modeled LP time and its plan mode (and, with ``keep_hashes``, its
    labels hash, computed after the timed call); one call per slide, so it
    costs nothing measurable.
    """

    def __init__(
        self, detector: SlidingWindowDetector, *, keep_hashes: bool = False
    ) -> None:
        self.walls: List[float] = []
        self.modeled: List[float] = []
        self.incremental: List[bool] = []
        self.hashes: List[str] = []
        self._detector = detector
        original = detector.slide

        def slide():
            started = time.perf_counter()
            window, result = original()
            self.walls.append(time.perf_counter() - started)
            self.modeled.append(result.lp_result.total_seconds)
            plan = detector.last_plan
            self.incremental.append(bool(plan is not None and plan.incremental))
            if keep_hashes:
                self.hashes.append(result.lp_result.labels_hash())
            return window, result

        detector.slide = slide

    def detach(self) -> None:
        """Unwrap the detector (the wrapper would keep it alive in a cycle)."""
        if self._detector is not None:
            del self._detector.slide
            self._detector = None


def serve_schedule(stream, seed: int, days: int, start_day: int = 0) -> list:
    """``days`` slides of bursty traffic plus one trailing day of requests.

    The trailing day has no closing marker; its requests are what observe
    the last slide's new window version.
    """
    config = LoadGenConfig(qps=SERVE_QPS, day_seconds=SERVE_DAY_SECONDS, seed=seed)
    first_day = start_day + SERVE_WINDOW_DAYS
    events = LoadGenerator(stream, config).schedule(first_day, days + 1)
    last_day = first_day + days
    return [e for e in events if not (isinstance(e, DayEnd) and e.day == last_day)]


def split_schedule(events: list, days: int) -> Tuple[list, list]:
    """Events of the first ``days`` days (with their day ends), and the rest."""
    cut = days * SERVE_DAY_SECONDS
    return [e for e in events if e.t <= cut], [e for e in events if e.t > cut]


async def _serve_setup(seed: int, start_day: int = 0) -> ScoringService:
    stream = TransactionStream(
        TransactionStreamConfig(num_days=SERVE_STREAM_DAYS, seed=seed)
    )
    service = ScoringService(
        stream, window_days=SERVE_WINDOW_DAYS, start_day=start_day
    )
    await service.start()
    return service


@dataclass
class ServedRun:
    """What the checks need from one service after its traffic ended."""

    version: int
    labels_hash: str
    report: object
    slides_done: int
    records: List[openloop.ReplayRecord]

    @classmethod
    def of(cls, service, log: SlideLog, records) -> "ServedRun":
        state = service.state
        return cls(state.version, state.labels_hash, service.report,
                   len(log.walls), list(records))


def check_serving(out: Outcome, run: ServedRun, slides: int, reference: str) -> None:
    """Slides completed, admission accounting adds up, labels match batch."""
    done = run.slides_done
    out.check(
        done == slides and run.version == slides,
        f"{slides - done} of {slides} slides did not complete",
        ops=slides - done,
    )
    records = run.records
    report = run.report
    sent = sum(r.sent for r in records)
    errored = sum(r.errored for r in records)
    answered = report.scored + report.shed + report.expired + errored
    out.check(
        answered == sent and report.requests_total + errored == sent,
        f"accounting: scored+shed+expired+errored={answered} != sent={sent}",
        ops=abs(sent - answered),
    )
    out.check(
        run.labels_hash == reference,
        f"served labels_hash {run.labels_hash[:12]} != batch replay "
        f"{reference[:12]}",
        ops=slides,
    )


def serve_reference(stream, slides: int, start_day: int = 0) -> str:
    return batch_labels_hash(
        stream, start_day, SERVE_WINDOW_DAYS, slides,
        max_iterations=MAX_ITERATIONS, max_hops=MAX_HOPS,
    )


async def _serve(seed: int, seconds: float) -> Outcome:
    """Three set-ups, each followed by a stretch of bursty traffic.

    Spreading the nominal phase over the set-ups samples the host at more
    moments of the run.  Each set-up starts its window ``days`` later than
    the one before, so the run serves distinct days.  The capacity ladder
    runs on the last service.
    """
    out = Outcome()
    max_days = (SERVE_STREAM_DAYS - SERVE_WINDOW_DAYS - 1) // SETUP_REPEATS
    days = min(max_days, max(1, round(seconds * SERVE_NOMINAL_SHARE
                                      / SETUP_REPEATS / SERVE_DAY_SECONDS) - 1))
    setups: List[float] = []
    nominal: List[openloop.ReplayRecord] = []
    logs: List[SlideLog] = []
    finished = []
    for i in range(SETUP_REPEATS):
        fresh_heap()
        started = time.perf_counter()
        service = await _serve_setup(seed, start_day=i * days)
        setups.append(time.perf_counter() - started)
        log = SlideLog(service.detector)
        try:
            rec = await openloop.replay(
                service, serve_schedule(service.stream, seed, days, i * days)
            )
            records = [rec]
            if i == 0:
                rss = peak_rss_mb()
            if i == SETUP_REPEATS - 1:
                ladder = await openloop.capacity_ladder(
                    service,
                    service.stream,
                    seed=seed,
                    rungs=max(3, round(seconds * (1 - SERVE_NOMINAL_SHARE)
                                       / LADDER_RUNG_SECONDS)),
                    rung_seconds=LADDER_RUNG_SECONDS,
                    start_rate=LADDER_START_RATE,
                    p99_limit=service.deadline_seconds,
                )
                records += [rung.record for rung in ladder.rungs]
        finally:
            await service.stop()
            log.detach()
        nominal.append(rec)
        logs.append(log)
        finished.append(ServedRun.of(service, log, records))
        stream = service.stream
        service = None

    # Ladder rungs above the knee shed by design; only the bursty traffic
    # counts as attempted operations.
    out.attempted = sum(r.sent for r in nominal) + days * SETUP_REPEATS
    out.failed = sum(r.failed for r in nominal)
    for i, run in enumerate(finished):
        check_serving(out, run, days, serve_reference(stream, days, i * days))

    latency = [x for r in nominal for x in r.latency]
    # The tail of a typical day: robust to one day's host hiccup.
    daily_p99 = [x for r in nominal
                 for x in r.percentile_per_period(99, SERVE_DAY_SECONDS)]
    freshness = [x for r in nominal for x in r.freshness(first_version=1)]
    modeled = [x for log in logs for x in log.modeled]
    out.metrics = {
        "setup_s": p50(setups),
        "peak_rss_mb": rss,
        "latency_p50_ms": 1e3 * p50(latency),
        "latency_p99_ms": 1e3 * p50(daily_p99),
        "freshness_p50_s": p50(freshness),
        "throughput_per_s": ladder.loop_throughput(),
        "lp_modeled_ms": 1e3 * statistics.fmean(modeled),
    }
    out.notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p50_ms": f"score_p50_ms from intended arrival, n={len(latency)}",
        "latency_p99_ms": "score_p99_ms from intended arrival: median of "
        f"{len(daily_p99)} daily p99s, n={len(latency)}",
        "freshness_p50_s": f"day end -> new window version served, n={len(freshness)}",
        "throughput_per_s": "requests per loop CPU second at "
        f"{LADDER_START_RATE:.0f} req/s; capacity_rps={ladder.capacity:.0f}: "
        + " ".join(r.describe() for r in ladder.rungs),
        "lp_modeled_ms": f"mean modeled GLP ms per slide, n={len(modeled)}",
        "failed": "nominal shed={} expired={} errors={} of {}".format(
            sum(r.shed for r in nominal), sum(r.expired for r in nominal),
            sum(r.errored for r in nominal), sum(r.sent for r in nominal),
        ),
    }
    return out


async def _serve_traced(seed: int, seconds: float) -> Outcome:
    """One traced set-up, then untraced and traced stretches of traffic."""
    out = Outcome()
    session = TraceSession(SERVE)
    max_slides = SERVE_STREAM_DAYS - SERVE_WINDOW_DAYS - 1
    days = min(max(2, round(seconds * SERVE_NOMINAL_SHARE / 2
                            / SERVE_DAY_SECONDS) - 1), max_slides // 2)
    with session:
        service = await _serve_setup(seed)
    log = SlideLog(service.detector)
    untraced, traced = split_schedule(
        serve_schedule(service.stream, seed, 2 * days), days
    )
    try:
        first = await openloop.replay(service, untraced)
        with session:
            second = await openloop.replay(service, traced)
    finally:
        await service.stop()
        log.detach()
    out.attempted = first.sent + second.sent + 2 * days
    out.failed = first.failed + second.failed
    check_serving(out, ServedRun.of(service, log, [first, second]), 2 * days,
                  serve_reference(service.stream, 2 * days))
    layer, errors = session.layer_metrics(
        overhead(second.freshness(first_version=days + 1),
                 first.freshness(first_version=1))
    )
    layer.update(serving_layer_metrics(second))
    out.metrics = layer
    for error in errors:
        out.check(False, error)
    return out


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run((_serve_traced if trace else _serve)(seed, seconds))


# ----------------------------------------------------------------------
# slide_incremental
# ----------------------------------------------------------------------
SLIDE_STREAM_DAYS = 60
SLIDE_WINDOW_DAYS = 30
SLIDE_LIMIT = SLIDE_STREAM_DAYS - SLIDE_WINDOW_DAYS


def _slide_detector(stream, engine, incremental: bool) -> SlidingWindowDetector:
    return SlidingWindowDetector(
        stream,
        ClusterDetector(engine, max_iterations=MAX_ITERATIONS, max_hops=MAX_HOPS),
        incremental=incremental,
    )


def _slide_setup(seed: int) -> SlidingWindowDetector:
    stream = TransactionStream(
        TransactionStreamConfig(num_days=SLIDE_STREAM_DAYS, seed=seed)
    )
    detector = _slide_detector(
        stream, MultiGPUEngine(2, frontier="auto"), incremental=True
    )
    detector.start(0, SLIDE_WINDOW_DAYS)
    return detector


def check_slides(out: Outcome, stream, logs: List[SlideLog]) -> SlideLog:
    """Every slide incremental and equal to a GLP full replay; the replay."""
    slides = max(len(log.hashes) for log in logs)
    reference = _slide_detector(stream, GLPEngine(frontier="auto"), incremental=False)
    reference_log = SlideLog(reference, keep_hashes=True)
    reference.start(0, SLIDE_WINDOW_DAYS)
    for _ in range(slides):
        reference.slide()
    reference_log.detach()
    for log in logs:
        for i, (incremental, got, want) in enumerate(
            zip(log.incremental, log.hashes, reference_log.hashes)
        ):
            out.check(incremental, f"slide {i + 1} was not planned incremental")
            out.check(
                got == want,
                f"slide {i + 1} labels_hash {got[:12]} != GLP full replay "
                f"{want[:12]}",
            )
    return reference_log


def run_slide(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _slide_traced(seed, seconds)
    out = Outcome()
    setups: List[float] = []
    logs: List[SlideLog] = []
    for _ in range(SETUP_REPEATS):
        # Each set-up is followed by its share of the slides, so the
        # slides sample the host across the whole run.
        detector = None
        fresh_heap()
        started = time.perf_counter()
        detector = _slide_setup(seed)
        setups.append(time.perf_counter() - started)
        log = SlideLog(detector, keep_hashes=True)
        run_ops(detector.slide, seconds / SETUP_REPEATS, SLIDE_LIMIT)
        log.detach()
        logs.append(log)
        if len(logs) == 1:
            rss = peak_rss_mb()
    walls = [x for log in logs for x in log.walls]
    out.attempted = len(walls)
    reference_log = check_slides(out, detector.stream, logs)
    out.metrics = {
        "setup_s": p50(setups),
        "peak_rss_mb": rss,
        "latency_p50_ms": 1e3 * p50(walls),
        "latency_p99_ms": 1e3 * p99(walls),
        "freshness_p50_s": p50(walls),
        "throughput_per_s": len(walls) / sum(walls),
        "lp_modeled_ms": 1e3 * statistics.fmean(reference_log.modeled),
    }
    out.notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p50_ms": f"slide_p50 (ms), n={len(walls)}",
        "latency_p99_ms": f"slide p99 (ms), n={len(walls)}",
        "freshness_p50_s": f"slide_p50_s, n={len(walls)}",
        "throughput_per_s": "slides per second, closed loop; slide ms: "
        + " ".join(f"{1e3 * x:.0f}" for x in sorted(walls)),
        "lp_modeled_ms": "mean modeled ms per slide of the GLP full replay, "
        f"n={len(reference_log.modeled)}",
    }
    return out


def _slide_traced(seed: int, seconds: float) -> Outcome:
    """One traced set-up, then alternating untraced and traced slides."""
    out = Outcome()
    session = TraceSession(SLIDE)
    with session:
        detector = _slide_setup(seed)
    log = SlideLog(detector, keep_hashes=True)
    spent = 0.0
    while len(log.walls) < SLIDE_LIMIT and spent < seconds:
        if len(log.walls) % 2:
            with session:
                detector.slide()
        else:
            detector.slide()
        spent += log.walls[-1]
    out.attempted = len(log.walls)
    check_slides(out, detector.stream, [log])
    layer, errors = session.layer_metrics(
        overhead(log.walls[1::2], log.walls[0::2])
    )
    layer.update(serving_layer_metrics(None))
    out.metrics = layer
    for error in errors:
        out.check(False, error)
    return out


# ----------------------------------------------------------------------
# fig7_hybrid_cold
# ----------------------------------------------------------------------
FIG7_DAYS = 100
FIG7_ITERATIONS = 5
#: Detections per run, each after its own set-up.
FIG7_DETECTIONS = 2
#: Payload fields of ``BENCH_hybrid_window.json`` the seed-0 run must equal.
FIG7_GOLDEN_FIELDS = (
    "engine", "num_vertices", "num_edges", "iterations", "labels_hash",
    "total_seconds", "counters",
)


def _fig7_setup(seed: int):
    stream = TransactionStream(TransactionStreamConfig(num_days=FIG7_DAYS, seed=seed))
    window = window_mod.build_window_graph(stream, 0, FIG7_DAYS)
    seeds = SeedStore(stream.blacklist()).window_seeds(window)
    return window, seeds


def _fig7_detect(window, seeds):
    return hybrid.run_auto(
        window.graph,
        SeededFraudLP(seeds),
        spec=bench_datasets.FIG7_DEVICE,
        max_iterations=FIG7_ITERATIONS,
        stop_on_convergence=False,
    )


def check_fig7(out: Outcome, seed: int, window, seeds, runs) -> None:
    """GLP-Hybrid chosen; labels equal the serial reference (and BENCH at 0)."""
    reference = SerialEngine().run(
        window.graph, SeededFraudLP(seeds),
        max_iterations=FIG7_ITERATIONS, stop_on_convergence=False,
    ).labels_hash()
    golden = None
    if seed == 0:
        golden = json.loads((REPO_ROOT / "BENCH_hybrid_window.json").read_text())
    for i, (result, engine) in enumerate(runs):
        out.check(
            engine.name == "GLP-Hybrid",
            f"detection {i + 1} ran on {engine.name}, expected GLP-Hybrid",
        )
        got = result.labels_hash()
        out.check(
            got == reference,
            f"detection {i + 1} labels_hash {got[:12]} != serial reference "
            f"{reference[:12]}",
        )
        if golden is not None:
            payload = result_payload(
                "hybrid_window", result, window.graph, engine, algorithm="seeded"
            )
            diff = [k for k in FIG7_GOLDEN_FIELDS if payload[k] != golden[k]]
            out.check(
                not diff,
                f"detection {i + 1} differs from BENCH_hybrid_window.json in {diff}",
            )


def _timed_detect(window, seeds, runs: list) -> float:
    started = time.perf_counter()
    runs.append(_fig7_detect(window, seeds))
    return time.perf_counter() - started


def run_fig7(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _fig7_traced(seed)
    out = Outcome()
    setups: List[float] = []
    walls: List[float] = []
    runs: list = []
    for i in range(SETUP_REPEATS):
        window = seeds = None
        fresh_heap()
        started = time.perf_counter()
        window, seeds = _fig7_setup(seed)
        setups.append(time.perf_counter() - started)
        if i < FIG7_DETECTIONS:
            walls.append(_timed_detect(window, seeds, runs))
        if i == 0:
            rss = peak_rss_mb()
    out.attempted = len(runs)
    check_fig7(out, seed, window, seeds, runs)
    result = runs[0][0]
    edges = sum(s.processed_edges for s in result.iterations)
    out.metrics = {
        "setup_s": p50(setups),
        "peak_rss_mb": rss,
        "latency_p50_ms": 1e3 * p50(walls),
        "latency_p99_ms": 1e3 * p99(walls),
        "freshness_p50_s": p50(walls),
        "throughput_per_s": edges / p50(walls),
        "lp_modeled_ms": 1e3 * result.total_seconds,
    }
    out.notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p50_ms": f"detect_s (ms), n={len(walls)}",
        "latency_p99_ms": f"detect p99 (ms), n={len(walls)}",
        "freshness_p50_s": f"detect_s, n={len(walls)}",
        "throughput_per_s": "processed edges per wall second",
        "lp_modeled_ms": "modeled GLP-Hybrid ms",
    }
    return out


def _fig7_traced(seed: int) -> Outcome:
    """One traced set-up; a traced detection between two untraced ones.

    The first detection of a process runs cold, hence the sandwich.
    """
    out = Outcome()
    session = TraceSession(FIG7)
    with session:
        window, seeds = _fig7_setup(seed)
    runs: list = []
    walls = [_timed_detect(window, seeds, runs)]
    with session:
        walls.append(_timed_detect(window, seeds, runs))
    walls.append(_timed_detect(window, seeds, runs))
    out.attempted = len(runs)
    check_fig7(out, seed, window, seeds, runs)
    layer, errors = session.layer_metrics(overhead(walls[1:2], walls[0::2]))
    layer.update(serving_layer_metrics(None))
    out.metrics = layer
    for error in errors:
        out.check(False, error)
    return out


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    SERVE: run_serve,
    SLIDE: run_slide,
    FIG7: run_fig7,
}
