"""Incremental window slides equal the warm full recompute, bit for bit.

DynLP's argument (``repro.pipeline.dynlp``) is that re-converging from the
slide's affected set reproduces the dense warm-started detection exactly.
This property checks it over generated stream geometries — user universe,
stream length, window length (1 day up to ``days - 1``) and slide count —
on the single-device and the two-device frontier engines.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GLPEngine
from repro.core.multigpu import MultiGPUEngine
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.incremental import SlidingWindowDetector
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)

ENGINES = {
    "glp": lambda: GLPEngine(frontier="auto"),
    "multigpu": lambda: MultiGPUEngine(2, frontier="auto"),
}


@st.composite
def geometries(draw):
    days = draw(st.integers(min_value=2, max_value=9))
    window = draw(st.integers(min_value=1, max_value=days - 1))
    slides = draw(st.integers(min_value=1, max_value=days - window))
    return {
        "users": draw(st.integers(min_value=80, max_value=700)),
        "days": days,
        "window": window,
        "slides": slides,
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _detector(stream, engine, incremental):
    return SlidingWindowDetector(
        stream,
        ClusterDetector(ENGINES[engine](), max_hops=6),
        incremental=incremental,
        # Never cut over: every slide must take the incremental path.
        cutover_ratio=1.0,
    )


@given(geometry=geometries(), engine=st.sampled_from(sorted(ENGINES)))
@example(
    geometry={"users": 300, "days": 6, "window": 1, "slides": 3, "seed": 5},
    engine="glp",
)
@example(
    geometry={"users": 300, "days": 6, "window": 5, "slides": 1, "seed": 6},
    engine="multigpu",
)
@settings(max_examples=60, deadline=None)
def test_incremental_slides_equal_warm_full_recompute(geometry, engine):
    stream = TransactionStream(
        TransactionStreamConfig(
            num_users=geometry["users"],
            num_products=max(20, geometry["users"] // 2),
            num_days=geometry["days"],
            transactions_per_day=3 * geometry["users"] // 4,
            num_rings=2,
            ring_size=8,
            ring_transactions_per_day=20,
            seed=geometry["seed"],
        )
    )
    incremental = _detector(stream, engine, incremental=True)
    full = _detector(stream, engine, incremental=False)
    incremental.start(0, geometry["window"])
    full.start(0, geometry["window"])
    for _ in range(geometry["slides"]):
        _, inc_detection = incremental.slide()
        _, full_detection = full.slide()
        assert incremental.last_plan.incremental
        assert (
            inc_detection.lp_result.labels_hash()
            == full_detection.lp_result.labels_hash()
        )
