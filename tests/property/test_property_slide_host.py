"""The O(changes) window-slide host path equals its reference implementations.

A window slide's host work was rewritten to avoid sorts and O(E) passes
the diff does not need: the packed-key sorts in ``GraphBuilder.build`` and
``CSRGraph.reversed``, the candidate-side label-boundary test in
``affected_vertices``, the sorted merge in ``IncrementalWindowBuilder``,
the array-native ``warm_start_seeds`` and the bitmap pinned-seed set.
Every label and modeled counter depends on these, so each must agree
*exactly* with the straightforward code it replaced, kept here as its
oracle.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SeededFraudLP
from repro.core import driver
from repro.errors import ProgramError
from repro.graph import builder as builder_mod
from repro.graph import csr as csr_mod
from repro.graph.builder import GraphBuilder, from_edge_arrays
from repro.graph.csr import CSRGraph
from repro.kernels import mfl
from repro.pipeline.dynlp import (
    PRODUCT_BITS,
    PRODUCT_MASK,
    affected_vertices,
    compute_window_diff,
    diff_endpoint_vertices,
    map_previous_vertices,
)
from repro.pipeline.incremental import (
    IncrementalWindowBuilder,
    warm_start_seeds,
)
from repro.pipeline.transactions import (
    TRANSACTION_DTYPE,
    TransactionStream,
    TransactionStreamConfig,
)
from repro.pipeline.window import WindowGraph
from repro.types import NO_LABEL, VERTEX_DTYPE, WEIGHT_DTYPE


# ----------------------------------------------------------------------
# Reference oracles (the replaced implementations)
# ----------------------------------------------------------------------
def lexsort_build(
    dst, src, weights, n, *, symmetrize, dedup, drop_self_loops, sort_neighbors
):
    """``GraphBuilder.build`` with the two-key lexsort / stable argsort."""
    if symmetrize and dst.size:
        dst, src = np.concatenate([dst, src]), np.concatenate([src, dst])
        if weights is not None:
            weights = np.concatenate([weights, weights])
    if drop_self_loops and dst.size:
        keep = dst != src
        dst, src = dst[keep], src[keep]
        if weights is not None:
            weights = weights[keep]
    if dst.size:
        order = (
            np.lexsort((src, dst))
            if sort_neighbors
            else np.argsort(dst, kind="stable")
        )
        dst, src = dst[order], src[order]
        if weights is not None:
            weights = weights[order]
        if dedup:
            new_edge = np.empty(dst.size, dtype=bool)
            new_edge[0] = True
            np.logical_or(
                dst[1:] != dst[:-1], src[1:] != src[:-1], out=new_edge[1:]
            )
            if weights is not None:
                group = np.cumsum(new_edge) - 1
                weights = np.bincount(
                    group, weights=weights, minlength=int(group[-1]) + 1
                ).astype(WEIGHT_DTYPE)
            dst, src = dst[new_edge], src[new_edge]
    counts = np.bincount(dst, minlength=n) if n else np.empty(0, np.int64)
    offsets = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    if n:
        np.cumsum(counts, out=offsets[1:])
    return offsets, src, weights


def argsort_reversed(graph):
    """``CSRGraph.reversed`` with the stable argsort transpose."""
    sources = graph.edge_sources()
    order = np.argsort(graph.indices, kind="stable")
    counts = np.bincount(graph.indices, minlength=graph.num_vertices)
    offsets = np.zeros(graph.num_vertices + 1, dtype=VERTEX_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    weights = None if graph.weights is None else graph.weights[order]
    return offsets, sources[order], weights


def reversed_expansion_affected(
    diff, previous, current, residual_frontier, labeled_vertices
):
    """``affected_vertices`` expanding the labeled set on the reversed CSR."""
    labeled_vertices = np.unique(np.asarray(labeled_vertices, dtype=np.int64))
    candidates = np.union1d(
        map_previous_vertices(residual_frontier, previous, current),
        diff_endpoint_vertices(diff, current),
    )
    if labeled_vertices.size and candidates.size:
        batch = mfl.expand_edges(current.graph.reversed(), labeled_vertices)
        boundary = np.unique(batch.neighbor_ids.astype(np.int64, copy=False))
        frontier = np.intersect1d(candidates, boundary, assume_unique=True)
        frontier = frontier[
            ~np.isin(frontier, labeled_vertices, assume_unique=True)
        ]
    else:
        frontier = np.empty(0, dtype=np.int64)
    return candidates, frontier


def unique_apply(keys, counts, day_keys, sign):
    """``IncrementalWindowBuilder._apply`` via ``np.unique`` + bincount."""
    if day_keys.size == 0:
        return keys, counts
    day_keys, day_counts = np.unique(day_keys, return_counts=True)
    merged_keys = np.concatenate([keys, day_keys])
    merged_counts = np.concatenate([counts, sign * day_counts])
    keys, inverse = np.unique(merged_keys, return_inverse=True)
    counts = np.bincount(inverse, weights=merged_counts, minlength=keys.size)
    keep = counts > 0.0
    return keys[keep], counts[keep]


def unique_window(keys, counts, start_day, num_days):
    """``IncrementalWindowBuilder.build`` with ``np.unique`` on both sides."""
    users = keys >> PRODUCT_BITS
    products = keys & PRODUCT_MASK
    window_users, user_index = np.unique(users, return_inverse=True)
    window_products, product_index = np.unique(products, return_inverse=True)
    num_users = window_users.size
    graph = from_edge_arrays(
        user_index.astype(VERTEX_DTYPE),
        (product_index + num_users).astype(VERTEX_DTYPE),
        num_users + window_products.size,
        weights=counts.copy(),
        symmetrize=True,
    )
    return WindowGraph(
        graph=graph,
        users=window_users,
        products=window_products,
        start_day=start_day,
        num_days=num_days,
    )


def loop_warm_start_seeds(
    previous, previous_labels, current, base_seeds, max_carryover,
    carry_products,
):
    """``warm_start_seeds`` with its per-vertex Python loops."""
    labeled = np.flatnonzero(previous_labels != NO_LABEL)
    users = previous.user_of_window_vertex(labeled)
    keep = users >= 0
    users = users[keep]
    labels = previous_labels[labeled[keep]]
    if max_carryover is not None:
        users = users[:max_carryover]
        labels = labels[:max_carryover]
    current_vertices = current.window_vertex_of_user(users)
    present = current_vertices >= 0
    merged = {
        int(v): int(l)
        for v, l in zip(current_vertices[present], labels[present])
    }
    if carry_products and current.products.size > 0:
        prev_products = labeled[labeled >= previous.num_users]
        product_ids = previous.products[prev_products - previous.num_users]
        positions = np.searchsorted(current.products, product_ids)
        positions = np.clip(positions, 0, current.products.size - 1)
        found = current.products[positions] == product_ids
        product_labels = previous_labels[prev_products]
        for position, label in zip(positions[found], product_labels[found]):
            merged[int(position) + current.num_users] = int(label)
    merged.update(base_seeds)
    return merged


# ----------------------------------------------------------------------
# Strategies and helpers
# ----------------------------------------------------------------------
#: Weights that stress exact summation: signed zero, tiny and huge values.
_WEIGHTS = st.sampled_from(
    [1.0, 0.5, -0.0, 0.0, 3.0, 1e-300, 1e16, -2.25, 0.1, 7.0]
)


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=80):
    """``(n, src, dst, weights|None)`` with duplicates and self-loops."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    ids = st.integers(min_value=0, max_value=n - 1)
    src = np.array(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.array(
            draw(st.lists(_WEIGHTS, min_size=m, max_size=m)), dtype=np.float64
        )
    return n, src, dst, weights


def assert_same_arrays(got, want):
    """Equal dtype, shape and bytes (so -0.0 and 0.0 differ)."""
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def pair_table(rng, num_users, num_products, size):
    """A sorted unique packed-pair table with positive counts."""
    users = rng.integers(0, num_users, size)
    products = rng.integers(0, num_products, size)
    keys = np.unique((users << PRODUCT_BITS) | products)
    counts = rng.integers(1, 4, keys.size).astype(np.float64)
    return keys, counts


# ----------------------------------------------------------------------
# GraphBuilder.build and CSRGraph.reversed
# ----------------------------------------------------------------------
_BUILD_FLAGS = st.fixed_dictionaries(
    {
        "symmetrize": st.booleans(),
        "dedup": st.booleans(),
        "drop_self_loops": st.booleans(),
        "sort_neighbors": st.booleans(),
    }
)


def _build(n, src, dst, weights, flags):
    builder = GraphBuilder(num_vertices=n)
    builder.add_edges(src, dst, weights=weights)
    return builder.build(**flags)


class TestGraphBuilderBuild:
    @given(case=edge_lists(), flags=_BUILD_FLAGS)
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_build(self, case, flags):
        n, src, dst, weights = case
        graph = _build(n, src, dst, weights, flags)
        offsets, indices, want_weights = lexsort_build(
            dst, src, weights, n, **flags
        )
        assert_same_arrays(graph.offsets, offsets)
        assert_same_arrays(graph.indices, indices)
        assert_same_arrays(graph.weights, want_weights)

    @given(case=edge_lists(), flags=_BUILD_FLAGS)
    @settings(max_examples=40, deadline=None)
    def test_key_overflow_takes_the_general_path(self, case, flags):
        # Only the sorted-neighbor build packs a key.
        flags = dict(flags, sort_neighbors=True)
        n, src, dst, weights = case
        calls = []
        real_lexsort = np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(1)
            return real_lexsort(keys, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            # No packed key fits: every sort must take the old path.
            mp.setattr(builder_mod, "INT64_MAX", 0)
            mp.setattr(np, "lexsort", spy)
            graph = _build(n, src, dst, weights, flags)
        if dst.size and (not flags["drop_self_loops"] or np.any(src != dst)):
            assert calls
        offsets, indices, want_weights = lexsort_build(
            dst, src, weights, n, **flags
        )
        assert_same_arrays(graph.offsets, offsets)
        assert_same_arrays(graph.indices, indices)
        assert_same_arrays(graph.weights, want_weights)

    @given(case=edge_lists(), flags=_BUILD_FLAGS)
    @settings(max_examples=40, deadline=None)
    def test_numpy_integer_vertex_count(self, case, flags):
        n, src, dst, weights = case
        graph = _build(np.int64(n), src, dst, weights, flags)
        offsets, indices, want_weights = lexsort_build(
            dst, src, weights, n, **flags
        )
        assert_same_arrays(graph.offsets, offsets)
        assert_same_arrays(graph.indices, indices)
        assert_same_arrays(graph.weights, want_weights)

    def test_numpy_integer_vertex_count_cannot_wrap_the_overflow_test(self):
        # n^2 * m = 1.5 * 2^63: in int64 arithmetic the product wraps
        # negative and would pass the overflow test with keys that do not
        # fit.
        n, m = np.int64(1 << 22), 3 << 18
        rng = np.random.default_rng(7)
        src = rng.integers(0, n, m)
        dst = rng.integers(n - 64, n, m)
        graph = _build(n, src, dst, None, {"sort_neighbors": True})
        offsets, indices, _ = lexsort_build(
            dst, src, None, int(n), symmetrize=False, dedup=True,
            drop_self_loops=True, sort_neighbors=True,
        )
        assert_same_arrays(graph.offsets, offsets)
        assert_same_arrays(graph.indices, indices)

    def test_duplicate_weights_sum_in_insertion_order(self):
        # 1e16 + 1.0 + 1.0 depends on the summation order in float64.
        src = np.array([1, 1, 1], dtype=np.int64)
        dst = np.array([0, 0, 0], dtype=np.int64)
        weights = np.array([1e16, 1.0, 1.0])
        graph = from_edge_arrays(src, dst, 2, weights=weights)
        assert graph.weights.tolist() == [(1e16 + 1.0) + 1.0]


class TestCSRReversed:
    @given(case=edge_lists(), flags=_BUILD_FLAGS)
    @settings(max_examples=100, deadline=None)
    def test_matches_argsort_transpose(self, case, flags):
        n, src, dst, weights = case
        graph = _build(n, src, dst, weights, flags)
        offsets, indices, want_weights = argsort_reversed(graph)
        rev = graph.reversed()
        assert_same_arrays(rev.offsets, offsets)
        assert_same_arrays(rev.indices, indices)
        assert_same_arrays(rev.weights, want_weights)

    @given(case=edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_unsorted_lists_and_overflow_fallback(self, case):
        # Hand-made CSR with unsorted, duplicated neighbor lists.
        n, src, dst, weights = case
        order = np.argsort(dst, kind="stable")
        counts = np.bincount(dst, minlength=n)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        graph = CSRGraph(
            offsets=offsets,
            indices=src[order],
            weights=None if weights is None else weights[order],
        )
        want = argsort_reversed(graph)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csr_mod, "INT64_MAX", 0)
            fallback = CSRGraph(
                offsets=graph.offsets, indices=graph.indices,
                weights=graph.weights,
            ).reversed()
        for rev in (graph.reversed(), fallback):
            assert_same_arrays(rev.offsets, want[0])
            assert_same_arrays(rev.indices, want[1])
            assert_same_arrays(rev.weights, want[2])


# ----------------------------------------------------------------------
# affected_vertices
# ----------------------------------------------------------------------
@st.composite
def slide_cases(draw):
    """A random (previous, diff, current) slide plus residual and labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_users = draw(st.integers(1, 40))
    num_products = draw(st.integers(1, 30))
    before = pair_table(rng, num_users, num_products, draw(st.integers(1, 90)))
    after = pair_table(rng, num_users, num_products, draw(st.integers(1, 90)))
    previous = unique_window(*before, 0, 2)
    current = unique_window(*after, 1, 2)
    diff = compute_window_diff(*before, *after)
    n_prev = previous.graph.num_vertices
    n_cur = current.graph.num_vertices
    residual = rng.integers(0, n_prev, draw(st.integers(0, n_prev)))
    mode = draw(st.sampled_from(["empty", "all", "all-but-few", "random"]))
    if mode == "empty":
        labeled = np.empty(0, dtype=np.int64)
    elif mode == "all":
        labeled = np.arange(n_cur, dtype=np.int64)
    elif mode == "all-but-few":
        labeled = np.flatnonzero(rng.random(n_cur) < 0.95)
    else:
        # Unsorted, with duplicates, like an arbitrary caller's array.
        labeled = rng.integers(0, n_cur, draw(st.integers(0, 2 * n_cur)))
    return diff, previous, current, residual, labeled


class TestAffectedVertices:
    @given(case=slide_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reversed_expansion(self, case):
        diff, previous, current, residual, labeled = case
        want_candidates, want_frontier = reversed_expansion_affected(
            diff, previous, current, residual, labeled
        )
        got = affected_vertices(
            diff,
            previous,
            current,
            residual_frontier=residual,
            labeled_vertices=labeled,
        )
        assert_same_arrays(got.candidates, want_candidates)
        assert_same_arrays(got.frontier, want_frontier)


# ----------------------------------------------------------------------
# IncrementalWindowBuilder: _apply merge and build
# ----------------------------------------------------------------------
def fake_stream(day_tables, num_users, num_products):
    """A stream stand-in serving fixed per-day transaction tables."""

    def window_transactions(day, num_days):
        assert num_days == 1
        return day_tables[day]

    config = types.SimpleNamespace(
        num_users=num_users,
        num_products=num_products,
        num_days=len(day_tables),
    )
    return types.SimpleNamespace(
        config=config, window_transactions=window_transactions
    )


@st.composite
def window_histories(draw):
    """Per-day transaction tables and a valid add/retire day sequence."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_days = draw(st.integers(1, 8))
    num_users = draw(st.integers(1, 30))
    num_products = draw(st.integers(1, 20))
    tables = []
    for _ in range(num_days):
        # Empty days too; few ids, so pairs repeat within and across days.
        size = int(rng.integers(0, 40)) if draw(st.booleans()) else 0
        table = np.zeros(size, dtype=TRANSACTION_DTYPE)
        table["user"] = rng.integers(0, num_users, size)
        table["product"] = rng.integers(0, num_products, size)
        tables.append(table)
    ops = []
    inside = set()
    for choice in draw(st.lists(st.integers(0, 2**16), max_size=24)):
        outside = [d for d in range(num_days) if d not in inside]
        if inside and (not outside or choice % 2):
            day = sorted(inside)[choice % len(inside)]
            ops.append((day, -1.0))
            inside.remove(day)
        else:
            day = outside[choice % len(outside)]
            ops.append((day, +1.0))
            inside.add(day)
    return tables, num_users, num_products, ops


def _day_keys(table):
    return (table["user"].astype(np.int64) << PRODUCT_BITS) | table[
        "product"
    ].astype(np.int64)


class TestWindowBuilderMerge:
    @given(history=window_histories())
    @settings(max_examples=150, deadline=None)
    def test_apply_and_build_match_unique(self, history):
        tables, num_users, num_products, ops = history
        builder = IncrementalWindowBuilder(
            fake_stream(tables, num_users, num_products)
        )
        keys = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.float64)
        for day, sign in ops:
            if sign > 0:
                builder.add_day(day)
            else:
                builder.retire_day(day)
            keys, counts = unique_apply(
                keys, counts, _day_keys(tables[day]), sign
            )
            assert_same_arrays(builder._pair_keys, keys)
            assert_same_arrays(builder._pair_counts, counts)
            if not builder.days:
                continue
            got = builder.build()
            want = unique_window(
                keys, counts, got.start_day, got.num_days
            )
            assert_same_arrays(got.users, want.users)
            assert_same_arrays(got.products, want.products)
            assert_same_arrays(got.graph.offsets, want.graph.offsets)
            assert_same_arrays(got.graph.indices, want.graph.indices)
            assert_same_arrays(got.graph.weights, want.graph.weights)

    def test_window_transactions_match_day_mask(self):
        stream = TransactionStream(
            TransactionStreamConfig(
                num_users=300,
                num_products=100,
                num_days=9,
                transactions_per_day=50,
                num_rings=2,
                ring_size=5,
                seed=4,
            )
        )
        days = stream.transactions["day"]
        for start in range(-2, 11):
            for length in (1, 2, 5, 12):
                mask = (days >= start) & (days < start + length)
                got = stream.window_transactions(start, length)
                assert got.tobytes() == stream.transactions[mask].tobytes()
                assert not got.flags.writeable


# ----------------------------------------------------------------------
# warm_start_seeds
# ----------------------------------------------------------------------
@st.composite
def warm_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_users = draw(st.integers(1, 40))
    num_products = draw(st.integers(1, 30))
    before = pair_table(rng, num_users, num_products, draw(st.integers(1, 80)))
    after = pair_table(rng, num_users, num_products, draw(st.integers(1, 80)))
    previous = unique_window(*before, 0, 2)
    current = unique_window(*after, 1, 2)
    n_prev = previous.graph.num_vertices
    labels = rng.integers(0, 6, n_prev).astype(np.int64)
    labels[rng.random(n_prev) < draw(st.floats(0.0, 1.0))] = NO_LABEL
    n_cur = current.graph.num_vertices
    base = {
        int(v): int(rng.integers(0, 6))
        for v in rng.integers(0, n_cur, draw(st.integers(0, 5)))
    }
    max_carryover = draw(st.one_of(st.none(), st.integers(0, n_prev)))
    return previous, labels, current, base, max_carryover, draw(st.booleans())


class TestWarmStartSeeds:
    @given(case=warm_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_including_insertion_order(self, case):
        previous, labels, current, base, max_carryover, carry_products = case
        want = loop_warm_start_seeds(
            previous, labels, current, base, max_carryover, carry_products
        )
        got = warm_start_seeds(
            previous,
            labels,
            current,
            base,
            max_carryover=max_carryover,
            carry_products=carry_products,
        )
        assert list(got.items()) == list(want.items())
        assert all(type(k) is int and type(v) is int for k, v in got.items())


# ----------------------------------------------------------------------
# pinned_vertices / resolve_pinned
# ----------------------------------------------------------------------
class TestPinnedSets:
    @given(
        n=st.integers(1, 60),
        seeds=st.lists(
            st.tuples(st.integers(0, 59), st.integers(0, 5)), min_size=1
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_seeded_pinned_vertices_equal_unique(self, n, seeds):
        seeds = {v % n: label for v, label in seeds}
        graph = from_edge_arrays(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), n
        )
        program = SeededFraudLP(seeds)
        program.init_labels(graph)
        want = np.unique(np.fromiter(seeds, dtype=np.int64))
        assert_same_arrays(program.pinned_vertices(graph), want)
        assert_same_arrays(driver.resolve_pinned(program, graph), want)

    @given(
        values=st.lists(st.integers(0, 50), max_size=40),
        as_list=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_resolve_pinned_equals_unique(self, values, as_list):
        pinned = values if as_list else np.array(values, dtype=np.int32)
        program = types.SimpleNamespace(pinned_vertices=lambda graph: pinned)
        graph = types.SimpleNamespace(num_vertices=51)
        want = np.unique(np.asarray(values, dtype=np.int64))
        assert_same_arrays(driver.resolve_pinned(program, graph), want)

    @pytest.mark.parametrize("bad", [-1, 51])
    def test_resolve_pinned_rejects_out_of_range_ids(self, bad):
        program = types.SimpleNamespace(
            pinned_vertices=lambda graph: np.array([3, bad])
        )
        graph = types.SimpleNamespace(num_vertices=51)
        with pytest.raises(ProgramError):
            driver.resolve_pinned(program, graph)

    def test_resolve_pinned_none(self):
        program = types.SimpleNamespace(pinned_vertices=lambda graph: None)
        assert driver.resolve_pinned(program, None) is None
