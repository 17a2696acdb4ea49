"""Vectorized simulator accounting equals its reference implementations.

The packed-key sorts in ``count_sector_transactions``, ``serialization_cost``
and ``aggregate_label_frequencies``, the sort-based ``match_any_sync`` and
the native ``popc`` are pure host-side speed-ups: every modeled counter
depends on them, so each must agree *exactly* with the straightforward
implementation kept here as its oracle (two-key lexsort, the ``(W, n, n)``
equality cube, and per-element Python popcount).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ClassicLP
from repro.gpusim import memory, warp
from repro.gpusim.atomics import serialization_cost
from repro.gpusim.memory import count_sector_transactions, pack_keys
from repro.kernels.mfl import EdgeBatch, aggregate_label_frequencies

_LANE_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


# ----------------------------------------------------------------------
# Reference oracles
# ----------------------------------------------------------------------
def lexsort_sector_transactions(byte_addresses, warp_ids, sector_bytes):
    if byte_addresses.size == 0:
        return 0
    sectors = byte_addresses // sector_bytes
    order = np.lexsort((sectors, warp_ids))
    s = sectors[order]
    w = warp_ids[order]
    return int(np.count_nonzero((s[1:] != s[:-1]) | (w[1:] != w[:-1])) + 1)


def lexsort_serialization_cost(addresses, warp_ids):
    addresses = np.asarray(addresses, dtype=np.int64)
    warp_ids = np.asarray(warp_ids, dtype=np.int64)
    total = int(addresses.size)
    if total == 0:
        return 0, 0
    order = np.lexsort((addresses, warp_ids))
    a = addresses[order]
    w = warp_ids[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], (a[1:] != a[:-1]) | (w[1:] != w[:-1])))
    )
    multiplicities = np.diff(np.concatenate((boundaries, [total])))
    group_warps = w[boundaries]
    warp_boundaries = np.flatnonzero(
        np.concatenate(([True], group_warps[1:] != group_warps[:-1]))
    )
    return total, int(np.maximum.reduceat(multiplicities, warp_boundaries).sum())


def cube_match_any(active, values):
    eq = values[:, :, None] == values[:, None, :]
    eq &= active[:, :, None]
    eq &= active[:, None, :]
    bits = _LANE_BITS[: active.shape[1]]
    masks = (eq * bits[None, None, :]).sum(axis=2, dtype=np.uint64)
    masks[~active] = 0
    return masks


def python_popc(masks):
    flat = [bin(int(m)).count("1") for m in masks.ravel()]
    return np.array(flat, dtype=np.int64).reshape(masks.shape)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Warp-id bases: contiguous ids from 0, and the large warp-step keys
#: (>= 2**40) some kernels build from (step, warp) pairs.
_WARP_BASES = st.sampled_from([0, 7, 2**40, 2**41 + 3, 2**50])


@st.composite
def lane_accesses(draw, max_size=96):
    """``(warp_ids, addresses)``: sorted or unsorted, narrow or wide."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    warp_size = draw(st.sampled_from([1, 4, 32]))
    base = draw(_WARP_BASES)
    if draw(st.booleans()):
        warp_ids = base + np.arange(n, dtype=np.int64) // warp_size
    else:
        spread = draw(st.integers(min_value=0, max_value=2**20))
        warp_ids = base + np.array(
            draw(st.lists(st.integers(0, spread), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    hi = draw(st.sampled_from([4, 300, 2**20, 2**40]))
    addresses = np.array(
        draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return warp_ids, addresses


@st.composite
def warp_grids(draw):
    """``(active, values)`` for 0-6 warps of 1-64 lanes, collision-heavy."""
    num_warps = draw(st.integers(min_value=0, max_value=6))
    warp_size = draw(st.integers(min_value=1, max_value=64))
    shape = (num_warps, warp_size)
    size = num_warps * warp_size
    active = np.array(
        draw(st.lists(st.booleans(), min_size=size, max_size=size)),
        dtype=bool,
    ).reshape(shape)
    hi = draw(st.sampled_from([2, 6, 2**62]))
    values = np.array(
        draw(st.lists(st.integers(-hi, hi), min_size=size, max_size=size)),
        dtype=np.int64,
    ).reshape(shape)
    return active, values


# ----------------------------------------------------------------------
# pack_keys
# ----------------------------------------------------------------------
class TestPackKeys:
    @given(lane_accesses())
    @settings(max_examples=80, deadline=None)
    def test_key_order_is_the_lexsort_order(self, access):
        warp_ids, values = access
        packed = pack_keys(warp_ids, values)
        assert packed is not None
        keys, span = packed
        assert keys.dtype == np.int64
        np.testing.assert_array_equal(
            np.argsort(keys, kind="stable"), np.lexsort((values, warp_ids))
        )
        if warp_ids.size:
            np.testing.assert_array_equal(
                keys // span, warp_ids - warp_ids.min()
            )

    def test_overflow_returns_none(self):
        warp_ids = np.array([0, 2**62], dtype=np.int64)
        assert pack_keys(warp_ids, np.array([0, 2**10])) is None

    def test_non_int64_inputs_return_none(self):
        big = np.array([2**63 + 5, 1], dtype=np.uint64)
        assert pack_keys(np.zeros(2, dtype=np.int64), big) is None
        assert pack_keys(np.zeros(2), np.zeros(2, dtype=np.int64)) is None

    def test_empty(self):
        keys, _ = pack_keys(np.empty(0, np.int64), np.empty(0, np.int64))
        assert keys.size == 0


# ----------------------------------------------------------------------
# Sector transactions and atomic serialization
# ----------------------------------------------------------------------
class TestSectorTransactions:
    @given(lane_accesses(), st.sampled_from([1, 32, 128]))
    @settings(max_examples=80, deadline=None)
    def test_matches_lexsort(self, access, sector_bytes):
        warp_ids, addresses = access
        byte_addresses = addresses * 8
        assert count_sector_transactions(
            byte_addresses, warp_ids, sector_bytes
        ) == lexsort_sector_transactions(byte_addresses, warp_ids, sector_bytes)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        addresses = np.arange(n, dtype=np.int64) * 8
        warp_ids = memory.default_warp_ids(n)
        assert count_sector_transactions(addresses, warp_ids, 32) == n


class TestSerializationCost:
    @given(lane_accesses())
    @settings(max_examples=80, deadline=None)
    def test_matches_lexsort(self, access):
        warp_ids, addresses = access
        assert serialization_cost(addresses, warp_ids) == (
            lexsort_serialization_cost(addresses, warp_ids)
        )

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        addresses = np.zeros(n, dtype=np.int64)
        assert serialization_cost(addresses, np.zeros(n, np.int64)) == (n, n)


class TestPackOverflowFallback:
    """Warps ``{0, 2**62}`` with addresses spanning 2**10 cannot be packed:
    both counters must take the lexsort path and still agree."""

    warp_ids = np.array([0, 0, 0, 2**62, 2**62, 2**62], dtype=np.int64)
    addresses = np.array([0, 0, 2**10, 5, 5, 5], dtype=np.int64)

    @pytest.fixture
    def lexsort_calls(self, monkeypatch):
        calls = []
        original = np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(len(keys))
            return original(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        return calls

    def test_sector_transactions(self, lexsort_calls):
        expected = lexsort_sector_transactions(
            self.addresses, self.warp_ids, 1
        )
        del lexsort_calls[:]
        assert pack_keys(self.warp_ids, self.addresses) is None
        assert count_sector_transactions(
            self.addresses, self.warp_ids, 1
        ) == expected == 3
        assert lexsort_calls == [2]

    def test_serialization_cost(self, lexsort_calls):
        expected = lexsort_serialization_cost(self.addresses, self.warp_ids)
        del lexsort_calls[:]
        assert serialization_cost(self.addresses, self.warp_ids) == (
            expected
        ) == (6, 5)
        assert lexsort_calls == [2]


# ----------------------------------------------------------------------
# match_any_sync and popc
# ----------------------------------------------------------------------
class TestMatchAny:
    @given(warp_grids())
    @settings(max_examples=80, deadline=None)
    def test_matches_equality_cube(self, grid):
        active, values = grid
        masks = warp.match_any_sync(active, values)
        assert masks.dtype == np.uint64
        np.testing.assert_array_equal(masks, cube_match_any(active, values))

    def test_inactive_lane_sharing_an_active_value(self):
        active = np.array([[True, False, True, False]])
        values = np.array([[7, 7, 3, 3]], dtype=np.int64)
        masks = warp.match_any_sync(active, values)
        np.testing.assert_array_equal(masks, [[0b0001, 0, 0b0100, 0]])
        np.testing.assert_array_equal(masks, cube_match_any(active, values))


class TestPopc:
    masks = st.lists(
        st.integers(min_value=0, max_value=2**64 - 1), max_size=40
    ).map(lambda xs: np.array(xs, dtype=np.uint64))

    @given(masks)
    @settings(max_examples=80, deadline=None)
    def test_matches_python_popcount(self, masks):
        counts = warp.popc(masks)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, python_popc(masks))

    @given(masks)
    @settings(max_examples=80, deadline=None)
    def test_bit_loop_fallback(self, masks):
        counts = warp._popc_loop(masks)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, python_popc(masks))

    def test_popc_dispatches_to_loop_without_bitwise_count(self, monkeypatch):
        """numpy < 2.0 has no ``bitwise_count``: popc must use the loop."""
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        calls = []
        original = warp._popc_loop

        def spy(masks):
            calls.append(masks.shape)
            return original(masks)

        monkeypatch.setattr(warp, "_popc_loop", spy)
        masks = np.array([[0, 1, 2**64 - 1], [5, 2**31, 6]], dtype=np.uint64)
        np.testing.assert_array_equal(warp.popc(masks), python_popc(masks))
        assert calls == [(2, 3)]


# ----------------------------------------------------------------------
# Label aggregation order
# ----------------------------------------------------------------------
@st.composite
def edge_batches(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    num_vertices = draw(st.integers(min_value=1, max_value=30))
    ints = st.integers(0, num_vertices - 1)
    vertex_ids = np.array(
        draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64
    )
    if draw(st.booleans()):
        vertex_ids = np.sort(vertex_ids)
    neighbor_ids = np.array(
        draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64
    )
    # Labels up to 2**62 make (vertex, label) unpackable: the lexsort
    # fallback must give the same permutation as the packed argsort.
    hi = draw(st.sampled_from([3, 2**62]))
    labels = np.array(
        draw(
            st.lists(
                st.integers(0, hi), min_size=num_vertices,
                max_size=num_vertices,
            )
        ),
        dtype=np.int64,
    )
    batch = EdgeBatch(
        vertices=np.unique(vertex_ids),
        vertex_ids=vertex_ids,
        neighbor_ids=neighbor_ids,
        edge_positions=np.arange(n, dtype=np.int64),
        edge_weights=np.ones(n),
    )
    return batch, labels


class TestAggregationOrder:
    @given(edge_batches())
    @settings(max_examples=80, deadline=None)
    def test_edge_order_is_the_lexsort_permutation(self, case):
        batch, labels = case
        groups = aggregate_label_frequencies(ClassicLP(), batch, labels)
        expected = np.lexsort((labels[batch.neighbor_ids], batch.vertex_ids))
        np.testing.assert_array_equal(groups.edge_order, expected)
        assert int(groups.frequencies.sum()) == batch.num_edges
