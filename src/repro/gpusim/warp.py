"""Bit-exact warp intrinsics.

These reproduce the CUDA warp-level primitives the paper's Section 4.2
kernel is built from — ``__ballot_sync``, ``__match_any_sync``, ``__popc``
and the shuffle family — vectorized over *batches of warps*: every function
takes arrays shaped ``(num_warps, warp_size)`` and returns per-warp or
per-lane results, so a kernel can evaluate thousands of simulated warps with
one call.

Masks are returned as ``uint64`` holding a ``warp_size``-bit value in the
low bits (warp_size is 32 in practice, matching CUDA's 32-bit masks).
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.gpusim import hooks

#: Powers of two for mask assembly, index = lane id.
_LANE_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def _notify_sync(intrinsic: str, active: np.ndarray) -> None:
    """Report a ``*_sync`` execution to an attached sanitizer, if any.

    Synccheck semantics: naming lanes that never reach the intrinsic (a
    warp with an empty active mask) is undefined behaviour on hardware.
    """
    sanitizer = hooks.active()
    if sanitizer is not None:
        sanitizer.warp_sync(intrinsic, active)


def full_mask(warp_size: int = 32) -> int:
    """The all-lanes-active mask (``0xFFFFFFFF`` for warp_size 32)."""
    return (1 << warp_size) - 1


def _check_lane_shape(arr: np.ndarray) -> None:
    if arr.ndim != 2:
        raise KernelError(
            f"warp intrinsics expect (num_warps, warp_size) arrays, "
            f"got shape {arr.shape}"
        )
    if arr.shape[1] > 64:
        raise KernelError(f"warp_size {arr.shape[1]} exceeds 64")


def ballot_sync(active: np.ndarray, predicate: np.ndarray) -> np.ndarray:
    """``__ballot_sync``: per-warp mask of active lanes with a true predicate.

    Parameters
    ----------
    active:
        Boolean ``(W, warp_size)`` participation mask.
    predicate:
        Boolean ``(W, warp_size)`` per-lane predicate.

    Returns
    -------
    ``(W,)`` uint64 array; bit ``i`` of entry ``w`` is set iff lane ``i`` of
    warp ``w`` is active and its predicate is non-zero.
    """
    active = np.asarray(active, dtype=bool)
    predicate = np.asarray(predicate, dtype=bool)
    _check_lane_shape(active)
    if predicate.shape != active.shape:
        raise KernelError("predicate shape must match active shape")
    _notify_sync("ballot_sync", active)
    warp_size = active.shape[1]
    bits = _LANE_BITS[:warp_size]
    return ((active & predicate) * bits).sum(axis=1, dtype=np.uint64)


def match_any_sync(active: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``__match_any_sync``: per-lane mask of active lanes holding equal values.

    For every active lane the result contains the mask of all active lanes in
    its warp whose ``values`` entry compares equal.  Inactive lanes get 0.

    Returns a ``(W, warp_size)`` uint64 array.
    """
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    if values.shape != active.shape:
        raise KernelError("values shape must match active shape")
    _notify_sync("match_any_sync", active)
    num_warps, warp_size = active.shape
    if num_warps == 0 or warp_size == 0:
        return np.zeros(active.shape, dtype=np.uint64)
    # Group equal values by a per-warp sort, OR the bits of each
    # group's *active* lanes, and hand every lane its group's mask.
    # Inactive lanes contribute no bit, even when they hold the same value
    # as an active lane.
    order = np.argsort(values, axis=1)
    sorted_values = np.take_along_axis(values, order, axis=1)
    sorted_bits = np.where(
        np.take_along_axis(active, order, axis=1),
        _LANE_BITS[order],
        np.uint64(0),
    )
    new_group = np.ones(active.shape, dtype=bool)
    new_group[:, 1:] = sorted_values[:, 1:] != sorted_values[:, :-1]
    new_group = new_group.ravel()
    group_masks = np.bitwise_or.reduceat(
        sorted_bits.ravel(), np.flatnonzero(new_group)
    )
    lane_masks = group_masks[np.cumsum(new_group) - 1].reshape(active.shape)
    masks = np.empty(active.shape, dtype=np.uint64)
    np.put_along_axis(masks, order, lane_masks, axis=1)
    masks[~active] = 0
    return masks


def popc(masks: np.ndarray) -> np.ndarray:
    """``__popc``: number of set bits per entry (vectorized popcount).

    Uses numpy's native ``bitwise_count`` where it exists (numpy >= 2.0)
    and a shift-and-add loop on older numpy; both return equal counts.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is None:
        return _popc_loop(masks)
    return bitwise_count(masks).astype(np.int64)


def _popc_loop(masks: np.ndarray) -> np.ndarray:
    """Portable popcount for numpy releases without ``bitwise_count``."""
    counts = np.zeros(masks.shape, dtype=np.int64)
    work = masks.copy()
    while work.any():
        counts += (work & np.uint64(1)).astype(np.int64)
        work >>= np.uint64(1)
    return counts


def ffs(masks: np.ndarray) -> np.ndarray:
    """``__ffs``: 1-based index of the least-significant set bit (0 if none)."""
    masks = np.asarray(masks, dtype=np.uint64)
    isolated = masks & (~masks + np.uint64(1))
    result = np.zeros(masks.shape, dtype=np.int64)
    work = isolated.copy()
    position = np.zeros(masks.shape, dtype=np.int64)
    while work.any():
        nonzero = work != 0
        position[nonzero] += 1
        hit = (work & np.uint64(1)) != 0
        result[hit] = position[hit]
        work >>= np.uint64(1)
    return result


def lane_masks_lt(warp_size: int = 32) -> np.ndarray:
    """``%lanemask_lt``: per-lane mask of all lower-numbered lanes."""
    lanes = np.arange(warp_size, dtype=np.uint64)
    return (np.uint64(1) << lanes) - np.uint64(1)


def shfl_sync(
    active: np.ndarray, values: np.ndarray, src_lane: int
) -> np.ndarray:
    """``__shfl_sync``: broadcast lane ``src_lane``'s value to all lanes."""
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    if not 0 <= src_lane < active.shape[1]:
        raise KernelError(f"src_lane {src_lane} out of range")
    _notify_sync("shfl_sync", active)
    out = np.broadcast_to(
        values[:, src_lane : src_lane + 1], values.shape
    ).copy()
    out[~active] = 0
    return out


def shfl_down_sync(
    active: np.ndarray, values: np.ndarray, delta: int
) -> np.ndarray:
    """``__shfl_down_sync``: each lane reads the value ``delta`` lanes up.

    Lanes whose source would fall off the warp keep their own value
    (matching CUDA semantics).
    """
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    warp_size = active.shape[1]
    if delta < 0:
        raise KernelError("delta must be non-negative")
    _notify_sync("shfl_down_sync", active)
    out = values.copy()
    if delta and delta < warp_size:
        out[:, : warp_size - delta] = values[:, delta:]
    return out


def warp_reduce_max(
    active: np.ndarray, values: np.ndarray, fill
) -> np.ndarray:
    """Butterfly max-reduction over each warp's active lanes.

    Returns a ``(W,)`` array of per-warp maxima; warps with no active lanes
    return ``fill``.  The hardware cost is ``log2(warp_size)`` shuffle steps,
    which callers account as warp instructions.
    """
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    # Deliberately NOT _notify_sync'd: empty-active warps are part of this
    # helper's documented semantics (they return ``fill``), unlike the
    # hardware ``*_sync`` intrinsics above.
    masked = np.where(active, values, fill)
    return masked.max(axis=1)
