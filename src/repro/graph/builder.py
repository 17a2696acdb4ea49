"""Incremental graph construction.

:class:`GraphBuilder` accumulates edges (from generators, files or the
fraud-pipeline window constructor) and finalizes them into a
:class:`~repro.graph.csr.CSRGraph`.  It handles the chores every loader
needs: id compaction, deduplication, self-loop removal and symmetrization.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import INT64_MAX, CSRGraph, stable_order
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE


class GraphBuilder:
    """Accumulate edges and finalize into a CSR graph.

    Edges are stored as ``(dst, src)`` meaning "``src`` is an incoming
    neighbor of ``dst``" to match the CSR convention of
    :class:`~repro.graph.csr.CSRGraph`.  Convenience method
    :meth:`add_edge` takes the natural ``(src, dst)`` order and flips it.

    Parameters
    ----------
    num_vertices:
        If given, vertex ids must be in ``[0, num_vertices)`` and no id
        compaction happens.  If ``None``, arbitrary hashable ids are accepted
        and compacted to ``0..n-1`` at :meth:`build` time.
    """

    def __init__(self, num_vertices: Optional[int] = None) -> None:
        if num_vertices is not None and num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._num_vertices = num_vertices
        self._dst_chunks: list = []
        self._src_chunks: list = []
        self._weight_chunks: list = []
        self._has_weights = False
        self._id_map: Optional[Dict[object, int]] = (
            None if num_vertices is not None else {}
        )

    # ------------------------------------------------------------------
    def _intern(self, vid) -> int:
        """Map an arbitrary id to a compact integer id."""
        if self._id_map is None:
            v = int(vid)
            if not 0 <= v < self._num_vertices:
                raise GraphError(
                    f"vertex id {v} out of range [0, {self._num_vertices})"
                )
            return v
        existing = self._id_map.get(vid)
        if existing is not None:
            return existing
        new_id = len(self._id_map)
        self._id_map[vid] = new_id
        return new_id

    def add_edge(self, src, dst, weight: Optional[float] = None) -> None:
        """Add one directed edge ``src -> dst``."""
        s = self._intern(src)
        d = self._intern(dst)
        self._dst_chunks.append(np.array([d], dtype=VERTEX_DTYPE))
        self._src_chunks.append(np.array([s], dtype=VERTEX_DTYPE))
        if weight is not None:
            self._has_weights = True
            self._weight_chunks.append(np.array([weight], dtype=WEIGHT_DTYPE))
        elif self._has_weights:
            self._weight_chunks.append(np.ones(1, dtype=WEIGHT_DTYPE))

    def add_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Add a batch of directed edges ``src[i] -> dst[i]``.

        Batch ids must already be integers; when the builder was created
        without ``num_vertices``, integer ids are still interned so they can
        mix with hashable ids added via :meth:`add_edge`.
        """
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        if self._id_map is not None:
            src = np.fromiter(
                (self._intern(int(v)) for v in src), dtype=VERTEX_DTYPE, count=src.size
            )
            dst = np.fromiter(
                (self._intern(int(v)) for v in dst), dtype=VERTEX_DTYPE, count=dst.size
            )
        else:
            src = src.astype(VERTEX_DTYPE, copy=False)
            dst = dst.astype(VERTEX_DTYPE, copy=False)
            for arr, label in ((src, "src"), (dst, "dst")):
                if arr.size and (
                    arr.min() < 0 or arr.max() >= self._num_vertices
                ):
                    raise GraphError(f"{label} ids out of range")
        self._dst_chunks.append(dst)
        self._src_chunks.append(src)
        if weights is not None:
            weights = np.asarray(weights, dtype=WEIGHT_DTYPE)
            if weights.shape != src.shape:
                raise GraphError("weights must match edge batch length")
            self._has_weights = True
            self._weight_chunks.append(weights)
        elif self._has_weights:
            self._weight_chunks.append(np.ones(src.size, dtype=WEIGHT_DTYPE))

    def add_edge_iter(
        self, edges: Iterable[Tuple[object, object]]
    ) -> None:
        """Add edges from an iterable of ``(src, dst)`` pairs."""
        for src, dst in edges:
            self.add_edge(src, dst)

    # ------------------------------------------------------------------
    @property
    def num_pending_edges(self) -> int:
        """Number of edges added so far (before dedup)."""
        return int(sum(chunk.size for chunk in self._dst_chunks))

    def build(
        self,
        *,
        symmetrize: bool = False,
        dedup: bool = True,
        drop_self_loops: bool = True,
        sort_neighbors: bool = True,
        name: str = "graph",
    ) -> CSRGraph:
        """Finalize accumulated edges into a :class:`CSRGraph`.

        Parameters
        ----------
        symmetrize:
            Add the reverse of every edge (producing an undirected graph).
        dedup:
            Collapse duplicate ``(dst, src)`` pairs.  When weights are
            present, duplicate weights are *summed* — the behaviour the
            transaction-window constructor relies on.
        drop_self_loops:
            Remove ``v -> v`` edges (classic LP ignores them).
        sort_neighbors:
            Sort each neighbor list ascending, giving deterministic layouts.
        """
        # A Python int, so the overflow tests below cannot wrap.
        n = int(
            self._num_vertices
            if self._id_map is None
            else len(self._id_map)
        )
        if self._dst_chunks:
            dst = np.concatenate(self._dst_chunks)
            src = np.concatenate(self._src_chunks)
        else:
            dst = np.empty(0, dtype=VERTEX_DTYPE)
            src = np.empty(0, dtype=VERTEX_DTYPE)
        weights = (
            np.concatenate(self._weight_chunks) if self._has_weights else None
        )

        if symmetrize and dst.size:
            dst, src = (
                np.concatenate([dst, src]),
                np.concatenate([src, dst]),
            )
            if weights is not None:
                weights = np.concatenate([weights, weights])

        if drop_self_loops and dst.size:
            keep = dst != src
            if not keep.all():
                dst, src = dst[keep], src[keep]
                if weights is not None:
                    weights = weights[keep]

        if dst.size:
            # Sort by (dst, src); stable so weight aggregation is exact.
            # One packed key per edge when it fits int64 (same permutation).
            if not sort_neighbors:
                order = np.argsort(dst, kind="stable")
            elif n * n * int(dst.size) <= INT64_MAX:
                key = dst * np.int64(n)
                key += src
                order = stable_order(key)
            else:
                order = np.lexsort((src, dst))
            dst, src = dst[order], src[order]
            if weights is not None:
                weights = weights[order]
            if dedup:
                new_edge = np.empty(dst.size, dtype=bool)
                new_edge[0] = True
                np.logical_or(
                    dst[1:] != dst[:-1], src[1:] != src[:-1], out=new_edge[1:]
                )
                if new_edge.all():
                    # No duplicates.  ``0.0 + w`` is what the bincount sum
                    # yields for a lone weight (it turns -0.0 into 0.0).
                    if weights is not None:
                        weights += 0.0
                else:
                    if weights is not None:
                        group = np.cumsum(new_edge) - 1
                        weights = np.bincount(
                            group, weights=weights, minlength=int(group[-1]) + 1
                        ).astype(WEIGHT_DTYPE)
                    dst, src = dst[new_edge], src[new_edge]

        counts = np.bincount(dst, minlength=n) if n else np.empty(0, dtype=np.int64)
        offsets = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        if n:
            np.cumsum(counts, out=offsets[1:])
        return CSRGraph(
            offsets=offsets, indices=src, weights=weights, name=name
        )

    def id_mapping(self) -> Optional[Dict[object, int]]:
        """Original-id → compact-id mapping (``None`` in fixed-size mode)."""
        return dict(self._id_map) if self._id_map is not None else None


def from_edge_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    *,
    weights: Optional[np.ndarray] = None,
    symmetrize: bool = False,
    name: str = "graph",
) -> CSRGraph:
    """One-shot CSR construction from parallel edge arrays."""
    builder = GraphBuilder(num_vertices=num_vertices)
    builder.add_edges(src, dst, weights=weights)
    return builder.build(symmetrize=symmetrize, name=name)
