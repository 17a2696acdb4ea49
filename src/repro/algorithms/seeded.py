"""Seeded label propagation for fraud detection.

The TaoBao pipeline (Figure 1) does not run community detection from
scratch: it propagates labels *from known black-listed seed vertices* to
"identify suspicious clusters from known black-listed users".  This program
implements that workload:

* seeds start with their fraud-cluster label; everyone else is unlabeled;
* unlabeled neighbors contribute nothing to MFL counting;
* seed vertices never change their label;
* propagation can be bounded to ``max_hops`` so a cluster stays local to
  its seeds (fraud rings are small).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.api import LPProgram
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.kernels.frontier import bitmap_unique
from repro.types import LABEL_DTYPE, NO_LABEL, WEIGHT_DTYPE


class SeededFraudLP(LPProgram):
    """Propagate fraud labels from seed vertices.

    Parameters
    ----------
    seeds:
        Mapping of ``vertex -> cluster label``.  Labels must be >= 0.
    max_hops:
        Optional bound on propagation depth (``None`` = unbounded).
    """

    def __init__(
        self, seeds: Dict[int, int], *, max_hops: Optional[int] = None
    ) -> None:
        if not seeds:
            raise ProgramError("at least one seed is required")
        if min(seeds.values()) < 0:
            raise ProgramError("seed labels must be non-negative")
        if max_hops is not None and max_hops <= 0:
            raise ProgramError("max_hops must be positive when given")
        self.seeds = dict(seeds)
        self.max_hops = max_hops
        self.name = f"seeded-lp({len(seeds)} seeds)"
        # A vertex's update depends only on its neighbors' labels (seed
        # pinning is per-vertex; max_hops only bounds the iteration count),
        # so frontier engines may sparsify.
        self.frontier_safe = True
        self._seed_vertices: np.ndarray = np.empty(0, dtype=np.int64)
        self._seed_labels: np.ndarray = np.empty(0, dtype=LABEL_DTYPE)

    def init_labels(self, graph: CSRGraph) -> np.ndarray:
        labels = np.full(graph.num_vertices, NO_LABEL, dtype=LABEL_DTYPE)
        self._seed_vertices = np.fromiter(
            self.seeds.keys(), dtype=np.int64, count=len(self.seeds)
        )
        if self._seed_vertices.size and (
            self._seed_vertices.min() < 0
            or self._seed_vertices.max() >= graph.num_vertices
        ):
            raise ProgramError("seed vertex ids out of range")
        self._seed_labels = np.fromiter(
            self.seeds.values(), dtype=LABEL_DTYPE, count=len(self.seeds)
        )
        labels[self._seed_vertices] = self._seed_labels
        return labels

    def load_neighbor(self, vertex_ids, neighbor_ids, neighbor_labels, edge_weights):
        """Unlabeled neighbors contribute zero frequency."""
        freqs = np.where(neighbor_labels == NO_LABEL, 0.0, edge_weights)
        # Map NO_LABEL to a harmless concrete label: zero frequency already
        # removes it from contention, but the label value must be valid for
        # grouping and the sketches.
        labels = np.where(neighbor_labels == NO_LABEL, 0, neighbor_labels)
        return labels.astype(LABEL_DTYPE, copy=False), freqs.astype(
            WEIGHT_DTYPE, copy=False
        )

    def update_vertices(self, vertex_ids, best_labels, best_scores, current_labels):
        """Adopt the MFL only when it carries positive evidence; pin seeds."""
        result = current_labels.copy()
        adopt = np.isfinite(best_scores) & (best_scores > 0)
        result[vertex_ids[adopt]] = best_labels[adopt]
        result[self._seed_vertices] = self._seed_labels
        return result

    def pinned_vertices(self, graph: CSRGraph) -> np.ndarray:
        """Seeds are pinned: their update is a no-op by construction.

        Frontier engines prune them from sparse passes — crucial on warm
        windows, where carried hub-product seeds would otherwise stream
        their whole neighbor lists every iteration for nothing.  Returns
        the seed set sorted unique, through a vertex bitmap rather than a
        sort (warm windows seed nearly every vertex).
        """
        return bitmap_unique(self._seed_vertices, graph.num_vertices)

    def converged(self, old_labels, new_labels, iteration):
        if self.max_hops is not None and iteration >= self.max_hops:
            return True
        return bool(np.array_equal(old_labels, new_labels))

    # ------------------------------------------------------------------
    def clusters(self, labels: np.ndarray) -> Dict[int, np.ndarray]:
        """Group labeled vertices by cluster: ``{cluster: vertex_ids}``."""
        labeled = np.flatnonzero(labels != NO_LABEL)
        result: Dict[int, np.ndarray] = {}
        for cluster in np.unique(labels[labeled]):
            result[int(cluster)] = labeled[labels[labeled] == cluster]
        return result
