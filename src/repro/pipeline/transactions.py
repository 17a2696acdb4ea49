"""Synthetic e-commerce transaction stream with planted fraud rings.

The paper's pipeline consumes "sliding windows of recent purchases/clicks"
from TaoBao.  That stream is proprietary, so this module generates the
closest synthetic equivalent:

* **normal traffic** — users drawn near-uniformly, products by a Zipf
  popularity law (the defining skew of e-commerce interaction graphs);
* **fraud rings** — small groups of colluding accounts that repeatedly
  interact with a small pool of ring-controlled products (the
  dense-small-cluster signature seeded LP is deployed to find);
* a fraction of ring members is *black-listed* up front, forming the seed
  store the detection stage starts from.

Transactions carry ``(day, user, product, amount)`` so the window stage can
slice by day and weight edges by interaction counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import PipelineError
from repro.graph.generators.bipartite import zipf_popularity

#: Structured dtype of one transaction record.
TRANSACTION_DTYPE = np.dtype(
    [
        ("day", np.int32),
        ("user", np.int64),
        ("product", np.int64),
        ("amount", np.float64),
    ]
)


@dataclass(frozen=True)
class TransactionStreamConfig:
    """Parameters of the synthetic stream.

    The defaults generate a stream whose 10..100-day windows reproduce the
    Table 4 growth curve at ~1/10000 of TaoBao's scale.
    """

    num_users: int = 60_000
    num_products: int = 45_000
    num_days: int = 100
    transactions_per_day: int = 17_000
    zipf_exponent: float = 1.05
    #: Fraction of each day's normal users drawn from a "regulars" pool
    #: (drives the sublinear vertex growth of Table 4).
    regular_fraction: float = 0.7
    regulars_pool_fraction: float = 0.15
    num_rings: int = 40
    ring_size: int = 12
    ring_products: int = 4
    ring_transactions_per_day: int = 30
    #: Fraction of ring members known (black-listed) in advance.
    seed_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_products <= 0:
            raise PipelineError("user/product universes must be non-empty")
        if self.num_days <= 0 or self.transactions_per_day < 0:
            raise PipelineError("stream length must be positive")
        if self.num_rings * self.ring_size > self.num_users:
            raise PipelineError("fraud rings exceed the user universe")
        if not 0.0 < self.seed_fraction <= 1.0:
            raise PipelineError("seed_fraction must be in (0, 1]")


@dataclass
class FraudRing:
    """Ground truth of one planted ring."""

    ring_id: int
    members: np.ndarray
    products: np.ndarray
    seeded_members: np.ndarray


class TransactionStream:
    """A fully materialized synthetic transaction stream."""

    def __init__(self, config: TransactionStreamConfig = TransactionStreamConfig()) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.rings: List[FraudRing] = []
        self.transactions = self._generate()

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self.config.num_users

    @property
    def num_products(self) -> int:
        return self.config.num_products

    def ring_membership(self) -> np.ndarray:
        """``membership[user] = ring_id`` or -1 for honest users."""
        membership = np.full(self.config.num_users, -1, dtype=np.int64)
        for ring in self.rings:
            membership[ring.members] = ring.ring_id
        return membership

    def blacklist(self) -> dict:
        """Seed mapping ``{user_id: ring_id}`` of known-bad accounts."""
        seeds = {}
        for ring in self.rings:
            for user in ring.seeded_members:
                seeds[int(user)] = ring.ring_id
        return seeds

    def window_transactions(self, start_day: int, num_days: int) -> np.ndarray:
        """Transactions with ``start_day <= day < start_day + num_days``.

        The stream is generated day by day, so the day column is sorted
        and the window is one contiguous run, returned as a read-only view
        (no copy of a possibly stream-sized window).
        """
        if num_days <= 0:
            raise PipelineError("num_days must be positive")
        lo, hi = np.searchsorted(
            self.transactions["day"], [start_day, start_day + num_days]
        )
        window = self.transactions[lo:hi]
        window.flags.writeable = False
        return window

    # ------------------------------------------------------------------
    def _generate(self) -> np.ndarray:
        cfg = self.config
        rng = self._rng

        # Reserve the top of the user id space for ring members, so ground
        # truth stays easy to audit in tests.
        ring_base = cfg.num_users - cfg.num_rings * cfg.ring_size
        for ring_id in range(cfg.num_rings):
            members = np.arange(
                ring_base + ring_id * cfg.ring_size,
                ring_base + (ring_id + 1) * cfg.ring_size,
                dtype=np.int64,
            )
            products = rng.choice(
                cfg.num_products, size=cfg.ring_products, replace=False
            ).astype(np.int64)
            num_seeded = max(1, int(round(cfg.seed_fraction * cfg.ring_size)))
            seeded = members[:num_seeded]
            self.rings.append(
                FraudRing(
                    ring_id=ring_id,
                    members=members,
                    products=products,
                    seeded_members=seeded,
                )
            )

        chunks = []
        popularity = zipf_popularity(cfg.num_products, cfg.zipf_exponent)
        regulars_pool = max(1, int(cfg.regulars_pool_fraction * ring_base))
        for day in range(cfg.num_days):
            # Normal traffic: a mix of a regulars pool and the long tail.
            n = cfg.transactions_per_day
            n_regular = int(cfg.regular_fraction * n)
            users = np.concatenate(
                [
                    rng.integers(0, regulars_pool, n_regular, dtype=np.int64),
                    rng.integers(0, ring_base, n - n_regular, dtype=np.int64),
                ]
            )
            products = rng.choice(
                cfg.num_products, size=n, p=popularity
            ).astype(np.int64)
            amounts = rng.lognormal(mean=3.0, sigma=1.0, size=n)
            chunk = np.empty(n, dtype=TRANSACTION_DTYPE)
            chunk["day"] = day
            chunk["user"] = users
            chunk["product"] = products
            chunk["amount"] = amounts
            chunks.append(chunk)

            # Ring traffic: members hammer ring products (and sprinkle a
            # little camouflage on popular products).
            for ring in self.rings:
                m = cfg.ring_transactions_per_day
                r_users = rng.choice(ring.members, size=m).astype(np.int64)
                camouflage = rng.random(m) < 0.1
                r_products = np.where(
                    camouflage,
                    rng.choice(cfg.num_products, size=m, p=popularity),
                    rng.choice(ring.products, size=m),
                ).astype(np.int64)
                r_chunk = np.empty(m, dtype=TRANSACTION_DTYPE)
                r_chunk["day"] = day
                r_chunk["user"] = r_users
                r_chunk["product"] = r_products
                r_chunk["amount"] = rng.lognormal(2.0, 0.5, m)
                chunks.append(r_chunk)

        return np.concatenate(chunks)
