"""Seeded workload inputs and their fingerprint.

Everything a workload feeds the program comes from here, derived from
the ``--seed`` argument alone: the synthetic group-buying dataset and
the open-loop request schedule.  :func:`fingerprint` hashes the inputs
so two commits can show they measured identical work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Zipf exponent of the skewed serving traffic (users, items and
#: participants): a hot head that co-batched requests share.
ZIPF_A = 1.2


@dataclass(frozen=True)
class Schedule:
    """An open-loop request schedule.

    ``due`` holds each request's due time in seconds from the start of
    the loop; ``task_a`` marks Task-A requests (recommend an item to an
    initiator), the rest are Task-B (recommend participants for the
    ``(user, item)`` deal).  ``candidates`` holds item ids for Task A and
    user ids for Task B.
    """

    due: np.ndarray
    task_a: np.ndarray
    users: np.ndarray
    items: np.ndarray
    candidates: np.ndarray

    def __len__(self) -> int:
        return len(self.due)


def make_dataset(seed: int, n_users: int, n_items: int, n_groups: int):
    """The synthetic Beibei-style dataset for ``seed``."""
    from repro.data import SyntheticConfig, generate_dataset

    return generate_dataset(
        SyntheticConfig(n_users=n_users, n_items=n_items, n_groups=n_groups),
        seed=seed,
    )


def _ids(rng: np.random.Generator, size, bound: int, skewed: bool) -> np.ndarray:
    if skewed:
        return (rng.zipf(ZIPF_A, size=size) - 1) % bound
    return rng.integers(0, bound, size=size)


def make_schedule(seed: int, rate: float, duration: float, n_users: int,
                  n_items: int, width: int, share_a: float,
                  skewed: bool) -> Schedule:
    """Poisson arrivals at ``rate`` req/s over ``duration`` seconds.

    Each request carries ``width`` candidates; a ``share_a`` share are
    Task-A requests.  ``skewed`` draws every id from a Zipf law,
    otherwise ids are uniform over the catalog.
    """
    rng = np.random.default_rng([seed, int(rate * 1000), int(duration * 1000)])
    n = max(1, int(round(rate * duration)))
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    task_a = rng.random(n) < share_a
    users = _ids(rng, n, n_users, skewed)
    items = _ids(rng, n, n_items, skewed)
    item_cands = _ids(rng, (n, width), n_items, skewed)
    user_cands = _ids(rng, (n, width), n_users, skewed)
    candidates = np.where(task_a[:, None], item_cands, user_cands)
    return Schedule(due, task_a, users.astype(np.int64), items.astype(np.int64),
                    candidates.astype(np.int64))


def fingerprint(parts: Iterable) -> str:
    """SHA-256 over schedules, dataset splits and plain values, in order."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, Schedule):
            for arr in (part.due, part.task_a, part.users, part.items, part.candidates):
                digest.update(np.ascontiguousarray(arr).tobytes())
        elif hasattr(part, "train") and hasattr(part, "test"):
            for split in (part.train, part.validation, part.test):
                digest.update(repr([(g.initiator, g.item, g.participants)
                                    for g in split]).encode())
            digest.update(str((part.n_users, part.n_items)).encode())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()
