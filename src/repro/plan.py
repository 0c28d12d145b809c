"""Scoring plans: dedup + scatter maps for batched candidate scoring.

The batched evaluation/serving request shape is a flattened
(instance × candidate) matrix, and in practice it is massively
redundant: the same user row is replicated across every candidate of an
instance, candidate lists sample items/participants with replacement, and
the same ``(u, i)`` pair recurs across instances.  A
:class:`ScoringPlan` makes that redundancy explicit *before* the model
runs:

* the flat request collapses onto its **unique pairs** (Task A) or
  **unique triples** (Task B) with a ``scatter`` map back to the full
  score matrix — a pure-function scorer only ever evaluates each unique
  request once;
* each unique-pair column further collapses onto its **unique entities**
  (users / items / participants) with per-pair position maps
  (``user_pos`` etc.) — the factorized expert/gate stack
  (:meth:`repro.core.mtl.MultiTaskModule.forward_planned`) computes its
  layer-0 partial projections once per unique entity and combines them
  per pair, cutting real FLOPs rather than just dispatch overhead.

Plans are plain data: NumPy index arrays plus an output shape.  They are
built by the evaluation protocol, the batched matrix scorers in
:mod:`repro.baselines.base`, the :mod:`repro.serving` front-end, and —
via :class:`PlannedBatch`, which compiles a training step's
heterogeneous positive/negative/auxiliary-corruption segments into one
plan per head — the trainer's planned optimisation step
(:mod:`repro.training.trainer`), whose gathers and scatters run as
autograd ops so gradients flow through the dedup maps.

This module lives at the package root (below every other layer) because
the plan is the contract between them: it depends only on NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ScoringPlan", "PlannedBatch"]


def _unique_rows(columns):
    """Row-dedup parallel int columns → (unique columns, first, inverse).

    Uses an arithmetic key (``((u * Si) + i) * Sp + p`` style) when it
    provably fits in int64, falling back to ``np.unique(..., axis=0)``
    for astronomically large id spaces.
    """
    cols = [np.ascontiguousarray(c, dtype=np.int64) for c in columns]
    n = len(cols[0])
    if n and any(int(c.min()) < 0 for c in cols):
        # Negative ids would collide in the arithmetic key below (e.g.
        # (1, -1) keys like (0, stride-1)) and silently merge distinct
        # requests; entity ids are table rows, so reject them outright.
        raise ValueError("scoring-plan ids must be non-negative")
    strides = [int(c.max()) + 1 if n else 1 for c in cols]
    span = 1
    for s in strides:
        span *= s
    if n and span < np.iinfo(np.int64).max:
        key = cols[0]
        for col, stride in zip(cols[1:], strides[1:]):
            key = key * stride + col
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    else:  # pragma: no cover - needs > 9e18 combined id space
        arr = np.stack(cols, axis=1)
        _, first, inverse = np.unique(
            arr, axis=0, return_index=True, return_inverse=True
        )
    return [c[first] for c in cols], first, inverse.ravel()


@dataclass
class ScoringPlan:
    """A deduplicated scoring request plus its scatter map.

    Attributes
    ----------
    out_shape:
        Shape of the full score array the request came from (``(n, m)``
        for candidate matrices, ``(k,)`` for flat pair lists).
    scatter_index:
        ``(prod(out_shape),)`` indices into the unique-pair axis; the
        full score array is ``unique_scores[scatter_index]`` reshaped.
        ``None`` means identity (the pairs already *are* the request —
        :meth:`pair_slice` windows).
    users / items / participants:
        Parallel ``(P,)`` id arrays of the unique requests
        (``participants`` is ``None`` for Task-A item plans).
    unique_users / user_pos (and item / participant analogues):
        The distinct entity ids appearing in the unique requests and,
        per request, the position of its entity inside that distinct
        list — the gather maps the factorized layer-0 projections use.
        Computed lazily: models that only consume the unique pair lists
        (the dot-product baselines) never pay for them.
    """

    out_shape: Tuple[int, ...]
    scatter_index: Optional[np.ndarray]
    users: np.ndarray
    items: np.ndarray
    participants: Optional[np.ndarray] = None
    _entity_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_flat(cls, out_shape, columns) -> "ScoringPlan":
        uniq, _, inverse = _unique_rows(columns)
        return cls(
            out_shape=tuple(out_shape),
            scatter_index=inverse,
            users=uniq[0],
            items=uniq[1],
            participants=uniq[2] if len(uniq) == 3 else None,
        )

    # ------------------------------------------------------------------
    # Lazy entity gather maps
    # ------------------------------------------------------------------
    def _entity(self, name: str, ids: np.ndarray):
        if name not in self._entity_cache:
            unique, pos = np.unique(ids, return_inverse=True)
            self._entity_cache[name] = (unique, pos.ravel())
        return self._entity_cache[name]

    @property
    def unique_users(self) -> np.ndarray:
        return self._entity("users", self.users)[0]

    @property
    def user_pos(self) -> np.ndarray:
        return self._entity("users", self.users)[1]

    @property
    def unique_items(self) -> np.ndarray:
        return self._entity("items", self.items)[0]

    @property
    def item_pos(self) -> np.ndarray:
        return self._entity("items", self.items)[1]

    @property
    def unique_participants(self) -> Optional[np.ndarray]:
        if self.participants is None:
            return None
        return self._entity("participants", self.participants)[0]

    @property
    def part_pos(self) -> Optional[np.ndarray]:
        if self.participants is None:
            return None
        return self._entity("participants", self.participants)[1]

    @classmethod
    def for_items(cls, users, candidate_items) -> "ScoringPlan":
        """Plan a Task-A candidate matrix: ``(n,)`` users × ``(n, m)`` items."""
        users = np.asarray(users, dtype=np.int64)
        cands = np.asarray(candidate_items, dtype=np.int64)
        if cands.ndim != 2 or len(users) != cands.shape[0]:
            raise ValueError(
                f"need (n,) users and (n, m) candidates, got {users.shape}/{cands.shape}"
            )
        flat_users = np.repeat(users, cands.shape[1])
        return cls._from_flat(cands.shape, (flat_users, cands.ravel()))

    @classmethod
    def for_participants(cls, users, items, candidate_participants) -> "ScoringPlan":
        """Plan a Task-B candidate matrix: ``(n,)`` (u, i) × ``(n, m)`` users."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        cands = np.asarray(candidate_participants, dtype=np.int64)
        if cands.ndim != 2 or not (len(users) == len(items) == cands.shape[0]):
            raise ValueError(
                "need (n,) users, (n,) items and (n, m) candidates, got "
                f"{users.shape}/{items.shape}/{cands.shape}"
            )
        m = cands.shape[1]
        return cls._from_flat(
            cands.shape, (np.repeat(users, m), np.repeat(items, m), cands.ravel())
        )

    @classmethod
    def from_item_pairs(cls, users, items) -> "ScoringPlan":
        """Plan an explicit flat ``(k,)`` list of (u, i) requests."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError(
                f"need matching 1-D id arrays, got {users.shape}/{items.shape}"
            )
        return cls._from_flat(users.shape, (users, items))

    @classmethod
    def from_triples(cls, users, items, participants) -> "ScoringPlan":
        """Plan an explicit flat ``(k,)`` list of (u, i, p) requests."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        participants = np.asarray(participants, dtype=np.int64)
        if not (users.shape == items.shape == participants.shape) or users.ndim != 1:
            raise ValueError(
                "need matching 1-D id arrays, got "
                f"{users.shape}/{items.shape}/{participants.shape}"
            )
        return cls._from_flat(users.shape, (users, items, participants))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_triple(self) -> bool:
        """Whether this is a Task-B (participant) plan."""
        return self.participants is not None

    @property
    def n_flat(self) -> int:
        """Rows of the original flattened request."""
        return int(np.prod(self.out_shape)) if self.out_shape else 0

    @property
    def n_pairs(self) -> int:
        """Unique requests the model actually scores."""
        return len(self.users)

    @property
    def dedup_ratio(self) -> float:
        """``n_flat / n_pairs`` — 1.0 means no duplicates to exploit."""
        return self.n_flat / max(self.n_pairs, 1)

    def stats(self) -> dict:
        """Summary counters (used by serving observability and benches)."""
        out = {
            "flat": self.n_flat,
            "unique_pairs": self.n_pairs,
            "dedup_ratio": round(self.dedup_ratio, 3),
            "unique_users": len(self.unique_users),
            "unique_items": len(self.unique_items),
        }
        if self.unique_participants is not None:
            out["unique_participants"] = len(self.unique_participants)
        return out

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def pair_slice(self, sl: slice) -> "ScoringPlan":
        """Sub-plan over a slice of the unique-pair axis.

        The evaluation protocol chunks *unique pairs* (not flat rows), so
        cross-instance dedup is global while each model call stays
        bounded.  The window's pairs are unique by construction, so the
        sub-plan scatters 1:1 (identity, ``scatter_index=None``) without
        re-deduplicating; its entity gather maps are (lazily) rebuilt
        local to the window.
        """
        users = self.users[sl]
        return ScoringPlan(
            out_shape=(len(users),),
            scatter_index=None,
            users=users,
            items=self.items[sl],
            participants=None if self.participants is None else self.participants[sl],
        )

    def scatter(self, unique_scores: np.ndarray) -> np.ndarray:
        """Broadcast unique-request scores back to the full request shape."""
        unique_scores = np.asarray(unique_scores)
        if unique_scores.shape != (self.n_pairs,):
            raise ValueError(
                f"expected ({self.n_pairs},) unique scores, got {unique_scores.shape}"
            )
        if self.scatter_index is None:
            return unique_scores.reshape(self.out_shape)
        return unique_scores[self.scatter_index].reshape(self.out_shape)


@dataclass
class PlannedBatch:
    """One :class:`ScoringPlan` compiled from named request *segments*.

    A training step is a heterogeneous bag of scoring requests against
    the same head: Task-A positives and sampled negatives (scored with
    the averaged participant slot), plus the auxiliary corruption triples
    (explicit participants).  A ``PlannedBatch`` concatenates those
    segments into one flat request, compiles it into a single global
    plan — so a ``(u, i, p)`` triple appearing in several loss terms is
    scored exactly once — and remembers each segment's window so the
    scattered scores can be split back into per-loss arrays.

    Segments whose participant column is ``None`` ("score with the
    averaged participant", Task A's convention) are filled with the
    caller's ``sentinel`` id — by convention one past the last real
    participant id (``model.mean_participant_id``), so it can never
    collide with a real entity and, because plan ids sort, always lands
    *last* in ``unique_participants`` where the model can substitute the
    mean-participant row.  When *no* segment carries participants the
    participant column is dropped entirely (a plain pair plan — the
    baseline models' Task-A shape).

    ``scatter``/``take`` are duck-typed over NumPy arrays and
    :class:`repro.nn.tensor.Tensor` (both support fancy indexing,
    slicing and ``reshape``), which keeps this module dependent on NumPy
    alone while the trainer routes *differentiable* scores through the
    same maps.
    """

    plan: ScoringPlan
    segments: Dict[str, Tuple[int, Tuple[int, ...]]]

    @classmethod
    def build(
        cls,
        segments: Mapping[str, Sequence],
        sentinel: Optional[int] = None,
    ) -> "PlannedBatch":
        """Compile ordered ``name -> (users, items, participants, shape)``.

        Each value holds parallel 1-D id arrays (``participants`` may be
        ``None``) and the ``shape`` the segment's scores should be
        returned in (``prod(shape)`` must equal the arrays' length —
        callers pre-repeat, e.g. ``np.repeat(users, n_negatives)``).
        """
        if not segments:
            raise ValueError("PlannedBatch needs at least one segment")
        windows: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        users_parts, items_parts, part_parts = [], [], []
        offset = 0
        any_participants = any(spec[2] is not None for spec in segments.values())
        for name, (users, items, participants, shape) in segments.items():
            users = np.asarray(users, dtype=np.int64)
            items = np.asarray(items, dtype=np.int64)
            shape = tuple(int(s) for s in shape)
            length = int(np.prod(shape)) if shape else 1
            if users.ndim != 1 or users.shape != items.shape or len(users) != length:
                raise ValueError(
                    f"segment {name!r}: need 1-D id arrays of length prod{shape}, "
                    f"got users {users.shape} / items {items.shape}"
                )
            if any_participants:
                if participants is None:
                    if sentinel is None:
                        raise ValueError(
                            f"segment {name!r} has no participants but the batch "
                            "mixes in triple segments — pass the mean-participant "
                            "sentinel id"
                        )
                    participants = np.full(length, int(sentinel), dtype=np.int64)
                else:
                    participants = np.asarray(participants, dtype=np.int64)
                    if participants.shape != users.shape:
                        raise ValueError(
                            f"segment {name!r}: participants shape "
                            f"{participants.shape} != users {users.shape}"
                        )
                part_parts.append(participants)
            users_parts.append(users)
            items_parts.append(items)
            windows[name] = (offset, shape)
            offset += length
        users_cat = np.concatenate(users_parts)
        items_cat = np.concatenate(items_parts)
        if any_participants:
            plan = ScoringPlan.from_triples(
                users_cat, items_cat, np.concatenate(part_parts)
            )
        else:
            plan = ScoringPlan.from_item_pairs(users_cat, items_cat)
        return cls(plan=plan, segments=windows)

    @property
    def n_flat(self) -> int:
        """Total request rows across all segments."""
        return self.plan.n_flat

    def scatter(self, unique_scores):
        """Unique-request scores → the flat per-request score vector.

        Works on plain arrays *and* autograd tensors: the fancy index is
        :class:`repro.nn.tensor.Tensor.__getitem__`'s scatter-add-backward
        gather, so gradients flow from every duplicated loss row back to
        the one score that produced it.
        """
        if self.plan.scatter_index is None:
            return unique_scores
        return unique_scores[self.plan.scatter_index]

    def take(self, flat_scores, name: str):
        """Slice segment ``name`` out of :meth:`scatter`'s output.

        Returns the segment reshaped to its declared shape; accepts
        arrays or tensors.
        """
        offset, shape = self.segments[name]
        length = int(np.prod(shape)) if shape else 1
        return flat_scores[offset : offset + length].reshape(shape)
