"""Embedding-store interface: partitioners, shard maps, gather contract.

The ROADMAP's sharding item separates *what rows a scoring request
touches* (a :class:`repro.plan.ScoringPlan`'s unique-entity arrays)
from *where those rows live*.  This module defines the "where":

* an :class:`EmbeddingStore` owns the rows of one logical
  ``(num_rows, dim)`` embedding table and answers
  ``gather(unique_ids) -> rows`` with a differentiable scatter-add
  backward, so every consumer — the planned scoring paths, the flat
  trainer, serving — reads entity rows without knowing the layout;
* a :class:`Partitioner` maps logical row ids onto shards (contiguous
  ``range`` blocks or modulo ``hash`` striping) and compiles an id
  array into a :class:`ShardMap` — the per-shard gather plan that
  touches each shard exactly once per call;
* :func:`iter_stores` walks a module tree for store-backed embeddings
  (serving observability, per-shard checkpointing).

Stores are deliberately *not* :class:`repro.nn.module.Module`
subclasses: the owning :class:`repro.nn.layers.Embedding` registers the
store's :class:`repro.nn.module.Parameter` leaves under its own names,
so optimizers and parameter counting see shards directly while the
embedding's canonical checkpoint entry stays the logical ``weight``
table regardless of layout (see ``Embedding._state_items``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = ["ShardMap", "Partitioner", "EmbeddingStore", "iter_stores"]


def check_ids(ids, num_rows: int) -> np.ndarray:
    """``ids`` as an int64 array, or ``ValueError`` if any row is outside
    ``[0, num_rows)`` — negative ids would otherwise wrap to the table's
    tail under NumPy indexing."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_rows):
        raise ValueError(
            f"ids must lie in [0, {num_rows}), got range "
            f"[{int(ids.min())}, {int(ids.max())}]"
        )
    return ids


@dataclass
class ShardMap:
    """A compiled per-shard gather plan for one id array.

    Attributes
    ----------
    per_shard_local:
        One *shard-local* row-index array per shard — the rows each
        shard worker serves for this gather (empty arrays for untouched
        shards).  Concatenating the per-shard results yields the rows in
        shard-grouped ``order``.
    order:
        Original positions grouped by owning shard (the stable grouping
        permutation).
    inverse:
        Indices such that ``grouped[inverse]`` restores the caller's
        request order.
    identity:
        Whether ``order`` is already the identity (e.g. sorted ids under
        range partitioning), letting the store skip the reassembly
        permutation entirely.
    """

    per_shard_local: List[np.ndarray]
    order: np.ndarray
    inverse: np.ndarray
    identity: bool


@dataclass(frozen=True)
class Partitioner:
    """Maps logical row ids of a ``(num_rows, dim)`` table onto shards.

    ``kind="range"`` assigns contiguous blocks (``np.array_split``
    boundaries: the first ``num_rows % n_shards`` shards hold one extra
    row, so every shard holds at most ``ceil(num_rows / n_shards)``
    rows).  ``kind="hash"`` stripes ``id % n_shards`` — the classic
    modulo hash for skew-free load when id locality is adversarial.
    """

    num_rows: int
    n_shards: int
    kind: str = "range"
    _starts: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise ValueError(f"num_rows must be >= 0, got {self.num_rows}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.kind not in ("range", "hash"):
            raise ValueError(f"partition kind must be range|hash, got {self.kind!r}")
        base, extra = divmod(self.num_rows, self.n_shards)
        sizes = [base + (1 if k < extra else 0) for k in range(self.n_shards)]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        object.__setattr__(self, "_starts", tuple(int(s) for s in starts))

    def shard_size(self, shard: int) -> int:
        """Number of rows shard ``shard`` owns."""
        if self.kind == "range":
            return self._starts[shard + 1] - self._starts[shard]
        if shard >= self.num_rows:
            return 0
        return (self.num_rows - shard - 1) // self.n_shards + 1

    def owned_ids(self, shard: int) -> np.ndarray:
        """The logical row ids shard ``shard`` owns, ascending."""
        if self.kind == "range":
            return np.arange(self._starts[shard], self._starts[shard + 1], dtype=np.int64)
        return np.arange(shard, self.num_rows, self.n_shards, dtype=np.int64)

    def owner(self, ids: np.ndarray) -> np.ndarray:
        """Owning shard index per id."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.kind == "range":
            return np.searchsorted(np.asarray(self._starts[1:]), ids, side="right")
        return ids % self.n_shards

    def to_local(self, ids: np.ndarray, owners: Optional[np.ndarray] = None) -> np.ndarray:
        """Shard-local row index per id (given its owner)."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.kind == "range":
            if owners is None:
                owners = self.owner(ids)
            starts = np.asarray(self._starts[:-1])
            return ids - starts[owners]
        return ids // self.n_shards

    def build_map(self, ids) -> ShardMap:
        """Compile an id array into its per-shard gather plan.

        Each shard appears exactly once, so one planned call touches
        every shard at most once regardless of how ids interleave.
        """
        ids = check_ids(ids, self.num_rows)
        if ids.ndim != 1:
            raise ValueError(f"shard maps need 1-D id arrays, got shape {ids.shape}")
        owners = self.owner(ids)
        order = np.argsort(owners, kind="stable")
        local = self.to_local(ids, owners)
        counts = np.bincount(owners, minlength=self.n_shards)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        per_shard_local = [
            local[order[bounds[k] : bounds[k + 1]]] for k in range(self.n_shards)
        ]
        inverse = np.empty(len(ids), dtype=np.int64)
        inverse[order] = np.arange(len(ids))
        identity = bool(np.array_equal(order, np.arange(len(ids))))
        return ShardMap(
            per_shard_local=per_shard_local,
            order=order,
            inverse=inverse,
            identity=identity,
        )


class EmbeddingStore:
    """Storage strategy behind :class:`repro.nn.layers.Embedding`.

    The contract every consumer relies on:

    * :meth:`gather` returns requested rows *bit-identical* to indexing
      the logical dense table, with a backward that scatter-adds into
      the owning shard parameters in the same per-row accumulation
      order as the dense adjoint — so planned/flat scores and gradients
      cannot depend on the layout;
    * :meth:`all` materialises the logical table as one differentiable
      tensor (full-graph GCN encoders and MF baselines need it);
    * :meth:`logical_state` / :meth:`load_logical` round-trip the
      logical table for canonical (layout-independent) checkpoints;
    * :meth:`assign_rows` writes rows by logical id into whichever
      shard owns them — the streaming restore path for per-shard
      checkpoint files.

    ``stats`` counts gathers for serving observability and the
    shard-gather benchmark; stores also record *touched rows* on their
    parameters (``Parameter.touched_rows``) during grad-enabled
    gathers, which the lazy-row optimizer mode consumes.

    Thread-safety: the bookkeeping side effects of a gather — the
    ``stats`` counters and the ``touched_rows`` records — are guarded
    by a per-store lock, so a stats reader (``stats_snapshot``, the
    serving engine's unified ``stats()``) can run concurrently with the
    engine's scorer thread without torn counters, and two grad-enabled
    gathers cannot drop each other's touched-row unions.  The gathered
    *values* need no lock (reads of parameter buffers); concurrent
    **writers** (optimizer steps, ``assign_rows``) are still the
    caller's responsibility to serialize against readers.
    """

    num_rows: int
    dim: int

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.stats = {
            "gathers": 0,
            "rows_gathered": 0,
            "max_gather_rows": 0,
            "shard_touches": 0,
            "max_shard_gather_rows": 0,
        }

    # ------------------------------------------------------------------
    # To be provided by concrete stores
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def named_parameters(self) -> List[Tuple[str, Parameter]]:
        """``(name, parameter)`` leaves for the owning module to register."""
        raise NotImplementedError  # pragma: no cover - abstract

    def gather(self, ids) -> Tensor:
        """Rows for logical ``ids`` → differentiable ``(len(ids), dim)``.

        Every layout raises the same ``ValueError`` for ids outside
        ``[0, num_rows)`` (see :meth:`_check_ids`)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def all(self) -> Tensor:
        """The logical table as one differentiable tensor."""
        raise NotImplementedError  # pragma: no cover - abstract

    def logical_state(self) -> np.ndarray:
        """Copy of the logical ``(num_rows, dim)`` table."""
        raise NotImplementedError  # pragma: no cover - abstract

    def load_logical(self, values: np.ndarray, dtype=None) -> None:
        """Load a logical table (re-partitioning as needed).

        ``dtype=None`` assigns into the existing buffers; an explicit
        dtype rebinds every shard buffer to that precision (the float32
        serving path) and clears gradients.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def assign_rows(self, ids, values) -> None:
        """Write ``values`` into the logical rows ``ids`` (any layout)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def shard_rows(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(owned_ids, rows)`` of one shard — the per-shard checkpoint unit."""
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_ids(self, ids) -> np.ndarray:
        """Validate ``ids`` against this table (every gather/assign_rows)."""
        return check_ids(ids, self.num_rows)

    def _check_table(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != (self.num_rows, self.dim):
            raise ValueError(
                f"expected a ({self.num_rows}, {self.dim}) table, got {values.shape}"
            )
        return values

    def _record_gather(self, n_rows: int, shards_touched: int, max_shard_rows: int) -> None:
        with self._lock:
            self.stats["gathers"] += 1
            self.stats["rows_gathered"] += int(n_rows)
            self.stats["max_gather_rows"] = max(self.stats["max_gather_rows"], int(n_rows))
            self.stats["shard_touches"] += int(shards_touched)
            self.stats["max_shard_gather_rows"] = max(
                self.stats["max_shard_gather_rows"], int(max_shard_rows)
            )

    def stats_snapshot(self) -> dict:
        """Consistent copy of the gather counters (safe from any thread).

        Includes ``resident_bytes`` whenever the store can account for
        its buffers (:meth:`resident_nbytes`), so benchmarks and the
        serving engine read a counter instead of ``sys.getsizeof``
        guesswork.
        """
        with self._lock:
            out = dict(self.stats)
        nbytes = self.resident_nbytes()
        if nbytes is not None:
            out["resident_bytes"] = int(nbytes)
        return out

    def resident_nbytes(self) -> Optional[int]:
        """Bytes permanently held by this store tier (rows + side arrays
        + arenas), or ``None`` when the layout cannot account for them."""
        return None

    def _record_touch(self, param: Parameter, local_ids: np.ndarray) -> None:
        """Note rows that will receive gradient (lazy-row optimizer input)."""
        if not (is_grad_enabled() and param.requires_grad):
            return
        with self._lock:
            prev = getattr(param, "touched_rows", None)
            if prev is True:
                return
            rows = np.unique(local_ids)
            param.touched_rows = rows if prev is None else np.union1d(prev, rows)

    def _record_touch_all(self, param: Parameter) -> None:
        if is_grad_enabled() and param.requires_grad:
            with self._lock:
                param.touched_rows = True

    @staticmethod
    def _assign_param(param: Parameter, values: np.ndarray, dtype=None) -> None:
        """Assign-or-rebind one parameter buffer (checkpoint-load semantics)."""
        if dtype is None:
            param.data[...] = values
        else:
            # np.array (not asarray): always copy, so the rebound buffer
            # never aliases the caller's arrays.
            param.data = np.array(values, dtype=dtype)
            param.grad = None
        param.bump_version()

    def rebind_dtype(self, dtype) -> None:
        """Rebind every owned buffer to ``dtype`` (float32 serving path)."""
        for _, param in self.named_parameters():
            self._assign_param(param, param.data, dtype)

    def resident_rows(self) -> List[int]:
        """Rows permanently held per shard (the memory-model accounting)."""
        return [self.shard_size_of(k) for k in range(self.n_shards)]

    def shard_size_of(self, shard: int) -> int:
        """Rows shard ``shard`` owns (1 shard = the whole table for dense)."""
        raise NotImplementedError  # pragma: no cover - abstract


def iter_stores(module) -> Iterator[Tuple[str, EmbeddingStore]]:
    """Yield ``(module_path, store)`` for store-backed embeddings in a tree.

    Duck-typed on the ``store`` attribute so this module never imports
    the layer classes (the layers import *us*).
    """
    for name, mod in module.named_modules():
        store = getattr(mod, "store", None)
        if isinstance(store, EmbeddingStore):
            yield (name or "<root>"), store
