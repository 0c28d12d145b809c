"""Sharded embedding storage (ROADMAP "sharded embedding tables").

Public surface:

* :class:`EmbeddingStore` — the storage contract behind
  :class:`repro.nn.layers.Embedding`;
* :class:`DenseStore` — the single-table layout (default);
* :class:`ProcessShardedStore` — the one sharded layout: rows
  hash/range-partitioned across N **worker processes**, answering
  gathers over shared-memory row buffers (the cross-process shard
  service, see :mod:`repro.store.service`);
* :class:`LRUCachedStore` / :func:`cache_hot_rows` — hot-row LRU cache
  decorating any store (serving's skewed id streams hit it instead of
  the shard workers);
* :class:`Partitioner` / :class:`ShardMap` — id→shard assignment and
  compiled per-shard gather plans;
* :func:`make_store` — layout factory used by the layer constructors;
* :func:`iter_stores` — find store-backed embeddings in a module tree.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.store.base import EmbeddingStore, Partitioner, ShardMap, iter_stores
from repro.store.dense import DenseStore
from repro.store.lru import LRUCachedStore, cache_hot_rows
from repro.store.quant import QuantizedStore, check_quant_mode, quant_bytes_per_row
from repro.store.service import ProcessShardedStore, RemoteShardParameter

__all__ = [
    "EmbeddingStore",
    "DenseStore",
    "ProcessShardedStore",
    "RemoteShardParameter",
    "LRUCachedStore",
    "QuantizedStore",
    "Partitioner",
    "ShardMap",
    "iter_stores",
    "cache_hot_rows",
    "make_store",
    "quant_bytes_per_row",
]


def make_store(
    values: np.ndarray,
    n_shards: int = 0,
    partition: str = "range",
    service: bool = False,
    quantize: Optional[str] = None,
) -> EmbeddingStore:
    """Build the layout for an initial table.

    ``service=False`` (the default) keeps the single-table
    :class:`DenseStore`; ``n_shards`` must then be 0 or 1.
    ``service=True`` partitions the table across ``max(n_shards, 1)``
    worker *processes* (:class:`ProcessShardedStore`) — same contract,
    same bits, rows owned and gathered outside the GIL.  Sharding
    without ``service=True`` raises rather than spawning processes
    behind the caller's back: workers must be closed, and quantised
    process stores cannot train.

    ``quantize="int8"|"fp16"`` adds the quantised memory tier
    (docs/quantization.md): the dense layout gets a
    :class:`QuantizedStore` wrapper over the float master (training
    bypasses it; inference gathers dequantise from the compact shadow),
    while ``service=True`` quantises the rows *inside* each worker
    process (inference-only); ``quantize=None`` keeps float rows.
    """
    if n_shards < 0:
        raise ValueError(f"n_shards must be >= 0, got {n_shards}")
    mode = check_quant_mode(quantize)
    if service:
        return ProcessShardedStore(
            values, max(n_shards, 1), partition, quantize=mode
        )
    if n_shards >= 2:
        raise ValueError(
            f"n_shards={n_shards} needs service=True: the sharded layout runs "
            "its shards in worker processes"
        )
    store: EmbeddingStore = DenseStore(values)
    if mode is not None:
        store = QuantizedStore(store, mode)
    return store
