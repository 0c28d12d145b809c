"""Output checks with references the benchmark owns.

The references below are written against the program's most basic
public scoring calls (one model call per candidate list, or one
:meth:`score_items_matrix` call per request), so an optimisation of the
batched paths the workloads time cannot change them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

#: Metric agreement required between the protocol and the reference.
METRIC_ATOL = 1e-12
#: Served scores vs the single-request reference (float64 scoring; the
#: slack covers BLAS blocking that depends on how requests co-batch).
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12


def rank_of_positive(scores: np.ndarray) -> int:
    """1-based rank of column 0; ties count against the positive."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    return int(1 + (scores[1:] >= scores[0]).sum())


def ranking_metrics(ranks: Sequence[int], cutoff: int) -> Dict[str, float]:
    """MRR/NDCG/HR@cutoff over one positive per list."""
    ranks = np.asarray(ranks, dtype=np.float64)
    inside = ranks <= cutoff
    return {
        f"MRR@{cutoff}": float(np.mean(np.where(inside, 1.0 / ranks, 0.0))),
        f"NDCG@{cutoff}": float(np.mean(np.where(inside, 1.0 / np.log2(ranks + 1.0), 0.0))),
        f"HR@{cutoff}": float(np.mean(inside.astype(np.float64))),
    }


def candidate_lists(dataset, n_negatives: int, seed, max_instances: int):
    """The test-split candidate lists of the Table III protocol.

    Column 0 is the positive.  Negatives are drawn as the paper
    prescribes (Sec. III-A2): items the initiator never bought for Task
    A, users outside the deal group for Task B, from one sampler seeded
    with the protocol seed, for the first ``max_instances`` instances of
    each task.
    """
    from repro.data import NegativeSampler, extract_task_a, extract_task_b

    groups = dataset.test
    sampler = NegativeSampler(dataset, seed=seed, splits=("train", "validation", "test"))
    task_a = extract_task_a(groups)
    task_b = extract_task_b(groups)
    a_users, a_pos = task_a.users[:max_instances], task_a.items[:max_instances]
    a_negs = sampler.sample_items_batch(a_users, n_negatives, extra_exclude=a_pos)
    b = slice(0, max_instances)
    b_extra = [groups[int(row)].participants for row in task_b.group_index[b]]
    b_negs = sampler.sample_participants_batch(
        task_b.users[b], task_b.items[b], n_negatives, extra_exclude=b_extra
    )
    return (
        {"users": a_users, "candidates": np.concatenate([a_pos[:, None], a_negs], axis=1)},
        {"users": task_b.users[b], "items": task_b.items[b],
         "candidates": np.concatenate([task_b.participants[b, None], b_negs], axis=1)},
    )


def reference_metrics(model, dataset, n_negatives: int, cutoff: int, seed,
                      max_instances: int):
    """Per-list loop over the flat public scorers → ``{"A/..": .., "B/..": ..}``."""
    from repro.nn.tensor import no_grad

    lists_a, lists_b = candidate_lists(dataset, n_negatives, seed, max_instances)
    model.eval()
    with no_grad():
        model.refresh_cache()
        ranks_a = []
        for user, cands in zip(lists_a["users"], lists_a["candidates"]):
            scores = model.score_items(np.full(len(cands), user), cands)
            ranks_a.append(rank_of_positive(scores.data))
        ranks_b = []
        for user, item, cands in zip(lists_b["users"], lists_b["items"],
                                     lists_b["candidates"]):
            scores = model.score_participants(
                np.full(len(cands), user), np.full(len(cands), item), cands
            )
            ranks_b.append(rank_of_positive(scores.data))
    out = {f"A/{k}": v for k, v in ranking_metrics(ranks_a, cutoff).items()}
    out.update({f"B/{k}": v for k, v in ranking_metrics(ranks_b, cutoff).items()})
    return out


def compare_metrics(got: Dict[str, float], want: Dict[str, float]) -> List[str]:
    """Mismatches between protocol metrics and the reference."""
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"metric {key} missing")
        elif not abs(got[key] - value) <= METRIC_ATOL:
            problems.append(f"metric {key}: {got[key]!r} != reference {value!r}")
    return problems


def compare_scores(served: np.ndarray, reference: np.ndarray) -> bool:
    served = np.asarray(served, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return served.shape == reference.shape and bool(
        np.allclose(served, reference, rtol=SCORE_RTOL, atol=SCORE_ATOL)
    )


def losses_fall(epoch_losses: Sequence[float]) -> List[str]:
    """Training losses must be finite and lower at the end than at the start."""
    if len(epoch_losses) < 2:
        return ["fewer than two epochs ran"]
    if not all(math.isfinite(v) for v in epoch_losses):
        return [f"non-finite loss in {list(epoch_losses)}"]
    if not epoch_losses[-1] < epoch_losses[0]:
        return [f"loss did not fall: {epoch_losses[0]} -> {epoch_losses[-1]}"]
    return []
