"""The benchmark's workloads.

Each workload builds its inputs from a seed (:meth:`Workload.setup`),
measures for a number of seconds (:meth:`Workload.measure`), checks the
program's outputs against references the benchmark owns
(:meth:`Workload.check`) and exposes the program's public counters for
the traced run (:meth:`Workload.snapshot`).  Everything runs on default
runtime settings through public API.

Throughput is the work done over the busy time that did it.  Latency
samples are summarized by :func:`stats.chunked_summary`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from checks import compare_metrics, compare_scores, losses_fall, reference_metrics
from inputs import Schedule, make_dataset, make_schedule
from speed import SpeedProbe
from stats import chunked_summary, summarize

#: MGBR profile shared by every MGBR workload (the NumPy-scale profile
#: the repository's own benchmarks use).
MGBR_DIM = 16
#: Synthetic world of every dataset-backed workload, generated from a
#: fixed data seed: the paper's min-5 interaction filter keeps a
#: different number of users and items for each world seed (±10%),
#: and step and scoring costs follow those counts.  The run's
#: ``--seed`` drives everything else: model initialisation, batch order
#: and negatives, candidate lists and request schedules.
DATA = dict(n_users=300, n_items=100, n_groups=1500)
DATA_SEED = 0
#: Test instances per task ranked by the evaluation workloads, so every
#: seed ranks the same number of lists.
EVAL_INSTANCES = 100
#: Candidates per serving request.
SERVE_WIDTH = 20
#: Task-A share of serving requests (2:1 Task A to Task B).
SHARE_A = 2.0 / 3.0
#: Served tickets whose scores are checked against the reference.
CHECK_SHARE = 0.05
#: A request submitted this late counts as "late" for the generator.
LATE_MS = 20.0
#: A run whose generator was late on more than this share is invalid:
#: it measured the generator, not the program.
MAX_LATE_SHARE = 0.05
#: Tail-latency limit for the max-rate search (diagnostic).
RATE_LIMIT_MS = 25.0
#: Offered-rate multiples tried by the max-rate search, and seconds per rung.
RUNGS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
RUNG_S = 0.8
#: How long to wait for any one ticket before counting it failed.
TICKET_TIMEOUT_S = 30.0


@dataclass
class Result:
    """One measured phase."""

    ops: int                  # operations attempted
    failed: int               # operations failed or refused
    throughput: float         # work per busy second
    latency: Dict[str, float]  # p50 / tail / tail_q / n (see stats.py)
    extra: Dict[str, float] = field(default_factory=dict)
    submits: Dict[int, float] = field(default_factory=dict)  # id(ticket) -> time


def in_root(tracer, fn: Callable):
    """Run ``fn`` inside the traced run's root span (or plainly)."""
    return fn() if tracer is None else tracer.span("bench.loop", "measure", fn)


def store_counters(model) -> Dict[str, float]:
    """Rows gathered and resident bytes over every embedding store."""
    from repro.store import iter_stores

    def tier_bytes(snap: dict) -> int:
        inner = snap.get("inner")
        return snap.get("resident_bytes", 0) + (tier_bytes(inner) if inner else 0)

    rows = resident = 0
    for _, store in iter_stores(model):
        snap = store.stats_snapshot()
        rows += snap.get("rows_gathered", 0)
        resident += tier_bytes(snap)
    return {"store_rows": rows, "store_bytes": resident}


def timed_ops(seconds: float, op: Callable, probe: SpeedProbe):
    """Run ``op`` back to back for ``seconds`` (at least once).

    Returns one ``(seconds_taken, value_returned)`` record per call; the
    speed probe runs between calls, outside the timed region.
    """
    records = []
    probe.maybe()
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        value = op()
        records.append((time.perf_counter() - t0, value))
        probe.maybe()
    return records


def offline_result(probe: SpeedProbe, durations, busy_s, extra, ops_per_sample=1):
    """A CPU-bound phase with its times rescaled to nominal host speed.

    ``durations`` are the latency samples and ``busy_s`` the time the
    throughput work took within each; each sample completes
    ``ops_per_sample`` operations.  The raw figures and the host speed
    go to the record.
    """
    speed = probe.speed()
    ops = len(durations) * ops_per_sample
    raw = chunked_summary(np.asarray(durations) * 1000.0)
    raw_throughput = ops / float(np.sum(busy_s))
    extra = dict(extra, host_speed=speed, raw_throughput=raw_throughput,
                 raw_latency_p50_ms=raw["p50"], raw_latency_tail_ms=raw["tail"])
    return Result(ops=ops, failed=0, throughput=raw_throughput / speed,
                  latency=chunked_summary(np.asarray(durations) * 1000.0 * speed),
                  extra=extra)


class Workload:
    name = ""

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def inputs(self, state: dict, seconds: float) -> list:
        """What :func:`inputs.fingerprint` hashes: the dataset and the
        seed that model initialisation and every in-program draw use."""
        return [state["dataset"], state["seed"]]

    def measure(self, state: dict, seconds: float, tracer=None) -> Result:
        raise NotImplementedError

    def diagnostics(self, state: dict, seconds: float) -> Dict[str, float]:
        """Extra untraced figures for the traced run (none by default)."""
        return {}

    def check(self, state: dict):
        """``(checks_made, problems)`` against the benchmark's references."""
        raise NotImplementedError

    def snapshot(self, state: dict) -> Dict[str, float]:
        model = state["model"]
        out = {f"executor_{k}": v for k, v in model.executor_stats().items()}
        out.update(store_counters(model))
        return out

    def close(self, state: dict) -> None:
        pass


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class Train(Workload):
    """MGBR planned training at the paper's loop settings."""

    name = "train"

    def setup(self, seed: int) -> dict:
        from repro.core import MGBR, MGBRConfig
        from repro.training import TrainConfig, Trainer

        dataset = make_dataset(DATA_SEED, **DATA)
        config = MGBRConfig.small(d=MGBR_DIM, batch_size=64, train_negatives=9,
                                  aux_negatives=99, seed=seed)
        model = MGBR(dataset.train, dataset.n_users, dataset.n_items, config=config)
        trainer = Trainer(model, dataset, TrainConfig(
            batch_size=64, train_negatives=9, aux_negatives=99,
            learning_rate=5e-3, seed=seed,
        ))
        return {"dataset": dataset, "model": model, "trainer": trainer, "losses": [],
                "seed": seed}

    def measure(self, state: dict, seconds: float, tracer=None) -> Result:
        trainer = state["trainer"]
        optimizer = trainer.optimizer
        step = optimizer.step
        probe = SpeedProbe()
        starts: List[float] = []
        ends: List[float] = []

        def stamped_step():
            # A step runs from the end of the previous one (or the probe
            # after it) to the end of its optimizer update.
            step()
            ends.append(time.perf_counter())
            probe.maybe()
            starts.append(time.perf_counter())

        def loop():
            # Whole epochs, at least two (the loss check compares them).
            probe.maybe()
            starts.append(time.perf_counter())
            while len(state["losses"]) < 2 or (ends[-1] - starts[0]) < seconds:
                state["losses"].append(trainer.train_epoch().losses["total"])

        state["losses"] = []
        optimizer.step = stamped_step  # step clock: one stamp per step
        try:
            in_root(tracer, loop)
        finally:
            del optimizer.step
        steps = np.asarray(ends) - np.asarray(starts[:len(ends)])
        return offline_result(probe, steps, steps, {"epochs": len(state["losses"])})

    def check(self, state: dict):
        return 1, losses_fall(state["losses"])


# ----------------------------------------------------------------------
# eval / eval-gbmf
# ----------------------------------------------------------------------
class Evaluate(Workload):
    """The Table III protocol (1:9 @10 and 1:99 @100, both tasks, test split)."""

    name = "eval"
    PROTOCOLS = ((9, 10), (99, 100))

    def build_model(self, dataset, seed: int):
        from repro.core import MGBR, MGBRConfig

        return MGBR(dataset.train, dataset.n_users, dataset.n_items,
                    config=MGBRConfig.small(d=MGBR_DIM, seed=seed))

    def setup(self, seed: int) -> dict:
        from repro.data import extract_task_a, extract_task_b
        from repro.eval import EvalProtocol

        dataset = make_dataset(DATA_SEED, **DATA)
        model = self.build_model(dataset, seed)
        protocols = [EvalProtocol(dataset, n_negatives=n, cutoff=k, seed=seed,
                                  max_instances=EVAL_INSTANCES)
                     for n, k in self.PROTOCOLS]
        # The first run draws and caches the candidate lists and warms
        # the encoder and scoring buffers.
        results = [p.run(model) for p in protocols]
        n_lists = (min(len(extract_task_a(dataset.test)), EVAL_INSTANCES)
                   + min(len(extract_task_b(dataset.test)), EVAL_INSTANCES))
        return {"dataset": dataset, "model": model, "protocols": protocols,
                "results": results, "n_lists": n_lists, "seed": seed}

    def measure(self, state: dict, seconds: float, tracer=None) -> Result:
        model, (short, long) = state["model"], state["protocols"]

        probe = SpeedProbe()

        def evaluation():
            first = short.run(model)
            t0 = time.perf_counter()
            second = long.run(model)
            state["results"] = [first, second]
            return time.perf_counter() - t0

        records = in_root(tracer, lambda: timed_ops(seconds, evaluation, probe))
        durations, long_s = zip(*records)
        # Throughput: ranked 1:99 lists per second of 1:99 protocol time.
        # Latency: one full Table III evaluation (both protocols).
        return offline_result(probe, durations, long_s, {"evaluations": len(records)},
                              ops_per_sample=state["n_lists"])

    def check(self, state: dict):
        problems = []
        for (n, k), result in zip(self.PROTOCOLS, state["results"]):
            reference = reference_metrics(state["model"], state["dataset"], n, k,
                                          state["seed"], EVAL_INSTANCES)
            problems += [f"1:{n}: {p}" for p in compare_metrics(result.flat(), reference)]
        return len(self.PROTOCOLS), problems


class EvaluateGBMF(Evaluate):
    name = "eval-gbmf"

    def build_model(self, dataset, seed: int):
        from repro.baselines import GBMF

        return GBMF(dataset.n_users, dataset.n_items, seed=seed)


# ----------------------------------------------------------------------
# serve / serve-catalog
# ----------------------------------------------------------------------
def busy_seconds(engine) -> float:
    """Total time the engine has spent in flushes."""
    stats = engine.stats()["engine"]
    return stats["avg_flush_seconds"] * stats["flushes"]


@dataclass
class Loop:
    """Outcome of one open-loop phase."""

    latencies_ms: np.ndarray   # per request; NaN where it failed
    lags_ms: np.ndarray        # how late each request was submitted
    busy_s: float              # engine flush time during the phase
    tickets: list
    submits: Dict[int, float]  # id(ticket) -> submit time

    @property
    def failed(self) -> int:
        return int(np.isnan(self.latencies_ms).sum())


def open_loop(engine, schedule: Schedule) -> Loop:
    """Submit ``schedule`` on time, wait for every ticket.

    Latency runs from each request's *due* time to its resolution, so a
    stall also charges the requests queued behind it.  A refused submit
    or a failed ticket counts as failed.
    """
    from repro.serving import ServingError

    n = len(schedule)
    tickets: List[Optional[object]] = [None] * n
    submits: Dict[int, float] = {}
    lags = np.empty(n)
    busy_before = busy_seconds(engine)
    start = time.perf_counter() + 0.002
    due = start + schedule.due
    for k in range(n):
        wait = due[k] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        now = time.perf_counter()
        lags[k] = now - due[k]
        user = int(schedule.users[k])
        try:
            if schedule.task_a[k]:
                ticket = engine.submit_items(user, schedule.candidates[k])
            else:
                ticket = engine.submit_participants(
                    user, int(schedule.items[k]), schedule.candidates[k])
        except ServingError:
            continue
        tickets[k] = ticket
        submits[id(ticket)] = now
    latencies = np.full(n, np.nan)
    for k, ticket in enumerate(tickets):
        if ticket is None:
            continue
        try:
            ticket.wait(TICKET_TIMEOUT_S)
        except Exception:  # a failed ticket re-raises its flush's error
            continue
        latencies[k] = (ticket.resolved_at - due[k]) * 1000.0
    busy = busy_seconds(engine) - busy_before
    return Loop(latencies, lags * 1000.0, busy, tickets, submits)


class Serve(Workload):
    """An open loop of Poisson arrivals into one ServingEngine over MGBR."""

    name = "serve"
    # Offered req/s of the measured phase (the engine about a third
    # busy: nearer saturation a slow spell of the host multiplies
    # queueing delay, and latency no longer repeats) and of the
    # low-load diagnostic.
    RATE = 300.0
    LOW_RATE = 100.0
    SKEWED = True

    def build_model(self, seed: int) -> dict:
        from repro.core import MGBR, MGBRConfig

        dataset = make_dataset(DATA_SEED, **DATA)
        model = MGBR(dataset.train, dataset.n_users, dataset.n_items,
                     config=MGBRConfig.small(d=MGBR_DIM, seed=seed))
        return {"dataset": dataset, "model": model}

    def setup(self, seed: int) -> dict:
        from repro.serving import ServingEngine

        state = self.build_model(seed)
        engine = ServingEngine(state["model"]).start()
        # One request per task runs the encoder and warms the buffers.
        engine.score_items(0, [0, 1], timeout=TICKET_TIMEOUT_S)
        engine.score_participants(0, 0, [1, 2], timeout=TICKET_TIMEOUT_S)
        state.update(engine=engine, seed=seed, samples=[])
        return state

    def schedule(self, state: dict, rate: float, seconds: float, phase: int) -> Schedule:
        model = state["model"]
        return make_schedule(state["seed"] * 16 + phase, rate, seconds, model.n_users,
                             model.n_items, SERVE_WIDTH, SHARE_A, self.SKEWED)

    def inputs(self, state: dict, seconds: float) -> list:
        return [*super().inputs(state, seconds), self.schedule(state, self.RATE, seconds, 1)]

    def _loop(self, state: dict, rate: float, seconds: float, phase: int,
              tracer=None):
        schedule = self.schedule(state, rate, seconds, phase)
        loop = in_root(tracer, lambda: open_loop(state["engine"], schedule))
        return schedule, loop

    def measure(self, state: dict, seconds: float, tracer=None) -> Result:
        schedule, loop = self._loop(state, self.RATE, seconds, 1, tracer)
        ok = ~np.isnan(loop.latencies_ms)
        pick = np.random.default_rng(state["seed"]).random(len(schedule)) < CHECK_SHARE
        for k in np.flatnonzero(pick & ok):
            state["samples"].append((bool(schedule.task_a[k]), int(schedule.users[k]),
                                     int(schedule.items[k]), schedule.candidates[k],
                                     loop.tickets[k].scores))
        return Result(
            ops=len(schedule), failed=loop.failed,
            throughput=float(ok.sum()) / loop.busy_s,
            latency=chunked_summary(loop.latencies_ms[ok]),
            extra={"gen_lag_p99_ms": float(np.percentile(loop.lags_ms, 99)),
                   "gen_late_share": float(np.mean(loop.lags_ms > LATE_MS)),
                   "offered_rps": self.RATE},
            submits=loop.submits,
        )

    def diagnostics(self, state: dict, seconds: float) -> Dict[str, float]:
        """Low-load latency and the highest rate meeting the tail limit."""
        _, low = self._loop(state, self.LOW_RATE, seconds / 2.0, 2)
        low_summary = summarize(low.latencies_ms[~np.isnan(low.latencies_ms)])
        best = 0.0
        for rung, factor in enumerate(RUNGS):
            _, loop = self._loop(state, self.RATE * factor, RUNG_S, 3 + rung)
            if loop.failed or summarize(loop.latencies_ms)["tail"] > RATE_LIMIT_MS:
                break
            best = self.RATE * factor
        return {"low_p50_ms": low_summary["p50"], "low_tail_ms": low_summary["tail"],
                "max_rate_rps": best}

    def check(self, state: dict):
        state["engine"].stop()
        model = state["model"]
        problems = []
        for task_a, user, item, cands, served in state["samples"]:
            if task_a:
                want = model.score_items_matrix(np.array([user]), cands[None, :])[0]
            else:
                want = model.score_participants_matrix(
                    np.array([user]), np.array([item]), cands[None, :])[0]
            if not compare_scores(served, want):
                problems.append(f"served scores differ for user {user} "
                                f"({'A' if task_a else 'B'})")
        if not state["samples"]:
            problems.append("no served ticket was sampled")
        return len(state["samples"]), problems

    def snapshot(self, state: dict) -> Dict[str, float]:
        out = super().snapshot(state)
        stats = state["engine"].stats()
        out.update(flushes=stats["engine"]["flushes"],
                   flat_rows=stats["batcher"]["flat_rows"],
                   core_flushes=stats["batcher"]["flushes"],
                   shed=stats["overload"]["shed"],
                   rejected=stats["overload"]["rejected"])
        return out

    def close(self, state: dict) -> None:
        state["engine"].stop()


class ServeCatalog(Serve):
    """GBMF over a 10^5-user catalog held in a 2-worker process store."""

    name = "serve-catalog"
    USERS = 100_000
    ITEMS = 10_000
    RATE = 800.0
    LOW_RATE = 200.0
    SKEWED = False

    def build_model(self, seed: int) -> dict:
        from repro.baselines import GBMF

        model = GBMF(self.USERS, self.ITEMS, seed=seed, n_shards=2, service=True)
        return {"dataset": None, "model": model}

    def close(self, state: dict) -> None:
        from repro.store import iter_stores

        super().close(state)
        for _, store in iter_stores(state["model"]):
            close = getattr(store, "close", None)
            if close is not None:
                close()


WORKLOADS = {w.name: w for w in (Train(), Evaluate(), EvaluateGBMF(), Serve(), ServeCatalog())}
