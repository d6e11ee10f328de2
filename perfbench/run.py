#!/usr/bin/env python3
"""The repository benchmark: two executor mixes and a service storm.

Usage, from the repository root::

    python3 perfbench/run.py --workload lowsel_mix --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up ``SETUPS`` times and runs one
untraced pass of ``--seconds``; it reports the end-to-end metrics.
``--trace 1`` runs an untraced pass and then a traced pass on the same
seed, each of half the seconds, with a span around every call the
benchmark makes into a layer (``workloads``, ``sql``, ``storage``,
``parallel``, ``service``; ``costmodel`` is read from the decision
ledger); it prints both sets of metrics and reports the per-layer ones.
The last line of output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Every served result is checked against ``reference_aggregate``.  A wrong
result, a ``repro_mp_*`` segment left in ``/dev/shm`` or a live worker
after a workload makes ``correct`` false and the exit status 1.  Without
the repository's ``src/`` beside this directory nothing is measured and
the exit status is 2.  ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUPS = 9          # setup_s is the median of this many cold set-ups
DISPATCHERS = 2     # service_storm's open-loop generator threads
DIRECT_MISSES = 12  # service_storm misses replayed as direct calls


def _per_layer_names() -> list[str]:
    """The per-layer metrics a traced run reports, as BENCHMARK.json
    lists them."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def _value(registry, name: str):
    """A registry metric's value, or 0 when the run never touched it."""
    return registry.value(name) if name in registry else 0


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_mp_")}
    except FileNotFoundError:  # no POSIX shm directory on this platform
        return set()


def _leaks(before: set[str]) -> list[str]:
    problems = [f"leaked segment {n}" for n in sorted(_shm_segments() - before)]
    problems += [f"live worker pid {p.pid}"
                 for p in multiprocessing.active_children()]
    return problems


def _references(name: str, seed: int, sqls: list[str]) -> dict:
    """Reference rows per SQL, computed in a spawned process so the
    checker's time and memory stay out of the measured one."""
    from concurrent.futures import ProcessPoolExecutor

    import workloads

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(workloads.references, name, seed, sqls).result()


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts for shared
    memory and spawned workers, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Bench:
    """One workload run: set-ups, passes, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: float,
                 trace: bool = False) -> None:
        import workloads

        self.w = workloads
        self.name = name
        self.mix = workloads.WORKLOADS[name]
        self.storm = isinstance(self.mix, workloads.ServiceStorm)
        self.seed = seed
        # A traced run fits both of its passes into the same seconds.
        self.seconds = seconds / 2 if trace else seconds
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.worker_rss = 0
        self.refs: dict = {}

    def sqls(self) -> list[str]:
        if self.storm:
            return self.mix.sqls(self.seed, self.seconds)
        return list(self.w.SHAPES)

    # set-up and teardown -------------------------------------------------

    def setup(self, rec=None):
        """Start cold, generate, warm the pool with the first call and
        (service) register the table.  Returns (relation, service)."""
        from repro.parallel import (
            multiprocessing_aggregate,
            reset_pool_breaker,
            shutdown_worker_pool,
        )
        from repro.sql.parser import parse_query

        reset_pool_breaker()
        shutdown_worker_pool()
        t0 = time.perf_counter()
        if rec is None:
            dist = self.mix.generate(self.seed)
        else:
            with rec.span("workloads.generate", op=0):
                dist = self.mix.generate(self.seed)
        service = None
        if self.storm:
            service = self._service(dist, query_log=rec is not None)
            # A serving table starts with its hot set cached.
            for sql in self.w.SHAPES:
                service.submit(sql)
        else:
            multiprocessing_aggregate(
                dist, parse_query(self.w.SHAPES[0])[1],
                processes=self.w.PROCESSES, strategy="pool",
            )
        self.setup_times.append(time.perf_counter() - t0)
        return dist, service

    def _qlog_path(self) -> str:
        return os.path.join(OUT, f"{self.name}-seed{self.seed}-qlog.jsonl")

    def _service(self, dist, query_log: bool):
        from repro.service import QueryService, ServiceConfig

        log = None
        if query_log:
            os.makedirs(OUT, exist_ok=True)
            log = self._qlog_path()
            if os.path.exists(log):
                os.remove(log)
        service = QueryService(ServiceConfig(
            strategy="pool", processes=self.w.PROCESSES, max_concurrency=1,
            query_log_path=log,
        ))
        service.register_table("r", dist)
        return service

    def teardown(self, service, shm_before: set[str]) -> None:
        from repro.parallel import shutdown_worker_pool

        if service is not None:
            service.drain()
        shutdown_worker_pool()
        self.problems += _leaks(shm_before)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        print(f"# op failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def check(self, sql: str, rows) -> None:
        if not self.w.rows_close(rows, self.refs[sql]):
            self.wrong.append(sql)

    # executor mixes ----------------------------------------------------

    def executor_pass(self, dist) -> dict:
        """Closed loop, one caller: times each call, untraced."""
        from repro.parallel import multiprocessing_aggregate
        from repro.sql.parser import parse_query

        queries = {sql: parse_query(sql)[1] for sql in self.w.SHAPES}
        lat, done, check_s = [], 0, 0.0
        profiles: list = []
        start = time.perf_counter()
        for shape, strategy in self.mix.ops(self.seed):
            if time.perf_counter() - start - check_s >= self.seconds:
                break
            sql = self.w.SHAPES[shape]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                rows = multiprocessing_aggregate(
                    dist, queries[sql], processes=self.w.PROCESSES,
                    strategy=strategy, profiles=profiles,
                )
            except Exception as exc:  # counted; the run goes on
                lat.append(time.perf_counter() - t0)
                self.fail(exc)
                continue
            lat.append(time.perf_counter() - t0)
            done += 1
            c0 = time.perf_counter()
            self.check(sql, rows)
            check_s += time.perf_counter() - c0
        self.worker_rss = max([self.worker_rss]
                              + [p.max_rss_bytes for p in profiles])
        return {"latencies": lat, "completed": done,
                "wall": time.perf_counter() - start - check_s}

    def traced_call(self, rec, op: int, dist, sql: str, strategy: str,
                    root: str = "bench.op") -> dict:
        """One executor call under spans, then its storage replay."""
        from repro.obs.decisions import DecisionLedger
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel import multiprocessing_aggregate
        from repro.sql.parser import parse_query

        metrics, profiles, ledger = MetricsRegistry(), [], DecisionLedger()
        with rec.span(root, op=op) as whole:
            with rec.span("sql.parse_query"):
                query = parse_query(sql)[1]
            with rec.span("parallel.multiprocessing_aggregate") as call:
                cpu0 = time.process_time()
                rows = multiprocessing_aggregate(
                    dist, query, processes=self.w.PROCESSES,
                    strategy=strategy, metrics=metrics, profiles=profiles,
                    ledger=ledger,
                )
                parent_cpu = time.process_time() - cpu0
        self.check(sql, rows)
        query_s = call["end"] - call["start"]
        local = _value(metrics, "mp.phase_seconds.local")
        merge = _value(metrics, "mp.phase_seconds.merge")
        record = {
            "sql": sql,
            "strategy": strategy,
            "where": " WHERE " in sql,
            "op_s": whole["end"] - whole["start"],
            "query_s": query_s,
            "local_s": local,
            "merge_s": merge,
            "unattributed_s": query_s - local - merge,
            "parent_cpu_s": parent_cpu,
            "worker_cpu_s": sum(p.cpu_seconds for p in profiles),
            "worker_wall_s": sum(p.wall_seconds for p in profiles),
            "attempts": _value(metrics, "mp.attempts"),
            "retries": _value(metrics, "mp.retries"),
            "groups": len(rows),
            "auto_choice": next(
                (s for s in ("pool", "global", "rep")
                 if _value(metrics, "mp.auto_strategy." + s)), None),
            "verdicts": [e.truth["verdict"] for e in ledger.events
                         if "verdict" in e.truth],
        }
        record.update(self.replay_storage(rec, op, dist, sql))
        return record

    def replay_storage(self, rec, op: int, dist, sql: str) -> dict:
        """Replay the storage layer's share of one call on every fragment,
        as the executor ships it: without WHERE, project + to_bytes of the
        columns the SQL names and from_bytes (the shm_col path); with
        WHERE, the full-block to_rows of the row fallback."""
        from repro.storage.columnblock import ColumnBlock

        blocks = [f.relation.block for f in dist.fragments]
        out = {}
        with rec.span("bench.replay", op=op):
            if " WHERE " in sql:
                with rec.span("storage.to_rows") as span:
                    for block in blocks:
                        block.to_rows()
                out["to_rows_s"] = span["end"] - span["start"]
                return out
            schema = dist.schema
            idx = [i for i, c in enumerate(schema.columns)
                   if f" {c.name}" in sql or f"({c.name}" in sql]
            sub = schema.project([schema.columns[i].name for i in idx])
            with rec.span("storage.encode") as span:
                payloads = [b.project(idx, sub).to_bytes() for b in blocks]
            out["encode_s"] = span["end"] - span["start"]
            out["encode_bytes"] = sum(len(p) for p in payloads)
            with rec.span("storage.decode") as span:
                for data in payloads:
                    ColumnBlock.from_bytes(sub, data)
            out["decode_s"] = span["end"] - span["start"]
        return out

    def traced_executor_pass(self, rec, dist) -> list[dict]:
        """The mix, traced, until the seconds are up and at least one
        whole cycle (the deterministic counts) has run."""
        cycle = len(self.mix.cycle(random.Random(0)))
        start = time.perf_counter()
        records = []
        for op, (shape, strategy) in enumerate(self.mix.ops(self.seed)):
            if op >= cycle and time.perf_counter() - start >= self.seconds:
                break
            self.attempted += 1
            try:
                records.append(self.traced_call(
                    rec, op + 1, dist, self.w.SHAPES[shape], strategy))
            except Exception as exc:  # counted; the run goes on
                self.fail(exc)
        return records

    # service storm -----------------------------------------------------

    def storm_pass(self, service, rec=None) -> dict:
        """Open loop: dispatcher threads replay the seeded Poisson
        schedule; each op is timed from its due time to its reply."""
        schedule = self.mix.schedule(self.seed, self.seconds)
        results: list = [None] * len(schedule)
        lock = threading.Lock()
        cursor = [0]
        t0 = time.perf_counter() + 0.05

        def run_op(op: str) -> dict:
            if op == "WRITE":
                service.bump_table("r")
                return {"kind": "write"}
            outcome = service.submit(op)
            return {"kind": "hit" if outcome.cache_hit else "miss",
                    "sql": op, "rows": outcome.rows,
                    "query_id": outcome.query_id}

        def dispatcher() -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(schedule):
                    return
                offset, op = schedule[i]
                due = t0 + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                try:
                    if rec is None:
                        res = run_op(op)
                    else:
                        with rec.span("bench.op", op=i + 1):
                            with rec.span("service.bump_table" if op == "WRITE"
                                          else "service.submit"):
                                res = run_op(op)
                except Exception as exc:  # refusals and errors both count
                    res = {"kind": "failed", "error": exc}
                done = time.perf_counter()
                res.update(late=started - due, latency=done - due, done=done)
                results[i] = res

        threads = [threading.Thread(target=dispatcher)
                   for _ in range(DISPATCHERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.attempted += len(results)
        for r in results:
            if r["kind"] == "failed":
                self.fail(r.pop("error"))
            elif "rows" in r:
                self.check(r["sql"], r.pop("rows"))
        return {
            "latencies": [r["latency"] for r in results],
            "completed": sum(r["kind"] != "failed" for r in results),
            "wall": max(r["done"] for r in results) - t0,
            "results": results,
        }

    # the two kinds of pass -----------------------------------------------

    def untraced(self) -> tuple[dict, dict]:
        """The end-to-end metrics: set up ``SETUPS`` times, then run the
        untraced pass on the last set-up."""
        from spans import p50, p90

        shm_before = _shm_segments()
        for i in range(SETUPS):
            dist, service = self.setup()
            if service is not None and i < SETUPS - 1:
                service.drain()
        if self.storm:
            res = self.storm_pass(service)
            self.worker_rss = max(self.worker_rss, _value(
                service.metrics, "mp.worker_max_rss_bytes"))
        else:
            res = self.executor_pass(dist)
        self.teardown(service, shm_before)
        lat = res["latencies"]
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        metrics = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "latency_s_p50": (p50(lat), "s"),
            "latency_s_p90": (p90(lat), "s"),
            "ops_per_s": (res["completed"] / res["wall"], "1/s"),
            "ok_frac": (res["completed"] / len(lat), "ratio"),
            "peak_rss_mb": ((own_rss + self.worker_rss) / 2**20, "MB"),
        }
        return metrics, res

    def traced(self, untraced: dict) -> dict:
        """The per-layer metrics, from a traced pass on the same seed."""
        from repro.sql.parser import parse_query
        from spans import SpanRecorder, p50, p90

        rec = SpanRecorder()
        shm_before = _shm_segments()
        dist, service = self.setup(rec)
        results = qlog = None
        if self.storm:
            res = self.storm_pass(service, rec)
            traced_lat, results = res["latencies"], res["results"]
            counters = {k: _value(service.metrics, k) for k in (
                "svc.shed", "svc.deadline_misses", "svc.retries",
                "mp.attempts", "mp.retries")}
            service.drain()
            # The storm's own records: set-up's submits are left out.
            storm_ids = {r["query_id"] for r in results if "query_id" in r}
            with open(self._qlog_path(), encoding="utf-8") as fh:
                qlog = [q for q in map(json.loads, fh)
                        if q["query_id"] in storm_ids]
            for i, r in enumerate(results):
                if "sql" in r:
                    with rec.span("bench.replay", op=i + 1):
                        with rec.span("sql.parse_query"):
                            parse_query(r["sql"])
            # The executor layers, seen directly: the six shapes once
            # (the deterministic counts), then the first other misses.
            misses = [r["sql"] for r in results if r["kind"] == "miss"]
            direct = list(dict.fromkeys(self.w.SHAPES + tuple(misses)))[
                : len(self.w.SHAPES) + DIRECT_MISSES]
            records = [
                self.traced_call(rec, -(i + 1), dist, sql, "pool",
                                 root="bench.direct")
                for i, sql in enumerate(direct)
            ]
            first = records[: len(self.w.SHAPES)]
        else:
            records = self.traced_executor_pass(rec, dist)
            traced_lat = [r["op_s"] for r in records]
            first = records[: len(self.mix.cycle(random.Random(0)))]
            counters = {
                "mp.attempts": sum(r["attempts"] for r in records),
                "mp.retries": sum(r["retries"] for r in records),
            }
        self.teardown(service, shm_before)
        os.makedirs(OUT, exist_ok=True)
        rec.write(os.path.join(OUT, f"{self.name}-seed{self.seed}-spans.jsonl"))

        def per_op(key: str, where=lambda r: True) -> float:
            return p50([r[key] for r in records if key in r and where(r)])

        m: dict = {
            "workloads.generate_s": (p50(rec.durations("workloads.generate")),
                                     "s"),
            "sql.parse_s_p50": (p50(rec.durations("sql.parse_query")), "s"),
            "storage.encode_s_p50": (per_op("encode_s"), "s"),
            "storage.decode_s_p50": (per_op("decode_s"), "s"),
            "storage.to_rows_s_p50": (per_op("to_rows_s"), "s"),
            # Counts over one cycle of the mix (the six shapes, for the
            # storm): fixed by the seed, so they repeat exactly.
            "storage.encode_bytes": (
                sum(r.get("encode_bytes", 0) for r in first), "bytes"),
            "storage.dict_bytes": (sum(
                len(d.to_bytes()) for f in dist.fragments
                for d in f.relation.block.dictionaries.values()), "bytes"),
        }
        for s in self.w.STRATEGIES:
            m[f"parallel.query_s_p50.{s}"] = (
                per_op("query_s", lambda r, s=s: r["strategy"] == s), "s")
        m["parallel.query_s_p50.where"] = (
            per_op("query_s", lambda r: r["where"]), "s")
        m["parallel.query_s_p50.nowhere"] = (
            per_op("query_s", lambda r: not r["where"]), "s")
        for part in ("local", "merge", "unattributed"):
            m[f"parallel.{part}_s_p50"] = (per_op(f"{part}_s"), "s")
        # Means add up: local + merge + unattributed = query, per call.
        for part in ("query", "local", "merge", "unattributed"):
            m[f"parallel.{part}_s_mean"] = (
                statistics.fmean(r[f"{part}_s"] for r in records), "s")
        for key in ("worker_cpu_s", "worker_wall_s", "parent_cpu_s"):
            m[f"parallel.{key}"] = (per_op(key), "s")
        m["parallel.attempts"] = (counters["mp.attempts"], "count")
        m["parallel.retries"] = (counters["mp.retries"], "count")
        m["parallel.groups_output"] = (sum(r["groups"] for r in first),
                                       "count")
        for s in ("pool", "global", "rep"):
            m[f"costmodel.auto_choice.{s}"] = (
                sum(r["auto_choice"] == s for r in first), "count")
        verdicts = [v for r in records for v in r["verdicts"]]
        m["costmodel.auto_correct_frac"] = (
            verdicts.count("correct") / len(verdicts) if verdicts else 0.0,
            "ratio")
        m.update(self._service_metrics(results, qlog, counters, records, rec))
        m["bench.generator_late_s_p90"] = (
            p90([r["late"] for r in results]) if results else 0.0, "s")
        common = min(len(traced_lat), len(untraced["latencies"]))
        m["bench.trace_overhead_s"] = (
            sum(traced_lat[:common]) - sum(untraced["latencies"][:common]),
            "s")
        self_times = rec.self_times()
        for layer in ("bench", "workloads", "sql", "storage", "parallel",
                      "service"):
            m[f"self_s.{layer}"] = (self_times.get(layer, 0.0), "s")
        names = _per_layer_names()
        if set(m) != set(names):
            raise RuntimeError(f"per-layer metrics drifted from BENCHMARK.json: "
                               f"{sorted(set(m) ^ set(names))}")
        return {name: m[name] for name in names}

    def _service_metrics(self, results, qlog, counters, records, rec) -> dict:
        from repro.obs.live import fingerprint
        from spans import p50, p90

        out = {}
        if results is None:
            for name, unit in (
                ("queue_wait_s_p90", "s"), ("exec_s_p50", "s"),
                ("cache_hit_frac", "ratio"), ("hit_latency_s_p50", "s"),
                ("miss_latency_s_p90", "s"), ("write_s_p50", "s"),
                ("exec_over_direct", "ratio"),
                ("exec_over_direct_pairs", "count"),
            ):
                out[f"service.{name}"] = (0.0, unit)
        else:
            reads = [r for r in results if r["kind"] in ("hit", "miss")]
            exec_s = [q["exec_seconds"] for q in qlog
                      if q["exec_seconds"] is not None]
            # The storm's misses of the no-WHERE shapes (the ones a bump
            # brings back) against direct calls of the same SQL: there the
            # service's memory budget swaps the columnar kernel for the
            # governed per-row phase.
            direct = {fingerprint(r["sql"]): r["query_s"]
                      for r in records if not r["where"]}
            pairs = [(q["exec_seconds"], direct[q["sql_fingerprint"]])
                     for q in qlog if q["exec_seconds"] is not None
                     and q["sql_fingerprint"] in direct]
            ratio = (p50([e for e, _ in pairs]) / p50([d for _, d in pairs])
                     if pairs else 0.0)
            out = {
                "service.queue_wait_s_p90": (
                    p90([q["queue_wait_seconds"] for q in qlog]), "s"),
                "service.exec_s_p50": (p50(exec_s), "s"),
                "service.cache_hit_frac": (
                    sum(r["kind"] == "hit" for r in reads) / len(reads),
                    "ratio"),
                "service.hit_latency_s_p50": (p50(
                    [r["latency"] for r in reads if r["kind"] == "hit"]), "s"),
                "service.miss_latency_s_p90": (p90(
                    [r["latency"] for r in reads if r["kind"] == "miss"]),
                    "s"),
                "service.write_s_p50": (
                    p50(rec.durations("service.bump_table")), "s"),
                "service.exec_over_direct": (ratio, "ratio"),
                "service.exec_over_direct_pairs": (len(pairs), "count"),
            }
        for name, key in (("shed", "svc.shed"),
                          ("deadline_misses", "svc.deadline_misses"),
                          ("retries", "svc.retries")):
            out[f"service.{name}"] = (counters.get(key, 0), "count")
        return out


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no {SRC}/repro; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.refs = _references(args.workload, args.seed, bench.sqls())
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    e2e, untraced = bench.untraced()
    _print_metrics(f"end-to-end ({len(untraced['latencies'])} timed ops, "
                   f"{bench.seconds:g} s)", e2e)
    metrics = e2e
    if args.trace:
        metrics = bench.traced(untraced)
        _print_metrics("per-layer (traced pass)", metrics)
    for problem in bench.problems:
        print(f"# FAIL {problem}")
    for sql in sorted(set(bench.wrong)):
        print(f"# FAIL wrong result: {sql}")
    correct = not bench.problems and not bench.wrong
    _stop_resource_tracker()
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
