"""The benchmark's three workloads: data shapes, op schedules, references.

Everything here is a pure function of the workload name and the seed, so
the same seed gives the same relation, the same op stream and the same
reference answers.  The program under test only ever receives the
generated relation and the SQL strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.parallel import reference_aggregate
from repro.sql.parser import parse_query
from repro.workloads.generator import (
    generate_uniform,
    generate_zipf,
    selectivity_to_groups,
)

# The six query shapes of ``benchmarks/bench_service.py``, in its Zipf
# popularity order.  Two carry a WHERE clause.
SHAPES = (
    "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, AVG(val) FROM r GROUP BY gkey",
    "SELECT gkey, SUM(val) FROM r WHERE val >= 25.0 GROUP BY gkey",
    "SELECT gkey, MIN(val), MAX(val) FROM r GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r WHERE val >= 75.0 GROUP BY gkey",
)
WHERE_SHAPES = tuple(i for i, sql in enumerate(SHAPES) if " WHERE " in sql)
STRATEGIES = ("pool", "global", "rep", "auto")
STR_KEY_FORMAT = "g{:08d}"   # benchmarks/conftest.py fig2_workload
FRAGMENTS = 8
PROCESSES = 2                # the harness host has two cores

# service_storm's cache-miss stream: one threshold out of MISS_THRESHOLDS
# values, a working set well beyond the 256-entry result cache.  The
# thresholds span a narrow band of ``val`` (uniform on [0, 100)) so every
# miss filters about the same share of rows and costs about the same.
MISS_SQL = "SELECT gkey, SUM(val) FROM r WHERE val >= {:.2f} GROUP BY gkey"
MISS_THRESHOLDS = 1000
MISS_LOW, MISS_STEP = 40.0, 0.02


@dataclass(frozen=True)
class ExecutorMix:
    """A closed-loop stream of (shape, strategy) calls on one relation.

    ``weights`` maps (shape index, strategy) to its share of a cycle;
    each cycle is the weighted multiset, shuffled by the seed.  Fixed
    shares keep the latency quantiles inside one cost mode on every
    seed instead of sliding between two.
    """

    tuples: int
    selectivity: float
    weights: dict

    def generate(self, seed: int):
        return generate_uniform(
            num_tuples=self.tuples,
            num_groups=selectivity_to_groups(self.selectivity, self.tuples),
            num_nodes=FRAGMENTS,
            seed=seed,
            key_format=STR_KEY_FORMAT,
        )

    def cycle(self, rng: random.Random) -> list[tuple[int, str]]:
        items = [item for item, n in sorted(self.weights.items())
                 for _ in range(n)]
        rng.shuffle(items)
        return items

    def ops(self, seed: int):
        """The endless op stream: (shape index, strategy) pairs."""
        rng = random.Random(seed)
        while True:
            yield from self.cycle(rng)


@dataclass(frozen=True)
class ServiceStorm:
    """An open-loop Poisson stream of reads and writes on one service.

    Ops come in blocks of ``block`` ops: one ``bump_table`` write sits at
    a seeded position in the first half of each block, so reads (and the
    misses the bump causes) follow it in every pass, however short;
    ``misses`` fresh-threshold WHERE queries sit evenly spaced among the
    other slots from a seeded offset, and the rest are Zipf picks of the
    six shapes.  Fixed counts per block keep the hit/miss shares, and so
    the latency quantiles, the same on every seed; even spacing keeps the
    misses from queueing behind each other more on one seed than on
    another.
    """

    tuples: int
    groups: int
    rate: float          # operations per second
    block: int           # ops per block (one write each)
    misses: int          # fresh-threshold WHERE queries per block
    zipf: float = 1.0

    def generate(self, seed: int):
        return generate_zipf(
            num_tuples=self.tuples,
            num_groups=self.groups,
            num_nodes=FRAGMENTS,
            alpha=self.zipf,
            seed=seed,
            key_format=STR_KEY_FORMAT,
        )

    def schedule(self, seed: int, seconds: float) -> list[tuple[float, str]]:
        """(due offset, op) pairs; op is a SQL string or ``"WRITE"``.

        ``rate * seconds`` arrivals, uniform over the window: a Poisson
        process conditioned on its count, so every seed times the same
        number of ops.
        """
        rng = random.Random(seed)
        count = max(1, round(self.rate * seconds))
        dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        weights = [1.0 / (rank + 1) ** self.zipf
                   for rank in range(len(SHAPES))]
        ops: list[str] = []
        while len(ops) < count:
            block = rng.choices(SHAPES, weights=weights, k=self.block)
            write = rng.randrange(self.block // 2)
            block[write] = "WRITE"
            reads = [i for i in range(self.block) if i != write]
            stride = len(reads) // self.misses
            for pos in reads[rng.randrange(stride)::stride][: self.misses]:
                block[pos] = MISS_SQL.format(
                    MISS_LOW + MISS_STEP * rng.randrange(MISS_THRESHOLDS))
            ops += block
        return list(zip(dues, ops))

    def sqls(self, seed: int, seconds: float) -> list[str]:
        seen = dict.fromkeys(SHAPES)
        for _due, op in self.schedule(seed, seconds):
            if op != "WRITE":
                seen.setdefault(op)
        return list(seen)


def _weights(*groups) -> dict:
    """Per-cycle op counts from ``(count, shapes, strategies)`` groups;
    every (shape, strategy) pair must be covered exactly once."""
    weights = {}
    for count, shapes, strategies in groups:
        for shape in shapes:
            for strategy in strategies:
                if (shape, strategy) in weights:
                    raise ValueError(f"({shape}, {strategy}) weighted twice")
                weights[(shape, strategy)] = count
    if len(weights) != len(SHAPES) * len(STRATEGIES):
        raise ValueError("every shape must run under every strategy")
    return weights


FAST = ("global", "auto")   # the strategies auto picks at these sizes

WORKLOADS = {
    # Each quantile sits mid-way through a band of ops with similar cost,
    # never on the step between two bands, so the p50 and p90 stay put
    # when run-to-run noise reorders neighbouring classes.
    "lowsel_mix": ExecutorMix(
        tuples=100_000, selectivity=0.005,
        weights=_weights(
            (7, (0, 1, 2), FAST),                 # ~25 ms band: the p50
            (1, (4,), FAST),
            (1, (0, 1, 2, 4), ("pool", "rep")),
            (2, WHERE_SHAPES, ("pool", *FAST)),   # WHERE band: the p90
            (1, WHERE_SHAPES, ("rep",)),
        ),
    ),
    "highsel_mix": ExecutorMix(
        tuples=8_000, selectivity=0.5,
        weights=_weights(
            (4, (0, 1, 2, 4), FAST),              # ~80 ms band: the p50
            (2, (5,), ("pool", *FAST)),
            (1, (3,), STRATEGIES),
            (1, (5,), ("rep",)),
            (1, (0, 1, 2, 4), ("pool",)),
            (3, (0, 2), ("rep",)),                # Rep band: the p90
            (1, (1, 4), ("rep",)),
        ),
    ),
    "service_storm": ServiceStorm(
        tuples=20_000, groups=500,
        rate=5.0, block=75, misses=11,
    ),
}


def references(workload_name: str, seed: int, sqls: list[str]) -> dict:
    """Sequential reference answers, one per SQL string.

    Runs in a separate process (see ``run.py``) that regenerates the
    relation from the seed, so the checker's memory and time stay out of
    the measured process.
    """
    dist = WORKLOADS[workload_name].generate(seed)
    return {sql: reference_aggregate(dist, parse_query(sql)[1])
            for sql in sqls}


def rows_close(actual, expected, tol: float = 1e-9) -> bool:
    """Row-set equality with ``bench_service``'s relative float tolerance
    (parallel sums accumulate in another order than the reference)."""
    if len(actual) != len(expected):
        return False
    for row_a, row_e in zip(actual, expected):
        if len(row_a) != len(row_e):
            return False
        for a, e in zip(row_a, row_e):
            if isinstance(a, float) or isinstance(e, float):
                if abs(a - e) > tol * max(1.0, abs(e)):
                    return False
            elif a != e:
                return False
    return True
