"""Vectorized WHERE over block-born fragments.

A parsed WHERE over block-born fragments compiles to a numpy row mask
(:mod:`repro.sql.mask`); ``multiprocessing_aggregate`` filters each
block up front and runs every strategy on the surviving rows through
the ordinary columnar path.  These tests pin that path four ways:

* **Mask parity** — hypothesis-generated predicates (every operator,
  nested AND/OR/NOT, BETWEEN, IN) over hostile data (NaN, signed zeros,
  ints near 2^53 and 2^63, strings with NULs and non-ASCII): a compiled
  mask equals ``bq.matches`` row by row, a compiled shape never raises
  per row, and a shape that could disagree or raise is declined (None),
  never answered wrongly.
* **End-to-end parity** — every strategy, the in-process runner and the
  governed-budget phase against ``reference_aggregate`` *and* bit for
  bit against the per-row path, including predicates that empty some
  or all fragments (the inline path), with zero leaked segments.
* **Counters** — ``mp.where.vectorized`` / ``mp.fallback.where.<reason>``
  for every path; the benchmark's six query shapes record no fallback.
* **Auto pricing** — ``strategy="auto"`` samples and costs the filtered
  rows, not the unfiltered relation.
"""

import glob
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.costmodel.globalhash import choose_mp_strategy
from repro.obs.decisions import (
    MP_STRATEGY_CHOICE,
    MP_STRATEGY_RESAMPLE,
    DecisionLedger,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    FragmentFailedError,
    multiprocessing_aggregate,
    reference_aggregate,
    shutdown_worker_pool,
)
from repro.parallel.mp_executor import SHM_PREFIX, _auto_params
from repro.sql.mask import (
    DECLINE_CALLABLE,
    DECLINE_INT_PRECISION,
    DECLINE_TYPE_MIX,
    DECLINE_UNSUPPORTED,
    compile_mask,
)
from repro.sql.parser import (
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    CompiledPredicate,
    InList,
    Literal,
    NotOp,
    ParseError,
    parse_query,
)
from repro.storage.columnblock import (
    ColumnBlock,
    StringDictionary,
    have_numpy,
)
from repro.storage.relation import BlockRelation, DistributedRelation
from repro.storage.schema import Column, Schema
from repro.workloads.generator import generate_uniform

from tests.conftest import rows_close

pytestmark = [
    pytest.mark.skipif(
        not have_numpy(), reason="the vectorized WHERE requires numpy"
    ),
    pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shared memory not mounted"
    ),
]

STR_KEY = "g{:08d}"


def _segments():
    return glob.glob("/dev/shm/" + SHM_PREFIX + "*")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test starts and must end segment-clean."""
    assert _segments() == []
    yield
    assert _segments() == [], "executor leaked shared-memory segments"


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_worker_pool()


def _where(text):
    """The CompiledPredicate of ``WHERE text``."""
    return parse_query(f"SELECT COUNT(*) FROM r WHERE {text}")[1].where


class _Opaque:
    """A picklable user callable wrapping a parsed predicate: the same
    answers, but the executor cannot see inside it (per-row path)."""

    def __init__(self, predicate) -> None:
        self.predicate = predicate

    def __call__(self, env) -> bool:
        return self.predicate(env)


def block_mask(predicate, block):
    """``predicate``'s row mask over ``block``, or None if declined."""
    fn, _reason = compile_mask(predicate, block.schema)
    return None if fn is None else fn(block)


def _per_row(query, schema, rows):
    """Per-row ``bq.matches`` answers, or the exception type raised."""
    bq = query.bind(schema)
    try:
        return [bq.matches(row) for row in rows], None
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return None, type(exc)


# -- mask parity --------------------------------------------------------------

SCHEMA = Schema([
    Column("i", "int"),
    Column("f", "float"),
    Column("s", "str", 16),
    Column("t", "str", 16),
])

_NEAR_INT = [
    0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1,
    2**62, 2**63 - 1, -(2**63),
]
_NEAR_FLOAT = [
    0.0, -0.0, 0.5, -1.0, float("nan"), float("inf"), float("-inf"),
    2.0**53, 2.0**53 + 2, 2.0**63, 1e300,
]
_STRINGS = ["", "a", "ab", "\x00", "a\x00", "\x00b", "é", "\U0001d11e", "b"]

INTS = st.one_of(
    st.sampled_from(_NEAR_INT),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-3, max_value=3),
)
FLOATS = st.one_of(st.sampled_from(_NEAR_FLOAT), st.floats())
STRINGS = st.one_of(st.sampled_from(_STRINGS), st.text(max_size=3))
ROWS = st.lists(st.tuples(INTS, FLOATS, STRINGS, STRINGS), max_size=25)

# Literals reach past int64 and 2^53 on purpose: the compiler must
# decline those shapes rather than let numpy round them.
INT_LITS = st.one_of(
    INTS, st.sampled_from([2**63, -(2**63) - 1, 2**64])
)
NUM_OPERANDS = st.one_of(
    st.sampled_from([ColumnRef("i"), ColumnRef("f")]),
    INT_LITS.map(Literal),
    FLOATS.map(Literal),
)
STR_OPERANDS = st.one_of(
    st.sampled_from([ColumnRef("s"), ColumnRef("t")]),
    STRINGS.map(Literal),
)
ANY_OPERANDS = st.one_of(NUM_OPERANDS, STR_OPERANDS)
OPS = st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="])
LITERAL_VALUES = st.one_of(INT_LITS, FLOATS, STRINGS)


def _leaves(operands):
    return st.one_of(
        st.builds(Comparison, OPS, operands, operands),
        st.builds(
            InList, operands,
            st.lists(LITERAL_VALUES, min_size=1, max_size=4).map(tuple),
        ),
        st.builds(Between, operands, operands, operands),
    )


# Mostly well-typed leaves (so most trees compile), plus free mixes
# (string-vs-number ordering, int-vs-float columns) that must decline.
LEAVES = st.one_of(
    _leaves(NUM_OPERANDS), _leaves(STR_OPERANDS), _leaves(ANY_OPERANDS)
)
PREDICATES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.builds(BoolOp, st.sampled_from(["and", "or"]), children,
                  children),
        st.builds(NotOp, children),
    ),
    max_leaves=6,
)


def _check_mask(node, rows):
    block = ColumnBlock.from_rows(SCHEMA, rows)
    query = AggregateQuery(
        (), (AggregateSpec("count"),), where=CompiledPredicate(node)
    )
    expected, raised = _per_row(query, SCHEMA, block.to_rows())
    mask = block_mask(query.where, block)
    if mask is None:
        return False  # declined: the per-row path keeps its own answers
    assert raised is None, (
        f"compiled a predicate that raises {raised.__name__} per row"
    )
    assert mask.dtype == bool and len(mask) == len(rows)
    assert mask.tolist() == expected
    return True


@settings(max_examples=400, deadline=None)
@given(node=PREDICATES, rows=ROWS)
def test_mask_matches_per_row(node, rows):
    _check_mask(node, rows)


# Every int near 2^53 / 2^63 beside every float near 2^53: one block
# where any rounding through float64 changes some row's answer.
_BOUNDARY_FLOATS = [
    2.0**53, 2.0**53 + 2, 2.0**53 - 1, -(2.0**53), 2.0**63, -(2.0**63),
    0.0, -0.0, float("nan"), float("inf"),
]
BOUNDARY_ROWS = [
    (i, f, "a", "b") for i in _NEAR_INT for f in _BOUNDARY_FLOATS
]
BOUNDARY_LITERALS = st.sampled_from(
    _NEAR_INT + _BOUNDARY_FLOATS
    + [2**53 + 2, 2**63, -(2**63) - 1, 2.0**53 + 4, 0.5]
)


@settings(max_examples=300, deadline=None)
@given(op=OPS, column=st.sampled_from(["i", "f"]),
       literal=BOUNDARY_LITERALS, flip=st.booleans())
def test_numeric_boundaries_never_round(op, column, literal, flip):
    """Comparisons at the int64 / 2^53 edges: compiled answers match
    Python's exact int-vs-float comparison row for row, or decline."""
    sides = (ColumnRef(column), Literal(literal))
    node = Comparison(op, *(sides[::-1] if flip else sides))
    _check_mask(node, BOUNDARY_ROWS)
    _check_mask(InList(ColumnRef(column), (literal, 1)), BOUNDARY_ROWS)


@pytest.mark.parametrize("op", ["=", "<>", "!=", "<", "<=", ">", ">="])
@pytest.mark.parametrize("left, right", [
    ("i", 7), ("i", 2**53 - 1), ("i", -(2**63)), ("i", 2.5),
    ("i", float("nan")), ("i", float("inf")), ("f", 3), ("f", 2**53),
    ("f", -0.0), ("f", float("nan")), ("s", "a\x00"), ("s", "é"),
    ("s", 1), ("f", "x"), ("s", "t"), ("i", "i"), ("f", "f"),
])
def test_every_operator_compiles_and_matches(op, left, right):
    """Each operator over each supported operand pairing compiles (no
    silent decline) and matches per row, both operand orders."""
    rows = [
        (2**53 + 1, float("nan"), "a\x00", "a"),
        (-(2**63), -0.0, "é", "é"),
        (7, 0.0, "", "\x00"),
        (2**63 - 1, 2.0**53, "a", "b"),
        (-1, float("-inf"), "\U0001d11e", "a\x00"),
    ]
    is_col = right in SCHEMA.names()
    r_node = ColumnRef(right) if is_col else Literal(right)
    right_is_str = right in ("s", "t") if is_col else isinstance(right, str)
    mixed = (left in ("s", "t")) != right_is_str
    ordering = op not in ("=", "<>", "!=")
    for node in (
        Comparison(op, ColumnRef(left), r_node),
        Comparison(op, r_node, ColumnRef(left)),
    ):
        compiled = _check_mask(node, rows)
        assert compiled or (mixed and ordering), node


@pytest.mark.parametrize("text", [
    "i BETWEEN -5 AND 2.5",
    "f BETWEEN -0.0 AND 1e300",
    "s BETWEEN 'a' AND t",
    "i IN (7, 2.0, 2.5, 'x', -9223372036854775808)",
    "f IN (0, 9007199254740992, 1.5, 'x')",
    "s IN ('a', 'é', 1)",
    "NOT (i > 0 AND (f < 1.0 OR s = 'a')) OR t <> ''",
    "NOT NOT s >= t",
])
def test_between_in_and_nesting_compile(text):
    rows = [
        (7, 0.0, "a", "a"), (2, -0.0, "é", "z"), (-9223372036854775808,
                                                   1e300, "", ""),
        (-5, float("nan"), "b", "a"), (3, 1.5, "ab", "ab"),
    ]
    pred = _where(text)
    assert compile_mask(pred, SCHEMA)[1] is None, text
    assert _check_mask(pred.node, rows)


@pytest.mark.parametrize("text, reason", [
    ("s < 1", DECLINE_TYPE_MIX),
    ("1 >= t", DECLINE_TYPE_MIX),
    ("i > 0 AND s >= 2.5", DECLINE_TYPE_MIX),
    ("'a' < 1", DECLINE_TYPE_MIX),
    ("i < 9007199254740992.0", DECLINE_INT_PRECISION),
    ("i = 9223372036854775808", DECLINE_INT_PRECISION),
    ("i IN (1, 1e300)", DECLINE_INT_PRECISION),
    ("f > 9007199254740993", DECLINE_INT_PRECISION),
    ("i < f", DECLINE_INT_PRECISION),
    ("zz = 1", DECLINE_UNSUPPORTED),
    ("f < 0 AND zz = 1", DECLINE_UNSUPPORTED),
])
def test_declined_shapes_name_their_reason(text, reason):
    block = ColumnBlock.from_rows(SCHEMA, [(1, 1.0, "a", "b")])
    pred = _where(text)
    assert compile_mask(pred, SCHEMA) == (None, reason)
    assert block_mask(pred, block) is None


def test_user_callable_declines():
    assert compile_mask(lambda env: True, SCHEMA) == (None, DECLINE_CALLABLE)
    assert compile_mask(_Opaque(_where("i = 1")), SCHEMA) == (
        None, DECLINE_CALLABLE,
    )


@pytest.mark.parametrize("text, error", [
    ("s < 1", TypeError),
    ("f >= 0.5 AND t > 2", TypeError),
    ("zz = 1", ParseError),
])
@pytest.mark.parametrize("processes", [1, 2])
def test_raising_predicates_raise_the_same_type(text, error, processes):
    """A predicate that raises per row declines to compile, so the
    executor raises exactly what the per-row path raises."""
    rows = [(i, float(i), STR_KEY.format(i % 3), "x") for i in range(40)]
    parts = [rows[:20], rows[20:]]
    dist = _block_dist(SCHEMA, parts)
    pred = _where(text)
    query = AggregateQuery(("s",), (AggregateSpec("count"),), where=pred)
    assert _per_row(query, SCHEMA, rows)[1] is error

    def failure(q):
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, q, processes=processes, max_retries=0
            )
        return info.value.cause_type

    opaque = AggregateQuery(
        ("s",), (AggregateSpec("count"),), where=_Opaque(pred)
    )
    assert failure(query) == failure(opaque) == error.__name__


# -- dictionary trim ----------------------------------------------------------


def test_trim_dictionaries_keeps_rows_and_ships_less():
    values = [STR_KEY.format(g) for g in range(1000)]
    schema = Schema([Column("k", "str", 16), Column("v", "float")])
    import numpy as np

    codes = np.asarray([999, 3, 500, 3, 42], dtype="<i4")
    full = ColumnBlock(
        schema, 5, [codes, np.arange(5, dtype="<f8")],
        {0: StringDictionary(values)},
    )
    trimmed = full.trim_dictionaries()
    assert trimmed.to_rows() == full.to_rows()
    assert trimmed.dictionaries[0].values == [
        values[3], values[42], values[500], values[999]
    ]
    # Relative code order survives, so grouping order does too.
    assert trimmed.columns[0].tolist() == [3, 0, 2, 0, 1]
    assert len(trimmed.to_bytes()) < len(full.to_bytes())
    assert ColumnBlock.from_bytes(
        schema, trimmed.to_bytes()
    ).to_rows() == full.to_rows()
    # A block using a fair share of its dictionary is left alone.
    assert trimmed.trim_dictionaries() is trimmed
    wide = full.filter(np.ones(5, dtype=bool))
    assert wide.num_rows == 5 and wide.to_rows() == full.to_rows()


def test_serialized_blocks_ship_only_used_entries():
    """Fragment encode and Rep round-1 chunks both trim: a 40-row slice
    of a 1000-entry dictionary ships at most 40 entries per block."""
    from repro.parallel.mp_executor import (
        _encode_fragment,
        _load_block,
        _RepPartitionPhase,
    )

    dist = generate_uniform(
        num_tuples=4000, num_groups=1000, num_nodes=1, seed=9,
        key_format=STR_KEY,
    )
    block = dist.fragments[0].relation.block.head(40)
    assert len(block.dictionaries[0]) == 1000
    query = parse_query("SELECT gkey, SUM(val) FROM r GROUP BY gkey")[1]

    segments = []
    try:
        desc = _encode_fragment(block, query, dist.schema, segments)
        assert desc[0] == "shm_col"
        shipped = _load_block(desc)
    finally:
        for shm in segments:
            shm.close()
            shm.unlink()
    assert len(shipped.dictionaries[0]) <= 40
    assert shipped.to_rows() == [row[:2] for row in block.to_rows()]

    tag, chunks = _RepPartitionPhase(4)((block, query, dist.schema))
    assert tag == "rep_blocks"
    ship_schema = dist.schema.project(["gkey", "val"])
    rows = []
    for chunk in chunks:
        if chunk is None:
            continue
        part = ColumnBlock.from_bytes(ship_schema, chunk)
        assert len(part.dictionaries[0]) <= part.num_rows
        rows += part.to_rows()
    assert sorted(rows) == sorted(row[:2] for row in block.to_rows())


# -- end-to-end parity --------------------------------------------------------


def _block_dist(schema, parts):
    return DistributedRelation(
        schema,
        [
            BlockRelation(schema, ColumnBlock.from_rows(schema, part))
            for part in parts
        ],
    )


@pytest.fixture(scope="module")
def hashed():
    """Str-key block-born fragments, hash-placed: each group lives on
    one fragment, so a key filter can empty the others."""
    return generate_uniform(
        num_tuples=6000, num_groups=60, num_nodes=4, seed=5,
        placement="hash", key_format=STR_KEY,
    )


def _fragment0_keys(dist, n=2):
    keys = sorted({row[0] for row in dist.fragments[0].relation.rows})
    return keys[:n]


def _where_shapes(dist):
    keys = ", ".join(f"'{k}'" for k in _fragment0_keys(dist))
    return [
        "val >= 25.0",
        "val BETWEEN 10 AND 60 AND NOT gkey = 'g00000003'",
        f"gkey IN ({keys})",                       # empties fragments 1-3
        "val < 0",                                 # empties every fragment
        "(gkey < 'g00000020' OR val > 90.0) AND val <> 50",
    ]


_SELECT = (
    "SELECT gkey, SUM(val), COUNT(*), MIN(val), MAX(val), AVG(val), "
    "COUNT(DISTINCT val) FROM r WHERE {} GROUP BY gkey"
)

_RUNS = {
    "pool": dict(processes=2, strategy="pool"),
    "global": dict(processes=2, strategy="global"),
    "rep": dict(processes=2, strategy="rep"),
    "auto": dict(processes=2, strategy="auto", auto_resample_after=1),
    "inproc-pool": dict(processes=1, strategy="pool"),
    "inproc-global": dict(processes=1, strategy="global"),
    "inproc-rep": dict(processes=1, strategy="rep"),
    "governed": dict(processes=2, strategy="pool",
                     memory_budget_bytes=1 << 20),
    "governed-spill": dict(processes=2, strategy="pool",
                           memory_budget_bytes=200),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_where_strategies_match_reference_and_per_row(hashed, run):
    kwargs = _RUNS[run]
    for where in _where_shapes(hashed):
        query = parse_query(_SELECT.format(where))[1]
        opaque = AggregateQuery(
            query.group_by, query.aggregates, where=_Opaque(query.where)
        )
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            hashed, query, metrics=metrics, **kwargs
        )
        assert metrics.value("mp.where.vectorized") == 4
        assert rows_close(got, reference_aggregate(hashed, query)), where
        # Bit for bit what the per-row path returns.
        assert got == multiprocessing_aggregate(hashed, opaque, **kwargs)


def test_having_survives_the_where_rewrite(hashed):
    sql = (
        "SELECT gkey, SUM(val) FROM r WHERE val >= 50.0 GROUP BY gkey "
        "HAVING SUM(val) > 3700.0"
    )
    query = parse_query(sql)[1]
    expected = reference_aggregate(hashed, query)
    assert 0 < len(expected) < 60
    for strategy in ("pool", "global", "rep", "auto"):
        got = multiprocessing_aggregate(
            hashed, query, processes=2, strategy=strategy
        )
        assert rows_close(got, expected), strategy


def test_emptied_fragments_ship_inline(hashed, monkeypatch):
    """A fragment the WHERE empties takes the inline descriptor (no
    zero-sized segment), and the rest still ship columnar."""
    from repro.parallel import mp_executor

    kinds = []
    real = mp_executor._encode_fragment

    def spy(rows, query, schema, segments, project=True):
        desc = real(rows, query, schema, segments, project)
        kinds.append(desc[0])
        return desc

    monkeypatch.setattr(mp_executor, "_encode_fragment", spy)
    keys = ", ".join(f"'{k}'" for k in _fragment0_keys(hashed))
    query = parse_query(_SELECT.format(f"gkey IN ({keys})"))[1]
    got = multiprocessing_aggregate(hashed, query, processes=2)
    assert kinds == ["shm_col", "inline", "inline", "inline"]
    assert rows_close(got, reference_aggregate(hashed, query))


# -- counters -----------------------------------------------------------------

# The benchmark's six query shapes (benchmarks/bench_service.py QUERIES).
SIX_SHAPES = (
    "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, AVG(val) FROM r GROUP BY gkey",
    "SELECT gkey, SUM(val) FROM r WHERE val >= 25.0 GROUP BY gkey",
    "SELECT gkey, MIN(val), MAX(val) FROM r GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r WHERE val >= 75.0 GROUP BY gkey",
)


def _where_counters(metrics):
    return {
        name: metrics.value(name) for name in metrics.names()
        if name.startswith(("mp.where.", "mp.fallback.where."))
    }


@pytest.mark.parametrize("strategy", ["pool", "global", "rep", "auto"])
def test_benchmark_shapes_record_zero_fallbacks(strategy):
    dist = generate_uniform(
        num_tuples=4000, num_groups=20, num_nodes=4, seed=3,
        key_format=STR_KEY,
    )
    for sql in SIX_SHAPES:
        metrics = MetricsRegistry()
        multiprocessing_aggregate(
            dist, parse_query(sql)[1], processes=2, strategy=strategy,
            metrics=metrics,
        )
        expected = {"mp.where.vectorized": 4} if " WHERE " in sql else {}
        assert _where_counters(metrics) == expected, sql


def _fallback_run(dist, query, **kwargs):
    metrics = MetricsRegistry()
    rows = multiprocessing_aggregate(
        dist, query, processes=1, metrics=metrics, **kwargs
    )
    assert rows_close(rows, reference_aggregate(dist, query))
    return _where_counters(metrics)


def test_fallback_reasons_are_counted():
    blocks = generate_uniform(
        num_tuples=800, num_groups=10, num_nodes=4, seed=2,
        key_format=STR_KEY,
    )
    rows_born = generate_uniform(
        num_tuples=800, num_groups=10, num_nodes=4, seed=2,
        key_format=STR_KEY, columnar=False,
    )
    int_keys = generate_uniform(
        num_tuples=800, num_groups=10, num_nodes=4, seed=2
    )

    def q(where):
        return parse_query(
            f"SELECT gkey, SUM(val) FROM r WHERE {where} GROUP BY gkey"
        )[1]

    parsed = q("val >= 50.0")
    opaque = AggregateQuery(
        parsed.group_by, parsed.aggregates, where=_Opaque(parsed.where)
    )
    assert _fallback_run(blocks, parsed) == {"mp.where.vectorized": 4}
    assert _fallback_run(blocks, opaque) == {
        "mp.fallback.where.callable": 4
    }
    assert _fallback_run(rows_born, parsed) == {
        "mp.fallback.where.row_born": 4
    }
    assert _fallback_run(blocks, parsed, strategy="spawn") == {
        "mp.fallback.where.row_born": 4
    }
    assert _fallback_run(int_keys, q("gkey < 9007199254740992.0")) == {
        "mp.fallback.where.int_precision": 4
    }
    # The unknown column sits behind a branch no row reaches, so the
    # per-row path answers without raising.
    assert _fallback_run(blocks, q("val < 0 AND nosuch = 1")) == {
        "mp.fallback.where.unsupported_node": 4
    }
    metrics = MetricsRegistry()
    with pytest.raises(FragmentFailedError):
        multiprocessing_aggregate(
            blocks, q("gkey < 5"), processes=1, metrics=metrics,
            max_retries=0,
        )
    assert _where_counters(metrics) == {"mp.fallback.where.type_mix": 4}


@pytest.mark.parametrize("bad", [
    {"speculation_multiplier": 0.5},
    {"speculation_min_seconds": 0},
    {"heartbeat_interval": 0},
    {"heartbeat_timeout": 0},
    {"poison_threshold": 0},
])
def test_invalid_arguments_raise_before_filtering(bad):
    """A call rejected for its arguments filters no fragment and counts
    nothing: the counters report only fragments that were dispatched."""
    dist = generate_uniform(
        num_tuples=400, num_groups=10, num_nodes=4, seed=2,
        key_format=STR_KEY,
    )
    query = parse_query(
        "SELECT gkey, SUM(val) FROM r WHERE val >= 50.0 GROUP BY gkey"
    )[1]
    metrics = MetricsRegistry()
    with pytest.raises(ValueError):
        multiprocessing_aggregate(
            dist, query, processes=1, metrics=metrics, **bad
        )
    assert _where_counters(metrics) == {}


# -- auto prices the filtered rows --------------------------------------------


def test_auto_samples_and_costs_the_filtered_rows():
    """A WHERE keeping 5% of the rows: the pre-run sample, the total
    the model is fed, and the mid-run re-estimate all see the 400
    surviving rows, not the 8000 stored ones."""
    schema = Schema([Column("gkey", "int"), Column("val", "float")])
    rows = [(r % 500, float(r % 100)) for r in range(8000)]
    parts = [rows[f * 2000:(f + 1) * 2000] for f in range(4)]
    dist = _block_dist(schema, parts)
    query = parse_query(
        "SELECT gkey, SUM(val) FROM r WHERE val < 5.0 GROUP BY gkey"
    )[1]
    kept_groups = len({r % 500 for r in range(8000) if r % 100 < 5})
    assert kept_groups == 25

    ledger = DecisionLedger()
    result = multiprocessing_aggregate(
        dist, query, processes=1, strategy="auto", ledger=ledger,
        auto_resample_after=1,
    )
    assert rows_close(result, reference_aggregate(dist, query))
    choice = next(e for e in ledger.events if e.kind == MP_STRATEGY_CHOICE)
    # 100 surviving rows per fragment, all under the 256-row share.
    assert choice.data["sampled_rows"] == 400
    assert choice.data["sampled_fragments"] == 4
    assert choice.data["selectivity"] == kept_groups / 400
    _, expected = choose_mp_strategy(
        _auto_params(dist, 400), kept_groups / 400
    )
    assert choice.data["cost_two_phase_seconds"] == (
        expected["cost_two_phase_seconds"]
    )
    assert choice.data["cost_global_seconds"] == (
        expected["cost_global_seconds"]
    )
    resample = next(
        e for e in ledger.events if e.kind == MP_STRATEGY_RESAMPLE
    )
    assert resample.data["observed_groups"] == kept_groups
    assert math.isclose(resample.data["selectivity"], kept_groups / 400)
