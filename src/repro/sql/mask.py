"""Vectorized WHERE: a parsed predicate as a boolean mask over a block.

:func:`compile_mask` turns a :class:`~repro.sql.parser.CompiledPredicate`
into a function from :class:`~repro.storage.ColumnBlock` to a numpy bool
array — ``mask[r]`` is exactly what ``bq.matches(row r)`` returns on the
decoded row.  It covers comparisons, AND/OR/NOT, BETWEEN and IN over
column references and literals:

* string columns evaluate the Python operator once per dictionary entry
  (or per distinct code pair for column-vs-column) and gather the
  results by code, so string semantics — NULs, non-ASCII, ordering —
  are Python's own;
* numeric columns compare vectorized, against a numpy scalar or another
  column of the same kind, in shapes where numpy's conversions are
  exact.

The compiler *declines* — returns a reason instead of a mask function —
every shape where numpy and the per-row loop could disagree or where the
per-row loop would raise, so the caller keeps the per-row path and its
exact results and exceptions:

* ``unsupported_node`` — an AST node or literal type the compiler does
  not know, or a column the schema lacks (per row: a ``ParseError``);
* ``type_mix`` — ordering a string against a number (per row: a
  ``TypeError``); string-vs-number *equality* is compiled (constant
  False, or True for ``<>``), exactly as Python answers it;
* ``int_precision`` — an int column against a float literal of
  magnitude ≥ 2^53 or a literal outside int64, a float column against
  an int literal beyond 2^53, or an int column against a float column:
  numpy would round through float64 where Python compares exactly;
* ``callable`` — the WHERE is a user-supplied callable, not a parsed
  predicate.

Every decline is decided from the predicate and the schema alone, never
from the data, so all fragments of one relation compile alike.
"""

from __future__ import annotations

import math

from repro.sql.parser import (
    _OPS,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    CompiledPredicate,
    InList,
    Literal,
    NotOp,
)

DECLINE_CALLABLE = "callable"
DECLINE_UNSUPPORTED = "unsupported_node"
DECLINE_TYPE_MIX = "type_mix"
DECLINE_INT_PRECISION = "int_precision"

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_EXACT_FLOAT_INT = 2**53

# a OP b  <=>  b FLIP[OP] a, for numbers and strings alike.
_FLIP = {"=": "=", "<>": "<>", "!=": "!=", "<": ">", "<=": ">=",
         ">": "<", ">=": "<="}
_NOT_EQUAL = ("<>", "!=")


class _Declined(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _np_ops():
    import numpy as np

    return {
        "=": np.equal, "<>": np.not_equal, "!=": np.not_equal,
        "<": np.less, "<=": np.less_equal,
        ">": np.greater, ">=": np.greater_equal,
    }


def compile_mask(predicate, schema):
    """Compile ``predicate`` for blocks of ``schema``.

    Returns ``(mask_fn, None)`` where ``mask_fn(block)`` is the block's
    boolean row mask, or ``(None, reason)`` with one of the ``DECLINE_*``
    reasons when the shape must stay on the per-row path.
    """
    if not isinstance(predicate, CompiledPredicate):
        return None, DECLINE_CALLABLE
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a test/bench dep
        return None, DECLINE_UNSUPPORTED
    try:
        fn = _Compiler(schema, np).node(predicate.node)
    except _Declined as exc:
        return None, exc.reason

    def mask(block):
        if not block.num_rows:
            return np.zeros(0, dtype=bool)
        return fn(block)

    return mask, None


class _Compiler:
    def __init__(self, schema, np) -> None:
        self.schema = schema
        self.np = np
        self.ops = _np_ops()

    # -- operands --

    def operand(self, node):
        """("col", index, kind) or ("lit", value, kind)."""
        if isinstance(node, ColumnRef):
            names = self.schema.names()
            if node.name not in names:
                raise _Declined(DECLINE_UNSUPPORTED)
            i = names.index(node.name)
            return ("col", i, self.schema.columns[i].kind)
        if isinstance(node, Literal):
            value = node.value
            if isinstance(value, str):
                return ("lit", value, "str")
            if isinstance(value, float):
                return ("lit", value, "float")
            if isinstance(value, int):
                return ("lit", value, "int")
        raise _Declined(DECLINE_UNSUPPORTED)

    def scalar(self, col_kind: str, value, lit_kind: str):
        """``value`` as a numpy scalar that compares against a column of
        ``col_kind`` exactly as Python compares the decoded values."""
        np = self.np
        if col_kind == "int":
            if lit_kind == "float":
                if math.isfinite(value) and abs(value) >= _EXACT_FLOAT_INT:
                    raise _Declined(DECLINE_INT_PRECISION)
                return np.float64(value)
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise _Declined(DECLINE_INT_PRECISION)
            return np.int64(value)
        if lit_kind == "int" and abs(value) > _EXACT_FLOAT_INT:
            raise _Declined(DECLINE_INT_PRECISION)
        return np.float64(value)

    def const(self, value: bool):
        np = self.np
        flag = bool(value)
        return lambda block: np.full(block.num_rows, flag, dtype=bool)

    def dict_lut(self, i: int, test):
        """Mask from ``test(string)`` evaluated once per dictionary entry,
        gathered by code."""
        np = self.np

        def fn(block):
            values = block.dictionaries[i].values
            lut = np.fromiter(
                (bool(test(v)) for v in values),
                dtype=bool, count=len(values),
            )
            return lut[block.columns[i]]

        return fn

    # -- nodes --

    def node(self, node):
        if isinstance(node, Comparison):
            return self.comparison(node.op, node.left, node.right)
        if isinstance(node, BoolOp):
            if node.op not in ("and", "or"):
                raise _Declined(DECLINE_UNSUPPORTED)
            left, right = self.node(node.left), self.node(node.right)
            combine = (
                self.np.logical_and if node.op == "and"
                else self.np.logical_or
            )
            return lambda block: combine(left(block), right(block))
        if isinstance(node, NotOp):
            child = self.node(node.child)
            return lambda block: self.np.logical_not(child(block))
        if isinstance(node, Between):
            # low <= v <= high is (low <= v) and (v <= high), v read once.
            low = self.comparison("<=", node.low, node.operand)
            high = self.comparison("<=", node.operand, node.high)
            return lambda block: self.np.logical_and(low(block), high(block))
        if isinstance(node, InList):
            return self.in_list(node.operand, node.values)
        raise _Declined(DECLINE_UNSUPPORTED)

    def comparison(self, op: str, left_node, right_node):
        if op not in _OPS:
            raise _Declined(DECLINE_UNSUPPORTED)
        left = self.operand(left_node)
        right = self.operand(right_node)
        if left[0] == "lit" and right[0] == "lit":
            try:
                return self.const(_OPS[op](left[1], right[1]))
            except TypeError:
                raise _Declined(DECLINE_TYPE_MIX) from None
        if left[0] == "lit":
            left, right, op = right, left, _FLIP[op]
        _, i, col_kind = left
        other_kind = right[2]
        if (col_kind == "str") != (other_kind == "str"):
            # str vs number: Python answers == / <> and raises otherwise.
            if op == "=":
                return self.const(False)
            if op in _NOT_EQUAL:
                return self.const(True)
            raise _Declined(DECLINE_TYPE_MIX)
        py_op = _OPS[op]
        if right[0] == "lit":
            lit = right[1]
            if col_kind == "str":
                return self.dict_lut(i, lambda v: py_op(v, lit))
            scalar = self.scalar(col_kind, lit, other_kind)
            np_op = self.ops[op]
            return lambda block: np_op(block.columns[i], scalar)
        j = right[1]
        if col_kind == "str":
            return self.pair_lut(i, j, py_op)
        if col_kind != other_kind:
            raise _Declined(DECLINE_INT_PRECISION)
        np_op = self.ops[op]
        return lambda block: np_op(block.columns[i], block.columns[j])

    def pair_lut(self, i: int, j: int, py_op):
        """String column vs string column: the operator once per distinct
        (code, code) pair present in the block."""
        np = self.np

        def fn(block):
            left_values = block.dictionaries[i].values
            right_values = block.dictionaries[j].values
            width = len(right_values)
            pairs = (
                block.columns[i].astype(np.int64) * width
                + block.columns[j]
            )
            used, inv = np.unique(pairs, return_inverse=True)
            lut = np.fromiter(
                (bool(py_op(left_values[p // width],
                            right_values[p % width]))
                 for p in used.tolist()),
                dtype=bool, count=len(used),
            )
            return lut[inv.reshape(-1)]

        return fn

    def in_list(self, operand_node, values: tuple):
        operand = self.operand(operand_node)
        for value in values:
            if not isinstance(value, (str, int, float)):
                raise _Declined(DECLINE_UNSUPPORTED)
        if operand[0] == "lit":
            return self.const(operand[1] in values)
        _, i, col_kind = operand
        if col_kind == "str":
            return self.dict_lut(i, lambda v: v in values)
        np = self.np
        targets = []
        for v in values:
            if isinstance(v, str) or (isinstance(v, float) and math.isnan(v)):
                continue  # never equal to a number
            kind = "float" if isinstance(v, float) else "int"
            scalar = self.scalar(col_kind, v, kind)
            if col_kind == "int" and kind == "float":
                # An int equals a float only at an integral value, and
                # int(v) is exact below 2^53: compare in int64.
                if not v.is_integer():
                    continue
                scalar = np.int64(int(v))
            targets.append(scalar)
        if not targets:
            return self.const(False)
        targets = np.asarray(
            targets, dtype=np.int64 if col_kind == "int" else np.float64
        )
        return lambda block: np.isin(block.columns[i], targets)
