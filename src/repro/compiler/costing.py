"""Dynamic instruction/access counting for work functions.

The performance model needs per-invocation dynamic counts — "computation
instructions and the number of … memory accesses, all of which are dependent
on the input and can be computed at compile time as a function of input size
and dimensions" (§3).  This walks the IR, multiplying loop bodies by their
trip counts evaluated under a parameter binding, and taking the more
expensive branch of data-dependent ``if``s.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from ..ir import nodes as N
from ..ir.rates import eval_expr


@dataclasses.dataclass
class DynamicCounts:
    """Per-invocation dynamic operation counts."""

    comp: float = 0.0
    pops: float = 0.0
    peeks: float = 0.0
    pushes: float = 0.0
    aux_loads: float = 0.0

    def scaled(self, factor: float) -> "DynamicCounts":
        return DynamicCounts(self.comp * factor, self.pops * factor,
                             self.peeks * factor, self.pushes * factor,
                             self.aux_loads * factor)

    def __add__(self, other: "DynamicCounts") -> "DynamicCounts":
        return DynamicCounts(self.comp + other.comp, self.pops + other.pops,
                             self.peeks + other.peeks,
                             self.pushes + other.pushes,
                             self.aux_loads + other.aux_loads)


def count_dynamic(work: N.WorkFunction,
                  params: Dict[str, float]) -> DynamicCounts:
    """Dynamic counts for one work invocation under ``params``."""
    return _count_block(work.body, params)


def _count_block(body: List[N.Stmt], params) -> DynamicCounts:
    total = DynamicCounts()
    for stmt in body:
        total = total + _count_stmt(stmt, params)
    return total


def _count_stmt(stmt: N.Stmt, params) -> DynamicCounts:
    if isinstance(stmt, N.Assign):
        counts = _count_expr(stmt.value)
        counts.comp += 1  # the store/move itself
        return counts
    if isinstance(stmt, N.Push):
        counts = _count_expr(stmt.value)
        counts.pushes += 1
        return counts
    if isinstance(stmt, N.For):
        trips = max(0.0, _eval(stmt.stop, params) - _eval(stmt.start, params))
        inner = _count_block(stmt.body, params)
        inner.comp += 2  # loop increment + compare
        return inner.scaled(trips)
    if isinstance(stmt, N.If):
        cond = _count_expr(stmt.cond)
        then = _count_block(stmt.then, params)
        orelse = _count_block(stmt.orelse, params)
        branch = then if then.comp + then.pops >= orelse.comp + orelse.pops \
            else orelse
        return cond + branch
    raise TypeError(type(stmt).__name__)


def _count_expr(expr: N.Expr) -> DynamicCounts:
    counts = DynamicCounts()
    for node in expr.walk():
        if isinstance(node, (N.BinOp, N.UnaryOp, N.Call)):
            counts.comp += 1
        elif isinstance(node, N.Pop):
            counts.pops += 1
        elif isinstance(node, N.Peek):
            counts.peeks += 1
        elif isinstance(node, N.Index):
            counts.aux_loads += 1
    return counts


def _eval(expr: N.Expr, params) -> float:
    """Evaluate a loop bound numerically.

    Loop bounds inside work functions may only reference parameters and
    outer loop variables; a name ``params`` does not bind (an outer loop
    variable) counts as 0 (rare — none of the paper's benchmarks need
    it).
    """
    bound = {name: params[name] if name in params else 0
             for name in N.free_vars(expr)}
    return float(eval_expr(expr, bound))
