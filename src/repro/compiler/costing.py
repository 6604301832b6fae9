"""Dynamic instruction/access counting for work functions.

The performance model needs per-invocation dynamic counts — "computation
instructions and the number of … memory accesses, all of which are dependent
on the input and can be computed at compile time as a function of input size
and dimensions" (§3).  This walks the IR, multiplying loop bodies by their
trip counts evaluated under a parameter binding, and taking the more
expensive branch of data-dependent ``if``s.

This module also hosts the serving front door's fuse guard arithmetic
(:func:`fuse_gain`, :func:`chain_seconds`): a group of same-binding
requests runs as one fused execution only when the (calibrated) cost
model, priced at the base and at the fused size, predicts a gain.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence

from ..ir import nodes as N
from ..ir.interp import WorkInterpreter


# ---------------------------------------------------------------------------
# Fuse-gain pricing (the serve front door's group-fusion guard)
# ---------------------------------------------------------------------------

def fuse_gain(base_seconds: float, fused_seconds: float, k: int) -> float:
    """Predicted speedup of one fused execution over ``k`` unfused ones.

    ``base_seconds`` prices one unfused execution, ``fused_seconds`` the
    single fused execution that replaces ``k`` of them.  A non-positive
    fused cost means the model considers the fused run free, so the gain
    is unbounded (``inf``) — the historical ``Server`` behavior.
    """
    if fused_seconds <= 0.0:
        return math.inf
    return (k * base_seconds) / fused_seconds


def chain_seconds(cost, plans: Sequence, params: Dict[str, float]) -> float:
    """Total predicted seconds of a plan chain under one binding.

    ``cost`` is any object with the :class:`~repro.compiler.stats.CostCache`
    ``plan_seconds(plan, params)`` duck type (the raw memoized cache or the
    calibrated view), so callers price with exactly the model the selector
    rides.
    """
    return sum(cost.plan_seconds(plan, params) for plan in plans)


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
    return _count_block(work, work.body, params)


def _count_block(work, body: List[N.Stmt], params) -> DynamicCounts:
    total = DynamicCounts()
    for stmt in body:
        total = total + _count_stmt(work, stmt, params)
    return total


def _count_stmt(work, stmt: N.Stmt, params) -> DynamicCounts:
    if isinstance(stmt, N.Assign):
        counts = _count_expr(stmt.value)
        counts.comp += 1  # the store/move itself
        return counts
    if isinstance(stmt, N.Push):
        counts = _count_expr(stmt.value)
        counts.pushes += 1
        return counts
    if isinstance(stmt, N.For):
        trips = max(0.0, _eval(work, stmt.stop, params)
                    - _eval(work, stmt.start, params))
        inner = _count_block(work, stmt.body, params)
        inner.comp += 2  # loop increment + compare
        return inner.scaled(trips)
    if isinstance(stmt, N.If):
        cond = _count_expr(stmt.cond)
        then = _count_block(work, stmt.then, params)
        orelse = _count_block(work, stmt.orelse, params)
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


def _eval(work, expr: N.Expr, params) -> float:
    """Evaluate a parameter expression numerically.

    Loop bounds inside work functions may only reference parameters and
    outer loop variables; outer loop variables are approximated by their
    midpoint when present (rare — none of the paper's benchmarks need it).
    """
    names = N.free_vars(expr)
    bound = {name: params[name] for name in names if name in params}
    missing = names - set(bound)
    for name in missing:
        bound[name] = 0
    shell = N.WorkFunction("<count>", tuple(bound), [N.Assign("__v", expr)])
    interp = WorkInterpreter(shell, bound, state={"__v": None})
    interp.run([])
    return float(interp.state["__v"])
