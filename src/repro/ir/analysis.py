"""Dataflow analyses over work-function IR.

These are the analyses the paper's optimizations rest on:

* symbolic pop/push counting (rate checking, buffer sizing);
* loop-carried dependence detection (intra-actor parallelization, §4.2.2);
* linear-recurrence recognition and induction-variable substitution
  (breaking ``count = count + C`` accumulators, §4.2.2);
* affine decomposition of peek offsets (neighboring-access detection,
  §4.1.2).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from . import nodes as N


# ---------------------------------------------------------------------------
# Symbolic pop/push counting
# ---------------------------------------------------------------------------

def symbolic_pop_count(work: N.WorkFunction) -> Optional[N.Expr]:
    """Number of pops per invocation as an expression over parameters.

    Returns ``None`` when the count is input-value-dependent (pops under a
    data-dependent ``if`` with unequal branch counts), which is not valid SDF.
    """
    return _count_in_block(work.body, _pops_in)


def symbolic_push_count(work: N.WorkFunction) -> Optional[N.Expr]:
    """Number of pushes per invocation as an expression over parameters."""
    return _count_in_block(work.body, _pushes_in)


def _pops_in(stmt: N.Stmt) -> int:
    return sum(1 for n in stmt.walk() if isinstance(n, N.Pop))


def _pushes_in(stmt: N.Stmt) -> int:
    return sum(1 for n in stmt.walk() if isinstance(n, N.Push))


def _count_in_block(body: List[N.Stmt], leaf_count) -> Optional[N.Expr]:
    total: Optional[N.Expr] = N.Const(0)
    for stmt in body:
        part = _count_in_stmt(stmt, leaf_count)
        if part is None:
            return None
        total = _simplify_add(total, part)
    return total


def _count_in_stmt(stmt: N.Stmt, leaf_count) -> Optional[N.Expr]:
    if isinstance(stmt, N.For):
        inner = _count_in_block(stmt.body, leaf_count)
        if inner is None:
            return None
        return _simplify_mul(stmt.trip_count(), inner)
    if isinstance(stmt, N.If):
        then = _count_in_block(stmt.then, leaf_count)
        orelse = _count_in_block(stmt.orelse, leaf_count)
        if then is None or orelse is None:
            return None
        if _expr_equal(then, orelse):
            return then
        # Unequal branch counts: only valid if both are zero-free... bail out.
        return None
    return N.Const(leaf_count(stmt))


def _simplify_add(a: N.Expr, b: N.Expr) -> N.Expr:
    if isinstance(a, N.Const) and a.value == 0:
        return b
    if isinstance(b, N.Const) and b.value == 0:
        return a
    if isinstance(a, N.Const) and isinstance(b, N.Const):
        return N.Const(a.value + b.value)
    return N.BinOp("+", a, b)


def _simplify_mul(a: N.Expr, b: N.Expr) -> N.Expr:
    if isinstance(a, N.Const) and a.value == 1:
        return b
    if isinstance(b, N.Const) and b.value == 1:
        return a
    if isinstance(a, N.Const) and a.value == 0:
        return N.Const(0)
    if isinstance(b, N.Const) and b.value == 0:
        return N.Const(0)
    if isinstance(a, N.Const) and isinstance(b, N.Const):
        return N.Const(a.value * b.value)
    return N.BinOp("*", a, b)


def _expr_equal(a: N.Expr, b: N.Expr) -> bool:
    """Structural equality of expressions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, N.Const):
        return a.value == b.value
    if isinstance(a, N.Var):
        return a.name == b.name
    if isinstance(a, N.BinOp):
        return (a.op == b.op and _expr_equal(a.left, b.left)
                and _expr_equal(a.right, b.right))
    if isinstance(a, N.UnaryOp):
        return a.op == b.op and _expr_equal(a.operand, b.operand)
    if isinstance(a, N.Call):
        return (a.fn == b.fn and len(a.args) == len(b.args)
                and all(_expr_equal(x, y) for x, y in zip(a.args, b.args)))
    if isinstance(a, N.Peek):
        return _expr_equal(a.offset, b.offset)
    if isinstance(a, N.Pop):
        return True
    return False


expr_equal = _expr_equal


# ---------------------------------------------------------------------------
# Reads / writes
# ---------------------------------------------------------------------------

def assigned_vars(body: List[N.Stmt]) -> Set[str]:
    out: Set[str] = set()
    for stmt in body:
        for node in stmt.walk():
            if isinstance(node, N.Assign):
                out.add(node.target)
            elif isinstance(node, N.For):
                out.add(node.var)
    return out


# ---------------------------------------------------------------------------
# Loop-carried dependences
# ---------------------------------------------------------------------------

def loop_carried_vars(loop: N.For) -> Set[str]:
    """Variables whose value flows from one iteration to the next.

    A variable is loop-carried when some execution path through one
    iteration reads it before (or without) assigning it, and some path
    assigns it.  Assignments inside ``if`` branches do not dominate the
    read, so they are treated as *may*-assignments.
    """
    assigned = assigned_vars(loop.body)
    assigned.discard(loop.var)
    carried: Set[str] = set()

    def scan(body: List[N.Stmt], must_defined: Set[str]) -> Set[str]:
        defined = set(must_defined)
        for stmt in body:
            if isinstance(stmt, N.Assign):
                for name in N.free_vars(stmt.value):
                    if name in assigned and name not in defined:
                        carried.add(name)
                defined.add(stmt.target)
            elif isinstance(stmt, N.Push):
                for name in N.free_vars(stmt.value):
                    if name in assigned and name not in defined:
                        carried.add(name)
            elif isinstance(stmt, N.If):
                for name in N.free_vars(stmt.cond):
                    if name in assigned and name not in defined:
                        carried.add(name)
                then_def = scan(stmt.then, defined)
                else_def = scan(stmt.orelse, defined)
                defined |= (then_def & else_def)
            elif isinstance(stmt, N.For):
                for name in (N.free_vars(stmt.start)
                             | N.free_vars(stmt.stop)):
                    if name in assigned and name not in defined:
                        carried.add(name)
                inner_assigned = assigned_vars(stmt.body)
                # Inner loop may execute zero times: only the loop var is
                # guaranteed; treat inner reads with outer scope.
                scan(stmt.body, defined | {stmt.var})
                # A var assigned in the inner loop body may or may not run.
                _ = inner_assigned
        return defined

    scan(loop.body, {loop.var})
    return carried


@dataclasses.dataclass
class LinearRecurrence:
    """An accumulator ``var = var + step`` with loop-invariant ``step``."""

    var: str
    op: str          # "+" or "-"
    step: N.Expr

    def closed_form(self, init: N.Expr, loop_var: str) -> N.Expr:
        """``init op loop_var * step`` — the induction substitution."""
        scaled = N.BinOp("*", N.Var(loop_var), self.step)
        return N.BinOp(self.op, init, scaled)


def linear_recurrences(loop: N.For) -> Dict[str, LinearRecurrence]:
    """Find top-level accumulator updates that induction substitution removes.

    Matches ``v = v + E`` / ``v = v - E`` / ``v = E + v`` at the top level of
    the loop body where ``E`` does not depend on any variable assigned inside
    the loop (it may use the loop variable's *invariant* parameters only).
    """
    assigned = assigned_vars(loop.body) | {loop.var}
    found: Dict[str, LinearRecurrence] = {}
    counts: Dict[str, int] = {}
    for stmt in loop.body:
        for node in stmt.walk():
            if isinstance(node, N.Assign):
                counts[node.target] = counts.get(node.target, 0) + 1

    for stmt in loop.body:
        if not isinstance(stmt, N.Assign):
            continue
        value = stmt.value
        if not isinstance(value, N.BinOp) or value.op not in ("+", "-"):
            continue
        target = stmt.target
        if counts.get(target, 0) != 1:
            continue  # multiple updates: not a simple recurrence
        if isinstance(value.left, N.Var) and value.left.name == target:
            step = value.right
            op = value.op
        elif (value.op == "+" and isinstance(value.right, N.Var)
              and value.right.name == target):
            step = value.left
            op = "+"
        else:
            continue
        step_reads = N.free_vars(step)
        if step_reads & assigned:
            continue  # step varies across iterations
        if any(isinstance(n, (N.Pop, N.Peek)) for n in step.walk()):
            continue
        found[target] = LinearRecurrence(target, op, step)
    return found


# ---------------------------------------------------------------------------
# Affine decomposition (for peek offsets)
# ---------------------------------------------------------------------------

def affine_in(expr: N.Expr, var: str) -> Optional[Tuple[N.Expr, N.Expr]]:
    """Decompose ``expr`` as ``coeff * var + offset``.

    Returns ``(coeff, offset)`` expressions not mentioning ``var``, or
    ``None`` when the expression is not affine in ``var``.
    """
    if isinstance(expr, N.Var) and expr.name == var:
        return N.Const(1), N.Const(0)
    if var not in N.free_vars(expr):
        return N.Const(0), expr
    if isinstance(expr, N.BinOp):
        if expr.op in ("+", "-"):
            left = affine_in(expr.left, var)
            right = affine_in(expr.right, var)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return (_simplify_add(left[0], right[0]),
                        _simplify_add(left[1], right[1]))
            return (_simplify_sub(left[0], right[0]),
                    _simplify_sub(left[1], right[1]))
        if expr.op == "*":
            if var not in N.free_vars(expr.left):
                inner = affine_in(expr.right, var)
                if inner is None:
                    return None
                return (_simplify_mul(expr.left, inner[0]),
                        _simplify_mul(expr.left, inner[1]))
            if var not in N.free_vars(expr.right):
                inner = affine_in(expr.left, var)
                if inner is None:
                    return None
                return (_simplify_mul(inner[0], expr.right),
                        _simplify_mul(inner[1], expr.right))
            return None
    if isinstance(expr, N.UnaryOp) and expr.op == "-":
        inner = affine_in(expr.operand, var)
        if inner is None:
            return None
        return (N.UnaryOp("-", inner[0]), N.UnaryOp("-", inner[1]))
    return None


def _simplify_sub(a: N.Expr, b: N.Expr) -> N.Expr:
    if isinstance(b, N.Const) and b.value == 0:
        return a
    if isinstance(a, N.Const) and isinstance(b, N.Const):
        return N.Const(a.value - b.value)
    return N.BinOp("-", a, b)
