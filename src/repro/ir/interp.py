"""Reference interpreter for work-function IR.

Executes one (or more) invocations of a :class:`WorkFunction` against an
input buffer.  This is the *semantic ground truth* of the reproduction:
every compiled kernel is checked against what this interpreter produces.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import nodes as N


class StreamUnderflow(RuntimeError):
    """A work invocation popped/peeked past the available input."""


_INTRINSIC_IMPL = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "floor": math.floor,
    "abs": abs,
    "min": min,
    "max": max,
    "int": int,
    "float": float,
    "select": lambda c, a, b: a if c else b,
}


class WorkInterpreter:
    """Evaluates a work function against an input tape."""

    def __init__(self, work: N.WorkFunction, params: Dict[str, Any],
                 state: Optional[Dict[str, Any]] = None):
        self.work = work
        self.params = dict(params)
        self.state = state if state is not None else {}

    # ------------------------------------------------------------------
    def run(self, inputs: Sequence[float],
            cursor: int = 0) -> Tuple[List[float], int]:
        """Run one work invocation.

        Returns ``(outputs, new_cursor)`` where the cursor advance equals the
        number of pops.
        """
        env: Dict[str, Any] = dict(self.params)
        env.update(self.state)
        self._inputs = inputs
        self._cursor = cursor
        self._outputs: List[float] = []
        self._exec_block(self.work.body, env)
        for key in self.state:
            if key in env:
                self.state[key] = env[key]
        return self._outputs, self._cursor

    # ------------------------------------------------------------------
    def _exec_block(self, body: List[N.Stmt], env: Dict[str, Any]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: N.Stmt, env: Dict[str, Any]) -> None:
        if isinstance(stmt, N.Assign):
            env[stmt.target] = self._eval(stmt.value, env)
        elif isinstance(stmt, N.Push):
            self._outputs.append(self._eval(stmt.value, env))
        elif isinstance(stmt, N.For):
            start = int(self._eval(stmt.start, env))
            stop = int(self._eval(stmt.stop, env))
            for i in range(start, stop):
                env[stmt.var] = i
                self._exec_block(stmt.body, env)
        elif isinstance(stmt, N.If):
            if self._eval(stmt.cond, env):
                self._exec_block(stmt.then, env)
            else:
                self._exec_block(stmt.orelse, env)
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")

    def _eval(self, expr: N.Expr, env: Dict[str, Any]) -> Any:
        if isinstance(expr, N.Const):
            return expr.value
        if isinstance(expr, N.Var):
            if expr.name not in env:
                exc = NameError(
                    f"work {self.work.name!r}: variable {expr.name!r} read "
                    "before assignment (not a parameter either)")
                exc.name = expr.name  # NameError(name=...) needs 3.10
                raise exc
            return env[expr.name]
        if isinstance(expr, N.BinOp):
            return _apply_binop(expr.op,
                                lambda: self._eval(expr.left, env),
                                lambda: self._eval(expr.right, env))
        if isinstance(expr, N.UnaryOp):
            value = self._eval(expr.operand, env)
            return (not value) if expr.op == "not" else -value
        if isinstance(expr, N.Call):
            impl = _INTRINSIC_IMPL.get(expr.fn)
            if impl is None:
                raise NameError(f"unknown intrinsic {expr.fn!r}")
            if expr.fn == "select":
                cond = self._eval(expr.args[0], env)
                branch = expr.args[1] if cond else expr.args[2]
                return self._eval(branch, env)
            return impl(*[self._eval(a, env) for a in expr.args])
        if isinstance(expr, N.Pop):
            value = self._peek_at(0)
            self._cursor += 1
            return value
        if isinstance(expr, N.Peek):
            return self._peek_at(int(self._eval(expr.offset, env)))
        if isinstance(expr, N.Index):
            if expr.array not in env:
                raise NameError(
                    f"work {self.work.name!r}: auxiliary array "
                    f"{expr.array!r} is not bound")
            return env[expr.array][int(self._eval(expr.index, env))]
        raise TypeError(f"unknown expression {type(expr).__name__}")

    def _peek_at(self, offset: int) -> float:
        index = self._cursor + offset
        if index < 0 or index >= len(self._inputs):
            raise StreamUnderflow(
                f"work {self.work.name!r}: access at stream offset {offset} "
                f"(absolute {index}) outside input of length "
                f"{len(self._inputs)}")
        return self._inputs[index]


def _apply_binop(op: str, left_thunk, right_thunk):
    if op == "and":
        return bool(left_thunk()) and bool(right_thunk())
    if op == "or":
        return bool(left_thunk()) or bool(right_thunk())
    left, right = left_thunk(), right_thunk()
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "//":
        return left // right
    if op == "%":
        return left % right
    if op == "**":
        return left ** right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    raise ValueError(f"unknown operator {op!r}")


def run_work(work: N.WorkFunction, inputs: Sequence[float],
             params: Dict[str, Any],
             state: Optional[Dict[str, Any]] = None,
             invocations: int = 1) -> List[float]:
    """Run ``invocations`` consecutive work invocations; return all outputs."""
    interp = WorkInterpreter(work, params, state)
    outputs: List[float] = []
    cursor = 0
    for _ in range(invocations):
        out, cursor = interp.run(inputs, cursor)
        outputs.extend(out)
    return outputs
