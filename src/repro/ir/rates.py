"""Symbolic data rates.

StreamIt actors declare how many elements each work invocation consumes
(*pop*), reads non-destructively (*peek*), and produces (*push*).  In Adaptic
these rates may depend on the program input size — ``pop="n"``,
``push="width*height"`` — which is precisely what makes the compiler's
decisions input-dependent.  :class:`RateExpr` represents such a rate as an IR
expression over the program parameters and evaluates it once the actual
input is known.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Union

from . import nodes as N
from .frontend import FrontendError, _lift_expr
from .interp import WorkInterpreter


class RateExpr:
    """An integer-valued expression over program parameters."""

    def __init__(self, source: Union[int, str, N.Expr, "RateExpr"]):
        if isinstance(source, RateExpr):
            self.expr = source.expr
        elif isinstance(source, N.Expr):
            self.expr = source
        elif isinstance(source, (int, float)):
            self.expr = N.Const(int(source))
        elif isinstance(source, str):
            self.expr = parse_expr(source)
        else:
            raise TypeError(f"cannot build a rate from {type(source).__name__}")

    # ------------------------------------------------------------------
    def evaluate(self, params: Dict[str, Any]) -> int:
        value = eval_expr(self.expr, params)
        result = int(round(value))
        if result < 0:
            raise ValueError(f"rate {self} evaluated to {result} < 0")
        return result

    @property
    def is_constant(self) -> bool:
        return not N.free_vars(self.expr)

    def free_params(self) -> set:
        return N.free_vars(self.expr)

    # -- arithmetic (used by rate matching) ------------------------------
    def __mul__(self, other) -> "RateExpr":
        other = RateExpr(other)
        return RateExpr(N.BinOp("*", self.expr, other.expr))

    def __add__(self, other) -> "RateExpr":
        other = RateExpr(other)
        return RateExpr(N.BinOp("+", self.expr, other.expr))

    def __str__(self) -> str:
        return str(self.expr)

    def __repr__(self) -> str:
        return f"RateExpr({self.expr})"


ZERO = RateExpr(0)
ONE = RateExpr(1)


def parse_expr(source: str) -> N.Expr:
    """Parse an expression string (``"2*n + 1"``) into IR."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise FrontendError(f"bad rate expression {source!r}: {exc}") from exc
    return _lift_expr(tree.body, f"<rate {source!r}>")


def eval_expr(expr: N.Expr, params: Dict[str, Any]):
    """Evaluate a closed parameter expression with the IR interpreter.

    For expressions evaluated once per binding (rates, stencil
    displacements, a reduction's initial value), where compiling a
    function would cost more than the one evaluation it serves.
    """
    work = N.WorkFunction("<rate>", tuple(params), [N.Assign("__r", expr)])
    interp = WorkInterpreter(work, params, state={"__r": None})
    interp.run([])
    return interp.state["__r"]
