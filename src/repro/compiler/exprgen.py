"""Expression code generation: IR → Python (simulator) and IR → CUDA C.

Kernel templates inline actor element functions into their thread bodies.
The Python emitter produces a compiled scalar function (program parameters
are constant-folded at build time, so the hot inner loops of the functional
executor pay no dictionary lookups); the C emitter produces the expression
text spliced into generated CUDA kernels.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, Sequence

import numpy as _np

from ..ir import nodes as N


@dataclasses.dataclass
class CompileCounter:
    """Process-wide tally of expression-compiler invocations.

    The warm-path serving contract ("the Nth run at a shape compiles
    nothing") is asserted against these counters: a warm ``run()`` must
    leave them untouched.  ``seconds`` is the accumulated wall-clock spent
    inside ``compile_scalar_fn``/``compile_vector_fn``, which the runtime
    subtracts out of its kernel-stage timing.
    """

    scalar: int = 0
    vector: int = 0
    seconds: float = 0.0

    @property
    def total(self) -> int:
        return self.scalar + self.vector

    def snapshot(self) -> "CompileCounter":
        return dataclasses.replace(self)

    def since(self, earlier: "CompileCounter") -> "CompileCounter":
        return CompileCounter(self.scalar - earlier.scalar,
                              self.vector - earlier.vector,
                              self.seconds - earlier.seconds)


#: Shared by every plan's codegen; snapshot/since around a region to
#: attribute compiles to it.  Mutated only under the GIL (plain int/float
#: bumps); a run counts the compiles of its own window, on the thread
#: that runs it.
COMPILE_COUNTER = CompileCounter()

_PY_INTRINSICS = {
    "sqrt": "math.sqrt", "exp": "math.exp", "log": "math.log",
    "sin": "math.sin", "cos": "math.cos", "floor": "math.floor",
    "abs": "abs", "min": "min", "max": "max", "int": "int", "float": "float",
}

_C_INTRINSICS = {
    "sqrt": "sqrtf", "exp": "expf", "log": "logf", "sin": "sinf",
    "cos": "cosf", "floor": "floorf", "abs": "fabsf",
    "min": "fminf", "max": "fmaxf", "int": "(int)", "float": "(float)",
}

#: Identity and absorbing elements for reduction combine operators.
COMBINE_IDENTITY = {"+": 0.0, "*": 1.0, "min": math.inf, "max": -math.inf}

_C_COMBINE = {
    "+": "{a} + {b}", "*": "{a} * {b}",
    "min": "fminf({a}, {b})", "max": "fmaxf({a}, {b})",
}


class ExprGenError(ValueError):
    """The expression contains constructs the emitter cannot lower."""


# ---------------------------------------------------------------------------
# Python emission
# ---------------------------------------------------------------------------

def python_expr(expr: N.Expr, args: Sequence[str],
                params: Dict[str, float]) -> str:
    """Render ``expr`` as a Python expression over ``args``.

    Variables in ``params`` are folded to constants; anything else must be
    listed in ``args``.
    """
    if isinstance(expr, N.Const):
        return repr(expr.value)
    if isinstance(expr, N.Var):
        if expr.name in args:
            return expr.name
        if expr.name in params:
            value = params[expr.name]
            if isinstance(value, int):
                return repr(value)
            return repr(float(value))  # normalizes numpy scalars
        raise ExprGenError(
            f"unbound variable {expr.name!r} (args={list(args)}, "
            f"params={sorted(params)})")
    if isinstance(expr, N.BinOp):
        left = python_expr(expr.left, args, params)
        right = python_expr(expr.right, args, params)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, N.UnaryOp):
        inner = python_expr(expr.operand, args, params)
        return f"(not {inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, N.Call):
        if expr.fn == "select":
            cond, a, b = (python_expr(e, args, params) for e in expr.args)
            return f"({a} if {cond} else {b})"
        fn = _PY_INTRINSICS.get(expr.fn)
        if fn is None:
            raise ExprGenError(f"unknown intrinsic {expr.fn!r}")
        inner = ", ".join(python_expr(a, args, params) for a in expr.args)
        return f"{fn}({inner})"
    if isinstance(expr, N.Index):
        idx = python_expr(expr.index, args, params)
        # float() widens auxiliary-array elements to 64-bit registers, the
        # same contract ThreadCtx.gload follows, so the scalar and vector
        # emitters do identical float64 arithmetic.
        return f"float({expr.array}[int({idx})])"
    raise ExprGenError(
        f"cannot lower {type(expr).__name__} to a scalar expression "
        "(pops/peeks must be pre-substituted by the kernel template)")


def compile_scalar_fn(expr: N.Expr, args: Sequence[str],
                      params: Dict[str, float],
                      name: str = "elem",
                      arrays: Dict[str, object] = None) -> Callable:
    """Compile ``expr`` to a Python function ``f(*args)``.

    ``arrays`` binds auxiliary (:class:`~repro.ir.nodes.Index`) arrays into
    the function's namespace.
    """
    started = time.perf_counter()
    body = python_expr(expr, args, params)
    source = f"def {name}({', '.join(args)}):\n    return {body}\n"
    namespace = {"math": math}
    if arrays:
        namespace.update(arrays)
    exec(compile(source, f"<exprgen:{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__source__ = source
    COMPILE_COUNTER.scalar += 1
    COMPILE_COUNTER.seconds += time.perf_counter() - started
    return fn


def compile_combine_fn(kind: str) -> Callable:
    """Binary combine function for a reduction kind (+, *, min, max)."""
    if kind == "+":
        return lambda a, b: a + b
    if kind == "*":
        return lambda a, b: a * b
    if kind == "min":
        return min
    if kind == "max":
        return max
    raise ExprGenError(f"unknown combine kind {kind!r}")


# ---------------------------------------------------------------------------
# Vectorized (numpy) emission
#
# Mirrors the scalar emitter operation-for-operation over float64 arrays so
# the vectorized executor reproduces the reference path bit-for-bit.  The
# libm transcendentals (exp/log/sin/cos) are applied through the *scalar*
# math functions element-wise: numpy's own ufuncs may differ from libm in
# the last ulp, which would break the differential harness.
# ---------------------------------------------------------------------------

def _v_exact(fn: Callable) -> Callable:
    ufunc = _np.frompyfunc(fn, 1, 1)

    def apply(x):
        return ufunc(_np.asarray(x, dtype=_np.float64)).astype(_np.float64)
    return apply


def _v_min(a, b):
    # Matches Python's min tie/ordering rule (returns a unless b < a).
    return _np.where(_np.asarray(b) < _np.asarray(a), b, a)


def _v_max(a, b):
    return _np.where(_np.asarray(b) > _np.asarray(a), b, a)


def _v_int(x):
    return _np.asarray(x).astype(_np.int64)


def _v_float(x):
    return _np.asarray(x).astype(_np.float64)


def _v_index(array, idx):
    return array[_v_int(idx)].astype(_np.float64)


_VEC_INTRINSICS = {
    "sqrt": "_np.sqrt", "floor": "_np.floor", "abs": "_np.abs",
    "exp": "_v_exp", "log": "_v_log", "sin": "_v_sin", "cos": "_v_cos",
    "int": "_v_int", "float": "_v_float",
}


def _vec_namespace() -> Dict[str, object]:
    return {
        "_np": _np, "math": math,
        "_v_exp": _v_exact(math.exp), "_v_log": _v_exact(math.log),
        "_v_sin": _v_exact(math.sin), "_v_cos": _v_exact(math.cos),
        "_v_min": _v_min, "_v_max": _v_max,
        "_v_int": _v_int, "_v_float": _v_float, "_v_index": _v_index,
        "_v_where": _np.where,
        "_v_and": _np.logical_and, "_v_or": _np.logical_or,
        "_v_not": _np.logical_not,
    }


def vector_expr(expr: N.Expr, args: Sequence[str],
                params: Dict[str, float]) -> str:
    """Render ``expr`` as a numpy expression over array-valued ``args``."""
    if isinstance(expr, (N.Const, N.Var)):
        return python_expr(expr, args, params)
    if isinstance(expr, N.BinOp):
        left = vector_expr(expr.left, args, params)
        right = vector_expr(expr.right, args, params)
        if expr.op == "and":
            return f"_v_and({left}, {right})"
        if expr.op == "or":
            return f"_v_or({left}, {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, N.UnaryOp):
        inner = vector_expr(expr.operand, args, params)
        return f"_v_not({inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, N.Call):
        if expr.fn == "select":
            cond, a, b = (vector_expr(e, args, params) for e in expr.args)
            return f"_v_where({cond}, {a}, {b})"
        inners = [vector_expr(a, args, params) for a in expr.args]
        if expr.fn in ("min", "max"):
            acc = inners[0]
            for nxt in inners[1:]:
                acc = f"_v_{expr.fn}({acc}, {nxt})"
            return acc
        fn = _VEC_INTRINSICS.get(expr.fn)
        if fn is None:
            raise ExprGenError(f"unknown intrinsic {expr.fn!r}")
        return f"{fn}({', '.join(inners)})"
    if isinstance(expr, N.Index):
        idx = vector_expr(expr.index, args, params)
        return f"_v_index({expr.array}, {idx})"
    raise ExprGenError(
        f"cannot lower {type(expr).__name__} to a vector expression "
        "(pops/peeks must be pre-substituted by the kernel template)")


def compile_vector_fn(expr: N.Expr, args: Sequence[str],
                      params: Dict[str, float],
                      name: str = "velem",
                      arrays: Dict[str, object] = None) -> Callable:
    """Compile ``expr`` to a numpy function ``f(*args)`` over arrays.

    Semantically identical to :func:`compile_scalar_fn` applied lane-wise
    (same float64 arithmetic, same tie rules, same libm transcendentals).
    """
    started = time.perf_counter()
    body = vector_expr(expr, args, params)
    source = f"def {name}({', '.join(args)}):\n    return {body}\n"
    namespace = _vec_namespace()
    if arrays:
        namespace.update(arrays)
    exec(compile(source, f"<exprgen:{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__source__ = source
    COMPILE_COUNTER.vector += 1
    COMPILE_COUNTER.seconds += time.perf_counter() - started
    return fn


_VEC_COMBINE = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "min": _v_min,
    "max": _v_max,
}


def compile_vector_combine_fn(kind: str) -> Callable:
    """Array-valued counterpart of :func:`compile_combine_fn`."""
    fn = _VEC_COMBINE.get(kind)
    if fn is None:
        raise ExprGenError(f"unknown combine kind {kind!r}")
    return fn


# ---------------------------------------------------------------------------
# CUDA C emission
# ---------------------------------------------------------------------------

def c_expr(expr: N.Expr, renames: Dict[str, str] = None) -> str:
    """Render ``expr`` as a C expression; ``renames`` maps IR names to C."""
    renames = renames or {}
    if isinstance(expr, N.Const):
        if isinstance(expr.value, bool):
            return "1" if expr.value else "0"
        if isinstance(expr.value, float):
            return f"{expr.value}f"
        return str(expr.value)
    if isinstance(expr, N.Var):
        return renames.get(expr.name, expr.name)
    if isinstance(expr, N.BinOp):
        left = c_expr(expr.left, renames)
        right = c_expr(expr.right, renames)
        if expr.op == "//":
            return f"({left} / {right})"   # integer division in C
        if expr.op == "**":
            return f"powf({left}, {right})"
        if expr.op == "and":
            return f"({left} && {right})"
        if expr.op == "or":
            return f"({left} || {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, N.UnaryOp):
        inner = c_expr(expr.operand, renames)
        return f"(!{inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, N.Call):
        if expr.fn == "select":
            cond, a, b = (c_expr(e, renames) for e in expr.args)
            return f"({cond} ? {a} : {b})"
        fn = _C_INTRINSICS.get(expr.fn)
        if fn is None:
            raise ExprGenError(f"unknown intrinsic {expr.fn!r}")
        inner = ", ".join(c_expr(a, renames) for a in expr.args)
        return f"{fn}({inner})"
    if isinstance(expr, N.Index):
        name = renames.get(expr.array, expr.array)
        return f"{name}[{c_expr(expr.index, renames)}]"
    raise ExprGenError(f"cannot lower {type(expr).__name__} to C")


def c_combine(kind: str, a: str, b: str) -> str:
    template = _C_COMBINE.get(kind)
    if template is None:
        raise ExprGenError(f"unknown combine kind {kind!r}")
    return template.format(a=a, b=b)


def combine_identity(kind: str) -> float:
    if kind not in COMBINE_IDENTITY:
        raise ExprGenError(f"unknown combine kind {kind!r}")
    return COMBINE_IDENTITY[kind]
