"""Reduction semantics shared by the stream-reduction kernel templates.

A :class:`Reducer` packages what a tree reduction needs: the identity state,
the per-element function (applied to popped values), the associative
commutative combine, and the epilogue that turns the final state into pushed
outputs.  :class:`ScalarReducer` covers sum/product/min/max reductions
(sdot, sasum, snrm2, …); :class:`ArgReducer` covers index-of-extremum
reductions (isamax/isamin) whose state is a (value, index) pair.

Kernel templates are generic over the reducer, which is how one stream-
reduction implementation (§4.2.1, Figures 7–8) serves every reduction actor
Adaptic detects; :class:`HorizontalReducer` runs several of them side by
side through the same kernels (horizontal integration, §4.3.2).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.patterns import ArgReducePattern, ReductionPattern
from ..ir.rates import eval_expr
from .exprgen import (c_combine, c_expr, combine_identity,
                      compile_combine_fn, compile_scalar_fn,
                      compile_vector_combine_fn, compile_vector_fn)
from .plans.base import expr_aux_loads, expr_ops


class Reducer:
    """Abstract reduction semantics used by the reduction kernel plans."""

    state_width: int          # number of scalar slots per partial result
    pops_per_iter: int
    outputs_per_array: int
    #: ``(ops, aux loads)`` of one element, once :meth:`_element_counts`
    #: has walked the IR.
    _counts: Optional[Tuple[int, int]] = None

    def identity(self) -> Tuple[float, ...]:
        raise NotImplementedError

    def element(self, values: Sequence[float], i: int) -> Tuple[float, ...]:
        """Map the ``i``-th group of popped values to a partial state."""
        raise NotImplementedError

    def combine(self, a: Tuple[float, ...],
                b: Tuple[float, ...]) -> Tuple[float, ...]:
        raise NotImplementedError

    def epilogue(self, state: Tuple[float, ...]) -> List[float]:
        raise NotImplementedError

    # -- vectorized (array-state) counterparts ---------------------------
    # Same semantics lane-wise; used by the plans' ``vector_body``
    # emitters.  States are tuples of float64 arrays.
    def videntity(self, shape) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def velement(self, values, i) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def vcombine(self, a, b) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def vepilogue(self, state) -> List[np.ndarray]:
        raise NotImplementedError

    # -- cost metadata ---------------------------------------------------
    def element_ops(self) -> int:
        raise NotImplementedError

    def element_aux_loads(self) -> int:
        return 0

    def _element_counts(self) -> Tuple[int, int]:
        """``(ops, aux loads)`` of one ``pattern.element`` evaluation.

        Constants of the reducer, walked from the IR on the first cost
        query: a plan's ``symbolic`` reducer serves all its queries.
        """
        if self._counts is None:
            element = self.pattern.element
            self._counts = (max(1, expr_ops(element)),
                            expr_aux_loads(element))
        return self._counts

    def combine_ops(self) -> int:
        return 1

    # -- CUDA emission ----------------------------------------------------
    def c_state_decl(self, name: str) -> str:
        raise NotImplementedError

    def c_element(self, value_names: Sequence[str], index_name: str) -> str:
        raise NotImplementedError

    def c_combine_stmt(self, a: str, b: str) -> str:
        raise NotImplementedError


class ScalarReducer(Reducer):
    """Reduction with a single-scalar state (sum, product, min, max)."""

    def __init__(self, pattern: ReductionPattern,
                 params: Dict[str, float] = None,
                 arrays: Dict[str, np.ndarray] = None):
        self.pattern = pattern
        self.kind = pattern.kind
        self.params = params
        self.arrays = dict(arrays or {})
        self.state_width = 1
        self.pops_per_iter = pattern.pops_per_iter
        self.outputs_per_array = 1
        self._combine = compile_combine_fn(self.kind)
        self._vcombine = compile_vector_combine_fn(self.kind)
        if params is None:
            # Symbolic mode: only cost metadata and CUDA emission are valid.
            self._elem = self._epi = None
            self._velem = self._vepi = None
            self.init_value = None
            return
        arg_names = [f"_x{k}" for k in range(self.pops_per_iter)] + ["_i"]
        self._elem = compile_scalar_fn(pattern.element, arg_names, params,
                                       name="elem", arrays=self.arrays)
        self._epi = compile_scalar_fn(pattern.epilogue, ["_acc"], params,
                                      name="epi", arrays=self.arrays)
        self._velem = compile_vector_fn(pattern.element, arg_names, params,
                                        name="velem", arrays=self.arrays)
        self._vepi = compile_vector_fn(pattern.epilogue, ["_acc"], params,
                                       name="vepi", arrays=self.arrays)
        # The sequential semantics start from the actor's declared init
        # value (e.g. acc = 0.0), folded in by the merge epilogue.
        self.init_value = eval_expr(pattern.init, params)

    def identity(self) -> Tuple[float, ...]:
        return (combine_identity(self.kind),)

    def element(self, values, i):
        return (self._elem(*values, i),)

    def combine(self, a, b):
        return (self._combine(a[0], b[0]),)

    def epilogue(self, state):
        acc = self._combine(self.init_value, state[0])
        return [self._epi(acc)]

    # -- vectorized ------------------------------------------------------
    def videntity(self, shape):
        return (np.full(shape, combine_identity(self.kind),
                        dtype=np.float64),)

    def velement(self, values, i):
        return (self._velem(*values, i),)

    def vcombine(self, a, b):
        return (self._vcombine(a[0], b[0]),)

    def vepilogue(self, state):
        acc = self._vcombine(self.init_value, state[0])
        return [self._vepi(acc)]

    def element_ops(self) -> int:
        return self._element_counts()[0]

    def element_aux_loads(self) -> int:
        return self._element_counts()[1]

    # -- CUDA -----------------------------------------------------------
    def c_state_decl(self, name: str) -> str:
        ident = combine_identity(self.kind)
        if math.isinf(ident):
            text = "-CUDART_INF_F" if ident < 0 else "CUDART_INF_F"
        else:
            text = f"{float(ident)}f"
        return f"float {name} = {text};"

    def c_element(self, value_names, index_name) -> str:
        renames = {f"_x{k}": v for k, v in enumerate(value_names)}
        renames["_i"] = index_name
        return c_expr(self.pattern.element, renames)

    def c_combine_stmt(self, a: str, b: str) -> str:
        return f"{a} = {c_combine(self.kind, a, b)};"


class ArgReducer(Reducer):
    """Index-of-extremum reduction with (value, index) state."""

    def __init__(self, pattern: ArgReducePattern,
                 params: Dict[str, float] = None,
                 arrays: Dict[str, np.ndarray] = None):
        self.pattern = pattern
        self.cmp = pattern.cmp       # ">" = argmax, "<" = argmin
        self.params = params
        self.arrays = dict(arrays or {})
        self.state_width = 2
        self.pops_per_iter = 1
        self.outputs_per_array = 2 if pattern.pushes_value else 1
        self._better: Callable[[float, float], bool] = (
            (lambda a, b: a > b) if self.cmp == ">" else (lambda a, b: a < b))
        if params is None:
            self._elem = self._velem = None
            return
        self._elem = compile_scalar_fn(pattern.element, ["_x0", "_i"], params,
                                       name="elem", arrays=self.arrays)
        self._velem = compile_vector_fn(pattern.element, ["_x0", "_i"],
                                        params, name="velem",
                                        arrays=self.arrays)

    def identity(self) -> Tuple[float, ...]:
        worst = -math.inf if self.cmp == ">" else math.inf
        return (worst, -1.0)

    def element(self, values, i):
        return (self._elem(values[0], i), float(i))

    def combine(self, a, b):
        # Strict improvement keeps the earliest index, matching the
        # sequential `if x > best` semantics under left-to-right trees.
        if self._better(b[0], a[0]):
            return b
        if b[0] == a[0] and 0 <= b[1] < a[1]:
            return b
        return a

    def epilogue(self, state):
        out = [state[1]]
        if self.pattern.pushes_value:
            out.append(state[0])
        return out

    # -- vectorized ------------------------------------------------------
    def videntity(self, shape):
        worst = -math.inf if self.cmp == ">" else math.inf
        return (np.full(shape, worst, dtype=np.float64),
                np.full(shape, -1.0, dtype=np.float64))

    def velement(self, values, i):
        value = self._velem(values[0], i)
        return (value, np.broadcast_to(
            np.asarray(i), value.shape).astype(np.float64))

    def vcombine(self, a, b):
        better = (b[0] > a[0]) if self.cmp == ">" else (b[0] < a[0])
        take = better | ((b[0] == a[0]) & (b[1] >= 0) & (b[1] < a[1]))
        return (np.where(take, b[0], a[0]), np.where(take, b[1], a[1]))

    def vepilogue(self, state):
        out = [state[1]]
        if self.pattern.pushes_value:
            out.append(state[0])
        return out

    def element_ops(self) -> int:
        return self._element_counts()[0] + 2  # cmp + select

    def element_aux_loads(self) -> int:
        return self._element_counts()[1]

    def combine_ops(self) -> int:
        return 3

    # -- CUDA -----------------------------------------------------------
    def c_state_decl(self, name: str) -> str:
        worst = "-CUDART_INF_F" if self.cmp == ">" else "CUDART_INF_F"
        return (f"float {name}_v = {worst}; float {name}_i = -1.0f;")

    def c_element(self, value_names, index_name) -> str:
        renames = {"_x0": value_names[0], "_i": index_name}
        return c_expr(self.pattern.element, renames)

    def c_combine_stmt(self, a: str, b: str) -> str:
        op = self.cmp
        return (f"if ({b}_v {op} {a}_v || ({b}_v == {a}_v && {b}_i < {a}_i)) "
                f"{{ {a}_v = {b}_v; {a}_i = {b}_i; }}")


class HorizontalReducer(Reducer):
    """Several reducers over the same pops as one (§4.3.2).

    Horizontal integration folds every member in one pass: the state is
    the members' states side by side and the outputs are their outputs
    in member order, so the plain reduction kernels run it unchanged.
    """

    def __init__(self, reducers: Sequence[Reducer]):
        self.reducers = list(reducers)
        self.state_width = sum(r.state_width for r in self.reducers)
        self.pops_per_iter = self.reducers[0].pops_per_iter
        self.outputs_per_array = sum(r.outputs_per_array
                                     for r in self.reducers)
        self._parts = []
        start = 0
        for reducer in self.reducers:
            stop = start + reducer.state_width
            self._parts.append((reducer, slice(start, stop)))
            start = stop

    def identity(self):
        return sum([r.identity() for r in self.reducers], ())

    def element(self, values, i):
        return sum([r.element(values, i) for r in self.reducers], ())

    def combine(self, a, b):
        return sum([r.combine(a[s], b[s]) for r, s in self._parts], ())

    def epilogue(self, state):
        return [v for r, s in self._parts for v in r.epilogue(state[s])]

    def videntity(self, shape):
        return sum([r.videntity(shape) for r in self.reducers], ())

    def velement(self, values, i):
        return sum([r.velement(values, i) for r in self.reducers], ())

    def vcombine(self, a, b):
        return sum([r.vcombine(a[s], b[s]) for r, s in self._parts], ())

    def vepilogue(self, state):
        return [v for r, s in self._parts for v in r.vepilogue(state[s])]


def reducer_for(classification, params: Dict[str, float],
                arrays: Dict[str, np.ndarray] = None) -> Reducer:
    """Build the right reducer for a classified actor."""
    if classification.category == "reduction":
        return ScalarReducer(classification.pattern, params, arrays)
    if classification.category == "argreduce":
        return ArgReducer(classification.pattern, params, arrays)
    raise ValueError(
        f"actor classified as {classification.category!r} is not a reduction")
