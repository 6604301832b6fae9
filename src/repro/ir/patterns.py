"""Actor pattern matching.

Adaptic "automatically detects reduction operations in its streaming graph
input using pattern matching" (§4.2.1), recognizes the neighboring-access
(stencil) idiom (§4.1.2), identifies pure *transfer* actors that only
reorganize data (§4.3.1), and falls back to intra-actor parallelization for
large loops without cross-iteration dependences (§4.2.2).  This module
implements those matchers over the work-function IR.

Each matcher returns a pattern object carrying exactly the information the
corresponding optimization needs (combine operator and epilogue for
reductions; the offset set for stencils; the per-iteration element function
for maps), or ``None`` when the work function does not have that shape.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from . import nodes as N
from .analysis import (affine_in, expr_equal, linear_recurrences,
                       loop_carried_vars)

#: Placeholder variable names used inside extracted element functions.
ELEM = "_x"       # the popped element (k-th pop becomes _x0, _x1, ...)
ACC = "_acc"      # the accumulator inside epilogues
IDX = "_i"        # the loop index


# ---------------------------------------------------------------------------
# Pattern dataclasses
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ReductionPattern:
    """``acc = init; for i in n: acc = acc OP f(pops); push(g(acc))``."""

    kind: str                     # "+", "*", "min", "max"
    init: N.Expr
    element: N.Expr               # in terms of _x0.._x{k-1} and _i
    pops_per_iter: int
    trip: N.Expr                  # symbolic element count
    epilogue: N.Expr              # in terms of _acc


@dataclasses.dataclass
class ArgReducePattern:
    """Index-of-extremum reduction (isamax/isamin)."""

    cmp: str                      # ">" (argmax) or "<" (argmin)
    element: N.Expr               # in terms of _x0 and _i
    init: N.Expr
    trip: N.Expr
    pushes_value: bool            # push(best) in addition to push(besti)
    pops_per_iter: int = 1        # arg-reductions consume one stream element


@dataclasses.dataclass
class MapPattern:
    """Elementwise loop: k pops, m pushes per iteration, no carried deps."""

    trip: N.Expr
    pops_per_iter: int
    pushes_per_iter: int
    outputs: List[N.Expr]         # in terms of _x0.._x{k-1} and _i
    removed_recurrences: Dict[str, object] = dataclasses.field(
        default_factory=dict)


@dataclasses.dataclass
class StencilPattern:
    """Neighboring-access loop: pushes f(peek(i + d) for d in offsets)."""

    trip: N.Expr
    offsets: List[N.Expr]         # displacements d relative to the index
    compute: N.Expr               # in terms of _p0.._p{k-1} (peeked values), _i
    guard: Optional[N.Expr]       # edge condition in terms of _i, or None
    guard_else: Optional[N.Expr]  # pushed expr when guard fails (_p of center)
    width_param: Optional[str]    # the row-width parameter for 2-D stencils

    @property
    def is_2d(self) -> bool:
        return self.width_param is not None


@dataclasses.dataclass
class TransferPattern:
    """Pure data reorganization: every push copies a peeked element."""

    trip: N.Expr
    mapping: N.Expr               # source offset, in terms of _i
    pops: N.Expr                  # how many elements are drained per work


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _inline_single_use_temps(body: List[N.Stmt]) -> List[N.Stmt]:
    """Forward-substitute ``t = E`` when ``t`` is used exactly once after.

    Expressions containing pops are only inlined into single uses, so stream
    side effects are never duplicated.
    """
    out = list(body)
    changed = True
    while changed:
        changed = False
        for i, stmt in enumerate(out):
            if not isinstance(stmt, N.Assign):
                continue
            uses = 0
            reassigned = False
            for later in out[i + 1:]:
                for node in later.walk():
                    if isinstance(node, N.Var) and node.name == stmt.target:
                        uses += 1
                    if (isinstance(node, N.Assign)
                            and node.target == stmt.target
                            and later is not stmt):
                        reassigned = True
            if uses == 1 and not reassigned:
                binding = {stmt.target: stmt.value}
                replaced = []
                for later in out[i + 1:]:
                    replaced.append(_subst_stmt(later, binding))
                out = out[:i] + replaced
                changed = True
                break
    return out


def _subst_stmt(stmt: N.Stmt, bindings: dict) -> N.Stmt:
    if isinstance(stmt, N.Assign):
        return N.Assign(stmt.target, N.substitute(stmt.value, bindings))
    if isinstance(stmt, N.Push):
        return N.Push(N.substitute(stmt.value, bindings))
    if isinstance(stmt, N.If):
        return N.If(N.substitute(stmt.cond, bindings),
                    [_subst_stmt(s, bindings) for s in stmt.then],
                    [_subst_stmt(s, bindings) for s in stmt.orelse])
    if isinstance(stmt, N.For):
        return N.For(stmt.var, N.substitute(stmt.start, bindings),
                     N.substitute(stmt.stop, bindings),
                     [_subst_stmt(s, bindings) for s in stmt.body])
    raise TypeError(type(stmt).__name__)


def _replace_pops(expr: N.Expr, counter: List[int]) -> N.Expr:
    """Replace each Pop with a fresh placeholder ``_x{k}`` (in pop order)."""
    if isinstance(expr, N.Pop):
        name = f"{ELEM}{counter[0]}"
        counter[0] += 1
        return N.Var(name)
    if isinstance(expr, N.BinOp):
        left = _replace_pops(expr.left, counter)
        right = _replace_pops(expr.right, counter)
        return N.BinOp(expr.op, left, right)
    if isinstance(expr, N.UnaryOp):
        return N.UnaryOp(expr.op, _replace_pops(expr.operand, counter))
    if isinstance(expr, N.Call):
        return N.Call(expr.fn, [_replace_pops(a, counter) for a in expr.args])
    if isinstance(expr, (N.Const, N.Var)):
        return expr
    if isinstance(expr, N.Peek):
        return N.Peek(_replace_pops(expr.offset, counter))
    if isinstance(expr, N.Index):
        return N.Index(expr.array, _replace_pops(expr.index, counter))
    raise TypeError(type(expr).__name__)


def _single_toplevel_for(body: List[N.Stmt]):
    """Split a body into (pre, the unique top-level For, post)."""
    fors = [i for i, s in enumerate(body) if isinstance(s, N.For)]
    if len(fors) == 1:
        i = fors[0]
        return body[:i], body[i], body[i + 1:]
    if len(fors) == 2:
        # Allow a trailing drain loop: for j in range(m): _ = pop()
        i, j = fors
        drain = body[j]
        if _is_drain_loop(drain) and j == len(body) - 1:
            return body[:i], body[i], body[i + 1:j]
    return None, None, None


def _is_drain_loop(stmt: N.Stmt) -> bool:
    return (isinstance(stmt, N.For) and len(stmt.body) == 1
            and isinstance(stmt.body[0], N.Assign)
            and isinstance(stmt.body[0].value, N.Pop))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def match_reduction(work: N.WorkFunction) -> Optional[ReductionPattern]:
    pre, loop, post = _single_toplevel_for(work.body)
    if loop is None:
        return None
    if not (isinstance(loop.start, N.Const) and loop.start.value == 0):
        return None

    inits = {}
    for stmt in pre:
        if not isinstance(stmt, N.Assign):
            return None
        inits[stmt.target] = stmt.value

    body = loop.body
    if not body or not all(isinstance(s, N.Assign) for s in body):
        return None
    update = body[-1]
    acc = update.target
    if acc not in inits:
        return None
    if loop_carried_vars(loop) - {acc}:
        return None

    # Temps execute in order; replace each pop with a placeholder as it is
    # reached so the element function preserves pop order.
    counter = [0]
    bindings: Dict[str, N.Expr] = {}
    for stmt in body[:-1]:
        if stmt.target == acc:
            return None
        value = N.substitute(stmt.value, bindings)
        bindings[stmt.target] = _replace_pops(value, counter)

    combined = N.substitute(update.value, bindings)
    kind, element = _split_combine(combined, acc)
    if kind is None:
        return None
    if any(isinstance(n, N.Peek) for n in element.walk()):
        return None
    if acc in N.free_vars(element):
        return None

    element = _replace_pops(element, counter)
    pops_per_iter = counter[0]
    if pops_per_iter == 0:
        return None
    element = N.substitute(element, {loop.var: N.Var(IDX)})

    epilogue = _match_epilogue(post, acc, inits)
    if epilogue is None:
        return None

    return ReductionPattern(kind=kind, init=inits[acc], element=element,
                            pops_per_iter=pops_per_iter, trip=loop.stop,
                            epilogue=epilogue)


def _split_combine(expr: N.Expr, acc: str):
    """Split ``acc OP E`` / ``min(acc, E)`` into (op kind, E)."""
    if isinstance(expr, N.BinOp) and expr.op in ("+", "*"):
        if isinstance(expr.left, N.Var) and expr.left.name == acc:
            return expr.op, expr.right
        if isinstance(expr.right, N.Var) and expr.right.name == acc:
            return expr.op, expr.left
    if isinstance(expr, N.Call) and expr.fn in ("min", "max"):
        if len(expr.args) == 2:
            a, b = expr.args
            if isinstance(a, N.Var) and a.name == acc:
                return expr.fn, b
            if isinstance(b, N.Var) and b.name == acc:
                return expr.fn, a
    return None, None


def _match_epilogue(post: List[N.Stmt], acc: str, inits) -> Optional[N.Expr]:
    """Collapse trailing assigns + a single push into an expr over ``_acc``."""
    bindings = {acc: N.Var(ACC)}
    pushed = None
    for stmt in post:
        if isinstance(stmt, N.Assign):
            if any(isinstance(n, (N.Pop, N.Peek)) for n in stmt.value.walk()):
                return None
            bindings[stmt.target] = N.substitute(stmt.value, bindings)
        elif isinstance(stmt, N.Push):
            if pushed is not None:
                return None
            pushed = N.substitute(stmt.value, bindings)
        else:
            return None
    if pushed is None:
        return None
    if any(isinstance(n, (N.Pop, N.Peek)) for n in pushed.walk()):
        return None
    return pushed


# ---------------------------------------------------------------------------
# Arg-reduction (isamax / isamin)
# ---------------------------------------------------------------------------

def match_argreduce(work: N.WorkFunction) -> Optional[ArgReducePattern]:
    pre, loop, post = _single_toplevel_for(work.body)
    if loop is None:
        return None
    if not (isinstance(loop.start, N.Const) and loop.start.value == 0):
        return None

    inits = {}
    for stmt in pre:
        if not isinstance(stmt, N.Assign):
            return None
        inits[stmt.target] = stmt.value

    body = list(loop.body)
    # Expected shape: [x = f(pop())]; if x CMP best: best = x; besti = i
    if len(body) == 2 and isinstance(body[0], N.Assign):
        elem_var = body[0].target
        element = body[0].value
        cond_stmt = body[1]
    elif len(body) == 1:
        elem_var = None
        element = None
        cond_stmt = body[0]
    else:
        return None
    if not isinstance(cond_stmt, N.If) or cond_stmt.orelse:
        return None
    cond = cond_stmt.cond
    if not (isinstance(cond, N.BinOp) and cond.op in (">", "<", ">=", "<=")):
        return None

    then = cond_stmt.then
    if len(then) != 2:
        return None
    best_assign = next((s for s in then if isinstance(s, N.Assign)
                        and not _assigns_index(s, loop.var)), None)
    idx_assign = next((s for s in then if isinstance(s, N.Assign)
                       and _assigns_index(s, loop.var)), None)
    if best_assign is None or idx_assign is None:
        return None
    best, besti = best_assign.target, idx_assign.target
    if best not in inits or besti not in inits:
        return None

    # Condition must compare the element against best.
    cmp = cond.op[0]  # ">" or "<"
    left, right = cond.left, cond.right
    if isinstance(right, N.Var) and right.name == best:
        cand = left
    elif isinstance(left, N.Var) and left.name == best:
        cand = right
        cmp = ">" if cmp == "<" else "<"
    else:
        return None
    if elem_var is not None:
        if not (isinstance(cand, N.Var) and cand.name == elem_var):
            return None
        if not (isinstance(best_assign.value, N.Var)
                and best_assign.value.name == elem_var):
            return None
    else:
        element = cand
        if not expr_equal(best_assign.value, cand):
            return None

    counter = [0]
    element = _replace_pops(element, counter)
    if counter[0] != 1:
        return None
    element = N.substitute(element, {loop.var: N.Var(IDX)})

    # Post: push(besti) and optionally push(best).
    pushed_idx = pushed_val = False
    for stmt in post:
        if (isinstance(stmt, N.Push) and isinstance(stmt.value, N.Var)):
            if stmt.value.name == besti:
                pushed_idx = True
                continue
            if stmt.value.name == best:
                pushed_val = True
                continue
        return None
    if not pushed_idx:
        return None
    return ArgReducePattern(cmp=cmp, element=element, init=inits[best],
                            trip=loop.stop, pushes_value=pushed_val)


def _assigns_index(stmt: N.Assign, loop_var: str) -> bool:
    return isinstance(stmt.value, N.Var) and stmt.value.name == loop_var


# ---------------------------------------------------------------------------
# Map (elementwise)
# ---------------------------------------------------------------------------

def match_map(work: N.WorkFunction) -> Optional[MapPattern]:
    pre, loop, post = _single_toplevel_for(work.body)
    if loop is None:
        # Loop-free straight-line filters (the idiomatic 1-pop/1-push
        # StreamIt map) are maps with one iteration per invocation.
        if any(isinstance(s, N.For) for s in work.body):
            return None
        loop = N.For("_i", N.Const(0), N.Const(1), list(work.body))
        pre = post = []
    if pre or post:
        return None
    if not (isinstance(loop.start, N.Const) and loop.start.value == 0):
        return None
    if loop_carried_vars(loop):
        return None
    if any(isinstance(n, N.Peek) for s in loop.body for n in s.walk()):
        return None
    if any(isinstance(s, (N.For, N.If)) for s in loop.body):
        return None

    # Temps execute in order; pops are replaced with placeholders as each
    # assignment is reached so multi-use temps keep single-pop semantics.
    counter = [0]
    bindings: Dict[str, N.Expr] = {}
    outputs: List[N.Expr] = []
    for stmt in loop.body:
        if isinstance(stmt, N.Assign):
            value = N.substitute(stmt.value, bindings)
            bindings[stmt.target] = _replace_pops(value, counter)
        elif isinstance(stmt, N.Push):
            expr = _replace_pops(N.substitute(stmt.value, bindings), counter)
            outputs.append(N.substitute(expr, {loop.var: N.Var(IDX)}))
        else:
            return None
    if not outputs:
        return None
    return MapPattern(trip=loop.stop, pops_per_iter=counter[0],
                      pushes_per_iter=len(outputs), outputs=outputs)


# ---------------------------------------------------------------------------
# Stencil / neighboring access
# ---------------------------------------------------------------------------

def match_stencil(work: N.WorkFunction,
                  params: Tuple[str, ...] = ()) -> Optional[StencilPattern]:
    pre, loop, post = _single_toplevel_for(work.body)
    if loop is None or pre:
        return None
    for stmt in post:
        return None
    if not (isinstance(loop.start, N.Const) and loop.start.value == 0):
        return None
    if loop_carried_vars(loop):
        return None

    body = _inline_single_use_temps(loop.body)
    guard = guard_else = None
    if len(body) == 1 and isinstance(body[0], N.If):
        cond_stmt = body[0]
        if len(cond_stmt.then) != 1 or len(cond_stmt.orelse) != 1:
            return None
        if not (isinstance(cond_stmt.then[0], N.Push)
                and isinstance(cond_stmt.orelse[0], N.Push)):
            return None
        guard = N.substitute(cond_stmt.cond, {loop.var: N.Var(IDX)})
        push_stmt = cond_stmt.then[0]
        else_push = cond_stmt.orelse[0]
    elif len(body) == 1 and isinstance(body[0], N.Push):
        push_stmt = body[0]
        else_push = None
    else:
        return None

    offsets: List[N.Expr] = []

    def extract(expr: N.Expr) -> Optional[N.Expr]:
        if isinstance(expr, N.Peek):
            aff = affine_in(expr.offset, loop.var)
            if aff is None:
                return None
            coeff, disp = aff
            if not (isinstance(coeff, N.Const) and coeff.value == 1):
                return None
            for k, known in enumerate(offsets):
                if expr_equal(known, disp):
                    return N.Var(f"_p{k}")
            offsets.append(disp)
            return N.Var(f"_p{len(offsets) - 1}")
        if isinstance(expr, N.Pop):
            return None
        if isinstance(expr, (N.Const, N.Var)):
            return expr
        if isinstance(expr, N.BinOp):
            left = extract(expr.left)
            right = extract(expr.right)
            if left is None or right is None:
                return None
            return N.BinOp(expr.op, left, right)
        if isinstance(expr, N.UnaryOp):
            inner = extract(expr.operand)
            return None if inner is None else N.UnaryOp(expr.op, inner)
        if isinstance(expr, N.Call):
            args = [extract(a) for a in expr.args]
            if any(a is None for a in args):
                return None
            return N.Call(expr.fn, args)
        if isinstance(expr, N.Index):
            inner = extract(expr.index)
            return None if inner is None else N.Index(expr.array, inner)
        return None

    compute = extract(push_stmt.value)
    if compute is None or len(offsets) < 2:
        return None
    compute = N.substitute(compute, {loop.var: N.Var(IDX)})

    if else_push is not None:
        guard_else = extract(else_push.value)
        if guard_else is None:
            return None
        guard_else = N.substitute(guard_else, {loop.var: N.Var(IDX)})

    width_param = None
    for disp in offsets:
        for name in N.free_vars(disp):
            if name in params:
                width_param = name
    return StencilPattern(trip=loop.stop, offsets=offsets, compute=compute,
                          guard=guard, guard_else=guard_else,
                          width_param=width_param)


# ---------------------------------------------------------------------------
# Transfer (pure reorganization)
# ---------------------------------------------------------------------------

def match_transfer(work: N.WorkFunction) -> Optional[TransferPattern]:
    pre, loop, post = _single_toplevel_for(work.body)
    if loop is None or pre or post:
        return None
    if not (isinstance(loop.start, N.Const) and loop.start.value == 0):
        return None
    body = loop.body
    if len(body) != 1 or not isinstance(body[0], N.Push):
        return None
    value = body[0].value
    if not isinstance(value, N.Peek):
        return None
    if any(isinstance(n, (N.Pop, N.Peek))
           for n in value.offset.walk()):
        return None
    mapping = N.substitute(value.offset, {loop.var: N.Var(IDX)})
    return TransferPattern(trip=loop.stop, mapping=mapping, pops=loop.stop)


# ---------------------------------------------------------------------------
# Intra-actor parallelization helper (§4.2.2)
# ---------------------------------------------------------------------------

def parallelizable_loop(work: N.WorkFunction):
    """Check whether the work's main loop can run iterations in parallel.

    Returns ``(loop, recurrences)`` where ``recurrences`` maps accumulator
    names to :class:`LinearRecurrence` substitutions needed to break the
    remaining dependences, or ``None`` when the loop has irreducible carried
    dependences.
    """
    _, loop, _ = _single_toplevel_for(work.body)
    if loop is None:
        return None
    carried = loop_carried_vars(loop)
    if not carried:
        return loop, {}
    recs = linear_recurrences(loop)
    if carried <= set(recs):
        return loop, {name: recs[name] for name in carried}
    return None


# ---------------------------------------------------------------------------
# Unified classification
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Classification:
    """The matched pattern plus its category name."""

    category: str      # reduction | argreduce | stencil | transfer | map | generic
    pattern: object


def classify(work: N.WorkFunction,
             params: Tuple[str, ...] = ()) -> Classification:
    """Classify a work function by trying each matcher in priority order."""
    red = match_reduction(work)
    if red is not None:
        return Classification("reduction", red)
    arg = match_argreduce(work)
    if arg is not None:
        return Classification("argreduce", arg)
    sten = match_stencil(work, params or work.params)
    if sten is not None:
        return Classification("stencil", sten)
    trans = match_transfer(work)
    if trans is not None:
        return Classification("transfer", trans)
    mapped = match_map(work)
    if mapped is not None:
        return Classification("map", mapped)
    return Classification("generic", None)
