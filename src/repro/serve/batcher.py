"""Shape-bucketed coalescing of in-flight requests.

"A Few Fit Most" observes that a small set of compiled variants covers
most of a real traffic mix — which means a stream of independent
requests keeps landing on the *same* (program, size-bucket, frozen
scalars) bindings.  The batcher exploits exactly that: requests are
bucketed by binding, and each dispatch takes one bucket's waiting
requests (up to ``max_batch``) when the dispatcher frees up, so the
per-dispatch costs (selection, stats merging, python call overhead —
and, when the binding is fusable, the whole per-run launch path)
amortize over every rider.

Bucket key: ``(frozen scalar params, aux-array identity, size bucket)``.
Aux arrays (e.g. TMV's ``vec``) participate by ``id()`` — requests
sharing the same const objects coalesce; distinct objects stay apart,
which is always correct, merely less batched.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Tuple

import numpy as np

from ..compiler.plans.base import freeze_arrays, freeze_scalars
from ..perfmodel import size_bucket
from .tenancy import Priority

#: Bucket key type: (frozen scalars, frozen aux identities, size bucket).
BucketKey = Tuple[tuple, tuple, int]


def bucket_key(params: Dict) -> BucketKey:
    """Coalescing key of one request's parameter binding."""
    return (freeze_scalars(params), freeze_arrays(params),
            size_bucket(params))


@dataclasses.dataclass
class PendingRequest:
    """One admitted request waiting in (or moving through) the batcher."""

    seq: int
    tenant: str
    priority: Priority
    host_input: np.ndarray
    params: Dict
    key: BucketKey
    future: "object"              # asyncio.Future, untyped to stay import-light
    submitted: float = dataclasses.field(default_factory=time.perf_counter)


class ShapeBatcher:
    """The admitted requests no dispatch has taken yet.

    Groups form when the dispatcher is free to run one (:meth:`take`),
    not when requests arrive: the next group is the best-priority
    waiting request (oldest first within a priority) plus every other
    waiting request with its bucket key, in that same order, up to
    ``max_batch``.  While a dispatch runs, arrivals keep joining the
    waiting set, so a busy server batches more and an idle one
    dispatches a lone request at once — continuous batching, as in
    Orca (Yu et al., OSDI 2022).
    """

    def __init__(self, max_batch: int):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        #: Waiting requests in arrival order.
        self._waiting: List[PendingRequest] = []

    def __len__(self) -> int:
        return len(self._waiting)

    def add(self, request: PendingRequest) -> None:
        self._waiting.append(request)

    def take(self) -> List[PendingRequest]:
        """Remove and return the next dispatch group; at least one
        request must be waiting."""
        # A stable sort keeps arrival order within a priority class.
        ordered = sorted(self._waiting, key=lambda r: r.priority)
        key = ordered[0].key
        group = [r for r in ordered if r.key == key][:self.max_batch]
        taken = {r.seq for r in group}
        self._waiting = [r for r in self._waiting if r.seq not in taken]
        return group


def linearly_batchable(compiled, params: Dict, axis: str) -> bool:
    """Can same-binding requests fuse by concatenation along ``axis``?

    Necessary structural condition: the program's input and output
    sizes must both scale linearly in the axis, so ``k`` request
    streams concatenate into one ``k * axis`` run whose output splits
    back into ``k`` per-request chunks.  This check is structural only —
    the *semantic* requirement (each steady-state invocation consumes
    its own slice of the stream with no cross-invocation state, true
    for row-wise programs like TMV, false for stencils or whole-stream
    reductions) is the caller's opt-in contract via
    ``ServeConfig.fuse_axis``; the served outputs are differentially
    verified bit-identical against unfused dispatch by the serve test
    suite and the load benchmark.
    """
    value = params.get(axis)
    if not isinstance(value, (int, np.integer)) or value < 1:
        return False
    doubled = dict(params)
    doubled[axis] = int(value) * 2
    try:
        in_one = compiled.segments[0].input_size(params)
        out_one = compiled.segments[-1].output_size(params)
        in_two = compiled.segments[0].input_size(doubled)
        out_two = compiled.segments[-1].output_size(doubled)
    except Exception:
        return False
    return (in_one > 0 and out_one > 0
            and in_two == 2 * in_one and out_two == 2 * out_one)
