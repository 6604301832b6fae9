"""Flattening of hierarchical streams into an explicit actor graph.

Scheduling, optimization, and code generation all work on the
:class:`FlatGraph`: filters plus explicit splitter/joiner nodes connected by
channels.  Splitters and joiners carry their own SDF rates (a duplicate
splitter pushes one element per branch per firing; a weighted round-robin
moves its weights), so the balance equations treat every node uniformly.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Tuple

from .structure import (Duplicate, FeedbackLoop, Filter, Pipeline,
                        SplitJoin, Stream)


class FlattenError(ValueError):
    """The stream cannot be flattened (e.g. feedback loops)."""


@dataclasses.dataclass
class Channel:
    """A FIFO edge between two nodes' ports."""

    src: "FlatNode"
    src_port: int
    dst: Optional["FlatNode"] = None
    dst_port: int = 0

    def __repr__(self) -> str:
        dst = self.dst.name if self.dst else "<out>"
        return f"Channel({self.src.name}:{self.src_port} -> {dst}:{self.dst_port})"


class FlatNode:
    """One node of the flat graph: a filter, splitter, or joiner."""

    _ids = itertools.count()

    def __init__(self, kind: str, name: str, filter: Optional[Filter] = None,
                 splitter=None, joiner=None):
        self.id = next(FlatNode._ids)
        self.kind = kind            # "filter" | "split" | "join"
        self.name = f"{name}#{self.id}"
        self.filter = filter
        self.splitter = splitter
        self.joiner = joiner
        self.inputs: List[Channel] = []
        self.outputs: List[Channel] = []

    # -- SDF rates per firing -------------------------------------------
    def pop_rates(self, params: Dict[str, float]) -> List[int]:
        """Elements consumed from each input channel per firing."""
        if self.kind == "filter":
            pop, _, _ = self.filter.rates(params)
            return [pop]
        if self.kind == "split":
            if isinstance(self.splitter, Duplicate):
                return [1]
            weights = [w.evaluate(params)
                       for w in self.splitter.weight_exprs()]
            return [sum(weights)]
        if self.kind == "join":
            return [w.evaluate(params) for w in self.joiner.weight_exprs()]
        raise AssertionError(self.kind)

    def push_rates(self, params: Dict[str, float]) -> List[int]:
        """Elements produced on each output channel per firing."""
        if self.kind == "filter":
            _, _, push = self.filter.rates(params)
            return [push]
        if self.kind == "split":
            if isinstance(self.splitter, Duplicate):
                return [1] * len(self.outputs)
            return [w.evaluate(params) for w in self.splitter.weight_exprs()]
        if self.kind == "join":
            weights = [w.evaluate(params) for w in self.joiner.weight_exprs()]
            return [sum(weights)]
        raise AssertionError(self.kind)

    def peek_extra(self, params: Dict[str, float]) -> int:
        """Lookahead beyond the pop rate (filters only)."""
        if self.kind != "filter":
            return 0
        pop, peek, _ = self.filter.rates(params)
        return max(0, peek - pop)

    def __repr__(self) -> str:
        return f"FlatNode({self.name}, {self.kind})"


class FlatGraph:
    """The flattened actor graph with distinguished entry/exit channels."""

    def __init__(self, nodes: List[FlatNode], channels: List[Channel],
                 entry: Optional[FlatNode], exit: Optional[FlatNode]):
        self.nodes = nodes
        self.channels = channels
        self.entry = entry
        self.exit = exit

    def topological_order(self) -> List[FlatNode]:
        indegree = {node.id: len(node.inputs) for node in self.nodes}
        ready = [n for n in self.nodes if indegree[n.id] == 0]
        order: List[FlatNode] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for chan in node.outputs:
                if chan.dst is None:
                    continue
                indegree[chan.dst.id] -= 1
                if indegree[chan.dst.id] == 0:
                    ready.append(chan.dst)
        if len(order) != len(self.nodes):
            raise FlattenError("flat graph contains a cycle")
        return order

    def filter_nodes(self) -> List[FlatNode]:
        return [n for n in self.nodes if n.kind == "filter"]

    def __repr__(self) -> str:
        return f"FlatGraph({len(self.nodes)} nodes, {len(self.channels)} channels)"


def flatten(stream: Stream) -> FlatGraph:
    """Flatten a hierarchical stream into a :class:`FlatGraph`.

    The entry node is the first actor that consumes external input (``None``
    entry means the program is source-driven: its first filter has pop rate
    0), and the exit node produces the program output.
    """
    nodes: List[FlatNode] = []
    channels: List[Channel] = []

    def connect(src: FlatNode, dst: FlatNode) -> None:
        chan = Channel(src, len(src.outputs), dst, len(dst.inputs))
        src.outputs.append(chan)
        dst.inputs.append(chan)
        channels.append(chan)

    def build(s: Stream) -> Tuple[FlatNode, FlatNode]:
        if isinstance(s, Filter):
            node = FlatNode("filter", s.name, filter=s)
            nodes.append(node)
            return node, node
        if isinstance(s, Pipeline):
            first = last = None
            for child in s.children:
                head, tail = build(child)
                if first is None:
                    first = head
                else:
                    connect(last, head)
                last = tail
            return first, last
        if isinstance(s, SplitJoin):
            split = FlatNode("split", f"{s.name}.split", splitter=s.splitter)
            join = FlatNode("join", f"{s.name}.join", joiner=s.joiner)
            nodes.append(split)
            for child in s.children:
                head, tail = build(child)
                connect(split, head)
                connect(tail, join)
            nodes.append(join)
            return split, join
        if isinstance(s, FeedbackLoop):
            raise FlattenError(
                "feedback loops are not supported by the Adaptic backend "
                "(none of the paper's benchmarks use them)")
        raise TypeError(f"unknown stream construct {type(s).__name__}")

    entry, exit = build(stream)
    return FlatGraph(nodes, channels, entry, exit)
