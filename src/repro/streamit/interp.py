"""Sequential reference interpreter for stream programs.

Executes the flattened graph actor-by-actor in topological order for as many
steady states as the external input requires.  This is the functional
specification every Adaptic-compiled CUDA variant is validated against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ir.interp import WorkInterpreter
from .flatten import FlatGraph, flatten
from .schedule import Schedule, rate_match
from .structure import Duplicate, StreamProgram


class StreamInterpreterError(RuntimeError):
    pass


def run_program(program: StreamProgram, inputs: Sequence[float],
                params: Dict[str, float],
                steady_states: Optional[int] = None) -> np.ndarray:
    """Run a stream program over ``inputs`` and return its output array."""
    graph = flatten(program.top)
    schedule = rate_match(graph, params)
    return run_graph(graph, schedule, inputs, params, steady_states)


def run_graph(graph: FlatGraph, schedule: Schedule, inputs: Sequence[float],
              params: Dict[str, float],
              steady_states: Optional[int] = None) -> np.ndarray:
    inputs = list(np.asarray(inputs).reshape(-1))
    per_steady = schedule.inputs_per_steady
    if steady_states is None:
        if per_steady == 0:
            steady_states = 1
        else:
            if len(inputs) % per_steady != 0:
                raise StreamInterpreterError(
                    f"input length {len(inputs)} is not a multiple of the "
                    f"steady-state consumption {per_steady}")
            steady_states = len(inputs) // per_steady
    needed = per_steady * steady_states
    if len(inputs) < needed:
        raise StreamInterpreterError(
            f"need {needed} input elements, got {len(inputs)}")

    # Channel buffers: lists with explicit read cursors.
    buffers: Dict[int, List[float]] = {i: [] for i in range(len(graph.channels))}
    cursors: Dict[int, int] = {i: 0 for i in range(len(graph.channels))}
    chan_index = {id(chan): i for i, chan in enumerate(graph.channels)}
    external_in = list(inputs[:needed])
    external_cursor = 0
    external_out: List[float] = []
    states = {node.id: dict(node.filter.state)
              for node in graph.nodes if node.kind == "filter"}

    order = graph.topological_order()
    for _ in range(steady_states):
        for node in order:
            fires = schedule.reps(node)
            if node.kind == "filter":
                external = node is graph.entry and not node.inputs
                if external:
                    tape = external_in
                    cursor = external_cursor
                else:
                    if node.inputs:
                        idx = chan_index[id(node.inputs[0])]
                        tape = buffers[idx]
                        cursor = cursors[idx]
                    else:
                        tape, cursor, idx = [], 0, None
                interp = WorkInterpreter(node.filter.work, params,
                                         states[node.id])
                outputs: List[float] = []
                for _f in range(fires):
                    out, cursor = interp.run(tape, cursor)
                    outputs.extend(out)
                if external:
                    external_cursor = cursor
                elif node.inputs:
                    cursors[idx] = cursor
                if node.outputs:
                    out_idx = chan_index[id(node.outputs[0])]
                    buffers[out_idx].extend(outputs)
                elif node is graph.exit:
                    external_out.extend(outputs)
            elif node.kind == "split":
                if node.inputs:
                    idx = chan_index[id(node.inputs[0])]
                    tape = buffers[idx]
                    cursor = cursors[idx]
                else:
                    tape = external_in
                    cursor = external_cursor
                if isinstance(node.splitter, Duplicate):
                    for _f in range(fires):
                        item = tape[cursor]
                        cursor += 1
                        for chan in node.outputs:
                            buffers[chan_index[id(chan)]].append(item)
                else:
                    weights = [w.evaluate(params)
                               for w in node.splitter.weight_exprs()]
                    for _f in range(fires):
                        for chan, weight in zip(node.outputs, weights):
                            buf = buffers[chan_index[id(chan)]]
                            buf.extend(tape[cursor:cursor + weight])
                            cursor += weight
                if node.inputs:
                    cursors[idx] = cursor
                else:
                    external_cursor = cursor
            elif node.kind == "join":
                weights = [w.evaluate(params)
                           for w in node.joiner.weight_exprs()]
                out: List[float] = []
                for _f in range(fires):
                    for chan, weight in zip(node.inputs, weights):
                        idx = chan_index[id(chan)]
                        buf = buffers[idx]
                        cur = cursors[idx]
                        out.extend(buf[cur:cur + weight])
                        cursors[idx] = cur + weight
                if node.outputs:
                    buffers[chan_index[id(node.outputs[0])]].extend(out)
                elif node is graph.exit:
                    external_out.extend(out)

    return np.asarray(external_out)
