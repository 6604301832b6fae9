"""Break-even analysis between kernel variants over input ranges.

Adaptic "divides up operating input ranges to subranges if necessary, and
applies different optimizations to each subrange" (§3).  This module does the
dividing: given the candidate variants (each with a model-predicted time as a
function of the input) and the user-declared box of interest (one integer
range per input axis), :func:`sweep_region` samples the box, locates every
exact integer break-even point, and partitions the box into
winner-homogeneous regions — a :class:`RegionTable`.  A one-axis table is
the paper's list of subranges.  Variants that win nowhere are dropped —
they are never generated, which is what keeps the output binary-size increase
moderate (§5.1 reports 1.4× average).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from typing import Callable, Dict, Generic, Hashable, Iterator, List, \
    Mapping, Optional, Sequence, Tuple, TypeVar

from ..errors import CalibrationError, ModelSweepError

InputT = TypeVar("InputT", bound=Hashable)


@dataclasses.dataclass
class Variant(Generic[InputT]):
    """One candidate implementation with a predicted cost function."""

    name: str
    time_fn: Callable[[InputT], float]
    payload: object = None

    def time(self, point: InputT) -> float:
        return self.time_fn(point)


def geometric_points(lo: float, hi: float, samples: int) -> List[int]:
    """Geometrically spaced integer sample points covering ``[lo, hi]``.

    Always sorted, duplicate-free, and confined to the integers of
    ``[lo, hi]`` with both integer endpoints pinned — even when rounding
    collapses neighbouring samples (narrow ranges, ``samples`` far above
    the number of distinct integers) or when the bounds are non-integral.
    """
    if lo <= 0 or hi < lo:
        raise ModelSweepError(f"invalid range [{lo}, {hi}]")
    lo_i, hi_i = math.ceil(lo), math.floor(hi)
    if hi_i < lo_i:
        # The range contains no integer; collapse to the nearest one.
        lo_i = hi_i = int(round(lo))
    if samples < 2 or lo_i == hi_i:
        return [lo_i] if lo_i == hi_i else [lo_i, hi_i]
    ratio = (hi / lo) ** (1.0 / (samples - 1))
    points = {int(round(lo * ratio ** k)) for k in range(samples)}
    points |= {lo_i, hi_i}
    return sorted(p for p in points if lo_i <= p <= hi_i)


def _winner_at(variants: Sequence[Variant], point) -> Optional[str]:
    per = {v.name: v.time(point) for v in variants}
    finite = {name: t for name, t in per.items() if math.isfinite(t)}
    if not finite:
        return None
    return min(finite, key=finite.get)


def _refine(winner_at: Callable[[int], Optional[str]], a: int, b: int,
            win_a: str, win_b: str,
            switches: List[Tuple[int, str]]) -> None:
    """Locate exact integer break-even points in ``(a, b]`` by bisection.

    ``win_a``/``win_b`` are the (differing) winners at the endpoints and
    ``winner_at`` names the winner at one integer of the probed line
    (``None`` where nothing can run, treated as ``win_a``).  A midpoint
    won by a third variant splits the search three ways, so a winner
    living strictly between ``a`` and ``b`` is found rather than
    skipped.  Records each ``(first_input, new_winner)`` switch, in
    order.  Exact as long as each winner's region is contiguous inside
    the probed gap.
    """
    if b - a <= 1:
        switches.append((b, win_b))
        return
    mid = (a + b) // 2
    win_mid = winner_at(mid)
    if win_mid is None or win_mid == win_a:
        _refine(winner_at, mid, b, win_a, win_b, switches)
    elif win_mid == win_b:
        _refine(winner_at, a, mid, win_a, win_b, switches)
    else:
        _refine(winner_at, a, mid, win_a, win_mid, switches)
        _refine(winner_at, mid, b, win_mid, win_b, switches)


def argmin_variant(variants: Sequence[Variant], point) -> Variant:
    """Runtime dispatch: evaluate the model at the actual input, pick best."""
    best = None
    best_time = math.inf
    for variant in variants:
        t = variant.time(point)
        if t < best_time:
            best, best_time = variant, t
    if best is None:
        raise ModelSweepError(f"no variant can run at input {point!r}")
    return best


# ---------------------------------------------------------------------------
# Break-even region tables over one or more axes (k-d trees)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class AxisSpec:
    """One integer input axis of a break-even sweep."""

    name: str
    lo: int
    hi: int
    #: Geometric sample density along this axis (re-sweeps reuse it).
    samples: int = 8

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


@dataclasses.dataclass
class RegionNode:
    """One node of a :class:`RegionTable`.

    A leaf carries the region's ``winner``; an internal node splits its
    box at an exact integer break-even ``cut`` along ``axis`` — points
    with ``point[axis] < cut`` descend ``low``, the rest ``high``.
    """

    winner: Optional[str] = None
    axis: Optional[str] = None
    cut: Optional[int] = None
    low: Optional["RegionNode"] = None
    high: Optional["RegionNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.winner is not None


@dataclasses.dataclass
class RegionTable:
    """§3's subranges over one or more input axes.

    The declared input box (the product of the :class:`AxisSpec` ranges)
    is partitioned into winner-homogeneous axis-aligned regions; every
    internal node's ``cut`` is an exact integer break-even point located
    by bisection (:func:`sweep_region`).  A one-axis table is the
    paper's list of subranges.  ``lookup`` walks the tree — O(depth),
    zero model evaluations.
    """

    axes: Tuple[AxisSpec, ...]
    root: RegionNode

    # -- read surface --------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    @property
    def winners(self) -> List[str]:
        """Variant names winning at least one region, in first-win order."""
        seen: List[str] = []
        for _box, winner in self.leaves():
            if winner not in seen:
                seen.append(winner)
        return seen

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    def leaves(self) -> Iterator[Tuple[Dict[str, Tuple[int, int]], str]]:
        """Yield every region as ``({axis: (lo, hi)}, winner)``, in order."""
        def visit(node, box):
            if node.is_leaf:
                yield dict(box), node.winner
                return
            lo, hi = box[node.axis]
            box[node.axis] = (lo, node.cut - 1)
            yield from visit(node.low, box)
            box[node.axis] = (node.cut, hi)
            yield from visit(node.high, box)
            box[node.axis] = (lo, hi)
        yield from visit(self.root,
                         {ax.name: (ax.lo, ax.hi) for ax in self.axes})

    def boundaries(self) -> List[Tuple[str, int]]:
        """Every break-even ``(axis, cut)`` in the tree, in lookup order."""
        found: List[Tuple[str, int]] = []

        def visit(node):
            if node.is_leaf:
                return
            found.append((node.axis, node.cut))
            visit(node.low)
            visit(node.high)
        visit(self.root)
        return found

    def _values(self, point: Mapping[str, float],
                loud: bool = False) -> Optional[Dict[str, int]]:
        values: Dict[str, int] = {}
        for ax in self.axes:
            value = point.get(ax.name)
            if value is None or not ax.contains(value):
                if loud:
                    raise CalibrationError(
                        f"point {ax.name}={value!r} is outside the baked "
                        f"box [{ax.lo}, {ax.hi}]; re-bake the region table "
                        f"instead of patching")
                return None
            values[ax.name] = int(value)
        return values

    def lookup(self, point: Mapping[str, float]) -> Optional[str]:
        """Winner at a point, or ``None`` outside the baked box.

        Costs zero model evaluations: an in-box query is a pure tree
        walk over precomputed break-even cuts.
        """
        values = self._values(point)
        if values is None:
            return None
        node = self.root
        while not node.is_leaf:
            node = node.low if values[node.axis] < node.cut else node.high
        return node.winner

    # -- feedback repair ----------------------------------------------
    def patch(self, point: Mapping[str, float], winner: str) -> bool:
        """Repair the tree so ``point`` maps to ``winner`` (feedback).

        When a neighbouring region across one of the containing leaf's
        boundaries already belongs to ``winner``, the *nearest* such
        break-even boundary moves to include the point (the common case —
        the model merely misplaced the cut); otherwise a unit cell is
        carved around the point.  Returns ``False`` when the point
        already maps to ``winner``; a point outside the baked box raises
        :class:`~repro.errors.CalibrationError`.
        """
        values = self._values(point, loud=True)
        box = {ax.name: [ax.lo, ax.hi] for ax in self.axes}
        lo_setter: Dict[str, RegionNode] = {}
        hi_setter: Dict[str, RegionNode] = {}
        node = self.root
        while not node.is_leaf:
            if values[node.axis] < node.cut:
                box[node.axis][1] = node.cut - 1
                hi_setter[node.axis] = node
                node = node.low
            else:
                box[node.axis][0] = node.cut
                lo_setter[node.axis] = node
                node = node.high
        if node.winner == winner:
            return False

        def sample_inside(ax, a: float, b: float) -> bool:
            # A sampled grid point strictly inside (a, b): the sweep saw
            # the old winner there, and one probe elsewhere on the line
            # is no license to flip sweep-verified evidence — the factor
            # convergence re-sweep handles moves that big.
            return any(a < g < b
                       for g in geometric_points(ax.lo, ax.hi, ax.samples))

        best: Optional[Tuple[int, RegionNode, int]] = None
        for ax in self.axes:
            lo, hi = box[ax.name]
            value = values[ax.name]
            setter = lo_setter.get(ax.name)
            if setter is not None and not sample_inside(ax, lo - 1, value):
                neighbor = dict(values)
                neighbor[ax.name] = lo - 1
                if self.lookup(neighbor) == winner:
                    distance = value - lo + 1
                    if best is None or distance < best[0]:
                        best = (distance, setter, value + 1)
            setter = hi_setter.get(ax.name)
            if setter is not None and not sample_inside(ax, value, hi + 1):
                neighbor = dict(values)
                neighbor[ax.name] = hi + 1
                if self.lookup(neighbor) == winner:
                    distance = hi - value + 1
                    if best is None or distance < best[0]:
                        best = (distance, setter, value)
        if best is not None:
            _distance, setter, cut = best
            setter.cut = cut
            return True
        # No adjacent region belongs to the winner: carve a unit cell.
        old = node.winner
        cell = RegionNode(winner=winner)
        for ax in self.axes:
            lo, hi = box[ax.name]
            value = values[ax.name]
            if value > lo:
                cell = RegionNode(axis=ax.name, cut=value,
                                  low=RegionNode(winner=old), high=cell)
            if value < hi:
                cell = RegionNode(axis=ax.name, cut=value + 1,
                                  low=cell, high=RegionNode(winner=old))
        if cell.is_leaf:
            node.winner = winner
        else:
            node.winner = None
            node.axis, node.cut = cell.axis, cell.cut
            node.low, node.high = cell.low, cell.high
        return True

    def resweep_subtree(self, point: Mapping[str, float],
                        variants: Sequence[Variant],
                        refine: bool = True) -> bool:
        """Re-sweep only the subtree whose region contains ``point``.

        After a large calibration-factor swing the break-even surface
        around the observed binding is stale, but regions far away are
        usually still right — so the containing leaf's *parent* box (the
        smallest subtree owning the break-even boundary that just moved)
        is rebuilt in place and the rest of the tree is untouched.  A
        point outside the baked box raises
        :class:`~repro.errors.CalibrationError`.
        """
        values = self._values(point, loud=True)
        box = {ax.name: (ax.lo, ax.hi) for ax in self.axes}
        target, target_box = self.root, dict(box)
        node = self.root
        while not node.is_leaf:
            target, target_box = node, dict(box)
            lo, hi = box[node.axis]
            if values[node.axis] < node.cut:
                box[node.axis] = (lo, node.cut - 1)
                node = node.low
            else:
                box[node.axis] = (node.cut, hi)
                node = node.high
        sub_axes = tuple(
            dataclasses.replace(ax, lo=target_box[ax.name][0],
                                hi=target_box[ax.name][1])
            for ax in self.axes)
        rebuilt = sweep_region(variants, sub_axes, refine=refine).root
        target.winner = rebuilt.winner
        target.axis, target.cut = rebuilt.axis, rebuilt.cut
        target.low, target.high = rebuilt.low, rebuilt.high
        return True

    # -- reporting -----------------------------------------------------
    def describe(self) -> List[str]:
        """Human-readable region map: one line per winner-homogeneous box."""
        lines = []
        for box, winner in self.leaves():
            span = " x ".join(f"{name} in [{lo}, {hi}]"
                              for name, (lo, hi) in box.items())
            lines.append(f"{span} -> {winner}")
        return lines

    # ------------------------------------------------------------------
    # Serialization (artifact bundles)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        def encode(node: RegionNode) -> dict:
            if node.is_leaf:
                return {"winner": node.winner}
            return {"axis": node.axis, "cut": int(node.cut),
                    "low": encode(node.low), "high": encode(node.high)}
        return {
            "axes": [[ax.name, int(ax.lo), int(ax.hi), int(ax.samples)]
                     for ax in self.axes],
            "root": encode(self.root),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RegionTable":
        def decode(entry: dict) -> RegionNode:
            if "winner" in entry:
                return RegionNode(winner=str(entry["winner"]))
            return RegionNode(axis=str(entry["axis"]),
                              cut=int(entry["cut"]),
                              low=decode(entry["low"]),
                              high=decode(entry["high"]))
        axes = tuple(AxisSpec(str(name), int(lo), int(hi), int(samples))
                     for name, lo, hi, samples in payload["axes"])
        return cls(axes=axes, root=decode(payload["root"]))


def sweep_region(variants: Sequence[Variant],
                 axes: Sequence[AxisSpec],
                 refine: bool = True,
                 max_leaves: int = 128) -> RegionTable:
    """Break-even sweep over one or more axes: partition the box by winner.

    Each variant's ``time_fn`` takes a tuple of integer axis values in
    ``axes`` order.  The box is sampled on the per-axis geometric grids;
    wherever adjacent samples disagree on the winner, the split axis is
    the one with the most winner changes across its sampled lines.  With
    ``refine``, :func:`_refine` then finds every exact integer
    break-even point between the two disagreeing samples on that line,
    and the box is cut at each of them: the outer slabs recurse, and each
    slab between two switches — it holds no grid sample on that axis —
    becomes a leaf owned by the winner found there.  Along one axis the
    result is therefore exact wherever each winner's region is
    contiguous.  Without ``refine`` the cut sits at the later sample.
    The recursion terminates in a k-d tree of winner-homogeneous
    regions.  ``max_leaves`` bounds pathological surfaces: beyond it a
    mixed region collapses to its majority winner (an approximation,
    never an error).

    Raises :class:`~repro.errors.ModelSweepError` when no variant can
    run at a sampled point, so bakers catch exactly that and nothing
    else.
    """
    if not variants:
        raise ValueError("no variants to choose from")
    if not axes:
        raise ValueError("sweep_region needs at least one axis")
    axes = tuple(axes)
    names = [ax.name for ax in axes]
    grids = [geometric_points(ax.lo, ax.hi, ax.samples) for ax in axes]
    memo: Dict[tuple, Optional[str]] = {}

    def winner_at(values: tuple) -> Optional[str]:
        if values not in memo:
            memo[values] = _winner_at(variants, values)
        return memo[values]

    def label(values: tuple) -> str:
        got = winner_at(values)
        if got is None:
            raise ModelSweepError(
                f"no variant can run at input "
                f"{dict(zip(names, values))!r}")
        return got

    def samples_in(grid: List[int], lo: int, hi: int) -> List[int]:
        # Only the original geometric samples: a split between two
        # adjacent grid points leaves one of them on each side, so the
        # recursion bottoms out at grid-cell granularity instead of
        # chasing a curved break-even surface to integer resolution
        # across the other axes (an approximation inside a cell).
        return [p for p in grid if lo <= p <= hi]

    state = {"splits": 0}

    def grow(box: List[Tuple[int, int]]) -> RegionNode:
        axes_points = [samples_in(grids[i], lo, hi)
                       for i, (lo, hi) in enumerate(box)]
        combos = list(itertools.product(*axes_points))
        labels = {combo: label(combo) for combo in combos}
        distinct = set(labels.values())
        if len(distinct) == 1:
            return RegionNode(winner=distinct.pop())
        if state["splits"] >= max_leaves - 1:
            majority = Counter(labels.values()).most_common(1)[0][0]
            return RegionNode(winner=majority)
        # Split along the axis whose sampled lines change winner most
        # often (the dominant break-even direction in this box).
        best = None     # (changes, axis_index, (a, b, win_a, win_b, line))
        for i, points in enumerate(axes_points):
            if len(points) < 2:
                continue
            others = [axes_points[j] for j in range(len(axes_points))
                      if j != i]
            changes, first = 0, None
            for line in itertools.product(*others):
                previous = None
                for p in points:
                    combo = line[:i] + (p,) + line[i:]
                    name = labels[combo]
                    if previous is not None and name != previous[1]:
                        changes += 1
                        if first is None:
                            first = (previous[0], p, previous[1], name,
                                     line)
                    previous = (p, name)
            if first is not None and (best is None or changes > best[0]):
                best = (changes, i, first)
        if best is None:
            # Winners differ only across diagonal sample pairs — cannot
            # happen on a full cartesian grid, but guard anyway.
            majority = Counter(labels.values()).most_common(1)[0][0]
            return RegionNode(winner=majority)
        _changes, i, (a, b, win_a, win_b, line) = best
        # Cut at every switch on this line.  The outer slabs recurse;
        # an inner slab holds no grid sample on axis i, so it is a leaf
        # owned by the winner found there.
        switches: List[Tuple[int, str]] = []
        if refine:
            _refine(lambda v: winner_at(line[:i] + (v,) + line[i:]),
                    a, b, win_a, win_b, switches)
        else:
            switches.append((b, win_b))
        state["splits"] += len(switches)

        def slab(lo: int, hi: int) -> List[Tuple[int, int]]:
            sub = list(box)
            sub[i] = (lo, hi)
            return sub

        low = grow(slab(box[i][0], switches[0][0] - 1))
        high = grow(slab(switches[-1][0], box[i][1]))
        for (_start, winner), (cut, _next) in reversed(
                list(zip(switches, switches[1:]))):
            high = RegionNode(axis=names[i], cut=cut,
                              low=RegionNode(winner=winner), high=high)
        return RegionNode(axis=names[i], cut=switches[0][0],
                          low=low, high=high)

    root = grow([(math.ceil(ax.lo), math.floor(ax.hi)) for ax in axes])
    return RegionTable(axes=axes, root=root)
