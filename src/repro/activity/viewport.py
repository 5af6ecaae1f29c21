"""The headless display model (§5.2).

Two pieces survive the Tk-ectomy intact:

* **grid layout** — each history record is assigned a square grid cell by a
  topological, level-by-level placement.  Placement is insertion-stable: a
  record's cell depends only on the records placed before it, so the
  activity manager places each new record once, in O(1), instead of
  re-laying out the whole history per commit;
* **lazy pan/zoom compression** — the Tcl/Tk canvas of the era could not
  report item coordinates, so the activity manager tracked them itself and,
  to avoid retraversing every item per pan/zoom, *compressed* the pending
  transform sequence: consecutive translations add, magnifications multiply,
  and translations separated by magnifications merge once normalized by the
  inverse of the accumulated magnification.  The compressed transform is
  applied only when new records are added.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.control_stream import INITIAL_POINT, ControlStream

Point = tuple[float, float]


@dataclass(frozen=True)
class PanZoomOp:
    """One user gesture: a translation or a magnification."""

    kind: str                  # "pan" or "zoom"
    dx: float = 0.0
    dy: float = 0.0
    factor: float = 1.0

    @classmethod
    def pan(cls, dx: float, dy: float) -> "PanZoomOp":
        return cls(kind="pan", dx=dx, dy=dy)

    @classmethod
    def zoom(cls, factor: float) -> "PanZoomOp":
        if factor <= 0:
            raise ValueError("zoom factor must be positive")
        return cls(kind="zoom", factor=factor)

    def apply(self, point: Point) -> Point:
        if self.kind == "pan":
            return (point[0] + self.dx, point[1] + self.dy)
        return (point[0] * self.factor, point[1] * self.factor)


def compress(ops: list[PanZoomOp]) -> tuple[Point, float]:
    """Compress a pan/zoom sequence into one (translation, magnification).

    The thesis's three observations:

    1. consecutive translations add, consecutive magnifications multiply;
    2. magnifications separated by translations still multiply;
    3. translations separated by magnifications add after being normalized by
       the inverse of the accumulated magnification factor.

    Applying the result as ``(p + T) * M`` equals applying the ops in order.
    """
    tx = ty = 0.0
    magnification = 1.0
    for op in ops:
        if op.kind == "zoom":
            magnification *= op.factor
        else:
            tx += op.dx / magnification
            ty += op.dy / magnification
    return (tx, ty), magnification


def apply_sequence(ops: list[PanZoomOp], point: Point) -> Point:
    for op in ops:
        point = op.apply(point)
    return point


class Viewport:
    """Tracked item coordinates under lazy transform compression."""

    def __init__(self):
        self._items: dict[int, Point] = {}     # point -> committed coords
        self._pending: list[PanZoomOp] = []
        #: Instrumentation: how many item-coordinate updates were performed.
        self.updates = 0

    def __len__(self) -> int:
        return len(self._items)

    # -- gestures (cheap: just logged)

    def pan(self, dx: float, dy: float) -> None:
        self._pending.append(PanZoomOp.pan(dx, dy))

    def zoom(self, factor: float) -> None:
        self._pending.append(PanZoomOp.zoom(factor))

    # -- insertions (the expensive moment: flush the compressed transform)

    def flush(self) -> None:
        """Apply the compressed pending transform to every item."""
        if not self._pending:
            return
        (tx, ty), magnification = compress(self._pending)
        self._pending.clear()
        for key, (x, y) in self._items.items():
            self._items[key] = ((x + tx) * magnification,
                                (y + ty) * magnification)
            self.updates += 1

    def add_item(self, point: int, coords: Point) -> None:
        """Insert a new record's oval block at its grid coordinates."""
        self.flush()
        self._items[point] = coords
        self.updates += 1

    def remove_item(self, point: int) -> None:
        self._items.pop(point, None)

    def coords(self, point: int) -> Point:
        """Current display coordinates (pending gestures applied)."""
        (tx, ty), magnification = compress(self._pending)
        x, y = self._items[point]
        return ((x + tx) * magnification, (y + ty) * magnification)


class EagerViewport(Viewport):
    """The naive strategy: every gesture retraverses all items (the baseline
    the thesis's optimization is measured against)."""

    def pan(self, dx: float, dy: float) -> None:
        for key, point in self._items.items():
            self._items[key] = PanZoomOp.pan(dx, dy).apply(point)
            self.updates += 1

    def zoom(self, factor: float) -> None:
        for key, point in self._items.items():
            self._items[key] = PanZoomOp.zoom(factor).apply(point)
            self.updates += 1

    def add_item(self, point: int, coords: Point) -> None:
        self._items[point] = coords
        self.updates += 1

    def coords(self, point: int) -> Point:
        return self._items[point]


# ------------------------------------------------------------------- layout

GRID = 16  # pixels per grid cell


class GridLayout(dict):
    """Cells by design point (``point -> (x, y)`` pixels), plus the
    placement state :func:`grid_layout` needs to extend them in place."""

    def __init__(self) -> None:
        super().__init__()
        self.stream: ControlStream | None = None
        self.scope_epoch = -1
        #: Every point numbered below this has been placed.
        self.next_point = INITIAL_POINT
        self.levels: dict[int, int] = {}
        self.rows: dict[int, int] = {}
        self.free_row: dict[int, int] = {}      # next free row per level
        #: Work counters: full re-layouts, and cells placed in total.
        self.rebuilds = 0
        self.placed = 0

    def _reset(self, stream: ControlStream) -> None:
        self.clear()
        self.levels.clear()
        self.rows.clear()
        self.free_row.clear()
        self.stream = stream
        self.scope_epoch = stream.scope_epoch
        self.next_point = INITIAL_POINT
        self.rebuilds += 1

    def _place(self, point: int, parents: list[int]) -> None:
        level = max((self.levels[p] + 1 for p in parents), default=0)
        row = self.free_row.get(level, 0)
        if parents:
            row = max(row, self.rows[parents[0]])
        self.levels[point] = level
        self.rows[point] = row
        self.free_row[level] = row + 1
        self[point] = (level * GRID, row * GRID)
        self.placed += 1

    def _extend(self, stream: ControlStream) -> bool:
        """Place the points created since the last call, in topological
        order, smallest point first.  False if one of them has a parent
        that is not placed (the layout must be rebuilt)."""
        pending = {p for p in range(self.next_point, stream.next_point)
                   if p in stream}
        self.next_point = stream.next_point

        def ready(point: int) -> bool:
            return all(p in self.levels for p in stream.node(point).parents)

        heap = [p for p in pending if ready(p)]
        heapq.heapify(heap)
        queued = set(heap)
        while heap:
            point = heapq.heappop(heap)
            node = stream.node(point)
            self._place(point, node.parents)
            for child in node.children:
                if child in pending and child not in queued and ready(child):
                    queued.add(child)
                    heapq.heappush(heap, child)
        return len(queued) == len(pending)


def grid_layout(stream: ControlStream,
                into: GridLayout | None = None) -> GridLayout:
    """Topological level-by-level placement of history records.

    Points are placed one at a time in topological order, smallest point
    first (spliced records precede the children they adopt).  Column = the
    record's level, 1 + the highest parent level; row = the larger of the
    first parent's row and the next free row at that level, which keeps
    sibling branches apart.

    The placement is insertion-stable: with ``into``, a layout this
    function returned earlier, only the points created since are placed,
    and the result equals a fresh ``grid_layout(stream)``.  A structural
    change that can move old records (a splice, erase or pruning: anything
    that bumps ``stream.scope_epoch``), or a new point whose parent was
    never placed, makes it rebuild the layout from scratch instead.
    """
    layout = into if into is not None else GridLayout()
    if layout.stream is not stream or \
            layout.scope_epoch != stream.scope_epoch:
        layout._reset(stream)
    if not layout._extend(stream):
        layout._reset(stream)
        layout._extend(stream)
    return layout


def render_stream(
    stream: ControlStream,
    cursor: int | None = None,
    annotations: bool = True,
) -> str:
    """ASCII rendering of a control stream (the examples' display surface)."""
    lines: list[str] = []

    def label(point: int) -> str:
        node = stream.node(point)
        if point == INITIAL_POINT:
            text = "(initial)"
        elif node.is_junction:
            text = "(join)"
        else:
            text = f"{node.record.task}"
            if annotations and node.record.annotation:
                text += f'  "{node.record.annotation}"'
        mark = "  <= cursor" if point == cursor else ""
        return f"[{point}] {text}{mark}"

    emitted: set[int] = set()
    stack: list[tuple[int, int]] = [(INITIAL_POINT, 0)]
    while stack:
        point, depth = stack.pop()
        if point in emitted:
            continue
        emitted.add(point)
        lines.append("    " * depth + label(point))
        for child in sorted(stream.node(point).children, reverse=True):
            stack.append((child, depth + 1))
    return "\n".join(lines)
