"""Tiling systems on labeled grids and the executable grid characterization.

A tiling system nondeterministically assigns a state to every grid cell,
surrounds the result with a border of '#' cells, and accepts when every
2x2 block is one of its tiles.  grid_validate checks the six structural
conditions that characterize grids among 2-relational digraphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import _names
from .graphs import Digraph

BORDER = "#"


class StructureError(ValueError):
    pass


Cell = str  # "label:state" or "#"


def cell(label: str, state: str) -> Cell:
    return f"{label}:{state}"


@dataclass(frozen=True)
class TilingSystem:
    """(alphabet bits, states, tiles); tiles are 2x2 blocks read row-major:
    (top-left, top-right, bottom-left, bottom-right)."""

    bits: int
    states: tuple[str, ...]
    tiles: frozenset[tuple[Cell, Cell, Cell, Cell]]

    def __post_init__(self):
        for t in self.tiles:
            if len(t) != 4:
                raise ValueError(f"tile {list(t)} does not have 4 cells")
            for c in t:
                if c == BORDER:
                    continue
                label, _, state = c.partition(":")
                if state not in self.states or len(label) != self.bits:
                    raise ValueError(f"malformed tile cell {c!r}")


@dataclass(frozen=True)
class BorderedRun:
    """(h+2) x (w+2) array of cells with '#' exactly on the border."""

    height: int  # interior height
    width: int
    cells: tuple[tuple[Cell, ...], ...]

    def block(self, i: int, j: int) -> tuple[Cell, Cell, Cell, Cell]:
        return (self.cells[i][j], self.cells[i][j + 1],
                self.cells[i + 1][j], self.cells[i + 1][j + 1])

    def blocks(self):
        for i in range(self.height + 1):
            for j in range(self.width + 1):
                yield self.block(i, j)


# ---------------------------------------------------------------------------
# Grid structure checks: the six conditions

_CONDITION_NAMES = {
    1: "i (relations are partial injective functions)",
    2: "ii (every node reaches a sink along each relation)",
    3: "iii (unique node that is a source for both relations)",
    4: "iv (row of horizontal sources closed under the vertical relation)",
    5: "v (down-right diagonal completion)",
    6: "vi (the two relations commute)",
}


def is_partial_injective(pairs: frozenset[tuple[int, int]]) -> bool:
    srcs = [s for (s, _) in pairs]
    dsts = [t for (_, t) in pairs]
    return len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)


def _reaches_sink_everywhere(d: Digraph, rel: int) -> bool:
    # with functionality this amounts to acyclicity of the relation
    for start in d.nodes():
        seen = {start}
        cur = start
        while True:
            out = d.out_neighbors(rel, cur)
            if not out:
                break
            cur = out[0]
            if cur in seen:
                return False
            seen.add(cur)
    return True


def grid_validate(d: Digraph) -> int | None:
    """None if the structure is a grid, else the number (1..6) of the first
    failed condition; see grid_condition_name."""
    if d.rels != 2:
        raise StructureError("grid_validate needs a 2-relational digraph")
    r1, r2 = d.relation(1), d.relation(2)
    if not (is_partial_injective(r1) and is_partial_injective(r2)):
        return 1
    if not (_reaches_sink_everywhere(d, 1) and _reaches_sink_everywhere(d, 2)):
        return 2
    double_sources = [v for v in d.nodes()
                      if not d.in_neighbors(1, v) and not d.in_neighbors(2, v)]
    if len(double_sources) != 1:
        return 3
    h_sources = {v for v in d.nodes() if not d.in_neighbors(2, v)}
    for v in h_sources:
        for u in d.in_neighbors(1, v) + d.out_neighbors(1, v):
            if u not in h_sources:
                return 4
    for v in d.nodes():
        if d.out_neighbors(1, v) and d.out_neighbors(2, v):
            w = d.out_neighbors(1, v)[0]
            if not d.out_neighbors(2, w):
                return 5
    comp12 = {(a, c) for (a, b) in r1 for (b2, c) in r2 if b == b2}
    comp21 = {(a, c) for (a, b) in r2 for (b2, c) in r1 if b == b2}
    if comp12 != comp21:
        return 6
    return None


def grid_condition_name(idx: int) -> str:
    return _CONDITION_NAMES[idx]


def grid_coordinates(d: Digraph) -> dict[int, tuple[int, int]]:
    """node id -> 1-based (row, column) of a grid, from relation depths;
    ``StructureError`` when ``d`` is not a grid."""
    failed = grid_validate(d)
    if failed is not None:
        raise StructureError(
            f"not a grid: failed condition {grid_condition_name(failed)}")

    def depth(v: int, rel: int) -> int:
        k, cur = 0, v
        while d.in_neighbors(rel, cur):
            cur = d.in_neighbors(rel, cur)[0]
            k += 1
        return k

    return {v: (depth(v, 1) + 1, depth(v, 2) + 1) for v in d.nodes()}


def grid_dimensions(d: Digraph) -> tuple[int, int]:
    """(height, width) of a grid: its largest coordinates."""
    h, w = map(max, zip(*grid_coordinates(d).values()))
    return h, w


# ---------------------------------------------------------------------------
# Recognition

def _bordered(labels_by_pos: dict[tuple[int, int], str],
              states_by_pos: dict[tuple[int, int], str],
              h: int, w: int) -> BorderedRun:
    rows = []
    for i in range(h + 2):
        row = []
        for j in range(w + 2):
            if 1 <= i <= h and 1 <= j <= w:
                row.append(cell(labels_by_pos[(i, j)], states_by_pos[(i, j)]))
            else:
                row.append(BORDER)
        rows.append(tuple(row))
    return BorderedRun(h, w, tuple(rows))


def ts_recognize(ts: TilingSystem, g: Digraph) -> BorderedRun | None:
    """Backtracking search for a valid bordered run; None when rejected."""
    if g.bits != ts.bits:
        raise ValueError(f"system expects {ts.bits}-bit labels, "
                         f"grid has {g.bits}")
    coords = grid_coordinates(g)
    h, w = map(max, zip(*coords.values()))
    labels = {coords[v]: g.label(v) for v in g.nodes()}

    positions = [(i, j) for i in range(1, h + 1) for j in range(1, w + 1)]
    assignment: dict[tuple[int, int], str] = {}

    def cell_at(i: int, j: int) -> Cell | None:
        if not (1 <= i <= h and 1 <= j <= w):
            return BORDER
        state = assignment.get((i, j))
        if state is None:
            return None
        return cell(labels[(i, j)], state)

    def block_ok(i: int, j: int) -> bool:
        """Check the 2x2 block with top-left at bordered position (i, j),
        interior coordinates; i, j may be 0 (border row/column)."""
        quad = (cell_at(i, j), cell_at(i, j + 1),
                cell_at(i + 1, j), cell_at(i + 1, j + 1))
        if any(c is None for c in quad):
            return True  # incomplete, checked later
        return quad in ts.tiles

    def search() -> bool:
        """Depth-first over positions in order, trying states in order;
        ``choice[k]`` is the index of the next state to try at position k."""
        choice = [0] * len(positions)
        k = 0
        # a block is checked when its last interior cell is set
        while 0 <= k < len(positions):
            (i, j) = positions[k]
            c = choice[k]
            if c == len(ts.states):
                choice[k] = 0
                assignment.pop((i, j), None)
                k -= 1
                continue
            choice[k] = c + 1
            assignment[(i, j)] = ts.states[c]
            # blocks whose last-filled corner is (i, j)
            if all(block_ok(bi, bj)
                   for bi in (i - 1, i) for bj in (j - 1, j)):
                k += 1
        return k == len(positions)

    if search():
        run = _bordered(labels, dict(assignment), h, w)
        if any(b not in ts.tiles for b in run.blocks()):
            raise AssertionError("search returned an invalid run")
        return run
    return None


def ts_recognize_bruteforce(ts: TilingSystem, g: Digraph) -> bool:
    """Independent oracle: exhaustive enumeration of state assignments."""
    coords = grid_coordinates(g)
    h, w = map(max, zip(*coords.values()))
    labels = {coords[v]: g.label(v) for v in g.nodes()}
    positions = [(i, j) for i in range(1, h + 1) for j in range(1, w + 1)]
    for combo in itertools.product(ts.states, repeat=len(positions)):
        states = dict(zip(positions, combo))
        run = _bordered(labels, states, h, w)
        if all(b in ts.tiles for b in run.blocks()):
            return True
    return False


# ---------------------------------------------------------------------------
# JSON: {"bits":l,"states":[...],"tiles":[[c1,c2,c3,c4],...]}

def ts_to_json_dict(ts: TilingSystem) -> dict:
    return {
        "bits": ts.bits,
        "states": list(ts.states),
        "tiles": sorted(list(t) for t in ts.tiles),
    }


def ts_from_json_dict(obj: dict) -> TilingSystem:
    bits = obj["bits"]
    if not (isinstance(bits, int) and bits >= 0):
        raise ValueError(f"bits must be an integer >= 0, got {bits!r}")
    return TilingSystem(
        bits=bits,
        states=tuple(_names(obj["states"], "states")),
        tiles=frozenset(tuple(t) for t in obj["tiles"]),
    )
