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
    """A digraph that is not a grid, or not 2-relational; ``condition`` is
    the number of the failed grid condition, or None."""

    def __init__(self, message: str, condition: int | None = None):
        super().__init__(message)
        self.condition = condition


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


def _reaches_sink_everywhere(succ: tuple[tuple[int, ...], ...],
                             pred: tuple[tuple[int, ...], ...]) -> bool:
    """Whether following ``succ`` from every node ends at a sink, for a
    relation that is a partial injection: such a relation splits into
    paths and cycles, so the walks down from the path heads (the nodes
    without ``pred``) visit every node exactly when there is no cycle."""
    seen = 0
    for v in range(len(succ)):
        if not pred[v]:
            nxt = (v,)
            while nxt:
                seen += 1
                nxt = succ[nxt[0]]
    return seen == len(succ)


def grid_validate(d: Digraph) -> int | None:
    """None if the structure is a grid, else the number (1..6) of the first
    failed condition; see grid_condition_name.  Each condition is one pass
    over the nodes."""
    if d.rels != 2:
        raise StructureError("grid_validate needs a 2-relational digraph")
    (out1, out2), (in1, in2) = d._out, d._in
    if any(max(map(len, adj), default=0) > 1
           for adj in (out1, out2, in1, in2)):
        return 1
    if not (_reaches_sink_everywhere(out1, in1)
            and _reaches_sink_everywhere(out2, in2)):
        return 2
    nodes = d.nodes()
    if sum(1 for v in nodes if not in1[v] and not in2[v]) != 1:
        return 3
    # the horizontal sources (no relation-2 predecessor)
    for v in nodes:
        if not in2[v]:
            for u in in1[v] + out1[v]:
                if in2[u]:
                    return 4
    for v in nodes:
        if out1[v] and out2[v] and not out2[out1[v][0]]:
            return 5
    # relations that are partial functions compose node by node
    for v in nodes:
        down, right = out1[v], out2[v]
        if ((out2[down[0]] if down else ()) !=
                (out1[right[0]] if right else ())):
            return 6
    return None


def grid_condition_name(idx: int) -> str:
    return _CONDITION_NAMES[idx]


def _grid_rows(d: Digraph) -> list[list[int]]:
    """The node ids of a grid row by row, each row left to right: down from
    the one double source along relation 1, and right from each of those
    nodes along relation 2.  ``StructureError``, with the number of the
    failed condition, when ``d`` is not a grid."""
    failed = grid_validate(d)
    if failed is not None:
        raise StructureError(
            f"not a grid: failed condition {grid_condition_name(failed)}",
            failed)
    (down, right), (in1, in2) = d._out, d._in
    col = next((v,) for v in d.nodes() if not in1[v] and not in2[v])
    rows = []
    while col:
        row, nxt = [], col
        while nxt:
            row.append(nxt[0])
            nxt = right[nxt[0]]
        rows.append(row)
        col = down[col[0]]
    return rows


def grid_coordinates(d: Digraph) -> dict[int, tuple[int, int]]:
    """node id -> 1-based (row, column) of a grid, in node order;
    ``StructureError`` when ``d`` is not a grid."""
    pos = [None] * d.n
    for i, row in enumerate(_grid_rows(d), 1):
        for j, v in enumerate(row, 1):
            pos[v] = (i, j)
    return dict(enumerate(pos))


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
    """Backtracking search for a valid bordered run; None when rejected.
    Positions are filled row-major and states tried in declared order, so
    the run found is the first in that order."""
    if g.bits != ts.bits:
        raise ValueError(f"system expects {ts.bits}-bit labels, "
                         f"grid has {g.bits}")
    rows = _grid_rows(g)
    h, w = len(rows), len(rows[0])
    # the bordered run; an interior cell is read only once it is set
    run = ([[BORDER] * (w + 2)]
           + [[BORDER] + [None] * w + [BORDER] for _ in range(h)]
           + [[BORDER] * (w + 2)])
    cells_of = {label: tuple(cell(label, s) for s in ts.states)
                for label in set(g.labels)}
    positions = [(i, j) for i in range(1, h + 1) for j in range(1, w + 1)]
    options = [cells_of[g.label(rows[i - 1][j - 1])] for (i, j) in positions]
    # per position, the top-left corners of the blocks whose last interior
    # cell it is: up-left always, up-right in the last column, down-left in
    # the last row, down-right at the last position
    checks = [[(bi, bj) for bi in (i - 1, i) for bj in (j - 1, j)
               if (bi < i or i == h) and (bj < j or j == w)]
              for (i, j) in positions]
    tiles = ts.tiles
    # depth-first: choice[k] is the index of the next option at position k
    choice = [0] * len(positions)
    k = 0
    while 0 <= k < len(positions):
        c = choice[k]
        if c == len(options[k]):
            choice[k] = 0
            k -= 1
            continue
        choice[k] = c + 1
        i, j = positions[k]
        run[i][j] = options[k][c]
        for bi, bj in checks[k]:
            top, bottom = run[bi], run[bi + 1]
            if (top[bj], top[bj + 1], bottom[bj], bottom[bj + 1]) not in tiles:
                break
        else:
            k += 1
    if k < 0:
        return None
    found = BorderedRun(h, w, tuple(map(tuple, run)))
    if any(b not in tiles for b in found.blocks()):
        raise AssertionError("search returned an invalid run")
    return found


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
