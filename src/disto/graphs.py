"""Finite labeled multi-relational digraphs, generators, and small-instance enumeration.

Nodes are dense integers 0..n-1.  Labels are bitstrings of a fixed width.
Edge relations are indexed 1..r.  All structures are immutable after
construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

ENUM_SAFETY_BOUND = 6


class LimitExceeded(Exception):
    """A computation refused because it would pass one of the size caps;
    the input itself may be well formed."""


class OracleBoundError(LimitExceeded):
    """Raised when an exhaustive sweep would exceed its configured bound."""


def _bitstrings(width: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=width)]


class _cached:
    """``functools.cached_property`` without the lock it takes before
    Python 3.12: the value is computed on first use and stored in the
    instance ``__dict__``, where later lookups find it first.  Threads that
    race compute equal values."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Digraph:
    """An l-bit labeled, r-relational directed graph.

    ``edges`` holds triples (relation, src, dst) with relations numbered
    from 1.  Construction does not validate; see :func:`validate`.

    The in- and out-adjacency tables and the round loop's slot and reader
    tables are built once per instance, on first use, and stored on the
    instance outside the dataclass fields, so hashing, equality and
    ``repr`` see only the fields above, and a digraph dropped by its
    callers is freed together with its tables.
    """

    bits: int
    rels: int
    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int, int]]
    grid_coords: tuple[tuple[int, int], ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def n(self) -> int:
        return len(self.labels)

    def nodes(self) -> range:
        return range(self.n)

    def label(self, v: int) -> str:
        return self.labels[v]

    def relation(self, i: int) -> frozenset[tuple[int, int]]:
        return frozenset((s, d) for (r, s, d) in self.edges if r == i)

    @_cached
    def _in(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return self._adjacency(2, 1)

    @_cached
    def _out(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return self._adjacency(1, 2)

    def _adjacency(self, at: int, other: int):
        """Per relation and node e[at], the sorted e[other] of edges e."""
        n = self.n
        table = {r: [[] for _ in range(n)] for r in range(1, self.rels + 1)}
        try:
            for e in self.edges:
                if not (0 <= e[1] < n and 0 <= e[2] < n):
                    raise ValueError(edge_fault(self, e))
                table[e[0]][e[at]].append(e[other])
        except KeyError:  # keyed by relation: no per-edge relation check
            raise ValueError(edge_fault(self, e)) from None
        for per_rel in table.values():
            for vs in per_rel:
                vs.sort()
        return tuple([tuple(map(tuple, per_rel)) for per_rel in table.values()])

    @_cached
    def _in_slots(self) -> tuple[tuple[int, ...], ...]:
        """Per node v, the positions its round-loop key ORs together, in a
        list holding node u's bit for slot s at u * (rels + 1) + s: v's own
        slot 0 first, then slot r of u for each edge (r, u, v)."""
        stride, n = self.rels + 1, self.n
        slots = [[v * stride] for v in range(n)]
        for e in self.edges:
            r, u, v = e
            if not (0 < r < stride and 0 <= u < n and 0 <= v < n):
                raise ValueError(edge_fault(self, e))
            slots[v].append(u * stride + r)
        return tuple(map(tuple, slots))

    @_cached
    def _readers(self) -> tuple[tuple[int, ...], ...]:
        """Per node u, the nodes v of its edges (r, u, v), with repeats."""
        self._in_slots  # refuses a faulty edge
        readers = [[] for _ in range(self.n)]
        for _, u, v in self.edges:
            readers[u].append(v)
        return tuple(map(tuple, readers))

    def in_neighbors(self, i: int, v: int) -> tuple[int, ...]:
        return self._in[i - 1][v]

    def out_neighbors(self, i: int, v: int) -> tuple[int, ...]:
        return self._out[i - 1][v]

    def sorted_edges(self) -> list[tuple[int, int, int]]:
        return sorted(self.edges)

    def relabel(self, labels: Sequence[str], bits: int | None = None) -> "Digraph":
        new_bits = self.bits if bits is None else bits
        return Digraph(new_bits, self.rels, tuple(labels), self.edges)

    def at(self, v: int) -> "PointedDigraph":
        return PointedDigraph(self, v)


@dataclass(frozen=True)
class PointedDigraph:
    digraph: Digraph
    point: int

    @property
    def n(self) -> int:
        return self.digraph.n


def make(bits: int, rels: int, labels: Sequence[str],
         edges: Sequence[tuple[int, int, int]], point: int | None = None,
         grid_coords=None):
    d = Digraph(bits, rels, tuple(labels), frozenset(edges),
                grid_coords=tuple(grid_coords) if grid_coords else None)
    return d if point is None else PointedDigraph(d, point)


def edge_fault(d: Digraph, e: tuple[int, int, int]) -> str | None:
    """Why the edge ``e`` does not fit ``d``, or None."""
    if len(e) != 3 or not all(isinstance(x, int) for x in e):
        return f"edge {list(e)} is not three integers"
    r, s, t = e
    if not 1 <= r <= d.rels:
        return f"edge ({r},{s},{t}) uses an unknown relation index"
    if not (0 <= s < d.n and 0 <= t < d.n):
        return f"dangling endpoint in edge ({r},{s},{t})"
    return None


def subsets(items: Iterable) -> Iterator[frozenset]:
    """Every subset of ``items``: by size, then in
    ``itertools.combinations`` order."""
    items = tuple(items)
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


def subset_names(items: Iterable[str]) -> dict[frozenset, str]:
    """Every subset of ``items`` in ``subsets`` order, each with its name
    ``{a,b}`` (members sorted).  A member that is empty or holds a comma
    would give two subsets one name, so it is refused."""
    items = tuple(items)
    for x in items:
        if not x or "," in x:
            raise ValueError(f"member {x!r} cannot be named in a subset "
                             f"(empty, or contains ',')")
    return {s: "{" + ",".join(sorted(s)) + "}" for s in subsets(items)}


def validate(d: Digraph | PointedDigraph) -> str | None:
    """Return None if all invariants hold, else a report naming the first
    violated one."""
    point = None
    if isinstance(d, PointedDigraph):
        point = d.point
        d = d.digraph
    if d.n < 1:
        return "empty domain (node_count must be >= 1)"
    if not (isinstance(d.rels, int) and d.rels >= 1):
        return "rel_count must be an integer >= 1"
    if not (isinstance(d.bits, int) and d.bits >= 0):
        return "bits must be an integer >= 0"
    for v, lab in enumerate(d.labels):
        if not (isinstance(lab, str) and len(lab) == d.bits
                and set(lab) <= {"0", "1"}):
            return f"label of node {v} is not a {d.bits}-bit string"
    for e in sorted(d.edges):
        fault = edge_fault(d, e)
        if fault:
            return fault
    if point is not None and not (isinstance(point, int) and 0 <= point < d.n):
        return f"point {point} is not a valid node id"
    return None


# ---------------------------------------------------------------------------
# Generators

def dipath(n: int, labels: Sequence[str] | None = None, bits: int = 0) -> PointedDigraph:
    """The n-node directed path 0 -> 1 -> ... -> n-1, pointed at the last node."""
    if n < 1:
        raise ValueError("dipath needs n >= 1")
    if labels is None:
        labels = ["0" * bits] * n
    else:
        bits = len(labels[0])
    edges = [(1, i, i + 1) for i in range(n - 1)]
    return make(bits, 1, labels, edges, point=n - 1)


def grid(h: int, w: int, labels: Sequence[str] | None = None, bits: int = 0) -> Digraph:
    """The h x w grid; relation 1 is the vertical successor, relation 2 the
    horizontal one.  Coordinates map to node ids row-major and are retained
    in ``grid_coords`` for debugging."""
    if h < 1 or w < 1:
        raise ValueError("grid needs h, w >= 1")
    if labels is None:
        labels = ["0" * bits] * (h * w)
    else:
        bits = len(labels[0]) if labels else bits
    def nid(i, j):  # 1-based grid coordinates
        return (i - 1) * w + (j - 1)
    edges = []
    for i in range(1, h + 1):
        for j in range(1, w + 1):
            if i < h:
                edges.append((1, nid(i, j), nid(i + 1, j)))
            if j < w:
                edges.append((2, nid(i, j), nid(i, j + 1)))
    coords = [(i, j) for i in range(1, h + 1) for j in range(1, w + 1)]
    return make(bits, 2, labels, edges, grid_coords=coords)


def ditree_from_parents(parents: Sequence[int | None],
                        labels: Sequence[str] | None = None,
                        bits: int = 0) -> PointedDigraph:
    """Rooted 1-relational ditree from a parent array (edges point toward the
    root, which is the unique node with parent None); pointed at the root."""
    n = len(parents)
    roots = [v for v, p in enumerate(parents) if p is None]
    if len(roots) != 1:
        raise ValueError("ditree needs exactly one root")
    if labels is None:
        labels = ["0" * bits] * n
    else:
        bits = len(labels[0]) if labels else bits
    edges = [(1, v, p) for v, p in enumerate(parents) if p is not None]
    return make(bits, 1, labels, edges, point=roots[0])


# ---------------------------------------------------------------------------
# Structural predicates

def is_dipath(pd: PointedDigraph) -> bool:
    d = pd.digraph
    if d.rels != 1 or len(d.edges) != d.n - 1:
        return False
    indeg = {v: len(d.in_neighbors(1, v)) for v in d.nodes()}
    outdeg = {v: len(d.out_neighbors(1, v)) for v in d.nodes()}
    if any(x > 1 for x in indeg.values()) or any(x > 1 for x in outdeg.values()):
        return False
    starts = [v for v in d.nodes() if indeg[v] == 0]
    if len(starts) != 1:
        return False
    v, seen = starts[0], 1
    while d.out_neighbors(1, v):
        v = d.out_neighbors(1, v)[0]
        seen += 1
    return seen == d.n and pd.point == v


def is_ordered_ditree(pd: PointedDigraph) -> bool:
    d = pd.digraph
    # edges of different relations must not overlap
    seen_pairs = set()
    for (r, s, t) in d.edges:
        if (s, t) in seen_pairs:
            return False
        seen_pairs.add((s, t))
    # every node reaches the root by exactly one directed path
    out_all = {v: [t for (r, s, t) in d.edges if s == v] for v in d.nodes()}
    for v in d.nodes():
        path, cur = {v}, v
        while cur != pd.point:
            nxt = out_all[cur]
            if len(nxt) != 1 or nxt[0] in path:
                return False
            cur = nxt[0]
            path.add(cur)
    if len(d.edges) != d.n - 1:
        return False
    # ordered condition: at most one incoming i-neighbor, and an incoming
    # (i+1)-neighbor implies an incoming i-neighbor
    for v in d.nodes():
        for i in range(1, d.rels + 1):
            if len(d.in_neighbors(i, v)) > 1:
                return False
        for i in range(1, d.rels):
            if d.in_neighbors(i + 1, v) and not d.in_neighbors(i, v):
                return False
    return True


def is_undirected(d: Digraph) -> bool:
    for i in range(1, d.rels + 1):
        rel = d.relation(i)
        for (s, t) in rel:
            if s == t or (t, s) not in rel:
                return False
    return True


# ---------------------------------------------------------------------------
# Enumeration (oracle substrate)

# Packed codes: one integer per digraph with n nodes.  Adjacency bit
# (r, i, j) sits at (r-1)*n*n + i*n + j and label bit (v, b) at
# rels*n*n + v*bits + b, so the edge mask counts up under the labels.

CANDIDATE_LIMIT = 1 << 24   # candidate codes one augmentation step may hold


def _check_safety_bound(max_nodes: int, what: str) -> None:
    if max_nodes > ENUM_SAFETY_BOUND:
        raise OracleBoundError(f"refusing to enumerate {what} with "
                               f"{max_nodes} > {ENUM_SAFETY_BOUND} nodes")


def enumerate_digraphs(max_nodes: int, bits: int = 0, rels: int = 1,
                       iso_reduce: bool = False) -> Iterator[Digraph]:
    """Yield every digraph with at most ``max_nodes`` nodes.

    Without ``iso_reduce`` the stream ranges over node-id-labeled structures:
    per node count, labels in ``itertools.product`` order, then the edge
    mask counting up.  With it, one representative per isomorphism class
    (sound for all implemented semantics, which are isomorphism-invariant),
    in increasing packed code.
    """
    _check_safety_bound(max_nodes, "digraphs")
    for n in range(1, max_nodes + 1):
        decode, label_codes = _decoder(n, bits, rels)
        if iso_reduce:
            codes = _canonical_codes(n, bits, rels).tolist()
        else:
            edge_masks = range(1 << rels * n * n)
            codes = (lab | mask for lab in label_codes for mask in edge_masks)
        for code in codes:
            yield decode(code)


@lru_cache(maxsize=32)
def _decoder(n: int, bits: int, rels: int):
    """``code -> Digraph`` for n nodes, and the label parts of the codes in
    ``itertools.product`` order.  Edges come from one table per 8-bit chunk
    of the adjacency bits, labels from one table over the label bits."""
    shift = rels * n * n
    pairs = [(r, i, j) for r in range(1, rels + 1)
             for i in range(n) for j in range(n)]
    chunks = [(lo, [tuple(p for k, p in enumerate(pairs[lo:lo + 8])
                          if byte >> k & 1) for byte in range(256)])
              for lo in range(0, shift, 8)]
    label_tuples = list(itertools.product(_bitstrings(bits), repeat=n))
    label_codes = [sum(1 << shift + v * bits + b
                       for v, lab in enumerate(labels)
                       for b, c in enumerate(lab) if c == "1")
                   for labels in label_tuples]
    by_code = dict(zip(label_codes, label_tuples))
    label_table = [by_code[c << shift] for c in range(1 << n * bits)]

    def decode(code: int) -> Digraph:
        edges = frozenset().union(*[table[code >> lo & 255]
                                    for lo, table in chunks])
        return Digraph(bits, rels, label_table[code >> shift], edges)

    return decode, label_codes


def _encode(d: Digraph, perm: Sequence[int]) -> tuple:
    labels = tuple(d.labels[perm[v]] for v in range(d.n))
    inv = [0] * d.n
    for new, old in enumerate(perm):
        inv[old] = new
    edges = tuple(sorted((r, inv[s], inv[t]) for (r, s, t) in d.edges))
    return (d.n, labels, edges)


def canonical_form(d: Digraph) -> tuple:
    """Lexicographically least encoding over all node permutations."""
    return min(_encode(d, p) for p in itertools.permutations(range(d.n)))


def are_isomorphic(a: Digraph, b: Digraph) -> bool:
    if (a.n, a.bits, a.rels) != (b.n, b.bits, b.rels):
        return False
    return canonical_form(a) == canonical_form(b)


def counting_formula(n: int, bits: int, rels: int) -> int:
    """Closed-form count of labeled digraphs with exactly n nodes."""
    return (2 ** (n * n * rels)) * (2 ** (n * bits))


def _bit_moves(m: int, n: int, bits: int, rels: int, node_map: Sequence[int]):
    """(source, target) bit pairs that move an m-node code to an n-node
    code, node v becoming node ``node_map[v]``."""
    moves = [((r * m + i) * m + j, (r * n + node_map[i]) * n + node_map[j])
             for r in range(rels) for i in range(m) for j in range(m)]
    return moves + [(rels * m * m + v * bits + b,
                     rels * n * n + node_map[v] * bits + b)
                    for v in range(m) for b in range(bits)]


def _moved(codes, moves):
    """``codes`` with each source bit moved to its target bit; bits that
    move by the same distance move together."""
    masks: dict[int, int] = {}
    for src, dst in moves:
        masks[dst - src] = masks.get(dst - src, 0) | 1 << src
    out = codes & 0
    for shift, mask in masks.items():
        out |= (codes & mask) << shift if shift >= 0 else (codes & mask) >> -shift
    return out


@lru_cache(maxsize=32)
def _canonical_codes(n: int, bits: int, rels: int):
    """Sorted packed codes of the canonical digraphs with exactly n nodes:
    McKay's canonical augmentation.  Each (n-1)-node representative gets a
    fresh node in every way; a candidate's canonical code is its least code
    over all node permutations."""
    import numpy as np

    if n == 0:
        return np.zeros(1, dtype=np.int64)
    width = rels * n * n + n * bits
    if width > 62:
        raise OracleBoundError("packed enumeration exceeds 62 bits")
    reps = _canonical_codes(n - 1, bits, rels)
    embed = _bit_moves(n - 1, n, bits, rels, range(n - 1))
    fresh = sorted(set(range(width)) - {dst for _, dst in embed})
    if len(reps) << len(fresh) > CANDIDATE_LIMIT:
        raise OracleBoundError(
            f"augmenting to {n} nodes needs {len(reps) << len(fresh)} "
            f"candidate codes, over {CANDIDATE_LIMIT}")
    extra = _moved(np.arange(1 << len(fresh), dtype=np.int64),
                   list(enumerate(fresh)))
    cands = (_moved(reps, embed)[:, None] | extra[None, :]).ravel()
    canon = cands.copy()
    for perm in itertools.permutations(range(n)):
        np.minimum(canon, _moved(cands, _bit_moves(n, n, bits, rels, perm)),
                   out=canon)
    return np.unique(canon)


def enumerate_rooted_ditrees(max_nodes: int, bits: int = 0
                             ) -> Iterator[PointedDigraph]:
    """All labeled pointed 1-relational ditrees with <= max_nodes nodes.

    Shapes come from parent arrays with parent(i) < i; duplicates under
    sibling reordering are allowed (harmless for witness search).
    """
    _check_safety_bound(max_nodes, "ditrees")
    for n in range(1, max_nodes + 1):
        for parents in itertools.product(*[range(i) for i in range(1, n)]):
            full = [None] + list(parents)
            for labels in itertools.product(_bitstrings(bits), repeat=n):
                yield ditree_from_parents(full, list(labels), bits)


def _ordered_shapes(n: int, arity: int):
    """Ordered-tree shapes with exactly n nodes as nested tuples of children
    lists; child i+1 present implies child i present."""
    if n == 1:
        yield ()
        return
    # root takes k children (1..arity), distribute n-1 nodes among them
    for k in range(1, arity + 1):
        for sizes in _compositions(n - 1, k):
            for combo in itertools.product(*[_ordered_shapes(s, arity) for s in sizes]):
                yield tuple(combo)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_ordered_ditrees(max_nodes: int, bits: int = 0, arity: int = 2
                              ) -> Iterator[PointedDigraph]:
    """All labeled pointed ordered ditrees (relation i = i-th child edge,
    pointing toward the parent) with <= max_nodes nodes."""
    _check_safety_bound(max_nodes, "ordered ditrees")
    for n in range(1, max_nodes + 1):
        for shape in _ordered_shapes(n, arity):
            tree = _shape_to_tree(shape, bits, arity)
            for labels in itertools.product(_bitstrings(bits), repeat=n):
                yield PointedDigraph(tree.digraph.relabel(labels), tree.point)


def enumerate_ordered_ditrees_by_height(max_height: int, bits: int = 0,
                                        arity: int = 2) -> Iterator[PointedDigraph]:
    """All ordered ditrees of height <= max_height (height 0 = single node)."""
    def build(h):
        if h == 0:
            yield ()
            return
        shorter = list(build(h - 1))
        # all trees of height <= h: root + children each of height <= h-1
        for k in range(0, arity + 1):
            for combo in itertools.product(shorter, repeat=k):
                yield tuple(combo)
    seen = set()
    for shape in build(max_height):
        if shape in seen:
            continue
        seen.add(shape)
        yield _shape_to_tree(shape, bits, arity)


def _shape_to_tree(shape, bits: int, arity: int) -> PointedDigraph:
    labels, edges = [], []

    def walk(node_shape):
        my_id = len(labels)
        labels.append("0" * bits)
        for i, child in enumerate(node_shape, start=1):
            child_id = walk(child)
            edges.append((i, child_id, my_id))
        return my_id

    root = walk(shape)
    return make(bits, arity, labels, edges, point=root)


# ---------------------------------------------------------------------------
# JSON format: {"bits":l,"relations":r,"nodes":[{"id":..,"label":..}],
#               "edges":[[rel,src,dst],...],"point":int|null}

def to_json_dict(g: Digraph | PointedDigraph) -> dict:
    point = None
    d = g
    if isinstance(g, PointedDigraph):
        point, d = g.point, g.digraph
    return {
        "bits": d.bits,
        "relations": d.rels,
        "nodes": [{"id": v, "label": d.labels[v]} for v in d.nodes()],
        "edges": [list(e) for e in d.sorted_edges()],
        "point": point,
    }


def from_json_dict(obj: dict) -> Digraph | PointedDigraph:
    """The digraph of ``obj``; ``ValueError`` with :func:`validate`'s report
    when it breaks an invariant."""
    nodes = sorted(obj["nodes"], key=lambda nd: nd["id"])
    if [nd["id"] for nd in nodes] != list(range(len(nodes))):
        raise ValueError("node ids must be dense 0..n-1")
    g = make(obj["bits"], obj["relations"], [nd["label"] for nd in nodes],
             [tuple(e) for e in obj["edges"]], point=obj.get("point"))
    fault = validate(g)
    if fault:
        raise ValueError(fault)
    return g
