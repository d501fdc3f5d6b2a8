import itertools
import random

import pytest

from disto import graphs, zoo
from disto.graphs import Digraph, grid, make
from disto.tiling import (BORDER, BorderedRun, StructureError, TilingSystem,
                          _bordered, cell, grid_condition_name,
                          grid_coordinates, grid_dimensions, grid_validate,
                          is_partial_injective,
                          ts_from_json_dict, ts_recognize,
                          ts_recognize_bruteforce, ts_to_json_dict)


def test_generated_grids_validate():
    for h in range(1, 5):
        for w in range(1, 5):
            g = grid(h, w)
            assert grid_validate(g) is None
            assert grid_dimensions(g) == (h, w)


def test_grid_coordinates_row_major():
    g = grid(2, 3)
    coords = grid_coordinates(g)
    assert coords[0] == (1, 1) and coords[5] == (2, 3)


def test_single_node_is_one_by_one_grid():
    assert grid_validate(make(0, 2, [""], [])) is None


def test_deleted_edge_fails():
    g = grid(2, 2)
    broken = Digraph(0, 2, g.labels, g.edges - {(1, 1, 3)})
    failed = grid_validate(broken)
    assert failed in (2, 5, 6)
    assert grid_condition_name(failed)


def test_injectivity_violation_fails_first():
    d = make(0, 2, ["", "", ""], [(1, 0, 1), (1, 0, 2)])
    assert grid_validate(d) == 1


def test_cycle_fails_condition_two():
    d = make(0, 2, ["", ""], [(1, 0, 1), (1, 1, 0)])
    assert grid_validate(d) == 2


def test_two_double_sources_fail_condition_three():
    d = make(0, 2, ["", ""], [])
    assert grid_validate(d) == 3


def test_needs_two_relations():
    with pytest.raises(StructureError):
        grid_validate(make(0, 1, [""], []))


def test_partial_injective_exhaustive_small():
    # exhaustive cross-check on all relations over 3 nodes
    pairs = [(s, t) for s in range(3) for t in range(3)]
    for mask in range(1 << 9):
        rel = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        srcs = [s for (s, _) in rel]
        dsts = [t for (_, t) in rel]
        want = (len(set(srcs)) == len(srcs)) and (len(set(dsts)) == len(dsts))
        assert is_partial_injective(rel) == want


def test_exactness_small_sweep():
    grids3 = [grid(h, w) for h in range(1, 4) for w in range(1, 4)
              if h * w <= 3]
    profiles = {(g.n, len(g.relation(1)), len(g.relation(2))): g
                for g in grids3}
    for d in graphs.enumerate_digraphs(3, bits=0, rels=2):
        failed = grid_validate(d)
        assert failed == grid_validate_reference(d)
        is_grid = failed is None
        candidate = profiles.get((d.n, len(d.relation(1)),
                                  len(d.relation(2))))
        want = candidate is not None and graphs.are_isomorphic(d, candidate)
        assert is_grid == want


# ---------------------------------------------------------------------------
# tiling systems

def test_all_blocks_accepts_everything():
    ts = zoo.all_blocks_tiling_system()
    for h in range(1, 4):
        for w in range(1, 4):
            run = ts_recognize(ts, grid(h, w))
            assert run is not None
            assert all(b in ts.tiles for b in run.blocks())


def test_empty_tiles_reject_everything():
    ts = zoo.empty_tiling_system()
    for h in range(1, 3):
        for w in range(1, 3):
            assert ts_recognize(ts, grid(h, w)) is None


def test_even_width_system():
    ts = zoo.even_width_tiling_system()
    for h in range(1, 4):
        for w in range(1, 5):
            got = ts_recognize(ts, grid(h, w)) is not None
            assert got == (w % 2 == 0)


def test_recognize_agrees_with_bruteforce_random_systems():
    rng = random.Random(90)
    base = zoo.all_blocks_tiling_system(states=("A", "B"))
    for _ in range(5):
        tiles = frozenset(t for t in base.tiles if rng.random() < 0.35)
        ts = TilingSystem(bits=0, states=("A", "B"), tiles=tiles)
        for h in range(1, 4):
            for w in range(1, 4):
                g = grid(h, w)
                assert (ts_recognize(ts, g) is not None) == \
                    ts_recognize_bruteforce(ts, g)


def test_recognize_large_grids_without_recursion():
    ts = zoo.even_width_tiling_system()
    run = ts_recognize(ts, grid(40, 40))
    assert run is not None and (run.height, run.width) == (40, 40)
    assert all(b in ts.tiles for b in run.blocks())
    assert ts_recognize(ts, grid(40, 39)) is None


def test_recognize_agrees_with_bruteforce_labeled_three_states():
    rng = random.Random(91)
    states = ("A", "B", "C")
    base = zoo.all_blocks_tiling_system(states=states, bits=1)
    systems = [TilingSystem(bits=1, states=(), tiles=frozenset())]
    for keep in (0.5, 0.6, 0.7, 0.8) * 3:
        tiles = frozenset(t for t in base.tiles if rng.random() < keep)
        systems.append(TilingSystem(bits=1, states=states, tiles=tiles))
    verdicts = set()
    for ts in systems:
        for h, w in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2)):
            labels = ["".join(rng.choice("01")) for _ in range(h * w)]
            g = grid(h, w, labels=labels)
            run = ts_recognize(ts, g)
            assert (run is not None) == ts_recognize_bruteforce(ts, g)
            assert run is None or all(b in ts.tiles for b in run.blocks())
            verdicts.add(run is not None)
    assert verdicts == {True, False}


def test_monotone_in_tiles():
    rng = random.Random(91)
    base = zoo.all_blocks_tiling_system(states=("A", "B"))
    all_tiles = sorted(base.tiles)
    small = frozenset(t for t in all_tiles if rng.random() < 0.3)
    big = small | frozenset(t for t in all_tiles if rng.random() < 0.2)
    ts_small = TilingSystem(0, ("A", "B"), small)
    ts_big = TilingSystem(0, ("A", "B"), big)
    for h in range(1, 4):
        for w in range(1, 4):
            g = grid(h, w)
            if ts_recognize(ts_small, g) is not None:
                assert ts_recognize(ts_big, g) is not None


def test_labeled_recognition():
    # one state; tiles force the label of every cell to be 1
    c = cell("1", "s")
    cells = [BORDER, c]
    tiles = frozenset(itertools.product(cells, repeat=4))
    ts = TilingSystem(bits=1, states=("s",), tiles=tiles)
    ones = grid(2, 2, labels=["1"] * 4)
    zeros = grid(2, 2, labels=["0"] * 4)
    assert ts_recognize(ts, ones) is not None
    assert ts_recognize(ts, zeros) is None


def test_rejects_non_grid_input():
    ts = zoo.all_blocks_tiling_system()
    with pytest.raises(StructureError):
        ts_recognize(ts, make(0, 2, ["", ""], []))


def test_bits_must_match():
    ts = zoo.all_blocks_tiling_system()
    with pytest.raises(ValueError):
        ts_recognize(ts, grid(1, 1, bits=1))


def test_json_roundtrip():
    ts = zoo.even_width_tiling_system()
    obj = ts_to_json_dict(ts)
    assert ts_from_json_dict(obj) == ts


# ---------------------------------------------------------------------------
# Reference implementations: the quadratic grid checks and the closure-based
# search that the linear ones replaced, kept to cross-check them

def _reaches_sink_everywhere_reference(d: Digraph, rel: int) -> bool:
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


def grid_validate_reference(d: Digraph) -> int | None:
    if d.rels != 2:
        raise StructureError("grid_validate needs a 2-relational digraph")
    r1, r2 = d.relation(1), d.relation(2)
    if not (is_partial_injective(r1) and is_partial_injective(r2)):
        return 1
    if not (_reaches_sink_everywhere_reference(d, 1)
            and _reaches_sink_everywhere_reference(d, 2)):
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


def grid_coordinates_reference(d: Digraph) -> dict[int, tuple[int, int]]:
    failed = grid_validate_reference(d)
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


def ts_recognize_reference(ts: TilingSystem, g: Digraph) -> BorderedRun | None:
    if g.bits != ts.bits:
        raise ValueError(f"system expects {ts.bits}-bit labels, "
                         f"grid has {g.bits}")
    coords = grid_coordinates_reference(g)
    h, w = map(max, zip(*coords.values()))
    labels = {coords[v]: g.label(v) for v in g.nodes()}

    positions = [(i, j) for i in range(1, h + 1) for j in range(1, w + 1)]
    assignment: dict[tuple[int, int], str] = {}

    def cell_at(i: int, j: int) -> str | None:
        if not (1 <= i <= h and 1 <= j <= w):
            return BORDER
        state = assignment.get((i, j))
        if state is None:
            return None
        return cell(labels[(i, j)], state)

    def block_ok(i: int, j: int) -> bool:
        quad = (cell_at(i, j), cell_at(i, j + 1),
                cell_at(i + 1, j), cell_at(i + 1, j + 1))
        if any(c is None for c in quad):
            return True  # incomplete, checked later
        return quad in ts.tiles

    def search() -> bool:
        choice = [0] * len(positions)
        k = 0
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
            if all(block_ok(bi, bj)
                   for bi in (i - 1, i) for bj in (j - 1, j)):
                k += 1
        return k == len(positions)

    if search():
        return _bordered(labels, dict(assignment), h, w)
    return None


def _shuffled(rng: random.Random, g: Digraph) -> Digraph:
    """``g`` with its node ids permuted at random."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = [""] * g.n
    for v in g.nodes():
        labels[perm[v]] = g.label(v)
    return make(g.bits, g.rels, labels,
                [(r, perm[s], perm[t]) for r, s, t in g.edges])


def _one_edge_mutations(rng: random.Random, d: Digraph, per_kind: int):
    """Up to ``per_kind`` digraphs for each way of changing one edge of
    ``d``: deleted, added, reversed, moved to the other relation."""
    edges = sorted(d.edges)
    absent = [(r, s, t) for r in (1, 2) for s in d.nodes() for t in d.nodes()
              if (r, s, t) not in d.edges]
    for e in rng.sample(edges, min(per_kind, len(edges))):
        r, s, t = e
        rest = d.edges - {e}
        yield Digraph(0, 2, d.labels, rest)
        yield Digraph(0, 2, d.labels, rest | {(r, t, s)})
        yield Digraph(0, 2, d.labels, rest | {(3 - r, s, t)})
    for e in rng.sample(absent, min(per_kind, len(absent))):
        yield Digraph(0, 2, d.labels, d.edges | {e})


def _random_two_relation_digraph(rng: random.Random, n: int) -> Digraph:
    """Mostly partial injections (a random matching per relation), now and
    then with extra random edges."""
    edges = set()
    for r in (1, 2):
        srcs, dsts = list(range(n)), list(range(n))
        rng.shuffle(srcs)
        rng.shuffle(dsts)
        k = rng.randint(0, n)
        edges |= {(r, s, t) for s, t in zip(srcs[:k], dsts[:k])}
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 2)):
            edges.add((rng.choice((1, 2)), rng.randrange(n), rng.randrange(n)))
    return make(0, 2, [""] * n, edges)


def _grid_corpus():
    """Random 2-relation digraphs with 4 to 9 nodes, and shuffled grids up
    to 8 x 8 with their one-edge mutations; every digraph with up to 3
    nodes is checked in test_exactness_small_sweep."""
    rng = random.Random(2020)
    for _ in range(3000):
        yield _random_two_relation_digraph(rng, rng.randint(4, 9))
    for h in range(1, 9):
        for w in range(1, 9):
            g = _shuffled(rng, grid(h, w))
            yield g
            yield from _one_edge_mutations(rng, g, 6)


def test_linear_grid_checks_agree_with_the_references():
    failures, grids = {}, 0
    for d in _grid_corpus():
        failed = grid_validate(d)
        assert failed == grid_validate_reference(d), sorted(d.edges)
        failures[failed] = failures.get(failed, 0) + 1
        if failed is None:
            grids += 1
            coords = grid_coordinates(d)
            want = grid_coordinates_reference(d)
            assert list(coords.items()) == list(want.items()), sorted(d.edges)
            assert grid_dimensions(d) == max(want.values())
        else:
            with pytest.raises(StructureError) as e:
                grid_coordinates(d)
            assert e.value.condition == failed
    # every condition fails somewhere in the corpus; every shuffled grid
    # is a grid
    assert set(failures) == {None, 1, 2, 3, 4, 5, 6}
    assert grids >= 64


def test_recognize_returns_the_reference_run():
    rng = random.Random(93)
    states = ("A", "B", "C")
    base = zoo.all_blocks_tiling_system(states=states, bits=1)
    labeled = [TilingSystem(bits=1, states=(), tiles=frozenset())]
    for keep in (0.5, 0.6, 0.7, 0.8) * 3:
        tiles = frozenset(t for t in base.tiles if rng.random() < keep)
        labeled.append(TilingSystem(bits=1, states=states, tiles=tiles))
    two = zoo.all_blocks_tiling_system(states=("A", "B"))
    unlabeled = [zoo.even_width_tiling_system(),
                 zoo.all_blocks_tiling_system(), two,
                 zoo.empty_tiling_system(),
                 TilingSystem(0, ("A", "B"), frozenset(
                     t for t in two.tiles if rng.random() < 0.4))]
    verdicts = set()
    for systems, bits in ((labeled, 1), (unlabeled, 0)):
        for ts in systems:
            for h in range(1, 4):
                for w in range(1, 4):
                    labels = ["".join(rng.choice("01") for _ in range(bits))
                              for _ in range(h * w)]
                    g = grid(h, w, labels=labels, bits=bits)
                    run = ts_recognize(ts, g)
                    want = ts_recognize_reference(ts, g)
                    assert run == want
                    verdicts.add(run is not None)
                    assert ts_recognize(ts, _shuffled(rng, g)) == want
    assert verdicts == {True, False}
