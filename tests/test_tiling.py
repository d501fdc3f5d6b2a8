import itertools
import random

import pytest

from disto import graphs, zoo
from disto.graphs import Digraph, grid, make
from disto.tiling import (BORDER, StructureError, TilingSystem, cell,
                          grid_condition_name, grid_coordinates,
                          grid_dimensions, grid_validate, is_partial_injective,
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
        is_grid = grid_validate(d) is None
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
