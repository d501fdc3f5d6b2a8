import gc
import weakref

import pytest

from disto import graphs, zoo
from disto.automata import sync_run
from disto.graphs import (Digraph, OracleBoundError, canonical_form, dipath,
                          enumerate_digraphs, enumerate_ordered_ditrees,
                          enumerate_rooted_ditrees, grid, is_dipath,
                          is_ordered_ditree, is_undirected, make, validate)
from disto.tiling import grid_validate


def test_validate_minimal():
    assert validate(make(0, 1, [""], [])) is None


def test_validate_dangling_endpoint():
    d = Digraph(0, 1, ("", ""), frozenset({(1, 0, 5)}))
    assert "dangling" in validate(d)


def test_validate_cycle_with_labels():
    d = make(1, 1, ["1", "0", "0"], [(1, 0, 1), (1, 1, 2), (1, 2, 0)])
    assert validate(d) is None


def test_validate_bad_label_width():
    d = Digraph(2, 1, ("0",), frozenset())
    assert "2-bit" in validate(d)


def test_dipath_shape():
    pd = dipath(3)
    assert pd.digraph.relation(1) == {(0, 1), (1, 2)}
    assert pd.point == 2


@pytest.mark.parametrize("n", list(range(1, 51)))
def test_dipath_predicate(n):
    assert is_dipath(dipath(n))


def test_grid_2x2_relations():
    g = grid(2, 2)
    assert g.relation(1) == {(0, 2), (1, 3)}
    assert g.relation(2) == {(0, 1), (2, 3)}


@pytest.mark.parametrize("h,w", [(h, w) for h in range(1, 6)
                                 for w in range(1, 6)])
def test_grid_passes_all_grid_conditions(h, w):
    assert grid_validate(grid(h, w)) is None


def test_single_root_ordered_ditree():
    pd = graphs.generate("ordered-ditree")
    assert pd.digraph.n == 1 and pd.point == 0 and not pd.digraph.edges


def test_enumeration_counts_match_closed_form():
    per_n = {n: 0 for n in (1, 2)}
    for d in enumerate_digraphs(2, bits=0, rels=1):
        per_n[d.n] += 1
    assert per_n[1] == graphs.counting_formula(1, 0, 1) == 2
    assert per_n[2] == graphs.counting_formula(2, 0, 1) == 16


def test_enumeration_counts_with_labels_and_relations():
    count = sum(1 for d in enumerate_digraphs(2, bits=1, rels=2)
                if d.n == 2)
    assert count == graphs.counting_formula(2, 1, 2)


def test_enumerate_dipaths():
    paths = list(enumerate_digraphs(2, bits=0, rels=1, kind="dipath"))
    assert len(paths) == 2


def test_enumeration_refuses_large_bound():
    with pytest.raises(OracleBoundError):
        list(enumerate_digraphs(9, 0, 1))


def test_enumeration_restartable():
    stream1 = list(enumerate_digraphs(2, bits=0, rels=1))
    stream2 = list(enumerate_digraphs(2, bits=0, rels=1))
    assert stream1 == stream2


def test_canonical_reduction_counts_match_bruteforce():
    reduced = list(enumerate_digraphs(3, bits=0, rels=1, iso_reduce=True))
    classes = {canonical_form(d) for d in enumerate_digraphs(3, 0, 1)}
    assert len(reduced) == len(classes)
    assert {canonical_form(d) for d in reduced} == classes


def test_canonical_reduction_with_labels():
    reduced = list(enumerate_digraphs(2, bits=1, rels=1, iso_reduce=True))
    classes = {canonical_form(d) for d in enumerate_digraphs(2, 1, 1)}
    assert len(reduced) == len(classes)


def test_canonical_reduction_two_relations():
    reduced = list(enumerate_digraphs(2, bits=0, rels=2, iso_reduce=True))
    classes = {canonical_form(d) for d in enumerate_digraphs(2, 0, 2)}
    assert len(reduced) == len(classes)


def test_isomorphic_grids():
    g = grid(2, 3)
    perm = [4, 3, 5, 1, 0, 2]
    edges = [(r, perm[s], perm[t]) for (r, s, t) in g.edges]
    h = make(0, 2, [""] * 6, edges)
    assert graphs.are_isomorphic(g, h)
    assert not graphs.are_isomorphic(g, grid(3, 2))


def test_ordered_ditree_enumeration_shapes():
    trees = list(enumerate_ordered_ditrees(3, bits=0, arity=2))
    assert all(is_ordered_ditree(t) for t in trees)
    # 1 shape with 1 node, 1 with 2 nodes, 2 with 3 nodes
    assert len(trees) == 4


def test_rooted_ditree_enumeration_points_at_root():
    for t in enumerate_rooted_ditrees(3, bits=0):
        assert not t.digraph.out_neighbors(1, t.point)


def test_undirected_predicate():
    sym = make(0, 1, ["", ""], [(1, 0, 1), (1, 1, 0)])
    assert is_undirected(sym)
    assert not is_undirected(make(0, 1, ["", ""], [(1, 0, 1)]))
    assert not is_undirected(make(0, 1, [""], [(1, 0, 0)]))


def test_json_roundtrip_and_field_order():
    pd = dipath(3, labels=["1", "0", "1"])
    obj = graphs.to_json_dict(pd)
    assert list(obj) == ["bits", "relations", "nodes", "edges", "point"]
    back = graphs.from_json_dict(obj)
    assert back == pd
    plain = grid(2, 2)
    assert graphs.from_json_dict(graphs.to_json_dict(plain)) == plain


def test_adjacency_does_not_keep_digraphs_alive():
    a = zoo.reachability_automaton()
    d = make(1, 1, ["1", "0", "0"], [(1, 0, 1), (1, 1, 2)])
    sync_run(a, d)
    assert d.in_neighbors(1, 2) == (1,) and d.out_neighbors(1, 0) == (1,)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_equal_digraphs_build_their_own_adjacency():
    d1 = make(0, 1, ["", ""], [(1, 0, 1)])
    d2 = make(0, 1, ["", ""], [(1, 0, 1)])
    assert d1 == d2 and hash(d1) == hash(d2) and d1 is not d2
    assert d1.in_neighbors(1, 1) == (0,)
    assert "_in" in vars(d1) and "_in" not in vars(d2)
    assert d2.in_neighbors(1, 1) == (0,)
    assert vars(d1)["_in"] is not vars(d2)["_in"]
    assert repr(d1) == repr(d2)
