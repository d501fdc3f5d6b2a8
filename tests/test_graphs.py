import gc
import hashlib
import itertools
import re
import weakref

import pytest

from disto import graphs, zoo
from disto.alternating import decide_acceptance_alt
from disto.asyncrun import async_run, sample_timing
from disto.automata import ForgetfulAutomaton, forgetful_run, sync_run
from disto.formulas import MuEvaluator
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
    for bits, rels in [(0, 2), (1, 2), (0, 3)]:
        reduced = list(enumerate_digraphs(2, bits=bits, rels=rels,
                                          iso_reduce=True))
        classes = {canonical_form(d)
                   for d in enumerate_digraphs(2, bits, rels)}
        assert len(reduced) == len(classes)
        assert {canonical_form(d) for d in reduced} == classes


def test_canonical_reduction_three_nodes_two_relations():
    assert sum(1 for _ in enumerate_digraphs(3, bits=0, rels=2,
                                             iso_reduce=True)) == 44364


@pytest.mark.parametrize("bits,digest", [
    (0, "106e15be0dbb2be6558c473cc274b6365aca8411"),
    (1, "c8ee47e553bef6419c1566f01d4dd3c77c4c1004")])
def test_one_relation_representatives_are_pinned(bits, digest):
    """The representatives and their order, as the 4-node sweeps see them."""
    h = hashlib.sha1()
    for d in enumerate_digraphs(4, bits=bits, rels=1, iso_reduce=True):
        h.update(repr((d.labels, d.sorted_edges())).encode())
    assert h.hexdigest() == digest


def _reference_stream(max_nodes, bits, rels):
    letters = ["".join(b) for b in itertools.product("01", repeat=bits)]
    for n in range(1, max_nodes + 1):
        pairs = [(r, s, t) for r in range(1, rels + 1)
                 for s in range(n) for t in range(n)]
        for labels in itertools.product(letters, repeat=n):
            for mask in range(1 << len(pairs)):
                yield Digraph(bits, rels, labels,
                              frozenset(p for i, p in enumerate(pairs)
                                        if mask >> i & 1))


@pytest.mark.parametrize("max_nodes,bits,rels", [(2, 1, 2), (3, 0, 1),
                                                  (2, 0, 3)])
def test_full_stream_order(max_nodes, bits, rels):
    assert (list(enumerate_digraphs(max_nodes, bits=bits, rels=rels))
            == list(_reference_stream(max_nodes, bits, rels)))


def test_canonical_augmentation_refuses_oversized_candidates():
    # 44,364 three-node classes times 2^14 ways to add a fourth node
    with pytest.raises(OracleBoundError, match="candidate codes"):
        list(enumerate_digraphs(4, bits=0, rels=2, iso_reduce=True))


def test_json_point_must_be_a_node():
    obj = dict(graphs.to_json_dict(make(0, 1, [""], [])), point=7)
    with pytest.raises(ValueError, match="point 7 is not a valid node id"):
        graphs.from_json_dict(obj)


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
    ev = MuEvaluator(zoo.reachability_mu_system())
    fa = ForgetfulAutomaton(states=("w", "s"), rels=1, initial="w",
                            letters=("0", "1"),
                            delta=lambda x, nvec: "s" if nvec[0] else "w",
                            accepting=frozenset())
    game = zoo.three_col_aldag()
    d = make(1, 1, ["1", "0", "0"], [(1, 0, 1), (1, 1, 2)])
    d0 = make(0, 1, ["", ""], [(1, 0, 1)])
    kept = [sync_run(a, d), forgetful_run(fa, d),
            async_run(a, d, sample_timing(d, 4, lossless=True, seed=2))]
    assert ev.eval(d) == zoo.reachability_oracle(d) == {0, 1, 2}
    assert decide_acceptance_alt(game, d0)
    assert d.in_neighbors(1, 2) == (1,) and d.out_neighbors(1, 0) == (1,)
    assert {"_in_slots", "_readers"} <= set(vars(d))
    assert "_in_slots" in vars(d0)
    refs = [weakref.ref(d), weakref.ref(d0)]
    del d, d0
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    # the kept results decode without their digraph
    assert kept[0].configs[0] == ("1", "2", "2")
    assert kept[1].configs == (("w",) * 3, ("w", "s", "s"))
    assert kept[2].configs[0].node_state == ("1", "2", "2")
    assert kept[2].configs[0].buffers == (("1",), ("2",))
    assert kept[2].visited_states(2) == {c.node_state[2]
                                         for c in kept[2].configs}


def test_game_does_not_keep_digraphs_alive():
    a = zoo.three_col_aldag()
    k4 = make(0, 1, [""] * 4,
              [(1, u, v) for u in range(4) for v in range(4) if u != v])
    assert not decide_acceptance_alt(a, k4)
    held = set(vars(a))
    ref = weakref.ref(k4)
    del k4
    gc.collect()
    assert ref() is None
    assert decide_acceptance_alt(a, make(0, 1, ["", ""], [(1, 0, 1)]))
    assert set(vars(a)) == held  # per-automaton state only


@pytest.mark.parametrize("rel", [0, 3])
def test_adjacency_refuses_unknown_relation_index(rel):
    d = Digraph(0, 2, ("", ""), frozenset({(rel, 0, 1)}))
    for lookup in (d.in_neighbors, d.out_neighbors):
        with pytest.raises(ValueError, match=rf"edge \({rel},0,1\) uses an "
                                             "unknown relation index"):
            lookup(2, 1)
    assert validate(d) == f"edge ({rel},0,1) uses an unknown relation index"


def test_equal_digraphs_build_their_own_adjacency():
    d1 = make(0, 1, ["", ""], [(1, 0, 1)])
    d2 = make(0, 1, ["", ""], [(1, 0, 1)])
    assert d1 == d2 and hash(d1) == hash(d2) and d1 is not d2
    assert d1.in_neighbors(1, 1) == (0,)
    assert "_in" in vars(d1) and "_in" not in vars(d2)
    assert d2.in_neighbors(1, 1) == (0,)
    assert vars(d1)["_in"] is not vars(d2)["_in"]
    assert repr(d1) == repr(d2)


@pytest.mark.parametrize("edge", [(1, -1, 0), (1, 0, -2), (1, 2, 0),
                                  (1, 0, 5)])
def test_dangling_endpoints_are_refused(edge):
    def two_nodes(bits):
        return Digraph(bits, 1, ("0" * bits,) * 2, frozenset({edge}))

    d0, d1 = two_nodes(0), two_nodes(1)
    fa = ForgetfulAutomaton(states=("a",), rels=1, initial="a",
                            letters=("",), delta=lambda x, nvec: "a",
                            accepting=frozenset())
    uses = [lambda: d0.in_neighbors(1, 0), lambda: d0.out_neighbors(1, 0),
            lambda: sync_run(zoo.reachability_automaton(), d1),
            lambda: forgetful_run(fa, d0),
            lambda: decide_acceptance_alt(zoo.three_col_aldag(), d0),
            lambda: MuEvaluator(zoo.reachability_mu_system()).eval(d1)]
    message = "dangling endpoint in edge ({},{},{})".format(*edge)
    for use in uses:
        with pytest.raises(ValueError, match=re.escape(message)):
            use()
    assert validate(d0) == message


def test_subsets_by_size_then_combination_order():
    assert list(graphs.subsets("abc")) == [
        frozenset(), *map(frozenset, ["a", "b", "c", "ab", "ac", "bc",
                                      "abc"])]
    assert list(graphs.subsets([])) == [frozenset()]


def test_subset_names_follow_subsets_order_and_refuse_unreadable_members():
    names = graphs.subset_names(["b", "a", "c"])
    assert list(names) == list(graphs.subsets(["b", "a", "c"]))
    assert names[frozenset()] == "{}"
    assert names[frozenset("ab")] == "{a,b}"
    assert len(set(names.values())) == 8
    # {""} would be named like {}, and {"a,b"} like {a,b}
    for items, bad in ((["a", "", "b,c"], "''"), (["a", "b", "a,b"], "'a,b'")):
        with pytest.raises(ValueError, match=f"member {bad} cannot be named"):
            graphs.subset_names(items)
