import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest

from disto import alternating as alt
from disto import formulas as fm
from disto import graphs, zoo
from disto.alternating import (AltAutomaton, AltError, ExplicitSets,
                               apply_closure, compile_mso_to_aldag,
                               complement, decide_acceptance_alt, explicit,
                               global_successors, initial_configuration,
                               intersect, is_deterministic,
                               is_nondeterministic, length, nldag_emptiness,
                               normalize_profile, project, union,
                               validate_alt)
from disto.automata import Guard, Rule, RuleDelta
from disto.graphs import Digraph, enumerate_digraphs, make

import gens


def accepting_run_exists(a: AltAutomaton, d) -> bool:
    """Independent oracle: search for an accepting run by materializing run
    trees (existential choices enumerated, universal branches all kept)."""
    def search(conf) -> bool:
        kind = alt.configuration_kind(a, conf)
        if kind == "P":
            return a.accepting.contains(frozenset(conf))
        succs = global_successors(a, conf, d)
        if kind == "E":
            return any(search(c) for c in succs)
        return all(search(c) for c in succs)

    return search(initial_configuration(a, d))


def sweep(max_nodes=3, bits=0):
    return enumerate_digraphs(max_nodes, bits=bits, rels=1)


# ---------------------------------------------------------------------------
# validation

def test_all_permanent_automaton_valid():
    a = AltAutomaton(states=("p",), kind={"p": "P"}, rels=1,
                     init={"": "p"}, delta=lambda q, n: frozenset({q}),
                     accepting=explicit({"p"}))
    assert validate_alt(a) == {"p": 0}
    assert length(a) == 0


def test_three_col_levels():
    levels = validate_alt(zoo.three_col_aldag())
    assert levels["ini"] == 0
    assert {levels[c] for c in ("c1", "c2", "c3")} == {1}
    assert levels["yes"] == levels["no"] == 2


def test_level_conflict_detected():
    # b receives transitions from levels 0 and 1
    def delta(q, n):
        return {"a": frozenset({"b"}), "b": frozenset({"c", "b"}),
                "c": frozenset({"p"}), "p": frozenset({"p"})}[q]

    a = AltAutomaton(states=("a", "b", "c", "p"),
                     kind={"a": "E", "b": "E", "c": "E", "p": "P"},
                     rels=1, init={"": "a"}, delta=delta,
                     accepting=explicit({"p"}))
    with pytest.raises(AltError, match="level"):
        validate_alt(a)


def test_mixed_type_level_detected():
    def delta(q, n):
        return {"a": frozenset({"p"}), "b": frozenset({"p"}),
                "p": frozenset({"p"})}[q]

    a = AltAutomaton(states=("a", "b", "p"),
                     kind={"a": "E", "b": "U", "p": "P"},
                     rels=1, init={"": "a"}, delta=delta,
                     accepting=explicit({"p"}))
    with pytest.raises(alt.MixedConfiguration, match="mixes"):
        validate_alt(a)


def test_permanent_self_loop_enforced():
    a = AltAutomaton(states=("p", "q"), kind={"p": "P", "q": "P"}, rels=1,
                     init={"": "p"},
                     delta=lambda q, n: frozenset({"q"}),
                     accepting=explicit({"q"}))
    with pytest.raises(AltError, match="self-loop"):
        validate_alt(a)


# ---------------------------------------------------------------------------
# global transitions and the game

def test_configuration_kinds():
    a = zoo.three_col_aldag()
    assert alt.configuration_kind(a, ("yes", "no")) == "P"
    assert alt.configuration_kind(a, ("ini", "yes")) == "E"
    b = zoo.non_three_col_aldag()
    assert alt.configuration_kind(b, ("ini", "no")) == "U"
    mixed = dict(a.kind)
    mixed["c1"] = "U"
    weird = AltAutomaton(states=a.states, kind=mixed, rels=1,
                         init=dict(a.init), delta=a.delta,
                         accepting=a.accepting, succ_map=a.succ_map)
    with pytest.raises(alt.MixedConfiguration):
        alt.configuration_kind(weird, ("ini", "c1"))


def test_permanent_configuration_self_successor():
    a = zoo.three_col_aldag()
    d = make(0, 1, ["", ""], [])
    conf = ("yes", "no")
    assert global_successors(a, conf, d) == [conf]


def test_successor_product_count():
    a = zoo.three_col_aldag()
    d = make(0, 1, ["", ""], [])
    succs = global_successors(a, ("ini", "ini"), d)
    assert len(succs) == 9


def test_game_equals_run_search():
    rng = random.Random(41)
    autos = [zoo.three_col_aldag(), zoo.non_three_col_aldag()]
    autos += [gens.random_nldag(rng) for _ in range(6)]
    digraphs = list(sweep(3))
    picks = rng.sample(digraphs, 60)
    for a in autos:
        for d in picks:
            assert decide_acceptance_alt(a, d) == accepting_run_exists(a, d)


def test_deterministic_classification_and_unique_successors():
    def delta(q, n):
        return {"a": frozenset({"p"}), "p": frozenset({"p"})}[q]

    a = AltAutomaton(states=("a", "p"), kind={"a": "E", "p": "P"}, rels=1,
                     init={"": "a"}, delta=delta, accepting=explicit({"p"}))
    assert is_deterministic(a)
    for d in itertools.islice(sweep(3), 50):
        conf = initial_configuration(a, d)
        while {a.kind[q] for q in conf} != {"P"}:
            succs = global_successors(a, conf, d)
            assert len(succs) == 1
            conf = succs[0]
    assert not is_deterministic(zoo.three_col_aldag())
    assert is_nondeterministic(zoo.three_col_aldag())
    assert not is_nondeterministic(zoo.non_three_col_aldag())


# ---------------------------------------------------------------------------
# The game keys each node's options on the round loop's integer keys and
# memoises them on the automaton; every test below runs it against the
# run-tree oracle (built on ``global_successors``) on digraphs where a
# node's options depend on what it receives.

def agrees(a: AltAutomaton, digraphs) -> None:
    for d in digraphs:
        assert decide_acceptance_alt(a, d) == accepting_run_exists(a, d), d


def rule_automaton(states: str, init: dict, rules: list, accepting,
                   rels: int = 1) -> AltAutomaton:
    """A JSON rule automaton; ``states`` lists name:kind pairs."""
    return alt.from_json_dict({
        "states": [dict(zip(("name", "kind"), s.split(":")))
                   for s in states.split()],
        "relations": rels, "init": init,
        "rules": [{"from": src, "guards": [
                       {"rel": r, "op": op, "set": list(xs)}
                       for (r, op, xs) in guards], "to": list(to)}
                  for (src, guards, to) in rules]
        + [{"from": p, "guards": [], "to": [p]} for p in ("yes", "no")],
        "accepting_sets": [list(x) for x in accepting]})


def in_edges_pick(kind: dict, none, some) -> AltAutomaton:
    """'ini' goes to ``none`` at a node without in-neighbours and to
    ``some`` at one with; every other nonpermanent state says 'no' if it
    receives itself, else 'yes'.  Node 0 of the digraphs below has no
    in-neighbour and goes first, so a memo that ignored the received
    states would give every node node 0's options."""
    def delta(q, nvec):
        if q == "ini":
            return frozenset(some if nvec[0] else none)
        if q in ("yes", "no"):
            return frozenset({q})
        return frozenset({"no" if q in nvec[0] else "yes"})

    kind = {"ini": "E", "yes": "P", "no": "P", **kind}
    return AltAutomaton(states=tuple(kind), kind=kind, rels=1,
                        init={"": "ini"}, delta=delta,
                        accepting=explicit({"yes"}))


def star(n: int):
    return make(0, 1, [""] * n, [(1, 0, v) for v in range(1, n)])


def test_game_matches_oracle_on_two_relations():
    # 2-colour relation 2 (an in-neighbour of the same colour loses);
    # an 'a' node with a 'b' in-neighbour over relation 1 loses a branch
    a = rule_automaton(
        "ini:E a:U b:U yes:P no:P", {"": "ini"}, rels=2,
        accepting=(["yes"],), rules=[
            ("ini", [], ["a", "b"]),
            ("a", [(2, "supseteq", ["a"])], ["no"]),
            ("a", [(1, "supseteq", ["b"]), (2, "any", [])], ["yes", "no"]),
            ("a", [], ["yes"]),
            ("b", [(2, "supseteq", ["b"])], ["no"]),
            ("b", [], ["yes"])])
    validate_alt(a)
    rng = random.Random(51)
    pairs = [(r, u, v) for r in (1, 2) for u in range(3) for v in range(3)]
    family = list(enumerate_digraphs(2, bits=0, rels=2))
    family += [make(0, 2, [""] * 3, [e for e in pairs if rng.random() < 0.3])
               for _ in range(150)]
    agrees(a, family)
    assert {decide_acceptance_alt(a, d) for d in family} == {True, False}


def test_game_matches_oracle_on_labelled_digraphs():
    a = rule_automaton(
        "z:E o:E x:U y:U yes:P no:P", {"0": "z", "1": "o"}, rules=[
            ("z", [(1, "supseteq", ["o"])], ["x", "y"]),
            ("z", [], ["x"]),
            ("o", [(1, "eq", [])], ["y"]),
            ("o", [], ["x", "y"]),
            ("x", [(1, "subseteq", ["x"])], ["yes"]),
            ("x", [], ["yes", "no"]),
            ("y", [(1, "supseteq", ["x"])], ["no"]),
            ("y", [], ["yes"])], accepting=(["yes"],))
    validate_alt(a)
    family = list(enumerate_digraphs(3, bits=1, rels=1, iso_reduce=True))
    agrees(a, family)
    assert {decide_acceptance_alt(a, d) for d in family} == {True, False}


def test_game_matches_oracle_on_universal_complements():
    # most small random languages depend on the node count alone: check
    # every draw whose complement tells two digraphs of one size apart
    family = list(enumerate_digraphs(3, bits=0, rels=1, iso_reduce=True))
    rng = random.Random(52)
    checked = 0
    for _ in range(120):
        c = complement(gens.random_nldag(rng, max_states=3, max_length=1))
        got = [decide_acceptance_alt(c, d) for d in family]
        if len(set(zip(got, (d.n for d in family)))) > 3:  # a size has both
            assert "U" in c.kind.values()
            assert got == [accepting_run_exists(c, d) for d in family]
            checked += 1
    assert checked >= 3


def test_game_on_the_empty_digraph():
    empty = Digraph(0, 1, (), frozenset())
    picks = random.Random(53).sample(list(sweep(3)), 40)
    for a, want in ((zoo.three_col_aldag(), False),
                    (complement(zoo.three_col_aldag()), True)):
        assert decide_acceptance_alt(a, empty) is want
        assert accepting_run_exists(a, empty) is want
        agrees(a, picks[:20] + [empty] + picks[20:])


def test_one_automaton_across_shuffled_digraphs():
    family = list(enumerate_digraphs(4, bits=0, rels=1, iso_reduce=True))
    random.Random(54).shuffle(family)
    for a in (zoo.three_col_aldag(), zoo.non_three_col_aldag()):
        agrees(a, family[:500])
        for d in family[500:1500]:
            assert decide_acceptance_alt(a, d) == (
                zoo.is_three_colorable(d) == (a.kind["ini"] == "E"))


def test_game_raises_on_mixed_configuration():
    a = in_edges_pick({"e": "E", "u": "U"}, {"e"}, {"u"})
    for decide in (decide_acceptance_alt, accepting_run_exists):
        with pytest.raises(alt.MixedConfiguration):
            decide(a, star(2))
    with pytest.raises(alt.MixedConfiguration):
        decide_acceptance_alt(a, make(0, 1, ["", ""], []))


def test_game_successor_cap(monkeypatch):
    monkeypatch.setattr(alt, "GAME_SUCCESSOR_CAP", 8)
    a = in_edges_pick({"c1": "E", "c2": "E", "c3": "E"},
                      {"c1"}, {"c1", "c2", "c3"})
    for decide in (decide_acceptance_alt, accepting_run_exists):
        with pytest.raises(graphs.LimitExceeded, match="too many successors"):
            decide(a, star(3))  # 1 * 3 * 3 successors
    agrees(a, [star(2), make(0, 1, [""] * 4, [(1, 0, 1)])])


def test_game_refuses_undeclared_delta_target():
    a = in_edges_pick({"e": "E"}, {"e"}, {"ghost"})
    for decide in (decide_acceptance_alt, accepting_run_exists):
        with pytest.raises(AltError, match="ghost"):
            decide(a, star(2))
    with pytest.raises(AltError, match="ghost"):
        decide_acceptance_alt(a, make(0, 1, ["", ""], []))


@pytest.mark.parametrize("a_to", [["b"], ["b", "p"]])
def test_game_refuses_a_cycle_among_nonpermanent_states(a_to):
    # a play on either never reaches a permanent configuration, even on a
    # 1-node digraph
    a = alt.from_json_dict(gens.cyclic_aldag_json(a_to))
    for b in (a, complement(a)):
        with pytest.raises(AltError, match="cycle among nonpermanent"):
            decide_acceptance_alt(b, make(0, 1, [""], []))


def test_game_relation_count_must_match():
    a = in_edges_pick({"c1": "E", "c2": "E"}, {"c1"}, {"c1", "c2"})
    with pytest.raises(AltError, match="relations"):
        decide_acceptance_alt(a, Digraph(0, 2, ("",), frozenset()))
    agrees(a, sweep(3))


def test_game_refuses_relation_zero():
    a = in_edges_pick({"c1": "E", "c2": "E"}, {"c1"}, {"c1", "c2"})
    bad = Digraph(0, 1, ("", ""), frozenset({(0, 0, 1)}))
    for decide in (decide_acceptance_alt, accepting_run_exists):
        with pytest.raises(ValueError, match="unknown relation index"):
            decide(a, bad)
    agrees(a, sweep(3))


# ---------------------------------------------------------------------------
# closures

def test_complement_is_involution_on_language():
    a = zoo.three_col_aldag()
    cc = complement(complement(a))
    for d in sweep(3):
        assert decide_acceptance_alt(a, d) == decide_acceptance_alt(cc, d)


def test_complement_swaps_language():
    a = zoo.three_col_aldag()
    c = complement(a)
    for d in sweep(3):
        assert decide_acceptance_alt(a, d) != decide_acceptance_alt(c, d)


def test_union_tautology():
    a = zoo.three_col_aldag()
    u = union(a, complement(a))
    validate_alt(u)
    for d in sweep(2):
        assert decide_acceptance_alt(u, d)


def test_union_language():
    rng = random.Random(43)
    a = gens.random_nldag(rng)
    b = gens.random_nldag(rng)
    u = union(a, b)
    validate_alt(u)
    for d in sweep(2):
        assert decide_acceptance_alt(u, d) == (
            decide_acceptance_alt(a, d) or decide_acceptance_alt(b, d))


def test_intersection_language_and_class_guard():
    rng = random.Random(44)
    a = gens.random_nldag(rng)
    b = gens.random_nldag(rng)
    x = intersect(a, b)
    validate_alt(x)
    for d in sweep(2):
        assert decide_acceptance_alt(x, d) == (
            decide_acceptance_alt(a, d) and decide_acceptance_alt(b, d))
    with pytest.raises(AltError):
        intersect(zoo.non_three_col_aldag(), a)


def one_bit_three_col() -> AltAutomaton:
    """``zoo.three_col_aldag`` over a 1-bit alphabet: same behaviour for
    both labels."""
    a3 = zoo.three_col_aldag()
    return AltAutomaton(states=a3.states, kind=dict(a3.kind), rels=1,
                        init={"0": "ini", "1": "ini"}, delta=a3.delta,
                        accepting=a3.accepting, succ_map=a3.succ_map)


def test_projection_language():
    # over 1-bit labels, erase the bit: image of L(a) under label erasure
    a = one_bit_three_col()
    p = project(a, {"0": "", "1": ""})
    validate_alt(p)
    for d in sweep(2, bits=0):
        want = any(
            decide_acceptance_alt(a, d.relabel(labels, bits=1))
            for labels in itertools.product("01", repeat=d.n))
        assert decide_acceptance_alt(p, d) == want


def test_projection_rejects_unmapped_labels():
    a = zoo.three_col_aldag()
    p = project(a, {"": "0"})  # image inside a 1-bit alphabet
    d = make(1, 1, ["1"], [])  # label without preimage
    assert not decide_acceptance_alt(p, d)


def test_normalize_profile_preserves_language():
    for a in (zoo.three_col_aldag(), zoo.non_three_col_aldag()):
        norm = normalize_profile(a)
        by_level = {}
        for q, lv in validate_alt(norm).items():
            if norm.kind[q] != "P":
                by_level.setdefault(lv, set()).add(norm.kind[q])
        for lv, kinds in by_level.items():
            assert kinds == {"E" if lv % 2 == 0 else "U"}
        for d in sweep(2):
            assert (decide_acceptance_alt(a, d)
                    == decide_acceptance_alt(norm, d))


def test_normalize_profile_declares_states_in_the_same_order_every_run():
    # permanent states follow a.states, not a frozenset's hash order
    probe = ("from disto import alternating, zoo; print(repr(alternating."
             "compile_mso_to_aldag(zoo.edgeless_sentence(), 0, 1).states))")
    src = os.path.dirname(os.path.dirname(alt.__file__))
    outs = {subprocess.run([sys.executable, "-c", probe], check=True,
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src,
                                    PYTHONHASHSEED=str(seed))).stdout
            for seed in range(4)}
    assert len(outs) == 1


def _automata_with_supplied_successor_maps():
    rng = random.Random("supplied-successor-maps")
    out = []
    for _ in range(16):
        a, b = gens.random_nldag(rng), gens.random_nldag(rng)
        out += [complement(a), union(a, b), intersect(a, b),
                alt.intersect_demorgan(a, b), normalize_profile(complement(a)),
                alt.prune_reachable(a)]
    out.append(project(one_bit_three_col(), {"0": "", "1": ""}))
    for rels in (1, 2):
        out += [alt._trivial_automaton(True, 1, rels),
                alt._local_check_automaton(lambda lab: lab == "1", 1, rels),
                alt._edge_check_automaton(0, 1, rels, 2, rels),
                alt._exactly_one_automaton(0, 1, rels)]
    return out + [zoo.three_col_aldag(), zoo.non_three_col_aldag(),
                  zoo.concentric_circles_aldag()]


def test_every_supplied_successor_map_covers_the_stepped_targets():
    # the level check trusts a supplied map: a missed target would let a
    # configuration that mixes E and U states reach the game
    for a in _automata_with_supplied_successor_maps():
        assert a.succ_map is not None
        stepped = dataclasses.replace(a, succ_map=None).successors_superset()
        for q in a.states:
            assert stepped[q] <= a.succ_map[q], q


def test_apply_closure_dispatch():
    a = zoo.three_col_aldag()
    assert apply_closure("complement", a).kind["ini"] == "U"
    with pytest.raises(AltError):
        apply_closure("frobnicate", a)


def test_concentric_circles_automaton():
    a = zoo.concentric_circles_aldag()
    validate_alt(a)
    A, B, C = "00", "01", "10"
    good = make(2, 1, [B, B, A], [(1, 0, 2), (1, 1, 2)])
    assert decide_acceptance_alt(a, good)
    rings = make(2, 1, [A, B, B, C, C],
                 [(1, 1, 0), (1, 2, 0), (1, 3, 1), (1, 4, 2)])
    assert decide_acceptance_alt(a, rings)
    # each caption condition violated in turn
    one_in = make(2, 1, [B, A], [(1, 0, 1)])
    assert not decide_acceptance_alt(a, one_in)
    c_next_to_a = make(2, 1, [B, B, A, C],
                       [(1, 0, 2), (1, 1, 2), (1, 2, 3)])
    assert not decide_acceptance_alt(a, c_next_to_a)
    two_a = make(2, 1, [B, B, A, B, B, A],
                 [(1, 0, 2), (1, 1, 2), (1, 3, 5), (1, 4, 5)])
    assert not decide_acceptance_alt(a, two_a)
    no_a = make(2, 1, [B, C], [(1, 0, 1)])
    assert not decide_acceptance_alt(a, no_a)
    bad_coloring = make(2, 1, [B, B, A, B],
                        [(1, 0, 2), (1, 1, 2), (1, 3, 1)])
    assert not decide_acceptance_alt(a, bad_coloring)


def test_complement_of_three_col_matches_figure_automaton():
    comp = complement(zoo.three_col_aldag())
    fig = zoo.non_three_col_aldag()
    for d in sweep(3):
        assert decide_acceptance_alt(comp, d) == decide_acceptance_alt(fig, d)


# ---------------------------------------------------------------------------
# MSO compilation

def test_compile_trivial_sentences():
    top = compile_mso_to_aldag(fm.Top(), bits=0, rels=1)
    bot = compile_mso_to_aldag(fm.Bot(), bits=0, rels=1)
    for d in sweep(2):
        assert decide_acceptance_alt(top, d)
        assert not decide_acceptance_alt(bot, d)


def test_compile_full_set_sentence():
    f = fm.ExistsSet("X", fm.ForallNode("x", fm.In("X", "x")))
    a = compile_mso_to_aldag(f, bits=0, rels=1)
    validate_alt(a)
    for d in sweep(2):
        assert decide_acceptance_alt(a, d)


def test_compile_edgeless_sentence():
    a = compile_mso_to_aldag(zoo.edgeless_sentence(), bits=0, rels=1)
    validate_alt(a)
    for d in sweep(3):
        assert decide_acceptance_alt(a, d) == (not d.edges)


def test_compile_rejects_open_formulas():
    with pytest.raises(AltError):
        compile_mso_to_aldag(fm.RelAtom(1, ("x", "y")), bits=0, rels=1)


def test_compile_rejects_modal_kernel():
    with pytest.raises(AltError):
        compile_mso_to_aldag(fm.ExistsSet("X", fm.Dia(1, (fm.In("X"),))),
                             bits=0, rels=1)


@pytest.mark.parametrize("rel", [0, 2, 5])
def test_compile_refuses_relation_atoms_outside_the_signature(rel):
    f = fm.ExistsNode("x", fm.ExistsNode("y", fm.RelAtom(rel, ("x", "y"))))
    with pytest.raises(AltError, match=f"relation index {rel} out of range"):
        compile_mso_to_aldag(f, bits=0, rels=1)
    compile_mso_to_aldag(fm.ExistsNode("x", fm.ExistsNode(
        "y", fm.RelAtom(2, ("x", "y")))), bits=0, rels=2)


def test_compiled_outputs_validate(mu_corpus):
    rng = random.Random(45)
    for _ in range(4):
        f = gens.random_mso_sentence(rng, bits=0, qdepth=2)
        a = compile_mso_to_aldag(f, bits=0, rels=1)
        validate_alt(a)


@pytest.mark.parametrize("quantifier", ["exists", "forall"])
def test_compiled_sentences_read_label_constants(quantifier):
    f = fm.parse_formula(f"({quantifier} x (in P1 x))")
    a = compile_mso_to_aldag(f, bits=1, rels=1)
    for d in sweep(3, bits=1):
        assert decide_acceptance_alt(a, d) == fm.eval_mso(f, d)
    with pytest.raises(AltError, match=r"free: \['P2'\]"):
        compile_mso_to_aldag(fm.parse_formula(f"({quantifier} x (in P2 x))"),
                             bits=1, rels=1)


def test_compile_agreement_random_sentences():
    rng = random.Random(46)
    done = 0
    while done < 3:
        f = gens.random_mso_sentence(rng, bits=0, qdepth=2)
        a = compile_mso_to_aldag(f, bits=0, rels=1)
        for d in sweep(2):
            assert decide_acceptance_alt(a, d) == fm.eval_mso(f, d)
        done += 1


# ---------------------------------------------------------------------------
# emptiness

def test_emptiness_empty_acc():
    a = AltAutomaton(states=("p",), kind={"p": "P"}, rels=1, init={"": "p"},
                     delta=lambda q, n: frozenset({q}),
                     accepting=ExplicitSets(frozenset()))
    res = nldag_emptiness(a)
    assert res.empty and res.exact


def test_emptiness_single_node_witness():
    a = AltAutomaton(states=("p",), kind={"p": "P"}, rels=1, init={"": "p"},
                     delta=lambda q, n: frozenset({q}),
                     accepting=explicit({"p"}))
    res = nldag_emptiness(a)
    assert not res.empty
    assert res.witness.n == 1
    assert decide_acceptance_alt(a, res.witness)


def test_emptiness_three_col_witness():
    res = nldag_emptiness(zoo.three_col_aldag(), cap=2)
    assert not res.empty
    assert decide_acceptance_alt(zoo.three_col_aldag(), res.witness)


def test_emptiness_rejects_alternating():
    with pytest.raises(AltError):
        nldag_emptiness(zoo.non_three_col_aldag())


def test_emptiness_refused_mid_search_keeps_what_it_searched(monkeypatch):
    # (3 nodes, 2 bits, 2 relations) is built by no other test, so the
    # lowered limit refuses it after the 1- and 2-node digraphs were gamed
    monkeypatch.setattr(graphs, "CANDIDATE_LIMIT", 100_000)
    a = alt.from_json_dict(gens.unreachable_accepting_nldag_json())
    res = nldag_emptiness(a)
    assert res.empty and not res.exact and res.witness is None
    assert (res.searched_up_to, res.pigeonhole_bound) == (2, 3)


def test_emptiness_cap_flagging():
    rng = random.Random(48)
    a = gens.random_nldag(rng)
    res = nldag_emptiness(a, cap=2)
    if res.empty:
        assert res.exact == (2 >= res.pigeonhole_bound)


# ---------------------------------------------------------------------------
# JSON

def test_json_roundtrip_and_acceptance():
    obj = {
        "states": [{"name": "ini", "kind": "E"},
                   {"name": "yes", "kind": "P"},
                   {"name": "no", "kind": "P"}],
        "relations": 1,
        "init": {"": "ini"},
        "rules": [
            {"from": "ini",
             "guards": [{"rel": 1, "op": "supseteq", "set": ["ini"]}],
             "to": ["yes", "no"]},
            {"from": "ini", "guards": [], "to": ["no"]},
            {"from": "yes", "guards": [], "to": ["yes"]},
            {"from": "no", "guards": [], "to": ["no"]},
        ],
        "accepting_sets": [["yes"]],
    }
    a = alt.from_json_dict(obj)
    assert alt.to_json_dict(a) == obj
    # accepts iff every node has an incoming edge (can pick yes)
    loop = make(0, 1, [""], [(1, 0, 0)])
    assert decide_acceptance_alt(a, loop)
    assert not decide_acceptance_alt(a, make(0, 1, [""], []))


def test_validate_alt_checks_every_neighbourhood_of_a_permanent_state():
    rules = [Rule("i", (), ["p"]),
             Rule("p", (Guard(1, "eq", frozenset({"q"})),), ["q"]),
             Rule("p", (), ["p"]), Rule("q", (), ["q"])]
    a = AltAutomaton(states=("i", "p", "q"), kind={"i": "E", "p": "P",
                                                   "q": "P"},
                     rels=1, init={"": "i"}, delta=RuleDelta(rules),
                     accepting=explicit({"p"}))
    assert a.successors_superset()["p"] == {"p", "q"}
    with pytest.raises(AltError) as caught:
        validate_alt(a)
    assert str(caught.value) == (
        "permanent state 'p' has a non-self-loop transition")


def test_levels_are_derived_once_per_automaton(monkeypatch):
    calls = []
    walk = alt.region_steps
    monkeypatch.setattr(alt, "region_steps",
                        lambda *args: calls.append(args) or walk(*args))
    a = rule_automaton(
        "z:E o:E x:U y:U yes:P no:P", {"0": "z", "1": "o"}, rules=[
            ("z", [], ["x"]), ("o", [], ["x", "y"]),
            ("x", [], ["yes"]), ("y", [(1, "eq", [])], ["no"]),
            ("y", [], ["yes"])], accepting=(["yes"],))
    b = rule_automaton(
        "s:E yes:P no:P", {"0": "s", "1": "yes"}, rules=[
            ("s", [(1, "supseteq", ["yes"])], ["yes"]),
            ("s", [], ["yes", "no"])], accepting=(["yes"],))
    union(a, b)
    assert len(calls) == 2  # one region walk per operand
    calls.clear()
    d = make(1, 1, ["0", "1"], [(1, 0, 1)])
    for _ in range(2):
        for x in (a, b):
            assert validate_alt(x) is validate_alt(x)
            assert length(x) == max(validate_alt(x).values())
            decide_acceptance_alt(x, d)
    assert not calls
