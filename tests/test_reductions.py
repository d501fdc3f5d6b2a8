import itertools
import random

import pytest

from disto import reductions, zoo
from disto.automata import (decide_acceptance_forgetful,
                            decide_acceptance_sync, forgetful_run,
                            monovisioned_transform, sync_run)
from disto.graphs import LimitExceeded, dipath, enumerate_ordered_ditrees, make
from disto.reductions import (Dfa, TreeAutomaton, TuringMachine,
                              dfa_from_json_dict, dfa_json_dict, dfa_to_fda,
                              fda_to_dfa, ta_from_json_dict, ta_json_dict,
                              tm_from_json_dict, tm_json_dict, tm_to_da,
                              treeautomaton_to_fda, word_to_dipath)

import gens


def all_words(max_len, alphabet=("0", "1")):
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def sigma_star_dfa():
    return Dfa(states=("s",), initial="s",
               delta={("s", "0"): "s", ("s", "1"): "s"},
               accepting=frozenset({"s"}))


def test_sigma_star_fda_accepts_everything():
    fda = dfa_to_fda(sigma_star_dfa())
    for word in all_words(4):
        assert decide_acceptance_forgetful(fda, word_to_dipath(word))


def test_empty_dfa_fda_accepts_nothing():
    b = Dfa(states=("s",), initial="s",
            delta={("s", "0"): "s", ("s", "1"): "s"},
            accepting=frozenset())
    fda = dfa_to_fda(b)
    for word in all_words(4):
        assert not decide_acceptance_forgetful(fda, word_to_dipath(word))


def test_even_ones_bridge_both_directions():
    b = Dfa(states=("e", "o"), initial="e",
            delta={("e", "0"): "e", ("e", "1"): "o",
                   ("o", "0"): "o", ("o", "1"): "e"},
            accepting=frozenset({"e"}))
    fda = dfa_to_fda(b)
    back = fda_to_dfa(fda)
    for word in all_words(8):
        want = b.accepts(word)
        assert decide_acceptance_forgetful(fda, word_to_dipath(word)) == want
        assert back.accepts(word) == want


def test_dfa_bridge_waits_in_a_state_the_dfa_does_not_name():
    # a wait state spelled "~" would be read as the DFA's state "~"
    b = Dfa(states=("~", "a"), initial="~",
            delta={("~", "0"): "a", ("a", "0"): "~"},
            accepting=frozenset({"a"}))
    fda = dfa_to_fda(b)
    assert "~~" in fda.states and fda.initial == "~~"
    assert not b.accepts(("0", "0"))
    for word in all_words(5, alphabet=("0",)):
        assert (decide_acceptance_forgetful(fda, word_to_dipath(word))
                == b.accepts(word))


def test_initial_accepting_fda_gives_total_dfa():
    fda = gens.random_fda(random.Random(7), max_states=3)
    fda = type(fda)(states=fda.states, rels=1, initial=fda.initial,
                    letters=fda.letters, delta=fda.delta,
                    accepting=frozenset({fda.initial}))
    back = fda_to_dfa(fda)
    for word in all_words(5):
        assert back.accepts(word)  # the visited set always holds q0


def test_random_bridges(mu_corpus):
    rng = random.Random(71)
    for _ in range(6):
        b = gens.random_dfa(rng)
        fda = dfa_to_fda(b)
        for word in all_words(6):
            assert (decide_acceptance_forgetful(fda, word_to_dipath(word))
                    == b.accepts(word))
    for _ in range(6):
        a = gens.random_fda(rng)
        back = fda_to_dfa(a)
        for word in all_words(6):
            assert (back.accepts(word)
                    == decide_acceptance_forgetful(a, word_to_dipath(word)))


def test_balanced_fda_on_dipaths_matches_its_dfa():
    fda = zoo.balanced_tree_fda()
    # restrict to unary trees: a 2-relational automaton on dipaths needs a
    # 1-relational wrapper
    uni = type(fda)(
        states=fda.states, rels=1, initial=fda.initial,
        letters=("",),
        delta=lambda x, nvec: fda.delta(x, (nvec[0], frozenset())),
        accepting=fda.accepting)
    back = fda_to_dfa(uni)
    for n in range(1, 7):
        word = ("",) * n  # unlabeled
        pd = dipath(n)
        assert (back.accepts(word)
                == decide_acceptance_forgetful(uni, pd))


# ---------------------------------------------------------------------------
# tree automata

def test_constant_accepting_ta():
    ta = gens.random_tree_automaton(random.Random(1), max_states=1,
                                    letters=("0", "1"))
    ta = type(ta)(states=ta.states, arity=2, delta=ta.delta,
                  accepting=frozenset(ta.states))
    fda = treeautomaton_to_fda(ta)
    for tree in enumerate_ordered_ditrees(4, bits=1, arity=2):
        assert decide_acceptance_forgetful(fda, tree)


def leaf_parity_ta():
    """State counts leaf parity: p0/p1."""
    delta = {}
    for letter in ("0", "1"):
        delta[((), letter)] = "p1"
        for a in ("p0", "p1"):
            delta[((a,), letter)] = a
            for b in ("p0", "p1"):
                par = "p1" if (a == "p1") != (b == "p1") else "p0"
                delta[((a, b), letter)] = par
    from disto.reductions import TreeAutomaton
    return TreeAutomaton(states=("p0", "p1"), arity=2, delta=delta,
                         accepting=frozenset({"p1"}))


def count_leaves(pd):
    d = pd.digraph
    return sum(1 for v in d.nodes()
               if not any(d.in_neighbors(i, v) for i in (1, 2)))


def test_leaf_parity_ta_bridge():
    ta = leaf_parity_ta()
    fda = treeautomaton_to_fda(ta)
    for tree in enumerate_ordered_ditrees(5, bits=1, arity=2):
        want = count_leaves(tree) % 2 == 1
        assert ta.accepts(tree) == want
        assert decide_acceptance_forgetful(fda, tree) == want


def label_parity_unary_ta():
    """Arity 1: accepts when an odd number of nodes carry label 1."""
    flip = {("e", "0"): "e", ("e", "1"): "o", ("o", "0"): "o",
            ("o", "1"): "e"}
    delta = {((), x): flip[("e", x)] for x in ("0", "1")}
    delta.update({((q,), x): out for (q, x), out in flip.items()})
    return TreeAutomaton(states=("e", "o"), arity=1, delta=delta,
                         accepting=frozenset({"o"}))


def test_tree_bridge_waits_in_a_state_the_automaton_does_not_name():
    # a wait state spelled "~" would let a node fire on its children's
    # waiting state as if they had computed "~"
    ta = TreeAutomaton(states=("~", "a"), arity=1,
                       delta={((), "0"): "~", (("~",), "0"): "a",
                              (("a",), "0"): "~"},
                       accepting=frozenset({"a"}))
    fda = treeautomaton_to_fda(ta)
    assert "~~" in fda.states and fda.initial == "~~"
    for n in range(1, 7):
        pd = word_to_dipath("0" * n)
        assert ta.accepts(pd) == (n % 2 == 0)
        assert decide_acceptance_forgetful(fda, pd) == (n % 2 == 0)


def test_tree_automaton_on_a_3000_node_dipath():
    rng = random.Random(3000)
    labels = [rng.choice("01") for _ in range(3000)]
    pd = dipath(3000, labels=labels)
    ta = label_parity_unary_ta()
    want = labels.count("1") % 2 == 1
    assert ta.accepts(pd) == want
    fda = treeautomaton_to_fda(ta)
    run = forgetful_run(fda, pd.digraph)
    # the root fires once the wave from the leaf has crossed the path
    assert (run.prefix, run.period) == (3000, 1)
    assert (run.state_at(run.prefix, pd.point) in fda.accepting) == want
    assert decide_acceptance_forgetful(fda, pd) == want


def test_tree_automaton_refuses_a_cycle():
    ta = label_parity_unary_ta()
    cycle = make(1, 1, ["0", "1"], [(1, 0, 1), (1, 1, 0)], point=1)
    with pytest.raises(ValueError, match="its own descendant"):
        ta.run_on(cycle)


def test_random_ta_bridge():
    rng = random.Random(72)
    trees = list(enumerate_ordered_ditrees(4, bits=1, arity=2))
    for _ in range(5):
        ta = gens.random_tree_automaton(rng)
        fda = treeautomaton_to_fda(ta)
        for tree in trees:
            assert ta.accepts(tree) == decide_acceptance_forgetful(fda, tree)


# ---------------------------------------------------------------------------
# Turing machines

def test_direct_simulation_halting_times():
    expected = [1, 2, 3, 4, 6]
    for m, k in zip(zoo.sample_turing_machines(), expected):
        assert m.halting_time(20) == k
    assert zoo.looping_turing_machine().halting_time(50) is None


def test_space_time_accepts_exactly_halting_length():
    for m in zoo.sample_turing_machines():
        k = m.halting_time(20)
        a = tm_to_da(m)
        for n in range(1, k + 4):
            assert decide_acceptance_sync(a, dipath(n)) == (n == k)


def test_node_streams_reproduce_machine_configurations():
    # node v of a dipath reads out configuration C_{v+1} cell by cell; check
    # every emitted cell against the direct simulator, which exercises each
    # head-movement case of the generated transition table
    for m in zoo.sample_turing_machines():
        k = m.halting_time(20)
        a = tm_to_da(m)
        n = k + 1
        run = sync_run(a, dipath(n).digraph)

        def cell(config, pos):
            state, head, cells = config
            sym = cells.get(pos, m.blank)
            return (state, sym) if pos == head else sym

        for v in range(n):
            if v + 1 > k:
                break
            config = m.config_at(v + 1)
            stream = []
            for t in range(len(run.configs)):
                third = run.state_at(t, v)[2]
                if third is not None:
                    stream.append(third)
            for pos, got in enumerate(stream[:6]):
                assert got == cell(config, pos), (v, pos)


def test_staircase_activation_pattern():
    m = zoo.sample_turing_machines()[4]
    a = tm_to_da(m)
    d = dipath(5).digraph
    run = sync_run(a, d)

    def third_active(t, v):
        return run.state_at(t, v)[2] is not None

    def second_active(t, v):
        return run.state_at(t, v)[1] is not None

    for v in range(1, 5):
        start = next(t for t in range(len(run.configs))
                     if third_active(t, v))
        trigger = next(t for t in range(len(run.configs))
                       if second_active(t, v - 1))
        assert start == trigger + 1


def test_monovisioned_preserves_dipath_verdicts():
    for m in zoo.sample_turing_machines()[:3]:
        a = tm_to_da(m)
        mono = monovisioned_transform(a)
        for n in range(1, 7):
            pd = dipath(n)
            assert (decide_acceptance_sync(a, pd)
                    == decide_acceptance_sync(mono, pd))


def test_tm_validation():
    with pytest.raises(ValueError):
        TuringMachine(states=("h",), tape=("_",), initial="h", blank="_",
                      delta={}, halt="h")


_TM_OK = dict(states=("q0", "h"), tape=("_", "x"), initial="q0", blank="_",
              delta={("q0", "_"): ("h", "x", "R")}, halt="h")


@pytest.mark.parametrize("edit,message", [
    (dict(states=("q0", "h", "q0")), "duplicate states"),
    (dict(tape=("_", "x", "x")), "duplicate states or tape symbols"),
    (dict(initial="q9"), "initial or halt state"),
    (dict(halt="q9"), "initial or halt state"),
    (dict(delta={("q9", "_"): ("h", "x", "R")}), "undeclared"),
    (dict(delta={("q0", "y"): ("h", "x", "R")}), "undeclared"),
    (dict(delta={("q0", "_"): ("q9", "x", "R")}), "undeclared"),
    (dict(delta={("q0", "_"): ("h", "y", "R")}), "undeclared"),
    (dict(delta={("q0", "_"): ("h", "x", "S")}), "other than L or R"),
], ids=["dup-state", "dup-symbol", "initial", "halt", "reads-state",
        "reads-symbol", "writes-state", "writes-symbol", "move"])
def test_tm_refuses_undeclared_names(edit, message):
    TuringMachine(**_TM_OK)
    with pytest.raises(ValueError, match=message):
        TuringMachine(**{**_TM_OK, **edit})


def test_tm_to_da_refuses_more_windows_than_its_cap():
    # (1 + 9·9 + 9)^3 = 753,571 window states; workloads.counter_tm(6),
    # the largest machine the benchmark converts, needs 17^3 = 4,913
    states = tuple(f"q{i}" for i in range(8)) + ("h",)
    tape = tuple("_abcdefgh")
    m = TuringMachine(states=states, tape=tape, initial="q0", blank="_",
                      delta={(q, s): ("h", s, "R")
                             for q in states[:-1] for s in tape}, halt="h")
    with pytest.raises(LimitExceeded, match="753571 window states; the "
                                            "cap is 100000"):
        tm_to_da(m)
    assert all((1 + len(z.states) * len(z.tape) + len(z.tape)) ** 3
               <= reductions.TM_WINDOW_LIMIT
               for z in zoo.sample_turing_machines())


def counter_tm(k: int) -> TuringMachine:
    """Writes x and moves right k times, halting at step k (the shape of
    the benchmark's ``tm2da`` machines)."""
    states = tuple(f"q{i}" for i in range(k)) + ("h",)
    return TuringMachine(states=states, tape=("_", "x"), initial="q0",
                         blank="_", halt="h",
                         delta={(states[i], s): (states[i + 1], "x", "R")
                                for i in range(k) for s in ("_", "x")})


@pytest.mark.parametrize("m", [*zoo.sample_turing_machines()[::2],
                               counter_tm(3), counter_tm(6)])
def test_tm_to_da_names_each_window_in_product_order(m):
    cellvals = ([None] + [(q, s) for q in m.states for s in m.tape]
                + list(m.tape))
    a = tm_to_da(m)
    assert a.states == tuple((x, y, z) for x in cellvals
                             for y in cellvals for z in cellvals)
    assert a.accepting == {(x, y, (m.halt, s)) for x in cellvals
                           for y in cellvals for s in m.tape}


@pytest.mark.parametrize("tape", [("_", "q1/_"), ("_", "a", "a,a"),
                                  ("_", "_")])
def test_tm_to_da_refuses_colliding_window_names(tape):
    # windows are tuples, so a symbol spelled like a headed cell ("q1/_")
    # or holding a comma names no two windows alike; only a repeated
    # symbol is refused, by the machine itself
    states = ("q0", "q1", "h")

    def machine():
        return TuringMachine(states=states, tape=tape, initial="q0",
                             blank="_", halt="h",
                             delta={(q, s): (states[i + 1], tape[-1], "R")
                                    for i, q in enumerate(states[:-1])
                                    for s in tape})

    if len(set(tape)) != len(tape):
        with pytest.raises(ValueError, match="duplicate states or tape"):
            machine()
        return
    m = machine()
    assert m.halting_time(5) == 2
    a = tm_to_da(m)
    assert [n for n in range(1, 6)
            if decide_acceptance_sync(a, dipath(n))] == [2]


def test_json_roundtrips():
    m = zoo.sample_turing_machines()[2]
    assert tm_from_json_dict(tm_json_dict(m)) == m
    b = gens.random_dfa(random.Random(5))
    assert dfa_from_json_dict(dfa_json_dict(b)) == b
    ta = leaf_parity_ta()
    assert ta_from_json_dict(ta_json_dict(ta)) == ta
