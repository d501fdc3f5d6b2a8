import random

import pytest

from disto import automata, graphs, zoo
from disto.automata import (DistributedAutomaton, ForgetfulAutomaton,
                            decide_acceptance_forgetful, forgetful_run)
from disto.decision import (WitnessError, bounded_ditree_search,
                            forgetful_emptiness, forgetful_witness,
                            reachable_state_sets)
from disto.graphs import OracleBoundError, enumerate_digraphs

import gens


def fda_const(accepting=()):
    return ForgetfulAutomaton(
        states=("q0", "q1"), rels=1, initial="q0",
        letters=("",), delta=lambda x, nvec: "q1",
        accepting=frozenset(accepting))


def test_initial_state_accepting_is_nonempty_at_zero():
    v = forgetful_emptiness(fda_const(accepting=("q0",)))
    assert (v.empty, v.time, v.state) == (False, 0, "q0")


def test_empty_accepting_set_is_empty():
    assert forgetful_emptiness(fda_const()).empty


def two_neighbor_automaton():
    """Accepting state requires two distinct neighbor states at once,
    first reachable at time 2."""
    def fn(letter, nvec):
        received = nvec[0]
        if received == {"a", "b"}:
            return "win"
        if received <= {"q0", "win"} and received:
            return "a"
        return "b"

    return ForgetfulAutomaton(
        states=("q0", "a", "b", "win"), rels=1, initial="q0",
        letters=("",), delta=fn, accepting=frozenset({"win"}))


def test_two_neighbor_automaton_nonempty_at_two():
    a = two_neighbor_automaton()
    v = forgetful_emptiness(a)
    assert not v.empty
    assert (v.time, v.state) == (2, "win")


def test_emptiness_matches_a_plain_sigma_iteration():
    """The verdict read off the Sigma lasso equals iterating delta-hat for
    2^|Q| steps and stopping at the first accepting state."""
    rng = random.Random(400)
    for _ in range(400):
        a = gens.random_fda(rng, max_states=5)
        want, current = (True, None, None), frozenset({a.initial})
        for t in range(2 ** len(a.states) + 1):
            if t:
                current = frozenset(
                    a.step(x, (n,)) for x in a.letters
                    for n in graphs.subsets(sorted(current)))
            hit = sorted(current & a.accepting)
            if hit:
                want = (False, t, hit[0])
                break
        v = forgetful_emptiness(a)
        assert (v.empty, v.time, v.state) == want


def test_state_set_sequence_periodic():
    a = two_neighbor_automaton()
    seq = reachable_state_sets(a)
    assert seq.at(0) == {"q0"}
    assert seq.at(1) == {"a", "b"}
    for t in range(seq.prefix, seq.prefix + 3 * seq.period):
        assert seq.at(t) == seq.at(t + seq.period)


def test_witness_time_zero():
    w = forgetful_witness(fda_const(accepting=("q0",)), 0, "q0")
    assert w.digraph.n == 1


def test_witness_time_one_single_node():
    a = fda_const(accepting=("q1",))
    w = forgetful_witness(a, 1, "q1")
    run = forgetful_run(a, w.digraph)
    assert run.state_at(1, w.point) == "q1"


def test_witness_fanin_automaton():
    a = two_neighbor_automaton()
    w = forgetful_witness(a, 2, "win")
    run = forgetful_run(a, w.digraph)
    assert run.state_at(2, w.point) == "win"
    assert w.digraph.n >= 3
    assert decide_acceptance_forgetful(a, w)


def test_witness_inconsistent_request():
    with pytest.raises(WitnessError):
        forgetful_witness(fda_const(), 0, "q1")


def test_sigma_soundness_and_witness_exactness():
    rng = random.Random(64)
    for _ in range(12):
        a = gens.random_fda(rng)
        seq = reachable_state_sets(a)
        # superset of everything observed on digraphs with <= 3 nodes
        observed = {t: set() for t in range(5)}
        for d in enumerate_digraphs(3, bits=1, rels=1):
            run = automata.forgetful_run(a, d)
            for t in range(5):
                for v in d.nodes():
                    observed[t].add(run.state_at(t, v))
        for t in range(5):
            assert observed[t] <= seq.at(t)
        # exactness: every claimed state is realized by its witness
        for t in range(5):
            for q in seq.at(t):
                w = forgetful_witness(a, t, q)
                run = forgetful_run(a, w.digraph)
                assert run.state_at(t, w.point) == q


def test_ditree_search_always_accepting():
    a = DistributedAutomaton(
        states=("q",), rels=1, init={"": "q"}, accepting=frozenset({"q"}),
        delta=lambda q, n: "q")
    found = bounded_ditree_search(a, 3)
    assert found is not None and found.digraph.n == 1


def test_ditree_search_nothing_for_empty():
    a = DistributedAutomaton(
        states=("q",), rels=1, init={"": "q"}, accepting=frozenset(),
        delta=lambda q, n: "q")
    assert bounded_ditree_search(a, 3) is None


def test_ditree_search_bound_cap():
    a = DistributedAutomaton(
        states=("q",), rels=1, init={"": "q"}, accepting=frozenset(),
        delta=lambda q, n: "q")
    with pytest.raises(OracleBoundError):
        bounded_ditree_search(a, 9)


def test_ditree_search_forgetful_agrees_with_emptiness():
    rng = random.Random(65)
    for _ in range(10):
        a = gens.random_fda(rng)
        verdict = forgetful_emptiness(a)
        found = bounded_ditree_search(a, 3)
        if found is not None:
            assert not verdict.empty
            assert decide_acceptance_forgetful(a, found)
        if verdict.empty:
            assert found is None


def test_tm_search_finds_dipath_witness():
    from disto.reductions import tm_to_da
    m = zoo.sample_turing_machines()[1]  # halts in 2 steps
    mono = automata.monovisioned_transform(tm_to_da(m))
    found = bounded_ditree_search(mono, 4)
    assert found is not None
    assert graphs.is_dipath(found)
    assert found.digraph.n == 2
