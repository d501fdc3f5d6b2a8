import itertools
import random
import zlib

import pytest

from disto import automata, zoo
from disto.automata import (AutomatonClass, DistributedAutomaton,
                            ForgetfulAutomaton, Guard, HorizonExceeded,
                            InitializationError, Rule, RuleDelta, RuleDelta1,
                            UnmatchedTransition, classify,
                            decide_acceptance_sync, forgetful_run,
                            monovisioned_transform, state_diagram, sync_run)
from disto.graphs import Digraph, dipath, make

import gens


def constant_automaton():
    return DistributedAutomaton(
        states=("q0",), rels=1, init={"": "q0"},
        accepting=frozenset(), delta=lambda q, n: "q0")


def test_fixed_point_run_single_node():
    d = make(0, 1, [""], [])
    run = sync_run(constant_automaton(), d)
    assert (run.prefix, run.period) == (0, 1)
    assert run.configs == (("q0",),)


def test_wave_propagates_one_node_per_round():
    # 0-bit dipath; state counts the wavefront coming from the source
    def delta(q, nvec):
        received = nvec[0]
        if q == "idle" and (not received or "go" in received):
            return "go"
        return q

    a = DistributedAutomaton(states=("idle", "go"), rels=1,
                             init={"": "idle"}, accepting=frozenset({"go"}),
                             delta=delta)
    run = sync_run(a, dipath(3).digraph)
    assert run.configs[0] == ("idle", "idle", "idle")
    assert run.configs[1] == ("go", "idle", "idle")
    assert run.configs[2] == ("go", "go", "idle")
    assert run.configs[3] == ("go", "go", "go")


def test_reachability_automaton_never_leaves_state_1_on_loop():
    a = zoo.reachability_automaton()
    d = make(1, 1, ["1"], [(1, 0, 0)])
    run = sync_run(a, d)
    assert run.visited_states(0) == {"1"}


def test_missing_label_raises():
    a = zoo.reachability_automaton()
    with pytest.raises(InitializationError):
        sync_run(a, make(2, 1, ["00"], []))


def test_acceptance_at_time_zero():
    a = DistributedAutomaton(states=("q",), rels=1, init={"": "q"},
                             accepting=frozenset({"q"}),
                             delta=lambda q, n: "q")
    assert decide_acceptance_sync(a, make(0, 1, [""], [], point=0))


def test_empty_accepting_set_rejects():
    assert not decide_acceptance_sync(
        constant_automaton(), make(0, 1, [""], [], point=0))


def test_compiled_mu_acceptance_on_edge():
    from disto.mucompile import compile_mu_to_aqda
    a = compile_mu_to_aqda(zoo.reachability_mu_system())
    pd = make(1, 1, ["1", "0"], [(1, 0, 1)], point=1)
    assert decide_acceptance_sync(a, pd)


def test_determinism():
    a = zoo.reachability_automaton()
    d = make(1, 1, ["1", "0", "0"], [(1, 0, 1), (1, 1, 2), (1, 2, 1)])
    assert sync_run(a, d).configs == sync_run(a, d).configs


def test_lasso_soundness():
    a = zoo.reachability_automaton()
    d = make(1, 1, ["1", "0", "0"], [(1, 0, 1), (1, 1, 2), (1, 2, 1)])
    run = sync_run(a, d)
    long = sync_run(a, d, horizon=run.prefix + 3 * run.period + 2)
    for t in range(run.prefix + run.period, len(long.configs)):
        assert long.configs[t] == long.configs[t - run.period]
    for t in range(len(long.configs)):
        assert long.configs[t] == tuple(run.state_at(t, v)
                                        for v in d.nodes())


def test_classify_examples():
    a = zoo.reachability_automaton()
    cls = classify(a)
    assert cls.is_quasi_acyclic and not cls.is_local

    swap = DistributedAutomaton(
        states=("a", "b"), rels=1, init={"": "a"}, accepting=frozenset(),
        delta=lambda q, n: "b" if q == "a" else "a")
    assert not classify(swap).is_quasi_acyclic

    dag_plus_loops = DistributedAutomaton(
        states=("a", "b"), rels=1, init={"": "a"}, accepting=frozenset(),
        delta=lambda q, n: "b" if (q == "a" and n[0]) else q)
    assert classify(dag_plus_loops).is_quasi_acyclic


def test_local_implies_quasi_acyclic_invariant():
    with pytest.raises(ValueError):
        AutomatonClass(is_local=True, is_quasi_acyclic=False,
                       is_monovisioned=False)


def test_quasi_acyclic_stabilization_bound():
    rng = random.Random(5)
    a = zoo.reachability_automaton()
    for _ in range(20):
        d = gens.random_digraph(rng, 4, bits=1)
        run = sync_run(a, d)
        assert run.prefix + (run.period == 1) <= d.n * (len(a.states) - 1) + 1
        assert run.period == 1  # quasi-acyclic runs stabilize


def test_backward_bisimulation_invariance():
    rng = random.Random(6)
    a = zoo.reachability_automaton()
    for _ in range(25):
        d = gens.random_digraph(rng, 4, bits=1)
        point = rng.randrange(d.n)
        dup = rng.randrange(d.n)
        # duplicate node `dup` with identical label and edge pattern
        new = d.n
        edges = set(d.edges)
        for (r, s, t) in d.edges:
            if s == dup:
                edges.add((r, new, t))
            if t == dup:
                edges.add((r, s, new))
        if (1, dup, dup) in d.edges:
            edges.add((1, new, new))
        d2 = make(1, 1, list(d.labels) + [d.label(dup)], sorted(edges))
        assert (decide_acceptance_sync(a, d.at(point))
                == decide_acceptance_sync(a, d2.at(point)))


def test_forgetful_run_and_independence():
    fda = zoo.balanced_tree_fda()
    # two disconnected components: relabeling a non-ancestor cannot matter
    base = make(0, 2, ["", "", ""], [(1, 1, 0)])
    run1 = automata.forgetful_run(fda, base)
    seq1 = [run1.state_at(t, 0) for t in range(4)]
    # node 2 is isolated; attach a child to it instead
    other = make(0, 2, ["", "", "", ""], [(1, 1, 0), (1, 3, 2)])
    run2 = automata.forgetful_run(fda, other)
    seq2 = [run2.state_at(t, 0) for t in range(4)]
    assert seq1 == seq2


def test_forgetful_single_node_recurrence():
    fda = zoo.balanced_tree_fda()
    d = make(0, 2, [""], [])
    run = automata.forgetful_run(fda, d)
    assert run.configs[0] == ("w",)
    assert run.configs[1] == ("f",)
    assert all(s == "f" for s in run.visited_states(0) - {"w"})


def test_monovisioned_transform_class_and_dipaths():
    a = zoo.reachability_automaton()
    mono = monovisioned_transform(a)
    assert classify(mono).is_monovisioned
    for n in range(1, 6):
        for labels in (["0"] * n, ["1"] * n, ["1"] + ["0"] * (n - 1)):
            pd = dipath(n, labels=list(labels))
            assert (decide_acceptance_sync(a, pd)
                    == decide_acceptance_sync(mono, pd))


def test_monovisioned_double_transform_idempotent_on_class():
    mono = monovisioned_transform(zoo.reachability_automaton())
    again = monovisioned_transform(mono)
    assert classify(again).is_monovisioned
    pd = dipath(3, labels=["1", "0", "0"])
    assert (decide_acceptance_sync(mono, pd)
            == decide_acceptance_sync(again, pd))


def test_monovisioned_sink_on_two_distinct_neighbors():
    a = zoo.reachability_automaton()
    mono = monovisioned_transform(a)
    d = make(1, 1, ["1", "0", "0"], [(1, 0, 2), (1, 1, 2)])
    run = sync_run(mono, d)
    assert run.state_at(1, 2) == "_sink"
    assert run.state_at(2, 2) == "_sink"


def test_json_roundtrip():
    a = zoo.reachability_automaton()
    obj = automata.to_json_dict(a)
    back = automata.from_json_dict(obj)
    assert automata.to_json_dict(back) == obj
    d = make(1, 1, ["1", "0"], [(1, 0, 1)])
    assert sync_run(a, d).configs == sync_run(back, d).configs


def test_rule_order_first_match_wins():
    rules = [Rule("a", (Guard(1, "subseteq", frozenset({"a"})),), "b"),
             Rule("a", (Guard(1, "any", frozenset()),), "c"),
             Rule("b", (Guard(1, "any", frozenset()),), "b"),
             Rule("c", (Guard(1, "any", frozenset()),), "c")]
    a = DistributedAutomaton(states=("a", "b", "c"), rels=1,
                             init={"": "a"}, accepting=frozenset(),
                             delta=RuleDelta(rules))
    assert a.step("a", (frozenset(),)) == "b"
    assert a.step("a", (frozenset({"b"}),)) == "c"


def test_totality_validation():
    assert automata.validate_total(zoo.reachability_automaton()) is None
    partial = DistributedAutomaton(
        states=("a", "b"), rels=1, init={"": "a"}, accepting=frozenset(),
        delta=RuleDelta([
            Rule("a", (Guard(1, "eq", frozenset()),), "b"),
            Rule("b", (Guard(1, "any", frozenset()),), "b")]))
    missing = automata.validate_total(partial)
    assert missing is not None and missing[0] == "a"


def test_state_diagram_and_accepted_nodes():
    a = zoo.reachability_automaton()
    diagram = state_diagram(a)
    assert "3" in diagram["1"] and "5" in diagram["3"]
    d = make(1, 1, ["1", "0"], [(1, 0, 1)])
    assert automata.accepted_nodes(a, d) == {0, 1}


# ---------------------------------------------------------------------------
# The interned round loop against a plain reference loop: string states,
# frozenset neighbourhoods read straight off the edge set, the same lasso
# rule, and the automaton's delta called without any memo.

def reference_run(d, initial, next_state, horizon="auto",
                  cap=automata.DEFAULT_HORIZON_CAP):
    def nvec(conf, v):
        return tuple(frozenset(conf[s] for (r, s, t) in d.edges
                               if r == i and t == v)
                     for i in range(1, d.rels + 1))

    conf = tuple(initial)
    seen = {conf: 0}
    configs = [conf]
    limit = cap if horizon == "auto" else min(horizon, cap)
    for t in range(1, limit + 1):
        conf = tuple(next_state(conf, v, nvec(conf, v)) for v in d.nodes())
        if horizon == "auto":
            if conf in seen:
                return tuple(configs), seen[conf], t - seen[conf]
            seen[conf] = t
        configs.append(conf)
        if horizon != "auto" and t == limit:
            return tuple(configs), t, 1
    raise HorizonExceeded


def _pick(options, salt, *parts):
    """A fixed pseudo-random choice from the canonical form of ``parts``,
    independent of call order and of the hash seed."""
    canon = repr([sorted(p) if isinstance(p, frozenset) else p
                  for p in parts])
    return options[zlib.crc32(f"{salt}:{canon}".encode()) % len(options)]


def random_sync_automaton(rng, rels, bits):
    states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
    salt = rng.random()
    labels = ["".join(c) for c in itertools.product("01", repeat=bits)]
    return DistributedAutomaton(
        states=states, rels=rels,
        init={x: rng.choice(states) for x in labels},
        accepting=frozenset(q for q in states if rng.random() < 0.5),
        delta=lambda q, nvec: _pick(states, salt, q, *nvec))


def random_forgetful_automaton(rng, rels, bits):
    states = tuple(f"p{i}" for i in range(rng.randint(1, 4)))
    salt = rng.random()
    letters = ["".join(c) for c in itertools.product("01", repeat=bits)]
    return ForgetfulAutomaton(
        states=states, rels=rels, initial=rng.choice(states),
        deltas={x: (lambda nvec, x=x: _pick(states, salt, x, *nvec))
                for x in letters},
        accepting=frozenset(q for q in states if rng.random() < 0.5))


def _as_tuple(run):
    return run.configs, run.prefix, run.period


@pytest.mark.parametrize("rels,bits", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_interned_runs_match_reference_loop(rels, bits):
    rng = random.Random(1000 * rels + bits)
    for _ in range(6):
        sa = random_sync_automaton(rng, rels, bits)
        fa = random_forgetful_automaton(rng, rels, bits)
        # several digraphs per automaton: later runs hit a warm memo
        for _ in range(8):
            d = gens.random_digraph(rng, 6, bits=bits, rels=rels,
                                    edge_p=rng.choice((0.15, 0.4)))
            sync_initial = [sa.init[x] for x in d.labels]

            def sync_next(conf, v, nvec):
                return sa.delta(conf[v], nvec)

            def forgetful_next(conf, v, nvec):
                return fa.deltas[d.label(v)](nvec)

            cases = [(sa, sync_run, sync_initial, sync_next),
                     (fa, forgetful_run, [fa.initial] * d.n, forgetful_next)]
            for a, run, initial, next_state in cases:
                want = reference_run(d, initial, next_state)
                assert _as_tuple(run(a, d)) == want
                horizon = rng.randint(1, 8)
                assert (_as_tuple(run(a, d, horizon=horizon))
                        == reference_run(d, initial, next_state, horizon))
                # the lasso closes at round prefix + period: one less is
                # past the cap, exactly that many is within it
                closes = want[1] + want[2]
                with pytest.raises(HorizonExceeded):
                    run(a, d, cap=closes - 1)
                assert _as_tuple(run(a, d, cap=closes)) == want
                with pytest.raises(HorizonExceeded):
                    run(a, d, horizon=0)


def test_partial_rule_delta_raises_unmatched_transition():
    a = DistributedAutomaton(
        states=("a", "b"), rels=1, init={"": "a"}, accepting=frozenset(),
        delta=RuleDelta([Rule("a", (Guard(1, "eq", frozenset()),), "b"),
                         Rule("b", (Guard(1, "any", frozenset()),), "b")]))
    assert sync_run(a, make(0, 1, [""], [])).configs == (("a",), ("b",))
    with pytest.raises(UnmatchedTransition):
        sync_run(a, make(0, 1, ["", ""], [(1, 0, 1)]))
    # the failed transition left nothing behind in the memo
    with pytest.raises(UnmatchedTransition):
        sync_run(a, make(0, 1, ["", ""], [(1, 0, 1)]))


def test_partial_forgetful_rules_raise_unmatched_transition():
    fa = ForgetfulAutomaton(
        states=("a", "b"), rels=1, initial="a",
        deltas={"": RuleDelta1([Rule("", (Guard(1, "eq", frozenset()),),
                                     "b")])},
        accepting=frozenset())
    assert forgetful_run(fa, make(0, 1, [""], [])).configs == (("a",), ("b",))
    with pytest.raises(UnmatchedTransition):
        forgetful_run(fa, make(0, 1, ["", ""], [(1, 0, 1)]))


def test_delta_to_undeclared_state_raises():
    a = DistributedAutomaton(
        states=("a",), rels=1, init={"": "a"}, accepting=frozenset(),
        delta=lambda q, nvec: "z")
    with pytest.raises(UnmatchedTransition, match="unknown state"):
        sync_run(a, make(0, 1, [""], []))


def test_missing_letter_raises_in_forgetful_run():
    fa = ForgetfulAutomaton(states=("a",), rels=1, initial="a",
                            deltas={"0": lambda nvec: "a"},
                            accepting=frozenset())
    with pytest.raises(InitializationError):
        forgetful_run(fa, make(1, 1, ["0", "1"], []))


def test_unknown_relation_index_is_refused():
    a = constant_automaton()
    with pytest.raises(ValueError, match="unknown relation"):
        sync_run(a, Digraph(0, 1, ("", ""), frozenset({(2, 0, 1)})))
