import itertools
import random
import re
import zlib

import pytest

from disto import alternating as alt
from disto import automata, zoo
from disto.automata import (AutomatonClass, DistributedAutomaton,
                            ForgetfulAutomaton, Guard, HorizonExceeded,
                            InitializationError, Rule, RuleDelta,
                            UnmatchedTransition, all_nvecs, classify,
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


ROUND_TRIP_RULES = [
    {"guards": [{"rel": 1, "op": "subseteq", "set": ["a"]},
                {"rel": 2, "op": "supseteq", "set": ["a", "b"]}], "to": "b"},
    {"guards": [{"rel": 2, "op": "eq", "set": []}], "to": "a"},
    {"guards": [{"rel": 1, "op": "any", "set": []}], "to": "a"},
]
ROUND_TRIPS = [
    (automata.from_json_dict, automata.to_json_dict, {
        "states": ["a", "b"], "relations": 2, "init": {"0": "a", "1": "b"},
        "accepting": ["b"],
        "rules": [{"from": q, **row} for q in "ab"
                  for row in ROUND_TRIP_RULES]}),
    (automata.forgetful_from_json_dict, automata.forgetful_to_json_dict, {
        "states": ["a", "b"], "relations": 2, "initial": "a",
        "accepting": ["b"],
        "delta": {"0": ROUND_TRIP_RULES, "1": ROUND_TRIP_RULES[1:]}}),
    (alt.from_json_dict, alt.to_json_dict, {
        "states": [{"name": "a", "kind": "E"}, {"name": "b", "kind": "P"}],
        "relations": 2, "init": {"0": "a", "1": "b"},
        "rules": [{"from": q, **row, "to": ["a", "b"][:i + 1]}
                  for q in "ab" for i, row in enumerate(ROUND_TRIP_RULES)],
        "accepting_sets": [["a"], ["a", "b"]]}),
]


@pytest.mark.parametrize("load,write,obj", ROUND_TRIPS)
def test_json_round_trip_of_each_kind(load, write, obj):
    assert write(load(obj)) == obj


def _holds(guard, nvec):
    received, want = nvec[guard["rel"] - 1], set(guard["set"])
    return {"subseteq": received <= want, "supseteq": received >= want,
            "eq": received == want, "any": True}[guard["op"]]


def _first_match(rows, nvec):
    """The plain reading of a rule list: the first row whose guards hold."""
    for row in rows:
        if all(_holds(g, nvec) for g in row["guards"]):
            return row["to"]
    return None


def _random_rule_file(rng, kind):
    """A rule file over 1-2 relations and 1-4 states; about half of the
    sources have no catch-all row, so some neighbourhoods match nothing."""
    rels = rng.randint(1, 2)
    states = [f"q{i}" for i in range(rng.randint(1, 4))]

    def subset(least):
        return sorted(rng.sample(states, rng.randint(least, len(states))))

    def target():
        return subset(1) if kind == "alternating" else rng.choice(states)

    def rows():
        out = [{"guards": [{"rel": rng.randint(1, rels),
                            "op": rng.choice(("subseteq", "supseteq", "eq",
                                              "any")),
                            "set": subset(0)}
                           for _ in range(rng.randint(1, 2))],
                "to": target()} for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            out.append({"guards": [], "to": target()})
        return out

    if kind == "forgetful":
        return {"states": states, "relations": rels, "initial": states[0],
                "accepting": states[:1],
                "delta": {x: rows() for x in ("0", "1")}}
    rules = [{"from": q, **row} for q in states for row in rows()]
    if kind == "distributed":
        return {"states": states, "relations": rels, "init": {"0": states[0]},
                "accepting": states[:1], "rules": rules}
    kinds = [rng.choice("EUP") for _ in states[1:]] + ["P"]
    return {"states": [{"name": q, "kind": k} for q, k in zip(states, kinds)],
            "relations": rels, "init": {"0": states[0]}, "rules": rules,
            "accepting_sets": [states[:1]]}


@pytest.mark.parametrize("kind", ["distributed", "forgetful", "alternating"])
def test_rule_table_matches_a_plain_first_match_loop(kind):
    rng = random.Random(f"rule-table-{kind}")
    for _ in range(40):
        obj = _random_rule_file(rng, kind)
        if kind == "forgetful":
            a = automata.forgetful_from_json_dict(obj)
            tables = obj["delta"]
        else:
            load = (automata.from_json_dict if kind == "distributed"
                    else alt.from_json_dict)
            a = load(obj)
            tables = {q: [r for r in obj["rules"] if r["from"] == q]
                      for q in a.states}
        unmatched = alt.AltError if kind == "alternating" else \
            UnmatchedTransition
        for src, rows in tables.items():
            for nvec in all_nvecs(a.states, a.rels):
                want = _first_match(rows, nvec)
                if want is None:
                    with pytest.raises(unmatched):
                        a.step(src, nvec)
                elif kind == "alternating":
                    assert a.step(src, nvec) == frozenset(want)
                else:
                    assert a.step(src, nvec) == want


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
        letters=letters,
        delta=lambda x, nvec: _pick(states, salt, x, *nvec),
        accepting=frozenset(q for q in states if rng.random() < 0.5))


def _as_tuple(run):
    return run.configs, run.prefix, run.period


def _sync_case(a, d):
    return (a, sync_run, d, [a.init[x] for x in d.labels],
            lambda conf, v, nvec: a.delta(conf[v], nvec))


def _forgetful_case(fa, d):
    return (fa, forgetful_run, d, [fa.initial] * d.n,
            lambda conf, v, nvec: fa.delta(d.label(v), nvec))


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
            for a, run, _, initial, next_state in (_sync_case(sa, d),
                                                   _forgetful_case(fa, d)):
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


def _oscillator():
    """A source flips between a and b; every other node copies the state
    it receives, so a wave of changes runs down a dipath forever."""
    def delta(q, nvec):
        if not nvec[0]:
            return "b" if q == "a" else "a"
        return min(nvec[0])
    return DistributedAutomaton(states=("a", "b"), rels=1, init={"": "a"},
                                accepting=frozenset({"b"}), delta=delta)


def _two_relation_case():
    # nodes 0 and 1 are joined in both relations, 1 and 2 in relation 2
    rng = random.Random(7)
    a = random_sync_automaton(rng, 2, 0)
    d = make(0, 2, [""] * 4, [(1, 0, 1), (2, 0, 1), (2, 1, 2), (1, 3, 3)])
    return _sync_case(a, d)


_LOOP_CASES = {
    "period-2-oscillator": lambda: _sync_case(_oscillator(),
                                              dipath(6).digraph),
    "settles-before-the-horizon": lambda: _sync_case(
        zoo.reachability_automaton(),
        dipath(5, labels=["1", "0", "0", "0", "0"]).digraph),
    "forgetful-wave": lambda: _forgetful_case(
        zoo.balanced_tree_fda(),
        make(0, 2, [""] * 5, [(1, 1, 0), (2, 2, 0), (1, 3, 1), (2, 4, 1)])),
    "forgetful-random": lambda: _forgetful_case(
        random_forgetful_automaton(random.Random(3), 1, 1),
        gens.random_digraph(random.Random(4), 7, bits=1, edge_p=0.3)),
    "pair-joined-in-two-relations": _two_relation_case,
}


@pytest.mark.parametrize("case", list(_LOOP_CASES))
def test_change_driven_loop_matches_reference_loop(case):
    a, run, d, initial, next_state = _LOOP_CASES[case]()
    want = reference_run(d, initial, next_state)
    got = run(a, d)
    assert _as_tuple(got) == want
    closes = want[1] + want[2]
    with pytest.raises(HorizonExceeded):
        run(a, d, cap=closes - 1)
    # a bounded window past the lasso: from the settling round on no node
    # is left to recompute
    horizon = closes + 3
    assert (_as_tuple(run(a, d, horizon=horizon))
            == reference_run(d, initial, next_state, horizon))
    # the result decodes its interned configurations on demand
    decoded = tuple(tuple(got.names[i] for i in c) for c in got.ids)
    assert got.configs == decoded == want[0]
    for v in d.nodes():
        assert got.visited_states(v) == {c[v] for c in decoded}
        for t in range(closes + 2 * got.period):
            u = t if t < len(decoded) else (
                got.prefix + (t - got.prefix) % got.period)
            assert got.state_at(t, v) == decoded[u][v]


def test_oscillator_and_settled_runs_have_the_expected_lassos():
    assert _as_tuple(sync_run(_oscillator(), dipath(3).digraph))[1:] == (2, 2)
    d = dipath(5, labels=["1", "0", "0", "0", "0"]).digraph
    run = sync_run(zoo.reachability_automaton(), d)
    assert run.period == 1 and run.prefix < 8
    bounded = sync_run(zoo.reachability_automaton(), d, horizon=8)
    assert (bounded.prefix, bounded.period) == (8, 1)
    assert bounded.configs[run.prefix:] == (run.configs[-1],) * (9 - run.prefix)


def test_unmatched_transition_names_the_lowest_failing_node():
    # round 2: node 1 receives {x} and node 3 receives {y}, and idle has
    # no rule for either; the plain loop meets node 1 first
    def eq(*states):
        return (Guard(1, "eq", frozenset(states)),)

    any_ = (Guard(1, "any", frozenset()),)
    a = DistributedAutomaton(
        states=("idle", "go", "run", "x", "y"), rels=1,
        init={"00": "idle", "01": "go", "10": "run"}, accepting=frozenset(),
        delta=RuleDelta([Rule("go", any_, "x"), Rule("run", any_, "y"),
                         Rule("x", any_, "x"), Rule("y", any_, "y"),
                         Rule("idle", eq("go"), "idle"),
                         Rule("idle", eq("run"), "idle")]))
    d = make(2, 1, ["10", "00", "01", "00"], [(1, 2, 1), (1, 0, 3)])
    _, _, _, initial, next_state = _sync_case(a, d)
    with pytest.raises(UnmatchedTransition) as want:
        reference_run(d, initial, next_state)
    with pytest.raises(UnmatchedTransition) as got:
        sync_run(a, d)
    assert str(got.value) == str(want.value)
    assert "'idle' with (frozenset({'x'}),)" in str(got.value)


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
        letters=("",),
        delta=RuleDelta([Rule("", (Guard(1, "eq", frozenset()),), "b")]),
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
                            letters=("0",), delta=lambda x, nvec: "a",
                            accepting=frozenset())
    with pytest.raises(InitializationError):
        forgetful_run(fa, make(1, 1, ["0", "1"], []))


def test_forgetful_target_outside_its_states_raises():
    fa = automata.forgetful_from_json_dict({
        "states": ["q"], "relations": 1, "initial": "q", "accepting": [],
        "delta": {"": [{"guards": [], "to": "ghost"}]}})
    with pytest.raises(UnmatchedTransition, match="ghost"):
        forgetful_run(fa, make(0, 1, [""], []))


@pytest.mark.parametrize("initial,accepting,message", [
    ("ghost", ("q",), "initial state 'ghost' not in state set"),
    ("q", ("ghost",), "accepting states frozenset({'ghost'}) not in state set")])
def test_forgetful_states_outside_the_state_set_are_refused(
        initial, accepting, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ForgetfulAutomaton(states=("q",), rels=1, initial=initial,
                           letters=("",), delta=lambda x, nvec: "q",
                           accepting=frozenset(accepting))


def test_forgetful_run_refuses_a_relation_count_mismatch():
    with pytest.raises(ValueError,
                       match="automaton has 2 relations, digraph 1"):
        forgetful_run(zoo.balanced_tree_fda(), dipath(3).digraph)


def test_unknown_relation_index_is_refused():
    a = constant_automaton()
    with pytest.raises(ValueError, match="unknown relation"):
        sync_run(a, Digraph(0, 1, ("", ""), frozenset({(2, 0, 1)})))
