import dataclasses
import itertools
import random
import re
import zlib

import pytest

from disto import alternating as alt
from disto import automata, zoo
from disto.automata import (AutomatonClass, ClassificationInfeasible,
                            DistributedAutomaton, ForgetfulAutomaton, Guard,
                            HorizonExceeded, InitializationError, Rule,
                            RuleDelta, UnmatchedTransition, all_nvecs,
                            all_pairs, classify, decide_acceptance_sync,
                            forgetful_run, monovisioned_transform,
                            state_diagram, sync_run)
from disto.formulas import MuEvaluator
from disto.graphs import Digraph, dipath, make
from disto.mucompile import (compile_mu_to_aqda, decompile_qda_to_mu,
                             successor_map)

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
    # step the automaton itself 3 periods past the lasso: state_at, which
    # wraps around the period, must read the same configurations
    for a, d in ((zoo.reachability_automaton(),
                  make(1, 1, ["1", "0", "0"],
                       [(1, 0, 1), (1, 1, 2), (1, 2, 1)])),
                 (gens.oscillator(), dipath(3).digraph)):
        run = sync_run(a, d)
        conf = run.configs[0]
        for t in range(1, run.prefix + 4 * run.period):
            conf = tuple(a.step(conf[v], (frozenset(map(
                conf.__getitem__, d.in_neighbors(1, v))),))
                for v in d.nodes())
            assert conf == tuple(run.state_at(t, v) for v in d.nodes())


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
# The one (state, neighbourhood) enumerator against the five loops it
# replaced, kept here as they stood, less their cap checks (which have
# their own tests below) and less the totality check's shortcut for a
# catch-all row per state, which hid a catch-all's undeclared target.

def reference_validate_total(a):
    for q in a.states:
        for nvec in all_nvecs(a.states, a.rels):
            try:
                a.step(q, nvec)
            except UnmatchedTransition:
                return (q, nvec)
    return None


def reference_state_diagram(a):
    succ = {q: set() for q in a.states}
    for q in a.states:
        for nvec in all_nvecs(a.states, a.rels):
            succ[q].add(a.step(q, nvec))
    return succ


def reference_check_monovisioned(a):
    if a.rels != 1:
        return False
    for sink in set(a.states) - set(a.accepting):
        ok = True
        for q in a.states:
            for nvec in all_nvecs(a.states, a.rels):
                must = len(nvec[0]) > 1 or sink in nvec[0] or q == sink
                if must and a.step(q, nvec) != sink:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def reference_classify(a):
    succ = reference_state_diagram(a)
    quasi = not automata._has_nontrivial_cycle(succ)
    local = quasi and not any(q in succ[q] and succ[q] != {q}
                              for q in a.states)
    mono = reference_check_monovisioned(a)
    return AutomatonClass(is_local=local, is_quasi_acyclic=quasi,
                          is_monovisioned=mono)


def reference_successors_superset(a):
    nvecs = list(all_nvecs(a.states, a.rels))
    succ = {}
    for q in a.states:
        targets = set()
        for nvec in nvecs:
            targets |= a.step(q, nvec)
        succ[q] = frozenset(targets)
    return succ


def reference_is_deterministic(a):
    if not alt.is_nondeterministic(a):
        return False
    return all(len(a.step(q, nvec)) == 1
               for q in a.states for nvec in all_nvecs(a.states, a.rels))


def _outcome(f, a):
    """``f(a)``'s value, or the type and message of what it raised."""
    try:
        return f(a)
    except ValueError as e:
        return type(e), str(e)


def _distributed_corpus(mu_corpus):
    rng = random.Random("all-pairs-distributed")
    out = [automata.from_json_dict(_random_rule_file(rng, "distributed"))
           for _ in range(40)]
    out += [zoo.reachability_automaton(), zoo.synchrony_detector()]
    out += [compile_mu_to_aqda(s) for s in mu_corpus]
    # monovisioned by construction, for the check to find
    return out + [monovisioned_transform(a) for a in out[-6:]]


def _alternating_corpus():
    """Rule-file draws, ``random_nldag`` draws and the zoo, each without
    a supplied successor map, so that the enumerator builds it."""
    rng = random.Random("all-pairs-alternating")
    out = [alt.from_json_dict(_random_rule_file(rng, "alternating"))
           for _ in range(40)]
    out += [gens.random_nldag(rng) for _ in range(20)]
    out += [zoo.three_col_aldag(), zoo.non_three_col_aldag(),
            zoo.concentric_circles_aldag()]
    return [dataclasses.replace(a, succ_map=None) for a in out]


def test_distributed_enumeration_matches_the_reference_loops(mu_corpus):
    for a in _distributed_corpus(mu_corpus):
        assert (automata.validate_total(a)
                == reference_validate_total(a))
        assert (_outcome(state_diagram, a)
                == _outcome(reference_state_diagram, a))
        assert _outcome(classify, a) == _outcome(reference_classify, a)


def test_alternating_enumeration_matches_the_reference_loops():
    for a in _alternating_corpus():
        want = _outcome(reference_successors_superset, a)
        assert _outcome(alt.AltAutomaton.successors_superset, a) == want
        assert a.succ_map == (want if isinstance(want, dict) else None)
        assert (_outcome(alt.is_deterministic, a)
                == _outcome(reference_is_deterministic, a))


def test_all_pairs_lists_states_in_order_then_neighbourhoods():
    a = automata.from_json_dict(_random_rule_file(random.Random(3),
                                                  "distributed"))
    for x in (a, zoo.synchrony_detector(), zoo.three_col_aldag()):
        assert list(all_pairs(x)) == [(q, nvec) for q in x.states
                                      for nvec in all_nvecs(x.states, x.rels)]


def _never_stepped(q, nvec):
    pytest.fail(f"stepped {q!r} on {nvec} past the enumeration cap")


@pytest.mark.parametrize("n,rels", [(17, 1), (9, 2)])
def test_over_the_cap_both_kinds_are_refused_before_any_step(n, rels):
    states = tuple(f"q{i}" for i in range(n))
    message = (f"{n} states x {rels} relations exceeds the exhaustive "
               f"enumeration limit")
    d = DistributedAutomaton(states=states, rels=rels, init={"": "q0"},
                             accepting=frozenset(), delta=_never_stepped)
    # decompilation refuses two relations before it enumerates
    decompile = (decompile_qda_to_mu,) if rels == 1 else ()
    for f in (all_pairs, automata.validate_total, state_diagram, classify,
              successor_map, *decompile):
        with pytest.raises(ClassificationInfeasible) as caught:
            f(d)
        assert str(caught.value) == message
    a = alt.AltAutomaton(states=states, kind={**dict.fromkeys(states, "E"),
                                              states[-1]: "P"},
                         rels=rels, init={"": "q0"}, delta=_never_stepped,
                         accepting=alt.explicit())
    for f in (all_pairs, alt.AltAutomaton.successors_superset,
              alt.validate_alt, alt.is_deterministic):
        with pytest.raises(ClassificationInfeasible) as caught:
            f(a)
        assert str(caught.value) == message
    assert a.succ_map is None


@pytest.mark.parametrize("n,rels", [(16, 1), (8, 2)])
def test_at_the_cap_the_enumeration_starts(n, rels):
    states = tuple(f"q{i}" for i in range(n))
    d = DistributedAutomaton(states=states, rels=rels, init={"": "q0"},
                             accepting=frozenset(), delta=_never_stepped)
    assert next(iter(all_pairs(d))) == ("q0", (frozenset(),) * rels)


# ---------------------------------------------------------------------------
# The rule regions against the enumeration, on distributed and alternating
# rule files whose guard sets may name undeclared states and repeat a
# relation, and whose rows may target an undeclared state or (alternating)
# nothing.

def _region_rule_file(rng, kind):
    obj = _random_rule_file(rng, kind)
    names = [s if isinstance(s, str) else s["name"] for s in obj["states"]]
    for row in obj["rules"]:
        for g in row["guards"]:
            if rng.random() < 0.2:
                g["set"] = sorted(g["set"] + ["ghost"])
        if row["guards"] and rng.random() < 0.3:
            row["guards"].append({
                "rel": row["guards"][0]["rel"],
                "op": rng.choice(("subseteq", "supseteq", "eq", "any")),
                "set": sorted(rng.sample(names, rng.randint(0, len(names))))})
        if rng.random() < 0.05:
            row["to"] = (rng.choice(([], ["ghost"], [names[0], "ghost"]))
                         if kind == "alternating" else "ghost")
    return obj


def _load_rule_file(obj, kind):
    return {"distributed": automata.from_json_dict,
            "alternating": alt.from_json_dict}[kind](obj)


def _first_rows(obj, q, nvecs):
    """The index of the first row of ``q`` matching each of ``nvecs``
    (None if none does), by the plain reading of the rule list."""
    rows = [r for r in obj["rules"] if r["from"] == q]
    return [next((k for k, row in enumerate(rows)
                  if all(_holds(g, nvec) for g in row["guards"])), None)
            for nvec in nvecs]


def _region_corpus(kind):
    rng = random.Random(f"regions-{kind}")
    return [_region_rule_file(rng, kind) for _ in range(150)]


@pytest.mark.parametrize("kind", ["distributed", "alternating"])
def test_rule_regions_fire_the_rules_the_enumeration_fires(kind):
    for obj in _region_corpus(kind):
        a = _load_rule_file(obj, kind)
        points = automata.region_points(a)
        for q in a.states:
            every = _first_rows(obj, q, all_nvecs(a.states, a.rels))
            fired = sorted({k for k in every if k is not None})
            want = fired + ([None] if None in every else [])
            assert _first_rows(obj, q, points[q]) == want


@pytest.mark.parametrize("box_limit", [automata.REGION_BOX_LIMIT, 0])
def test_distributed_regions_match_the_reference_loops(monkeypatch,
                                                       box_limit):
    # a limit of 0 sends every file whose regions split to the enumeration
    monkeypatch.setattr(automata, "REGION_BOX_LIMIT", box_limit)
    for obj in _region_corpus("distributed"):
        a = _load_rule_file(obj, "distributed")
        assert (automata.validate_total(a)
                == reference_validate_total(a))
        assert (_outcome(state_diagram, a)
                == _outcome(reference_state_diagram, a))
        assert _outcome(classify, a) == _outcome(reference_classify, a)


@pytest.mark.parametrize("box_limit", [automata.REGION_BOX_LIMIT, 0])
def test_alternating_regions_match_the_reference_loops(monkeypatch,
                                                       box_limit):
    monkeypatch.setattr(automata, "REGION_BOX_LIMIT", box_limit)
    for obj in _region_corpus("alternating"):
        a = _load_rule_file(obj, "alternating")
        want = _outcome(reference_successors_superset, a)
        assert _outcome(alt.AltAutomaton.successors_superset, a) == want
        assert (_outcome(alt.is_deterministic, a)
                == _outcome(reference_is_deterministic, a))


def test_a_callable_delta_has_no_regions():
    assert automata.region_points(constant_automaton()) is None
    assert automata.region_steps(constant_automaton(),
                                 UnmatchedTransition) is None


def _big_rule_file(n, total):
    """``n`` states on 2 relations: q_i stays, or moves to q_{i+1} when
    relation 1 holds q_{i+7} and relation 2 nothing, or relation 2 holds
    q_i and at most q_{i+1} besides.  With ``total`` every state has a
    catch-all; without, the last state's only row needs relation 1 empty."""
    states = [f"q{i}" for i in range(n)]
    rules = []
    for i, q in enumerate(states[:-1]):
        nxt, far = states[i + 1], states[(i + 7) % n]
        rules += [
            {"from": q, "guards": [{"rel": 1, "op": "subseteq", "set": [q]}],
             "to": q},
            {"from": q, "guards": [{"rel": 1, "op": "supseteq", "set": [far]},
                                   {"rel": 2, "op": "eq", "set": []}],
             "to": nxt},
            {"from": q, "guards": [{"rel": 2, "op": "supseteq", "set": [q]},
                                   {"rel": 2, "op": "subseteq",
                                    "set": [q, nxt]}],
             "to": nxt},
            {"from": q, "to": q}]
    last = states[-1]
    rules.append({"from": last, "guards": [{"rel": 1, "op": "eq", "set": []}],
                  "to": last})
    if total:
        rules.append({"from": last, "to": last})
    return automata.from_json_dict({
        "states": states, "relations": 2, "init": {"": "q0"},
        "accepting": [last], "rules": rules})


def test_a_40_state_2_relation_rule_automaton_is_classified():
    a = _big_rule_file(40, total=True)
    assert automata.validate_total(a) is None
    diagram = state_diagram(a)
    assert diagram == {q: {q, t} for q, t in zip(a.states, a.states[1:])} \
        | {"q39": {"q39"}}
    rng = random.Random(40)  # sampled neighbourhoods land in the diagram
    for _ in range(2000):
        q = rng.choice(a.states)
        nvec = tuple(frozenset(rng.sample(a.states, rng.randint(0, 3)))
                     for _ in range(2))
        assert a.step(q, nvec) in diagram[q]
    assert classify(a) == AutomatonClass(is_local=False,
                                         is_quasi_acyclic=True,
                                         is_monovisioned=False)


@pytest.mark.parametrize("n", [16, 17])
def test_a_catch_all_to_an_undeclared_state_is_a_fault_at_any_size(n):
    # within the cap the enumeration names the pair, above it the region
    states = [f"q{i}" for i in range(n)]
    a = automata.from_json_dict({
        "states": states, "relations": 1, "init": {"": "q0"},
        "accepting": [], "rules": [{"from": q, "to": "ghost" if q == "q3"
                                    else q} for q in states]})
    assert automata.validate_total(a) == ("q3", (frozenset(),))


def test_over_the_cap_a_rule_fault_names_its_region():
    a = _big_rule_file(40, total=False)
    # relation 1 must be empty; the first box left over holds q0 there
    unmatched = ("q39", (frozenset({"q0"}), frozenset()))
    assert automata.validate_total(a) == unmatched
    with pytest.raises(UnmatchedTransition):
        a.step(*unmatched)
    with pytest.raises(UnmatchedTransition) as caught:
        state_diagram(a)
    assert str(caught.value) == (
        f"no rule matches 'q39' with {unmatched[1]}")
    states = [f"q{i}" for i in range(17)]
    for to, message in [
            ([], "empty transition value at state 'q3'"),
            (["q1", "ghost"], "transition from state 'q3' on "
             "(frozenset(),) targets undeclared states ['ghost']")]:
        b = alt.from_json_dict({
            "states": [{"name": q, "kind": "E"} for q in states[:-1]]
            + [{"name": states[-1], "kind": "P"}],
            "relations": 1, "init": {"": "q0"}, "accepting_sets": [],
            "rules": [{"from": q, "to": to if q == "q3" else [states[-1]]}
                      for q in states]})
        for f in (alt.AltAutomaton.successors_superset, alt.is_deterministic,
                  alt.validate_alt):
            assert _outcome(f, b) == (alt.AltError, message)


# ---------------------------------------------------------------------------
# The interned round loop against a plain reference loop: string states,
# frozenset neighbourhoods read straight off the edge set, the same lasso
# rule, and the automaton's delta called without any memo.

def reference_run(d, initial, next_state,
                  horizon=automata.DEFAULT_HORIZON_CAP):
    def nvec(conf, v):
        return tuple(frozenset(conf[s] for (r, s, t) in d.edges
                               if r == i and t == v)
                     for i in range(1, d.rels + 1))

    conf = tuple(initial)
    seen = {conf: 0}
    configs = [conf]
    for t in range(1, horizon + 1):
        conf = tuple(next_state(conf, v, nvec(conf, v)) for v in d.nodes())
        if conf in seen:
            return tuple(configs), seen[conf], t - seen[conf]
        seen[conf] = t
        configs.append(conf)
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


def _decoded(run):
    """The run's ids, each replaced by its name."""
    return tuple(tuple(run.names[i] for i in c) for c in run.ids)


def _run_outcome(run, *args, **kwargs):
    """A run's configs, prefix and period, or ``HorizonExceeded``."""
    try:
        out = run(*args, **kwargs)
    except HorizonExceeded:
        return HorizonExceeded
    return out if isinstance(out, tuple) else _as_tuple(out)


def _sync_case(a, d):
    return (a, sync_run, d, [a.init[x] for x in d.labels],
            lambda conf, v, nvec: a.delta(conf[v], nvec))


def _forgetful_case(fa, d):
    return (fa, forgetful_run, d, [fa.initial] * d.n,
            lambda conf, v, nvec: fa.delta(d.label(v), nvec))


def _mu_case(system, d):
    """A ``MuEvaluator`` run: from the label propositions, on the round
    loop itself."""
    ev = MuEvaluator(system)
    initial = [frozenset(f"P{i}" for i, b in enumerate(x, 1) if b == "1")
               for x in d.labels]

    def run(a, d, horizon=automata.DEFAULT_HORIZON_CAP):
        return automata._run_rounds(a, d, initial, None, horizon)

    return ev, run, d, initial, lambda conf, v, nvec: ev.step(conf[v], nvec)


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
                got = run(a, d)
                assert _as_tuple(got) == want and _decoded(got) == want[0]
                horizon = rng.randint(1, 8)
                assert (_run_outcome(run, a, d, horizon=horizon)
                        == _run_outcome(reference_run, d, initial,
                                        next_state, horizon))
                # the lasso closes at round prefix + period: one less is
                # past the horizon, exactly that many is within it
                closes = want[1] + want[2]
                with pytest.raises(HorizonExceeded):
                    run(a, d, horizon=closes - 1)
                assert _as_tuple(run(a, d, horizon=closes)) == want
                with pytest.raises(HorizonExceeded):
                    run(a, d, horizon=0)


def _two_relation_case():
    # nodes 0 and 1 are joined in both relations, 1 and 2 in relation 2
    rng = random.Random(7)
    a = random_sync_automaton(rng, 2, 0)
    d = make(0, 2, [""] * 4, [(1, 0, 1), (2, 0, 1), (2, 1, 2), (1, 3, 3)])
    return _sync_case(a, d)


_LOOP_CASES = {
    "period-2-oscillator": lambda: _sync_case(gens.oscillator(),
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
    "fixpoint-evaluator": lambda: _mu_case(
        gens.random_mu_system(random.Random(9), max_vars=3, bits=1),
        gens.random_digraph(random.Random(10), 7, bits=1, edge_p=0.3)),
}


@pytest.mark.parametrize("case", list(_LOOP_CASES))
def test_change_driven_loop_matches_reference_loop(case):
    a, run, d, initial, next_state = _LOOP_CASES[case]()
    want = reference_run(d, initial, next_state)
    got = run(a, d)
    assert _as_tuple(got) == want
    closes = want[1] + want[2]
    with pytest.raises(HorizonExceeded):
        run(a, d, horizon=closes - 1)
    # a horizon past the lasso still ends at the lasso
    assert (_as_tuple(run(a, d, horizon=closes + 3))
            == reference_run(d, initial, next_state, closes + 3) == want)
    # the result decodes its interned configurations on demand
    decoded = tuple(tuple(got.names[i] for i in c) for c in got.ids)
    assert got.configs == decoded == want[0]
    for v in d.nodes():
        assert got.visited_states(v) == {c[v] for c in decoded}
        for t in range(closes + 2 * got.period):
            u = t if t < len(decoded) else (
                got.prefix + (t - got.prefix) % got.period)
            assert got.state_at(t, v) == decoded[u][v]


@pytest.mark.parametrize("case", ["period-2-oscillator", "forgetful-wave"])
def test_the_lasso_must_close_within_the_horizon(case):
    a, run, d, _, _ = _LOOP_CASES[case]()
    got = run(a, d)
    closes = got.prefix + got.period
    within = run(a, d, horizon=closes)
    assert ((within.ids, within.prefix, within.period)
            == (got.ids, got.prefix, got.period))
    with pytest.raises(HorizonExceeded, match=f"within {closes - 1} steps"):
        run(a, d, horizon=closes - 1)
    with pytest.raises(ValueError, match="^horizon must be >= 0$"):
        run(a, d, horizon=-1)


def test_oscillator_and_settled_runs_have_the_expected_lassos():
    run = sync_run(gens.oscillator(), dipath(3).digraph)
    assert (run.prefix, run.period) == (2, 2)
    d = dipath(5, labels=["1", "0", "0", "0", "0"]).digraph
    run = sync_run(zoo.reachability_automaton(), d)
    assert (run.prefix, run.period) == (5, 1)
    # a horizon past the lasso ends at the same lasso
    bounded = sync_run(zoo.reachability_automaton(), d, horizon=8)
    assert (bounded.prefix, bounded.period) == (5, 1)
    assert bounded.configs == run.configs


def test_fixpoint_runs_match_reference_loop():
    rng = random.Random(31)
    for _ in range(8):
        system = gens.random_mu_system(rng, max_vars=3, bits=1)
        for _ in range(6):
            d = gens.random_digraph(rng, 6, bits=1,
                                    edge_p=rng.choice((0.15, 0.4)))
            ev, run, _, initial, next_state = _mu_case(system, d)
            want = reference_run(d, initial, next_state)
            got = run(ev, d)
            assert _as_tuple(got) == want and _decoded(got) == want[0]
            horizon = rng.randint(0, 6)
            assert (_run_outcome(run, ev, d, horizon=horizon)
                    == _run_outcome(reference_run, d, initial, next_state,
                                    horizon))
            closes = want[1] + want[2]
            with pytest.raises(HorizonExceeded):
                run(ev, d, horizon=closes - 1)
            # the evaluator reads the last configuration off the log
            vals, steps = ev.eval_full(d)
            assert steps == want[1]
            assert vals == {x: frozenset(v for v in d.nodes()
                                         if x in want[0][-1][v])
                            for x in system.variables}


@pytest.mark.parametrize("case", ["period-2-oscillator", "forgetful-random",
                                  "pair-joined-in-two-relations"])
def test_a_constant_lasso_hash_gives_the_same_lasso(monkeypatch, case):
    # every configuration hashes alike, so each round that changes a node
    # meets round 0's hash, and only the replayed check tells them apart
    a, run, d, initial, next_state = _LOOP_CASES[case]()
    want = reference_run(d, initial, next_state)
    confirm, hits = automata._lasso_start, []

    def counting(first, clash, h, t, replay, same):
        hits.append(t)
        return confirm(first, clash, h, t, replay, same)

    monkeypatch.setattr(automata, "_weights", lambda count: [0] * count)
    monkeypatch.setattr(automata, "_lasso_start", counting)
    got = run(a, d)
    assert _as_tuple(got) == want and _decoded(got) == want[0]
    closes = want[1] + want[2]
    assert hits in (list(range(1, closes)), list(range(1, closes + 1)))
    if case == "period-2-oscillator":
        assert len(hits) == closes
    with pytest.raises(HorizonExceeded):
        run(a, d, horizon=closes - 1)


def test_the_log_holds_one_entry_per_state_change():
    # each node of the dipath moves once, into the accepting sink "5",
    # one node per round
    n = 20000
    d = dipath(n, labels=["1"] + ["0"] * (n - 1)).digraph
    run = sync_run(zoo.reachability_automaton(), d)
    assert (run.prefix, run.period) == (n, 1)
    conf, entries = list(run.initial), 0
    for nodes, ids in run.log:
        assert list(nodes) == sorted(set(nodes)) and len(ids) == len(nodes)
        for v, q in zip(nodes, ids):
            assert conf[v] != q
            conf[v] = q
        entries += len(nodes)
    assert entries == n == len(run.log)
    assert conf == [run.names.index("5")] * n
    assert automata._accepting_columns(run, {"5"}) == frozenset(d.nodes())
    assert run.state_at(n // 2, n // 2 - 1) == "5"
    assert run.state_at(n // 2, n // 2) == "2"


def _reaches(succ, q):
    """The states reachable from ``q`` in one or more steps."""
    seen, todo = set(), [q]
    while todo:
        for t in succ[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def test_nontrivial_cycles_match_a_reachability_reference():
    rng = random.Random(15)
    for _ in range(300):
        names = [f"s{i}" for i in range(rng.randint(1, 6))]
        succ = {q: {t for t in names if rng.random() < 0.3} for q in names}
        want = any(q in _reaches(succ, t) for q in names for t in succ[q]
                   if t != q)
        assert automata._has_nontrivial_cycle(succ) == want


def test_a_1500_state_chain_needs_no_recursion_for_its_cycle_check():
    chain = [f"q{i}" for i in range(1500)]
    succ = {q: {q, t} for q, t in zip(chain, chain[1:] + chain[-1:])}
    assert not automata._has_nontrivial_cycle(succ)
    succ[chain[-1]].add(chain[0])
    assert automata._has_nontrivial_cycle(succ)


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
