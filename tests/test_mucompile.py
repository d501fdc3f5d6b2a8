import itertools
import random

import pytest

from disto import automata, zoo
from disto import formulas as fm
from disto.automata import (DistributedAutomaton, classify, state_diagram,
                            sync_run)
from disto.formulas import MuEvaluator, MuSystem, eval_mu
from disto.graphs import LimitExceeded, enumerate_digraphs, subsets
from disto.mucompile import (ClassError, _and, _infer_bits, _init_body, _or,
                             compile_mu_to_aqda, compute_enables,
                             compute_traces, decompile_qda_to_mu,
                             successor_map, trace_var)

import gens


def test_constant_true_system_accepts_everything_after_round_one():
    a = compile_mu_to_aqda(MuSystem(0, ("X1",), (fm.Top(),)))
    for d in enumerate_digraphs(2, bits=0, rels=1):
        run = sync_run(a, d)
        assert all(run.state_at(1, v) in a.accepting for v in d.nodes())


def test_bottom_system_accepts_nothing():
    a = compile_mu_to_aqda(MuSystem(0, ("X1",), (fm.In("X1"),)))
    for d in enumerate_digraphs(2, bits=0, rels=1):
        assert not automata.accepted_nodes(a, d)


def test_compiled_is_quasi_acyclic_and_monotone():
    a = compile_mu_to_aqda(zoo.reachability_mu_system())
    assert classify(a).is_quasi_acyclic
    rng = random.Random(2)
    for _ in range(10):
        d = gens.random_digraph(rng, 4, bits=1)
        run = sync_run(a, d)
        for v in d.nodes():
            sets = [frozenset(s.strip("{}").split(",")) - {""}
                    for s in (run.state_at(t, v)
                              for t in range(len(run.configs)))]
            assert all(x <= y for x, y in zip(sets, sets[1:]))


def test_compiled_agrees_with_eval_mu(mu_corpus):
    for sys_ in mu_corpus[:6]:
        a = compile_mu_to_aqda(sys_)
        ev = MuEvaluator(sys_)
        for d in enumerate_digraphs(2, bits=1, rels=1):
            assert automata.accepted_nodes(a, d) == ev.eval(d)


def test_compile_reachability_matches_caption_oracle():
    a = compile_mu_to_aqda(zoo.reachability_mu_system())
    for d in enumerate_digraphs(3, bits=1, rels=1):
        assert automata.accepted_nodes(a, d) == zoo.reachability_oracle(d)


def test_compile_bound_enforced():
    huge = MuSystem(
        5, tuple(f"X{i}" for i in range(1, 7)),
        tuple(fm.Top() for _ in range(6)))
    with pytest.raises(LimitExceeded):
        compile_mu_to_aqda(huge)


# ---------------------------------------------------------------------------
# traces

def constant_single_state():
    return DistributedAutomaton(
        states=("q0",), rels=1, init={"": "q0"},
        accepting=frozenset({"q0"}), delta=lambda q, n: "q0")


def chain_two_states():
    def delta(q, nvec):
        if q == "q0" and nvec[0]:
            return "q1"
        return q

    return DistributedAutomaton(
        states=("q0", "q1"), rels=1, init={"": "q0"},
        accepting=frozenset({"q1"}), delta=delta)


def test_traces_single_state():
    assert compute_traces(constant_single_state()) == {("q0",)}


def test_traces_chain():
    assert compute_traces(chain_two_states()) == {
        ("q0",), ("q1",), ("q0", "q1")}


def test_traces_fig_automaton_witnessed():
    a = zoo.reachability_automaton()
    traces = compute_traces(a)
    assert len(traces) == 15
    succ = successor_map(a)
    for t in traces:
        for x, y in zip(t, t[1:]):
            assert y in succ[x]


def test_traces_need_quasi_acyclic():
    swap = DistributedAutomaton(
        states=("a", "b"), rels=1, init={"": "a"}, accepting=frozenset(),
        delta=lambda q, n: "b" if q == "a" else "a")
    with pytest.raises(ClassError):
        compute_traces(swap)


# ---------------------------------------------------------------------------
# enables

def test_enables_single_state_base():
    rel = compute_enables(constant_single_state())
    assert rel.holds(frozenset(), ("q0",))


def test_enables_contains_all_base_pairs():
    a = chain_two_states()
    rel = compute_enables(a)
    live = sorted(set(a.init.values()))
    for nstates in subsets(live):
        history = frozenset((q,) for q in nstates)
        for q in live:
            target = a.step(q, (nstates,))
            trace = (q,) if target == q else (q, target)
            assert rel.holds(history, trace)


def test_enables_fixpoint_unique_and_monotone():
    a = chain_two_states()
    r1 = compute_enables(a)
    r2 = compute_enables(a)
    assert r1 == r2


# ---------------------------------------------------------------------------
# decompile

def test_decompile_single_accepting_state():
    a = constant_single_state()
    sys_ = decompile_qda_to_mu(a)
    assert sys_.variables[0] == "X1"
    assert sys_.body_of("X1") == fm.In(trace_var(("q0",)))
    for d in enumerate_digraphs(2, bits=0, rels=1):
        assert eval_mu(sys_, d) == frozenset(d.nodes())


def test_decompile_fig_automaton_matches_oracle():
    sys_ = decompile_qda_to_mu(zoo.reachability_automaton())
    ev = MuEvaluator(sys_)
    for d in enumerate_digraphs(2, bits=1, rels=1):
        assert ev.eval(d) == zoo.reachability_oracle(d)


def test_roundtrip_small(mu_corpus):
    for sys_ in mu_corpus[:5]:
        a = compile_mu_to_aqda(sys_)
        back = decompile_qda_to_mu(a)
        ev1, ev2 = MuEvaluator(sys_), MuEvaluator(back)
        for d in enumerate_digraphs(2, bits=1, rels=1):
            assert ev1.eval(d) == ev2.eval(d)


def test_decompile_requires_quasi_acyclic():
    swap = DistributedAutomaton(
        states=("a", "b"), rels=1, init={"0": "a", "1": "b"},
        accepting=frozenset(), delta=lambda q, n: "b" if q == "a" else "a")
    with pytest.raises(ClassError):
        decompile_qda_to_mu(swap)


def test_decompile_builds_one_state_diagram(monkeypatch):
    from disto import mucompile
    calls = []

    def counting(a):
        calls.append(a)
        return automata.state_diagram(a)

    monkeypatch.setattr(mucompile, "state_diagram", counting)
    decompile_qda_to_mu(zoo.reachability_automaton())
    assert len(calls) == 1


def reference_decompile(a):
    """Decompilation with a fresh atom for every use: the reference for the
    shared-atom bodies."""
    enables = compute_enables(a)
    traces = sorted(enables.traces, key=lambda t: (len(t), t))
    bits = _infer_bits(a)

    def transition_body(trace):
        options = []
        for history in enables.enablers_of(trace):
            seen_each = tuple(fm.BDia(1, (fm.In(trace_var(s)),))
                              for s in sorted(history))
            only_those = fm.BBox(1, (_or(tuple(fm.In(trace_var(s))
                                               for s in sorted(history))),))
            options.append(_and(seen_each + (only_those,)))
        return _and((fm.In(trace_var(trace[:1])), _or(tuple(options))))

    bodies = [_or(tuple(fm.In(trace_var(t)) for t in traces
                        if t[-1] in a.accepting))]
    bodies += [_init_body(a, t[0], bits) if len(t) == 1
               else transition_body(t) for t in traces]
    return MuSystem(bits, ("X1", *(trace_var(t) for t in traces)),
                    tuple(bodies))


def test_decompile_matches_the_reference(mu_corpus):
    automata_ = [zoo.reachability_automaton()]
    automata_ += [compile_mu_to_aqda(sys_) for sys_ in mu_corpus[:5]]
    for a in automata_:
        got, want = decompile_qda_to_mu(a), reference_decompile(a)
        assert got == want
        assert fm.print_mu(got) == fm.print_mu(want)


def reference_enables(a):
    """The enables relation as (history, trace) pairs, straight from its
    definition: the base pairs, then the step rule until nothing is added.
    A history is a frozenset of traces; H ~> H' replaces each trace of H
    by itself, its one-state extensions, or both (at least one)."""
    starts = sorted(set(a.init.values()))
    traces = compute_traces(a, starts)
    pairs = set()
    for nstates in subsets(starts):
        for q in starts:
            target = a.delta(q, (nstates,))
            pairs.add((frozenset((s,) for s in nstates),
                       (q,) if target == q else (q, target)))

    def evolutions(history):
        options = [[c for c in subsets([t, *(u for u in traces
                                            if u[:-1] == t)]) if c]
                   for t in history]
        for choice in itertools.product(*options):
            yield frozenset().union(*choice)

    todo = list(pairs)
    while todo:
        history, trace = todo.pop()
        for h2 in evolutions(history):
            q2 = a.delta(trace[-1], (frozenset(t[-1] for t in h2),))
            pair = (h2, trace if q2 == trace[-1] else trace + (q2,))
            if pair not in pairs:
                pairs.add(pair)
                todo.append(pair)
    return pairs


def test_enables_steps_each_state_and_received_set_once(mu_corpus,
                                                        monkeypatch):
    from disto import mucompile
    a = compile_mu_to_aqda(mu_corpus[6])
    diagram = state_diagram(a)  # the one enumeration outside the fixpoint
    monkeypatch.setattr(mucompile, "state_diagram", lambda b: diagram)
    want = reference_enables(a)
    plain, calls = a.delta, []

    def counting(q, nvec):
        calls.append((q, nvec))
        return plain(q, nvec)

    a.delta = counting
    enables = compute_enables(a)
    assert len(calls) == len(set(calls)) > 0
    assert {(frozenset(h), t) for t, hs in enables.enablers.items()
            for h in hs} == want
    a.delta = plain
    assert compute_enables(a) == enables


def test_enablers_are_ordered_by_size_then_members(mu_corpus):
    automata_ = [zoo.reachability_automaton()]
    automata_ += [compile_mu_to_aqda(sys_) for sys_ in mu_corpus[:10]]
    for a in automata_:
        enables = compute_enables(a)
        assert set(enables.enablers) <= enables.traces
        for trace in sorted(enables.traces):
            histories = enables.enablers_of(trace)
            assert len(set(histories)) == len(histories)
            assert all(list(h) == sorted(set(h)) for h in histories)
            assert list(histories) == sorted(histories,
                                             key=lambda h: (len(h), h))
            assert all(enables.holds(frozenset(h), trace) for h in histories)
        assert enables.enablers_of(("nowhere",)) == ()


def test_decompile_shares_each_trace_atom():
    a = zoo.reachability_automaton()
    sys_ = decompile_qda_to_mu(a)
    longer = sorted(t for t in compute_enables(a).traces if len(t) > 1)
    t1, t2 = next((s, t) for s, t in zip(longer, longer[1:]) if s[0] == t[0])
    start1 = sys_.body_of(trace_var(t1)).args[0]
    start2 = sys_.body_of(trace_var(t2)).args[0]
    assert start1 == fm.In(trace_var(t1[:1])) and start1 is start2


# ---------------------------------------------------------------------------
# The live-trace cap

def _chain(n):
    states = [f"q{i}" for i in range(n)]
    return automata.from_json_dict({
        "states": states, "relations": 1, "init": {"": "q0"},
        "accepting": states[-1:],
        "rules": [{"from": q, "to": t}
                  for q, t in zip(states, states[1:] + states[-1:])]})


def test_decompilation_stops_past_the_live_trace_cap():
    from disto.mucompile import TRACE_LIMIT
    # a chain of n states has n live traces, all from q0
    at_cap = decompile_qda_to_mu(_chain(TRACE_LIMIT))
    assert len(at_cap.variables) == TRACE_LIMIT + 1
    over = _chain(TRACE_LIMIT + 1)
    with pytest.raises(LimitExceeded) as caught:
        decompile_qda_to_mu(over)
    assert str(caught.value) == (
        f"more than {TRACE_LIMIT} live traces (decompilation enumerates "
        f"every set of them)")
    # traces from states no label starts in are not counted
    assert len(compute_traces(zoo.reachability_automaton())) > TRACE_LIMIT


def test_a_16_state_compiled_system_is_refused_by_its_live_traces():
    system = fm.parse_mu("(mu ((X1 (or (in P1) (bdia 1 X2))) "
                         "(X2 (or (in P2) (bdia 1 X1)))))", bits=2)
    a = compile_mu_to_aqda(system)
    assert len(a.states) == 16  # at ENUM_LIMIT: its state diagram enumerates
    with pytest.raises(LimitExceeded):
        decompile_qda_to_mu(a)
