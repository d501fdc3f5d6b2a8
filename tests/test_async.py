import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from disto import automata, zoo
from disto.asyncrun import (AsyncConfiguration, Timing, TimingError,
                            TimingStep, async_run, decide_acceptance_timed,
                            falsify_consistency, sample_timing,
                            synchronous_timing, timed_accepted_nodes,
                            timing_from_json_dict, timing_to_json_dict)
from disto.automata import (DEFAULT_HORIZON_CAP, DistributedAutomaton,
                            HorizonExceeded, InitializationError,
                            UnmatchedTransition)
from disto.graphs import Digraph, dipath, edge_fault, make, subsets
from disto.mucompile import compile_mu_to_aqda

import gens

# Traces as tuples of states, for the reference loop below; timed runs
# keep each buffer as a head index into its source's history instead.


def trace_push(t, q):
    """Append q unless it equals the last entry (pushlast)."""
    return t if t and t[-1] == q else t + (q,)


def trace_pop(t):
    """Drop the first entry unless the trace is a singleton (popfirst)."""
    return t if len(t) <= 1 else t[1:]


def trace_first(t):
    return t[0]


def trace_last(t):
    return t[-1]


def is_valid_trace(t):
    return len(t) >= 1 and all(a != b for a, b in zip(t, t[1:]))


def test_push_same_is_noop():
    assert trace_push(("a",), "a") == ("a",)


def test_push_different_appends():
    assert trace_push(("a",), "b") == ("a", "b")


def test_push_keeps_adjacent_distinct():
    assert trace_push(("a", "b"), "a") == ("a", "b", "a")


def test_pop_singleton_unchanged():
    assert trace_pop(("a",)) == ("a",)


def test_pop_drops_first():
    assert trace_pop(("a", "b")) == ("b",)
    assert trace_pop(("a", "b", "a")) == ("b", "a")


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
       st.sampled_from("abc"))
def test_push_preserves_validity(states, new):
    trace = (states[0],)
    for s in states[1:]:
        trace = trace_push(trace, s)
    assert is_valid_trace(trace)
    assert is_valid_trace(trace_push(trace, new))
    assert is_valid_trace(trace_pop(trace))
    assert trace_last(trace_push(trace, new)) == new


def test_lossless_constraint_rejected_at_construction():
    d = make(1, 1, ["1", "0"], [(1, 0, 1)])
    with pytest.raises(TimingError):
        Timing(edge_order=tuple(d.sorted_edges()),
               prefix=(TimingStep(nodes=(1, 0), edges=(1,)),),
               lossless=True)


def test_lossless_timing_without_the_target_node_bit_is_refused():
    with pytest.raises(TimingError, match="no node bit for the target 1"):
        Timing(edge_order=((1, 0, 1),),
               prefix=(TimingStep(nodes=(1,), edges=(1,)),), lossless=True)


def test_sample_timing_deterministic_and_lossless():
    d = make(1, 1, ["1", "0", "0"], [(1, 0, 1), (1, 1, 2), (1, 2, 0)])
    t1 = sample_timing(d, 12, lossless=True, seed=42)
    t2 = sample_timing(d, 12, lossless=True, seed=42)
    assert t1 == t2
    for step in t1.prefix:
        for bit, (_, _, dst) in zip(step.edges, t1.edge_order):
            assert not bit or step.nodes[dst]


def reference_sample_timing(d, prefix_len, lossless, seed):
    """``sample_timing`` with every bit drawn by ``rng.randint(0, 1)``."""
    rng = random.Random(seed)
    order = tuple(d.sorted_edges())
    steps = []
    for _ in range(prefix_len):
        nodes = tuple(rng.randint(0, 1) for _ in d.nodes())
        edges = tuple(rng.randint(0, 1) for _ in order)
        if lossless:
            edges = tuple(bit if nodes[dst] else 0
                          for bit, (_, _, dst) in zip(edges, order))
        steps.append(TimingStep(nodes, edges))
    return Timing(edge_order=order, prefix=tuple(steps), lossless=lossless)


def test_sampled_bits_are_the_bits_randint_draws():
    from disto.asyncrun import _coin_flips
    d = make(1, 2, ["1", "0", "0"],
             [(1, 0, 1), (1, 1, 2), (2, 2, 0), (2, 0, 0)])
    for seed in range(1000):
        for lossless in (True, False):
            for prefix_len in (0, 1, 5, 17):
                assert (sample_timing(d, prefix_len, lossless, seed)
                        == reference_sample_timing(d, prefix_len, lossless,
                                                   seed))
        ours, theirs = random.Random(seed), random.Random(seed)
        count = seed % 61
        assert (_coin_flips(ours.getrandbits, count)
                == tuple(theirs.randint(0, 1) for _ in range(count)))
        assert ours.getstate() == theirs.getstate()


def test_empty_prefix_is_synchronous():
    d = make(1, 1, ["1", "0"], [(1, 0, 1)])
    assert sample_timing(d, 0, lossless=False, seed=0) == Timing(
        edge_order=tuple(d.sorted_edges()), prefix=())


def test_sync_embedding():
    a = zoo.reachability_automaton()
    rng = random.Random(9)
    for _ in range(15):
        d = gens.random_digraph(rng, 4, bits=1)
        sync = automata.sync_run(a, d)
        ar = async_run(a, d, synchronous_timing(d))
        horizon = min(len(sync.configs), len(ar.configs))
        for t in range(horizon):
            assert ar.configs[t].node_state == sync.configs[t]


def test_buffer_accumulates_while_target_inactive():
    a = zoo.reachability_automaton()
    # u -> v; u advances while v sleeps and the edge is inactive
    d = make(1, 1, ["0", "0"], [(1, 0, 1)])
    steps = tuple(TimingStep(nodes=(1, 0), edges=(0,)) for _ in range(3))
    timing = Timing(edge_order=tuple(d.sorted_edges()), prefix=steps,
                    lossless=True)
    run = async_run(a, d, timing)
    lengths = [len(c.buffers[0]) for c in run.configs[:4]]
    assert lengths[0] == 1
    assert all(b <= a_ + 1 for a_, b in zip(lengths, lengths[1:]))
    for c in run.configs:
        assert all(is_valid_trace(buf) for buf in c.buffers)


def test_buffer_accumulates_distinct_states_up_to_length_four():
    # source marches through four states while the edge holds everything
    chain = {"c0": "c1", "c1": "c2", "c2": "c3", "c3": "c3"}
    a = automata.DistributedAutomaton(
        states=("c0", "c1", "c2", "c3"), rels=1, init={"": "c0"},
        accepting=frozenset(),
        delta=lambda q, n: chain[q])
    d = make(0, 1, ["", ""], [(1, 0, 1)])
    steps = tuple(TimingStep(nodes=(1, 0), edges=(0,)) for _ in range(3))
    timing = Timing(edge_order=tuple(d.sorted_edges()), prefix=steps,
                    lossless=True)
    run = async_run(a, d, timing)
    assert run.configs[3].buffers[0] == ("c0", "c1", "c2", "c3")


def test_buffer_head_and_last_law():
    a = zoo.reachability_automaton()
    rng = random.Random(11)
    for _ in range(10):
        d = gens.random_digraph(rng, 3, bits=1)
        timing = sample_timing(d, 8, lossless=True, seed=rng.randrange(999))
        run = async_run(a, d, timing)
        order = run.edge_order
        for c in run.configs:
            for idx, (_, src, _) in enumerate(order):
                past = {conf.node_state[src] for conf in run.configs
                        if conf.time <= c.time}
                assert trace_first(c.buffers[idx]) in past
                assert trace_last(c.buffers[idx]) == c.node_state[src]


def test_acceptance_at_time_zero_any_timing():
    a = automata.DistributedAutomaton(
        states=("q",), rels=1, init={"": "q"}, accepting=frozenset({"q"}),
        delta=lambda q, n: "q")
    d = make(0, 1, [""], [])
    timing = sample_timing(d, 5, lossless=True, seed=3)
    assert decide_acceptance_timed(a, d.at(0), timing)


def test_multi_relational_rejected():
    a = automata.DistributedAutomaton(
        states=("q",), rels=2, init={"": "q"}, accepting=frozenset(),
        delta=lambda q, n: "q")
    d = make(0, 2, [""], [])
    with pytest.raises(ValueError):
        async_run(a, d, synchronous_timing(d))


def test_compiled_automaton_timing_independent():
    a = compile_mu_to_aqda(zoo.reachability_mu_system())
    rng = random.Random(13)
    for _ in range(6):
        d = gens.random_digraph(rng, 4, bits=1)
        assert falsify_consistency(a, d, samples=12, prefix_len=10,
                                   lossless=True, seed=77) is None


def test_synchrony_detector_found_inconsistent():
    det = zoo.synchrony_detector()
    d = zoo.synchrony_detector_graph()
    found = falsify_consistency(det, d, samples=40, prefix_len=10,
                                lossless=True, seed=1)
    assert found is not None
    assert found.node == 2
    va = timed_accepted_nodes(det, d, found.timing_a)
    vb = timed_accepted_nodes(det, d, found.timing_b)
    assert (found.node in va) != (found.node in vb)


def test_explicit_staggered_timing_changes_detector_verdict():
    det = zoo.synchrony_detector()
    d = zoo.synchrony_detector_graph()
    order = tuple(d.sorted_edges())
    stagger = Timing(
        edge_order=order,
        prefix=tuple(TimingStep(nodes=(1, 1, 1),
                                edges=(0, 1)) for _ in range(3)),
        lossless=True)
    assert decide_acceptance_timed(det, d.at(2), synchronous_timing(d))
    assert not decide_acceptance_timed(det, d.at(2), stagger)


def test_isolated_node_always_consistent():
    det = zoo.synchrony_detector()
    d = make(2, 1, ["00"], [])
    assert falsify_consistency(det, d, samples=20, prefix_len=8,
                               lossless=True, seed=5) is None


def test_quasi_acyclic_timed_runs_stabilize():
    a = compile_mu_to_aqda(zoo.reachability_mu_system())
    rng = random.Random(21)
    for _ in range(8):
        d = gens.random_digraph(rng, 4, bits=1)
        timing = sample_timing(d, 10, lossless=True, seed=rng.randrange(99))
        run = async_run(a, d, timing)
        assert run.period == 1  # node states and buffers reach a fixpoint
        stable = run.configs[-1].node_state
        accepted = timed_accepted_nodes(a, d, timing)
        assert accepted == frozenset(
            v for v in d.nodes() if stable[v] in a.accepting)


def test_timing_json_roundtrip():
    d = make(1, 1, ["1", "0"], [(1, 0, 1)])
    t = sample_timing(d, 6, lossless=True, seed=8)
    back = timing_from_json_dict(timing_to_json_dict(t), d)
    assert back == t


# ---------------------------------------------------------------------------
# The plain timed loop on name tuples, kept as the reference for async_run.

def _node_active(timing, t, v):
    if t <= len(timing.prefix):
        return bool(timing.prefix[t - 1].nodes[v])
    return True


def _edge_active(timing, t, idx):
    if t <= len(timing.prefix):
        return bool(timing.prefix[t - 1].edges[idx])
    return True


def reference_async_run(a, d, timing, horizon=DEFAULT_HORIZON_CAP):
    """(edge order, configs, prefix, period) of the timed run: one
    ``frozenset`` of buffer heads per active node and one new trace per
    edge, every step."""
    if a.rels != 1:
        raise ValueError("asynchronous semantics is defined over 1 relation")
    if d.rels != 1:
        raise ValueError("asynchronous runs need a 1-relational digraph")
    order = timing.edge_order
    if order != tuple(d.sorted_edges()):
        raise TimingError("timing was built for a different digraph")
    in_edges = {v: [] for v in d.nodes()}
    for idx, (_, src, dst) in enumerate(order):
        in_edges[dst].append(idx)

    nodes = tuple(a.initial_state(d.label(v)) for v in d.nodes())
    buffers = tuple((a.initial_state(d.label(src)),) for (_, src, _) in order)
    configs = [AsyncConfiguration(nodes, buffers, 0)]
    # the all-active tail starts at step len(prefix), step 0 included
    seen = {} if timing.prefix else {(nodes, buffers): 0}
    for t in range(1, horizon + 1):
        new_nodes = []
        for v in d.nodes():
            if _node_active(timing, t, v):
                heads = frozenset(trace_first(buffers[i]) for i in in_edges[v])
                new_nodes.append(a.step(nodes[v], (heads,)))
            else:
                new_nodes.append(nodes[v])
        new_nodes = tuple(new_nodes)
        new_buffers = []
        for idx, (_, src, _) in enumerate(order):
            buf = trace_push(buffers[idx], new_nodes[src])
            if _edge_active(timing, t, idx):
                buf = trace_pop(buf)
            new_buffers.append(buf)
        nodes, buffers = new_nodes, tuple(new_buffers)
        configs.append(AsyncConfiguration(nodes, buffers, t))
        if t >= len(timing.prefix):
            key = (nodes, buffers)
            if key in seen:
                first = seen[key]
                return order, tuple(configs[:t]), first, t - first
            seen[key] = t
    raise HorizonExceeded(f"no lasso within {horizon} steps")


def _outcome(run, *args, **kwargs):
    """What a run returns, or the type and message of what it raises."""
    try:
        out = run(*args, **kwargs)
    except (HorizonExceeded, InitializationError, UnmatchedTransition) as e:
        return type(e), str(e)
    if isinstance(out, tuple):
        return out
    # the replayed ids are the replayed configurations' node states
    assert (tuple(tuple(out.names[i] for i in c) for c in out.ids)
            == tuple(c.node_state for c in out.configs))
    return out.edge_order, out.configs, out.prefix, out.period


def _check_against_reference(a, d, timing, rng):
    want = _outcome(reference_async_run, a, d, timing)
    assert _outcome(async_run, a, d, timing) == want
    horizon = rng.randint(0, len(timing.prefix) + 4)
    assert (_outcome(async_run, a, d, timing, horizon=horizon)
            == _outcome(reference_async_run, a, d, timing, horizon=horizon))
    if want[0] is HorizonExceeded or want[0] is not timing.edge_order:
        return want
    # the lasso closes at step prefix + period: one less is past the
    # horizon
    closes = want[2] + want[3]
    cut = _outcome(async_run, a, d, timing, horizon=closes - 1)
    assert cut[0] is HorizonExceeded
    assert cut == _outcome(reference_async_run, a, d, timing,
                           horizon=closes - 1)
    assert _outcome(async_run, a, d, timing, horizon=closes) == want
    return want


def random_timed_automaton(rng, bits, partial):
    """1-4 states; with ``partial`` some labels have no initial state and
    some (state, received set) pairs no transition."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
    labels = ["".join(c) for c in itertools.product("01", repeat=bits)]
    init = {x: rng.choice(states) for x in labels
            if not partial or rng.random() < 0.7}
    table = {(q, s): rng.choice(states) for q in states
             for s in subsets(states) if not partial or rng.random() < 0.75}

    def delta(q, nvec):
        try:
            return table[(q, nvec[0])]
        except KeyError:
            raise UnmatchedTransition(
                f"no rule for {q} with {sorted(nvec[0])}") from None

    return DistributedAutomaton(
        states=states, rels=1, init=init,
        accepting=frozenset(q for q in states if rng.random() < 0.4),
        delta=delta)


def random_small_digraph(rng, bits):
    n = rng.randint(0, 6)
    p = rng.choice((0.15, 0.4))
    labels = ["".join(rng.choice("01") for _ in range(bits)) for _ in range(n)]
    return make(bits, 1, labels, [(1, s, t) for s in range(n)
                                  for t in range(n) if rng.random() < p])


def _random_timing(rng, d, lossless):
    return sample_timing(d, rng.choice((0, 1, 4, 12)), lossless,
                         rng.randrange(10 ** 6))


@pytest.mark.parametrize("bits,lossless", [(0, True), (0, False),
                                           (1, True), (1, False)])
def test_timed_runs_match_reference_loop(bits, lossless):
    rng = random.Random(100 * bits + lossless)
    outcomes = set()
    for k in range(20):
        a = random_timed_automaton(rng, bits, partial=k % 3 == 0)
        # several digraphs per automaton: later runs hit a warm memo
        for _ in range(12):
            d = random_small_digraph(rng, bits)
            want = _check_against_reference(a, d, _random_timing(rng, d,
                                                                 lossless), rng)
            outcomes.add(want[0] if isinstance(want[0], type) else "ran")
    assert outcomes >= {"ran", InitializationError, UnmatchedTransition}


def test_synchrony_detector_matches_reference_loop():
    det = zoo.synchrony_detector()
    rng = random.Random(4)
    cases = [zoo.synchrony_detector_graph()] * 30
    cases += [random_small_digraph(rng, 2) for _ in range(30)]
    for d in cases:
        _check_against_reference(det, d, _random_timing(
            rng, d, rng.random() < 0.5), rng)


def test_compiled_automata_match_reference_loop():
    rng = random.Random(6)
    for _ in range(4):
        a = compile_mu_to_aqda(gens.random_mu_system(rng, bits=1))
        for _ in range(6):
            d = random_small_digraph(rng, 1)
            _check_against_reference(a, d, _random_timing(
                rng, d, rng.random() < 0.5), rng)


@pytest.mark.parametrize("prefix_len", [0, 3, 9])
def test_a_constant_lasso_hash_gives_the_same_timed_lasso(monkeypatch,
                                                          prefix_len):
    # every configuration of the tail hashes alike, so each tail step that
    # changes a node or pops a buffer meets the tail's first hash, and
    # only the replayed node states and buffer contents tell them apart
    from disto import asyncrun
    confirm, hits = asyncrun._lasso_start, []

    def counting(first, clash, h, t, replay, same):
        hits.append(t)
        return confirm(first, clash, h, t, replay, same)

    monkeypatch.setattr(asyncrun, "_weights", lambda count: [0] * count)
    monkeypatch.setattr(asyncrun, "_lasso_start", counting)
    rng = random.Random(prefix_len)
    cases = [(gens.oscillator(), dipath(5).digraph),
             (zoo.reachability_automaton(),
              make(1, 1, ["1", "0", "0", "0"],
                   [(1, 0, 1), (1, 1, 2), (1, 2, 3), (1, 3, 1)]))]
    cases += [(random_timed_automaton(rng, 1, partial=False),
               random_small_digraph(rng, 1)) for _ in range(15)]
    for a, d in cases:
        timing = sample_timing(d, prefix_len, False, rng.randrange(100))
        hits.clear()
        want = _check_against_reference(a, d, timing, rng)
        assert want[2] >= prefix_len and all(t > prefix_len for t in hits)
        # the oscillator's tail changes a node at every step: its lasso
        # closes on a hit, each step before it a collision
        if a.states == ("a", "b"):
            hits.clear()
            async_run(a, d, timing)
            assert want[3] == 2
            assert hits == list(range(prefix_len + 1, want[2] + 3))


def test_timed_and_synchronous_runs_share_one_memo():
    a = zoo.reachability_automaton()
    rng = random.Random(8)
    for _ in range(10):
        d = random_small_digraph(rng, 1)
        sync = automata.sync_run(a, d)
        table = a._round_ids[1]
        memo_size = len(table.memo)
        # a synchronous timing meets exactly the keys of the synchronous run
        timed = async_run(a, d, synchronous_timing(d))
        assert a._round_ids[1] is table and len(table.memo) == memo_size
        assert ((timed.ids, timed.prefix, timed.period)
                == (sync.ids, sync.prefix, sync.period))
        _check_against_reference(a, d, _random_timing(rng, d, False), rng)
        assert automata.sync_run(a, d).configs == sync.configs


def test_the_synchronous_timing_gives_the_synchronous_run():
    # a self-loop whose configuration at step 0 recurs at step 1: the
    # timed lasso closes where the synchronous one does, at prefix 0
    loop = Digraph(1, 1, ("0",), frozenset({(1, 0, 0)}))
    a = zoo.reachability_automaton()
    assert (async_run(a, loop, synchronous_timing(loop)).prefix,
            automata.sync_run(a, loop).prefix) == (0, 0)
    rng = random.Random(12)
    cases = [(a, loop)] + [(a, random_small_digraph(rng, 1))
                           for _ in range(20)]
    for _ in range(20):
        b = random_timed_automaton(rng, 1, partial=False)
        cases += [(b, random_small_digraph(rng, 1)) for _ in range(5)]
    for b, d in cases:
        timed = async_run(b, d, synchronous_timing(d))
        sync = automata.sync_run(b, d)
        assert ((timed.ids, timed.prefix, timed.period)
                == (sync.ids, sync.prefix, sync.period))


def test_timed_run_decodes_columns_and_configs_alike():
    a = zoo.reachability_automaton()
    rng = random.Random(10)
    for _ in range(10):
        d = random_small_digraph(rng, 1)
        timing = _random_timing(rng, d, True)
        run = async_run(a, d, timing)
        for v in d.nodes():
            assert run.visited_states(v) == {c.node_state[v]
                                             for c in run.configs}
        assert timed_accepted_nodes(a, d, timing) == frozenset(
            v for v in d.nodes() if run.visited_states(v) & a.accepting)


def test_the_timed_lasso_must_close_within_the_horizon():
    a, d = gens.oscillator(), dipath(3).digraph
    timing = synchronous_timing(d)
    got = async_run(a, d, timing)
    assert isinstance(got, automata.RunResult)
    closes = got.prefix + got.period
    within = async_run(a, d, timing, horizon=closes)
    assert ((within.ids, within.prefix, within.period)
            == (got.ids, got.prefix, got.period))
    with pytest.raises(HorizonExceeded, match=f"within {closes - 1} steps"):
        async_run(a, d, timing, horizon=closes - 1)
    with pytest.raises(ValueError, match="^horizon must be >= 0$"):
        async_run(a, d, timing, horizon=-1)
    # state_at wraps around the period, as the synchronous run does
    sync = automata.sync_run(a, d)
    for t in range(closes + 3 * got.period):
        assert ([got.state_at(t, v) for v in d.nodes()]
                == [sync.state_at(t, v) for v in d.nodes()])


@pytest.mark.parametrize("edge", [(1, -1, 1), (2, 0, 1), (0, 0, 1),
                                  (1, 0, 5)])
def test_timed_runs_refuse_faulty_edges(edge):
    a = zoo.reachability_automaton()
    d = Digraph(1, 1, ("1", "0"), frozenset({edge}))
    message = re.escape(edge_fault(d, edge))
    timing = Timing(edge_order=(edge,), prefix=())
    for call in (lambda: async_run(a, d, timing),
                 lambda: decide_acceptance_timed(a, d.at(1), timing),
                 lambda: synchronous_timing(d),
                 lambda: sample_timing(d, 3, lossless=True, seed=0),
                 lambda: timing_from_json_dict({"prefix": []}, d),
                 lambda: falsify_consistency(a, d, samples=2)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("node_bits", [(1,), (1, 1, 1)])
def test_timed_runs_refuse_a_wrong_node_bit_count(node_bits):
    a = zoo.reachability_automaton()
    d = make(1, 1, ["1", "0"], [(1, 0, 1)])
    good = TimingStep(nodes=(1, 1), edges=(1,))
    timing = Timing(edge_order=tuple(d.sorted_edges()),
                    prefix=(good, TimingStep(nodes=node_bits, edges=(0,))))
    with pytest.raises(TimingError, match="step 2: wrong node-bit count"):
        async_run(a, d, timing)
    obj = timing_to_json_dict(timing)
    with pytest.raises(TimingError, match="step 2: wrong node-bit count"):
        timing_from_json_dict(obj, d)
