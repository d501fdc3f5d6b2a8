"""Asynchronous semantics: traces, timings, FIFO edge buffers, timed runs.

Edges act as FIFO buffers of states previously traversed by their source
node.  An adversarial timing decides per step which nodes recompute their
state and which edges deliver.  Timings here are a finite adversarial
prefix followed by an all-active tail, which makes fairness structural and
keeps acceptance decidable through the synchronous lasso on the suffix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

from .automata import (DEFAULT_HORIZON_CAP, DistributedAutomaton,
                       HorizonExceeded, RunResult, _accepting_columns,
                       _interned, _lasso_start, _weights)
from .graphs import Digraph, PointedDigraph, _cached

Trace = tuple[str, ...]


class TimingError(ValueError):
    pass


@dataclass(frozen=True)
class TimingStep:
    nodes: tuple[int, ...]   # activity bit per node id
    edges: tuple[int, ...]   # activity bit per edge, in canonical edge order


@dataclass(frozen=True)
class Timing:
    """Finite adversarial prefix + all-active tail over a fixed digraph.

    The tail guarantees the fairness property (every node and edge active
    infinitely often).  With ``lossless`` set, each prefix step must satisfy
    "edge active implies target node active".
    """

    edge_order: tuple[tuple[int, int, int], ...]
    prefix: tuple[TimingStep, ...]
    lossless: bool = False

    def __post_init__(self):
        for t, step in enumerate(self.prefix, start=1):
            if len(step.edges) != len(self.edge_order):
                raise TimingError(f"step {t}: wrong edge-bit count")
            if self.lossless:
                for bit, (_, _, dst) in zip(step.edges, self.edge_order):
                    if bit and not 0 <= dst < len(step.nodes):
                        raise TimingError(f"step {t}: no node bit for the "
                                          f"target {dst} of an active edge")
                    if bit and not step.nodes[dst]:
                        raise TimingError(
                            f"step {t}: active edge into inactive node {dst} "
                            f"violates the lossless constraint")


def _edge_order(d: Digraph) -> tuple[tuple[int, int, int], ...]:
    """The canonical edge order of ``d``, refusing a faulty edge."""
    d._in_slots  # raises ValueError with graphs.edge_fault's message
    return tuple(d.sorted_edges())


def _check_node_bits(prefix, n: int) -> None:
    for t, step in enumerate(prefix, start=1):
        if len(step.nodes) != n:
            raise TimingError(f"step {t}: wrong node-bit count")


def synchronous_timing(d: Digraph) -> Timing:
    return Timing(edge_order=_edge_order(d), prefix=(), lossless=True)


def _coin_flips(bits, count: int) -> tuple[int, ...]:
    """``count`` draws of ``randint(0, 1)`` from the generator whose
    ``getrandbits`` is ``bits``, drawn as CPython draws them (two bits,
    again while the value is 2 or 3), without its call overhead: the
    same values, and the generator left in the same state."""
    out = []
    for _ in range(count):
        r = bits(2)
        while r > 1:
            r = bits(2)
        out.append(r)
    return tuple(out)


def sample_timing(d: Digraph, prefix_len: int, lossless: bool, seed: int) -> Timing:
    """Uniform random activity bits over the prefix, repaired to the lossless
    constraint when requested (edges into inactive nodes are deactivated).
    Deterministic per seed."""
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    bits = random.Random(seed).getrandbits
    order = _edge_order(d)
    steps = []
    for _ in range(prefix_len):
        nodes = _coin_flips(bits, d.n)
        edges = _coin_flips(bits, len(order))
        if lossless:
            edges = tuple(bit if nodes[dst] else 0
                          for bit, (_, _, dst) in zip(edges, order))
        steps.append(TimingStep(nodes, edges))
    return Timing(edge_order=order, prefix=tuple(steps), lossless=lossless)


@dataclass(frozen=True)
class AsyncConfiguration:
    node_state: tuple[str, ...]
    buffers: tuple[Trace, ...]   # aligned with the timing's edge order
    time: int


# The timed lasso hash adds, per edge, a weight times the polynomial hash
# of the buffer's content: ids x_1..x_k, first to last, hash to the sum of
# (x_i + 1) * BASE^(k-i) mod PRIME.
_PRIME = (1 << 61) - 1
_BASE = 0x5DEECE66D
_INV_BASE = pow(_BASE, -1, _PRIME)


@dataclass(eq=False)
class AsyncRunResult(RunResult):
    """A timed run from time 0 through the lasso prefix and one period.

    ``initial`` and ``log`` hold the node states, as in ``RunResult``.
    Each buffer is a suffix of its source's history: the source's state
    ids with consecutive repeats dropped, kept whole in ``history``.
    Every buffer starts at index 0 of its history, and ``moves`` holds,
    per time step, the edges whose buffer popped: whose first index
    moved on by one.  ``configs`` replays every configuration, buffers
    included, once, on first access."""

    edge_order: tuple[tuple[int, int, int], ...]
    moves: list[list[int]]
    history: list[list[int]]

    @_cached
    def configs(self) -> tuple[AsyncConfiguration, ...]:
        name = self.names.__getitem__
        src = [s for _, s, _ in self.edge_order]
        history = self.history
        return tuple(
            AsyncConfiguration(tuple(map(name, state)), tuple(
                tuple(map(name, history[s][h:end[s]]))
                for s, h in zip(src, head)), t)
            for t, (state, head, end) in enumerate(_timed_replay(
                self.initial, self.log, self.moves, len(src))))


def _timed_replay(initial, log, moves, edges: int):
    """Per time step from 0 on, the node states, each buffer's first index
    into its source's history and each history's length, as three lists
    updated in place."""
    state, head, end = list(initial), [0] * edges, [1] * len(initial)
    yield state, head, end
    for (nodes, ids), popped in zip(log, moves):
        for v, q in zip(nodes, ids):
            state[v] = q
            end[v] += 1
        for e in popped:
            head[e] += 1
        yield state, head, end


def async_run(a: DistributedAutomaton, d: Digraph, timing: Timing,
              horizon: int = DEFAULT_HORIZON_CAP) -> AsyncRunResult:
    """Timed run per the three-case inductive definition: an inactive node
    keeps its state, an active one applies delta to the incoming buffer
    heads; each buffer pushes the source's new state and pops when its edge
    is active.  The all-active tail, from step ``len(timing.prefix)`` on,
    is explored up to lasso closure, which must come within ``horizon``
    steps, or ``HorizonExceeded`` is raised.

    A buffer's last entry is always its source's current state and a pop
    never removes it, so the buffer is a suffix of the source's history
    and is kept as one head index into it.  A node's key is the
    synchronous one of ``automata._run_rounds`` (own state in slot 0,
    buffer heads in slot 1), so timed and synchronous runs of ``a`` share
    one transition memo.  An active node whose own state and buffer heads
    are unchanged since it last computed keeps its state without a
    lookup: its key, and so its memoised transition, is the same.

    The run logs, per step, the nodes that changed with their new ids and
    the edges that popped.  The tail's lasso key is the node states and
    the buffer contents.  Its hash is that of ``_run_rounds`` plus, per
    edge e, a weight times the polynomial hash of e's buffer, which
    equals ``P[len] - P[head] * BASE^(len - head)`` over the prefix
    hashes P of the source's history.  The buffer hashes are computed
    once, when the tail starts, and each edge keeps its hash and
    ``BASE^(length - 1)`` from then on: a push of q by node v turns each
    hash c of a buffer out of v into ``c * BASE + q + 1``, and a pop
    subtracts the first entry's term.  So the log and the hash cost in
    proportion to the nodes that change and the buffers that move.  A
    tail step that changes no node and pops no buffer repeats the last
    configuration; a hash hit is confirmed against the replayed node
    states and buffer contents."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if a.rels != 1:
        raise ValueError("asynchronous semantics is defined over 1 relation")
    if d.rels != 1:
        raise ValueError("asynchronous runs need a 1-relational digraph")
    order = timing.edge_order
    if order != _edge_order(d):
        raise TimingError("timing was built for a different digraph")
    steps = timing.prefix
    _check_node_bits(steps, d.n)
    ix = _interned(a, 1)
    memo, bits = ix.memo, ix.bits
    n, m = d.n, len(order)
    src, dst = [e[1] for e in order], [e[2] for e in order]
    into: list[list[int]] = [[] for _ in d.nodes()]
    out_of: list[list[int]] = [[] for _ in d.nodes()]
    for e, (s, v) in enumerate(zip(src, dst)):
        into[v].append(e)
        out_of[s].append(e)
    stale = [True] * n  # v's key may have changed since v last computed

    state = [ix.intern(a.initial_state(x)) for x in d.labels]
    history = [[q] for q in state]
    head = [0] * m
    head_bit = [bits[state[s]][1] for s in src]  # slot-1 bit of each head
    start, log, moves = tuple(state), [], []
    weight = _weights(n + m)  # node v's weight, then edge e's at n + e

    def buffer_hashes():  # each buffer's content hash and first power
        content, top = [], []
        for s, k in zip(src, head):
            c, p = 0, _INV_BASE
            for x in history[s][k:]:
                c, p = (c * _BASE + x + 1) % _PRIME, p * _BASE % _PRIME
            content.append(c)
            top.append(p)
        return content, top

    def same(replayed):  # the configuration now, replayed at some time
        before, heads, ends = replayed
        return before == state and all(
            history[s][h:ends[s]] == history[s][k:]
            for s, h, k in zip(src, heads, head))

    # the tail starts at step len(steps): its configuration may recur.  The
    # lasso hash h is kept less that configuration's hash.
    seen, clash, h = {0: len(steps)}, {}, 0
    if not steps:
        content, top = buffer_hashes()
    all_nodes, all_edges = d.nodes(), range(m)
    for t in range(1, horizon + 1):
        tail = t > len(steps)
        if tail:
            nodes, edges = all_nodes, all_edges
        else:
            step = steps[t - 1]
            nodes = compress(all_nodes, step.nodes)
            edges = compress(all_edges, step.edges)
        changed, new, popped = [], [], []
        for v in nodes:  # reads only v's state and its buffers' heads
            if not stale[v]:
                continue
            key = bits[state[v]][0]
            for e in into[v]:
                key |= head_bit[e]
            q = memo.get(key)
            if q is None:
                q = memo[key] = ix.intern(a.step(*ix.decode(key)))
            if q == state[v]:
                stale[v] = False
                continue
            if tail:
                h += weight[v] * (q - state[v])
                for e in out_of[v]:
                    c = (content[e] * _BASE + q + 1) % _PRIME
                    h += weight[n + e] * (c - content[e])
                    content[e], top[e] = c, top[e] * _BASE % _PRIME
            state[v] = q
            history[v].append(q)  # the push onto every buffer out of v
            changed.append(v)
            new.append(q)
        for e in edges:  # the pop, unless the buffer is a singleton
            k, trace = head[e], history[src[e]]
            if k + 1 < len(trace):
                if tail:
                    c = (content[e] - (trace[k] + 1) * top[e]) % _PRIME
                    h += weight[n + e] * (c - content[e])
                    content[e], top[e] = c, top[e] * _INV_BASE % _PRIME
                head[e] = k + 1
                head_bit[e] = bits[trace[k + 1]][1]
                stale[dst[e]] = True
                popped.append(e)
        if tail:
            if not (changed or popped):  # the last configuration again
                first = t - 1
                break
            first = seen.setdefault(h, t)
            if first != t:
                first = _lasso_start(first, clash, h, t, _timed_replay(
                    start, log, moves, m), same)
                if first is not None:
                    break
        elif t == len(steps):
            content, top = buffer_hashes()
        log.append((changed, new))
        moves.append(popped)
    else:
        raise HorizonExceeded(f"no lasso within {horizon} steps")
    return AsyncRunResult(start, log, state, ix.names, prefix=first,
                          period=t - first, edge_order=order, moves=moves,
                          history=history)


def decide_acceptance_timed(a: DistributedAutomaton, pd: PointedDigraph,
                            timing: Timing) -> bool:
    run = async_run(a, pd.digraph, timing)
    return any(s in a.accepting for s in run.visited_states(pd.point))


def timed_accepted_nodes(a: DistributedAutomaton, d: Digraph,
                         timing: Timing) -> frozenset[int]:
    return _accepting_columns(async_run(a, d, timing), a.accepting)


@dataclass(frozen=True)
class ConsistencyCounterexample:
    timing_a: Timing
    timing_b: Timing
    node: int


def falsify_consistency(a: DistributedAutomaton, d: Digraph, samples: int,
                        prefix_len: int = 20, lossless: bool = True,
                        seed: int = 0) -> ConsistencyCounterexample | None:
    """Run the synchronous timing plus sampled timings and report the first
    node whose verdict differs between two timings.  Returning None means
    consistent so far; it is not a proof of asynchrony."""
    if samples < 0:
        raise ValueError("samples must be >= 0")
    sync = synchronous_timing(d)
    baseline = timed_accepted_nodes(a, d, sync)
    # every earlier sample agreed with the baseline, or we returned
    for k in range(samples):
        timing = sample_timing(d, prefix_len, lossless, seed + k)
        diff = timed_accepted_nodes(a, d, timing) ^ baseline
        if diff:
            return ConsistencyCounterexample(sync, timing, min(diff))
    return None


# ---------------------------------------------------------------------------
# Timing JSON:
# {"lossless":bool,"prefix":[{"nodes":[bits],"edges":[bits]}]}
# with edge bits in canonical (rel,src,dst) order.

def timing_to_json_dict(t: Timing) -> dict:
    return {
        "lossless": t.lossless,
        "prefix": [{"nodes": list(s.nodes), "edges": list(s.edges)}
                   for s in t.prefix],
    }


def _is_bit_list(row) -> bool:
    return isinstance(row, list) and row.count(0) + row.count(1) == len(row)


def timing_from_json_dict(obj: dict, d: Digraph) -> Timing:
    order = _edge_order(d)
    prefix, lossless = obj.get("prefix"), obj.get("lossless", False)
    if not isinstance(prefix, list):
        raise TimingError("timing has no prefix list")
    if not isinstance(lossless, bool):
        raise TimingError("timing's lossless flag is not a boolean")
    steps = []
    for t, s in enumerate(prefix, start=1):
        if not (isinstance(s, dict) and _is_bit_list(s.get("nodes"))
                and _is_bit_list(s.get("edges"))):
            raise TimingError(f"step {t}: nodes and edges must be lists "
                              f"of 0/1 bits")
        steps.append(TimingStep(tuple(s["nodes"]), tuple(s["edges"])))
    _check_node_bits(steps, d.n)
    return Timing(edge_order=order, prefix=tuple(steps), lossless=lossless)
