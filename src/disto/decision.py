"""Emptiness procedures for forgetful automata and bounded witness search.

Forgetfulness makes the set of states reachable anywhere at time t
computable by a set-valued step function; the sequence of those sets is
eventually periodic within 2^|Q| steps, which yields an exact emptiness
decision plus a recursive witness construction (a fresh labeled root fed
by copies of smaller witnesses).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (DistributedAutomaton, ForgetfulAutomaton, all_nvecs,
                       check_enum_limit, decide_acceptance_forgetful,
                       decide_acceptance_sync, forgetful_run)
from .graphs import PointedDigraph, enumerate_rooted_ditrees, make


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class ReachableStateSets:
    """Sigma_0, Sigma_1, ... (states reachable anywhere at time t) with
    lasso info; eventually periodic within 2^|Q| steps."""

    sets: tuple[frozenset, ...]
    prefix: int
    period: int

    def at(self, t: int) -> frozenset:
        if t < len(self.sets):
            return self.sets[t]
        return self.sets[self.prefix + (t - self.prefix) % self.period]


def _step_sets(a: ForgetfulAutomaton, current: frozenset):
    """delta-hat: all states producible from subsets of the current set,
    plus one generating (letter, neighborhood) pair per new state.
    Refuses ``|current| * rels > ENUM_LIMIT`` before any step."""
    check_enum_limit(len(current), a.rels)
    out: dict[str, tuple] = {}
    nvecs = list(all_nvecs(sorted(current), a.rels))
    for letter in a.letters:
        for nvec in nvecs:
            q = a.step(letter, nvec)
            key = (letter, tuple(tuple(sorted(s)) for s in nvec))
            if q not in out or key < out[q]:
                out[q] = key
    return frozenset(out), out


def reachable_state_sets(a: ForgetfulAutomaton) -> ReachableStateSets:
    sets = [frozenset({a.initial})]
    seen = {sets[0]: 0}
    for t in range(1, 2 ** len(a.states) + 2):
        nxt, _ = _step_sets(a, sets[-1])
        if nxt in seen:
            return ReachableStateSets(tuple(sets), prefix=seen[nxt],
                                      period=t - seen[nxt])
        seen[nxt] = t
        sets.append(nxt)
    raise AssertionError("state-set sequence failed to become periodic")


@dataclass(frozen=True)
class EmptinessVerdict:
    empty: bool
    time: int | None = None
    state: str | None = None


def forgetful_emptiness(a: ForgetfulAutomaton) -> EmptinessVerdict:
    """Exact emptiness: the first set of the Sigma lasso that meets the
    accepting states gives the earliest time and its least accepting state
    (time 0 included: the initial state counts)."""
    for t, current in enumerate(reachable_state_sets(a).sets):
        hit = sorted(current & a.accepting)
        if hit:
            return EmptinessVerdict(False, t, hit[0])
    return EmptinessVerdict(True)


def forgetful_witness(a: ForgetfulAutomaton, t: int, q: str) -> PointedDigraph:
    """A pointed digraph whose point visits q at time t: one generating
    (letter, neighborhoods) pair per needed state, a fresh root wired to
    separately constructed witnesses for time t-1."""
    generators: list[dict] = [{}]
    current = frozenset({a.initial})
    for _ in range(t):
        current, gen = _step_sets(a, current)
        generators.append(gen)
    if t == 0:
        if q != a.initial:
            raise WitnessError(f"{q!r} is not reachable at time 0")
        letter = a.letters[0]
        return make(len(letter), a.rels, [letter], [], point=0)
    if q not in generators[t]:
        raise WitnessError(f"{q!r} is not reachable at time {t}")

    bits = len(a.letters[0])

    def frame(time: int, state: str):
        """(time, letter, nvec, needed states, their feeder ids) of a
        node; a time-0 node is a leaf with the first letter."""
        letter, nvec = (generators[time][state] if time
                        else (a.letters[0], ()))
        return time, letter, nvec, sorted({s for c in nvec for s in c}), {}

    # post-order on an explicit stack: each node's feeders, in sorted
    # order of the states they deliver, get ids before the node itself
    labels: list[str] = []
    edges: list[tuple[int, int, int]] = []
    stack = [frame(t, q)]
    while True:
        time, letter, nvec, needed, feeders = stack[-1]
        if len(feeders) < len(needed):
            stack.append(frame(time - 1, needed[len(feeders)]))
            continue
        root = len(labels)
        labels.append(letter)
        for k, comp in enumerate(nvec, start=1):
            for s in comp:
                edges.append((k, feeders[s], root))
        stack.pop()
        if not stack:
            break
        _, _, _, parent_needed, parent_feeders = stack[-1]
        parent_feeders[parent_needed[len(parent_feeders)]] = root
    witness = make(bits, a.rels, labels, edges, point=root)
    run = forgetful_run(a, witness.digraph)
    if run.state_at(t, witness.point) != q:
        raise WitnessError("witness construction failed simulation check")
    return witness


def bounded_ditree_search(a: DistributedAutomaton | ForgetfulAutomaton,
                          max_nodes: int):
    """First accepted labeled pointed ditree with at most max_nodes nodes,
    or None.  A None result is NOT an emptiness proof (the general problem
    is undecidable); it only bounds witness size from below."""
    if max_nodes < 0:
        raise ValueError("max_nodes must be >= 0")
    if a.rels != 1:
        raise ValueError("ditree search supports 1-relational automata")
    if isinstance(a, ForgetfulAutomaton):
        labels, decide = a.letters, decide_acceptance_forgetful
    else:
        labels, decide = tuple(a.init), decide_acceptance_sync
    if not labels:
        raise ValueError("automaton names no labels, so the label width "
                         "of its witnesses is unknown")
    bits = len(labels[0])
    for tree in enumerate_rooted_ditrees(max_nodes, bits=bits):
        if decide(a, tree):
            return tree
    return None
