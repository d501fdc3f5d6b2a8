"""Distributed automata and their exact synchronous semantics.

A distributed automaton places the same deterministic machine on every node
of a digraph; in each round a node computes its next state from its own
state and the per-relation sets of incoming-neighbor states.  The machine
at the distinguished node accepts if it ever visits an accepting state.
On a fixed finite digraph the synchronous run is deterministic over a
finite configuration space, hence eventually periodic; acceptance is
decided exactly through lasso detection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .graphs import Digraph, PointedDigraph, _cached, subsets

DEFAULT_HORIZON_CAP = 10 ** 6
CLASSIFY_LIMIT = 18  # max |Q| * rels for exhaustive delta enumeration


class InitializationError(Exception):
    pass


class HorizonExceeded(Exception):
    pass


class UnmatchedTransition(Exception):
    pass


class ClassificationInfeasible(Exception):
    pass


NVec = tuple[frozenset, ...]

_GUARD_OPS = ("subseteq", "supseteq", "eq", "any")


@dataclass(frozen=True)
class Guard:
    rel: int
    op: str
    states: frozenset

    def __post_init__(self):
        if self.op not in _GUARD_OPS:
            raise ValueError(f"unknown guard op {self.op!r}")
        if not (isinstance(self.rel, int) and self.rel >= 1):
            raise ValueError(f"guard relation index {self.rel!r} is not >= 1")

    def holds(self, nvec: NVec) -> bool:
        received = nvec[self.rel - 1]
        if self.op == "subseteq":
            return received <= self.states
        if self.op == "supseteq":
            return received >= self.states
        if self.op == "eq":
            return received == self.states
        return True


@dataclass(frozen=True)
class Rule:
    src: str         # a state, or a forgetful automaton's letter
    guards: tuple[Guard, ...]
    dst: object      # a state, or an alternating rule's list of targets


class RuleDelta:
    """Ordered guarded rules indexed by source; the first match wins."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = tuple(rules)
        self._by_src: dict[str, list[Rule]] = {}
        for r in self.rules:
            self._by_src.setdefault(r.src, []).append(r)

    def __call__(self, src: str, nvec: NVec):
        for rule in self._by_src.get(src, ()):
            if all(g.holds(nvec) for g in rule.guards):
                return rule.dst
        raise UnmatchedTransition(f"no rule matches {src!r} with {nvec}")


def _declare(a) -> None:
    """Freeze ``a.accepting`` and refuse accepting states outside ``a.states``."""
    a.accepting = frozenset(a.accepting)
    a._declared = frozenset(a.states)
    missing = a.accepting - a._declared
    if missing:
        raise ValueError(f"accepting states {missing} not in state set")


@dataclass
class DistributedAutomaton:
    """(states, init, delta, accepting) over l-bit labeled r-relational digraphs."""

    states: tuple[str, ...]
    rels: int
    init: dict[str, str]          # label bitstring -> state
    accepting: frozenset[str]
    delta: Callable[[str, NVec], str]
    known_monovisioned: bool = field(default=False, compare=False)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        _declare(self)

    def step(self, q: str, nvec: NVec) -> str:
        key = (q, nvec)
        out = self._memo.get(key)
        if out is None:
            out = self.delta(q, nvec)
            if out not in self._declared:
                raise UnmatchedTransition(f"delta produced unknown state {out!r}")
            self._memo[key] = out
        return out

    def initial_state(self, label: str) -> str:
        try:
            return self.init[label]
        except KeyError:
            raise InitializationError(f"no initial state for label {label!r}")

    def enumeration_feasible(self) -> bool:
        return len(self.states) * self.rels <= CLASSIFY_LIMIT


def all_nvecs(states: Iterable[str], rels: int) -> Iterable[NVec]:
    """Every neighbourhood over ``states``: one subset per relation."""
    return itertools.product(subsets(states), repeat=rels)


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run from time 0 through the lasso prefix and one period.

    ``ids`` holds its configurations as interned state ids and ``names``
    is the automaton's id -> state list (only appended to), so a result
    decodes just what it is asked for: ``configs`` all of it, once, on
    first access; ``state_at`` and ``visited_states`` one node's column."""

    ids: tuple[tuple[int, ...], ...]
    names: Sequence = field(repr=False)
    prefix: int
    period: int

    @_cached
    def configs(self) -> tuple[tuple[str, ...], ...]:
        name = self.names.__getitem__
        return tuple(tuple(map(name, c)) for c in self.ids)

    def state_at(self, t: int, v: int) -> str:
        if t >= len(self.ids):
            t = self.prefix + (t - self.prefix) % self.period
        return self.names[self.ids[t][v]]

    def visited_states(self, v: int) -> set[str]:
        names = self.names
        return {names[i] for i in {c[v] for c in self.ids}}


class _Interned:
    """Integer ids for the names an automaton's runs meet, and its
    transitions memoised on integer keys.  Name i sets bit i * (rels + 1) + s
    of a node's key: slot s = 0 for the node's own state (synchronous runs,
    alternating games) or letter (forgetful runs), slot s = r for a state
    received over relation r.  Ids are only appended, so a key keeps its
    meaning."""

    def __init__(self, rels: int):
        self.rels, self.names, self.ids = rels, [], {}
        self.bits, self.memo = [], {}  # per id one bit per slot; key -> id

    def intern(self, name: str) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.names)
            self.names.append(name)
            self.bits.append(tuple(1 << (i * (self.rels + 1) + s)
                                   for s in range(self.rels + 1)))
        return i

    def decode(self, key: int) -> tuple[str, NVec]:
        """The own name (state or letter) and the neighbourhood of a key."""
        own, received = None, [[] for _ in range(self.rels)]
        while key:
            low = key & -key
            i, slot = divmod(low.bit_length() - 1, self.rels + 1)
            if slot:
                received[slot - 1].append(self.names[i])
            else:
                own = self.names[i]
            key ^= low
        return own, tuple(map(frozenset, received))


def _run_rounds(a, d: Digraph, initial: Sequence[str],
                letters: Sequence[str] | None, horizon, cap: int) -> RunResult:
    """The round loop of synchronous runs (``letters`` None: slot 0 holds
    a node's current state) and forgetful runs (slot 0 holds its letter).

    Round 1 computes every node.  Later rounds recompute, in increasing
    node order, only the nodes that read a node whose state changed in the
    last round: its out-neighbours, and in synchronous runs the node
    itself.  Every other node's key is unchanged, so it keeps its state.
    A key missing from the memo is decoded and passed to ``a.step``; ``a``
    needs nothing else but a ``__dict__`` for its tables (one per relation
    count), so states may be any hashable values (``formulas.MuEvaluator``
    runs on frozensets)."""
    tables = a.__dict__.setdefault("_round_ids", {})
    ix = tables.get(d.rels)
    if ix is None:
        ix = tables[d.rels] = _Interned(d.rels)
    memo, bits = ix.memo, ix.bits
    slots, stride = d._in_slots, d.rels + 1
    state = list(map(ix.intern, initial))
    received = [b for q in state for b in bits[q]]
    own = letters is None
    if not own:
        received[::stride] = [bits[ix.intern(x)][0] for x in letters]
    first = 0 if own else 1  # the slots a node's state change rewrites
    conf = tuple(state)
    seen, configs = {conf: 0}, [conf]
    auto = horizon == "auto"
    limit = cap if auto else min(int(horizon), cap)
    dirty = range(d.n)
    for t in range(1, limit + 1):
        changed = []
        for v in dirty:
            key = 0
            for j in slots[v]:
                key |= received[j]
            q = memo.get(key)
            if q is None:
                q = memo[key] = ix.intern(a.step(*ix.decode(key)))
            if q != state[v]:  # other nodes read the old state in received
                state[v] = q
                changed.append(v)
        if changed:
            readers = d._readers
            dirty = set(changed) if own else set()
            for v in changed:
                received[v * stride + first:(v + 1) * stride] = \
                    bits[state[v]][first:]
                dirty.update(readers[v])
            dirty = sorted(dirty)
            conf = tuple(state)
        else:
            dirty = ()
        if auto:
            prefix = seen.setdefault(conf, t)
            if prefix != t:
                period = t - prefix
                break
        configs.append(conf)
        if not auto and t == limit:
            # bounded window: no lasso claim, report the last config as fixed
            prefix, period = t, 1
            break
    else:
        raise HorizonExceeded(f"no lasso within {limit} steps")
    return RunResult(tuple(configs), ix.names, prefix=prefix, period=period)


def sync_run(a: DistributedAutomaton, d: Digraph,
             horizon="auto", cap: int = DEFAULT_HORIZON_CAP) -> RunResult:
    """The synchronous run rho_0, rho_1, ... with lasso info.

    rho_0(v) = init(label(v)); rho_{t+1}(v) = delta(rho_t(v), incoming sets).
    """
    if a.rels != d.rels:
        raise ValueError(f"automaton has {a.rels} relations, digraph {d.rels}")
    initial = [a.initial_state(x) for x in d.labels]
    return _run_rounds(a, d, initial, None, horizon, cap)


def decide_acceptance_sync(a: DistributedAutomaton, pd: PointedDigraph) -> bool:
    run = sync_run(a, pd.digraph)
    return any(s in a.accepting for s in run.visited_states(pd.point))


def accepted_nodes(a: DistributedAutomaton, d: Digraph) -> frozenset[int]:
    """Bulk variant: the set of nodes whose machine ever visits an
    accepting state, from a single run."""
    run = sync_run(a, d)
    hit = {i for i, q in enumerate(run.names) if q in a.accepting}
    return frozenset(v for v, column in enumerate(zip(*run.ids))
                     if not hit.isdisjoint(column))


@dataclass(frozen=True)
class AutomatonClass:
    is_local: bool
    is_quasi_acyclic: bool
    is_monovisioned: bool

    def __post_init__(self):
        if self.is_local and not self.is_quasi_acyclic:
            raise ValueError("local implies quasi-acyclic")


def validate_total(a: DistributedAutomaton) -> tuple | None:
    """First (state, neighborhoods) pair without a matching rule, or None.

    Rule sets with a catch-all rule per state are total by construction;
    otherwise totality is checked by exhaustive enumeration.
    """
    delta = a.delta
    if isinstance(delta, RuleDelta):
        covered = {r.src for r in delta.rules
                   if all(g.op == "any" for g in r.guards)}
        if covered >= set(a.states):
            return None
    if not a.enumeration_feasible():
        raise ClassificationInfeasible(
            "no catch-all rules and the state space is too large for an "
            "exhaustive totality check")
    for q in a.states:
        for nvec in all_nvecs(a.states, a.rels):
            try:
                a.step(q, nvec)
            except UnmatchedTransition:
                return (q, nvec)
    return None


def state_diagram(a: DistributedAutomaton) -> dict[str, set[str]]:
    """Successor map q -> {delta(q, nvec) : nvec}, by exhaustive enumeration."""
    if not a.enumeration_feasible():
        raise ClassificationInfeasible(
            f"{len(a.states)} states x {a.rels} relations exceeds the "
            f"exhaustive enumeration limit")
    succ: dict[str, set[str]] = {q: set() for q in a.states}
    for q in a.states:
        for nvec in all_nvecs(a.states, a.rels):
            succ[q].add(a.step(q, nvec))
    return succ


def _has_nontrivial_cycle(succ: dict[str, set[str]]) -> bool:
    color: dict[str, int] = {}

    def dfs(q: str) -> bool:
        color[q] = 1
        for t in succ[q]:
            if t == q:
                continue
            c = color.get(t, 0)
            if c == 1 or (c == 0 and dfs(t)):
                return True
        color[q] = 2
        return False

    return any(color.get(q, 0) == 0 and dfs(q) for q in succ)


def classify(a: DistributedAutomaton) -> AutomatonClass:
    succ = state_diagram(a)
    quasi = not _has_nontrivial_cycle(succ)
    local = quasi and not any(q in succ[q] and succ[q] != {q}
                              for q in a.states)
    mono = a.known_monovisioned or _check_monovisioned(a)
    return AutomatonClass(is_local=local, is_quasi_acyclic=quasi,
                          is_monovisioned=mono)


def _check_monovisioned(a: DistributedAutomaton) -> bool:
    if a.rels != 1 or not a.enumeration_feasible():
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


def monovisioned_transform(a: DistributedAutomaton,
                           sink: str = "_sink") -> DistributedAutomaton:
    """Add a rejecting sink entered on seeing more than one incoming state
    (or the sink itself).  Preserves acceptance behavior on dipaths."""
    if a.rels != 1:
        raise ValueError("monovisioned transform is defined over 1 relation")
    while sink in a.states:
        sink += "_"
    states = a.states + (sink,)

    def delta(q, nvec):
        received = nvec[0]
        if q == sink or len(received) > 1 or sink in received:
            return sink
        return a.step(q, nvec)

    return DistributedAutomaton(states=states, rels=1, init=dict(a.init),
                                accepting=a.accepting, delta=delta,
                                known_monovisioned=True)


# ---------------------------------------------------------------------------
# Forgetful automata: next state depends on the node's label and the
# incoming-neighbor state sets only, never on the node's own state.

@dataclass
class ForgetfulAutomaton:
    states: tuple[str, ...]
    rels: int
    initial: str
    letters: tuple[str, ...]              # label bitstrings, sorted
    delta: Callable[[str, NVec], str]     # (letter, neighbourhood) -> state
    accepting: frozenset[str]
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.letters = tuple(sorted(self.letters))
        _declare(self)
        if self.initial not in self._declared:
            raise ValueError(f"initial state {self.initial!r} not in state set")

    def step(self, letter: str, nvec: NVec) -> str:
        key = (letter, nvec)
        out = self._memo.get(key)
        if out is None:
            if letter not in self.letters:
                raise InitializationError(
                    f"no transition table for letter {letter!r}")
            out = self.delta(letter, nvec)
            if out not in self._declared:
                raise UnmatchedTransition(f"delta produced unknown state {out!r}")
            self._memo[key] = out
        return out


def forgetful_run(a: ForgetfulAutomaton, d: Digraph,
                  horizon="auto", cap: int = DEFAULT_HORIZON_CAP) -> RunResult:
    if a.rels != d.rels:
        raise ValueError(f"automaton has {a.rels} relations, digraph {d.rels}")
    return _run_rounds(a, d, [a.initial] * d.n, d.labels, horizon, cap)


def decide_acceptance_forgetful(a: ForgetfulAutomaton, pd: PointedDigraph) -> bool:
    run = forgetful_run(a, pd.digraph)
    return any(s in a.accepting for s in run.visited_states(pd.point))


# ---------------------------------------------------------------------------
# JSON format:
# {"states":[...],"relations":r,"init":{label:state},"accepting":[...],
#  "rules":[{"from":q,"guards":[{"rel":i,"op":..,"set":[...]}],"to":q'}]}
# Forgetful automata have "initial":q and "delta":{letter:[rule rows
# without "from"]} in place of "init" and "rules".

def to_json_dict(a: DistributedAutomaton) -> dict:
    delta = a.delta
    if not isinstance(delta, RuleDelta):
        raise ValueError("only rule-based automata have a JSON form")
    return {
        "states": list(a.states),
        "relations": a.rels,
        "init": dict(sorted(a.init.items())),
        "accepting": sorted(a.accepting),
        "rules": [{"from": r.src, **_rule_json(r)} for r in delta.rules],
    }


def _rule_json(r: Rule) -> dict:
    return {"guards": [{"rel": g.rel, "op": g.op, "set": sorted(g.states)}
                       for g in r.guards],
            "to": r.dst}


def _rule_from_json(row: dict, src: str, rels: int) -> Rule:
    rule = Rule(src, tuple(Guard(g["rel"], g["op"], frozenset(g.get("set", ())))
                           for g in row.get("guards", ())), row["to"])
    if any(g.rel > rels for g in rule.guards):
        raise ValueError(f"rule {row} reads a relation above {rels}")
    return rule


def from_json_dict(obj: dict) -> DistributedAutomaton:
    rels = obj["relations"]
    return DistributedAutomaton(
        states=tuple(obj["states"]),
        rels=rels,
        init=dict(obj["init"]),
        accepting=frozenset(obj["accepting"]),
        delta=RuleDelta(_rule_from_json(r, r["from"], rels)
                        for r in obj["rules"]),
    )


def forgetful_to_json_dict(a: ForgetfulAutomaton) -> dict:
    if not isinstance(a.delta, RuleDelta):
        raise ValueError("only rule-based forgetful automata have a JSON form")
    tables = {letter: [] for letter in a.letters}
    for r in a.delta.rules:
        tables[r.src].append(_rule_json(r))
    return {
        "states": list(a.states),
        "relations": a.rels,
        "initial": a.initial,
        "accepting": sorted(a.accepting),
        "delta": tables,
    }


def forgetful_from_json_dict(obj: dict) -> ForgetfulAutomaton:
    rels = obj["relations"]
    return ForgetfulAutomaton(
        states=tuple(obj["states"]),
        rels=rels,
        initial=obj["initial"],
        letters=tuple(obj["delta"]),
        delta=RuleDelta(_rule_from_json(row, letter, rels)
                        for letter, rows in obj["delta"].items()
                        for row in rows),
        accepting=frozenset(obj["accepting"]),
    )
