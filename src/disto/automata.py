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
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import Digraph, LimitExceeded, PointedDigraph, _cached, subsets

DEFAULT_HORIZON_CAP = 10 ** 6
ENUM_LIMIT = 16  # max |Q| * rels for exhaustive (state, neighbourhood) steps
REGION_BOX_LIMIT = 1024  # box pieces per region question; past it, all_pairs


class InitializationError(ValueError):
    pass


class HorizonExceeded(LimitExceeded):
    pass


class UnmatchedTransition(ValueError):
    pass


class ClassificationInfeasible(LimitExceeded):
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

    def __post_init__(self):
        _declare(self)

    def step(self, q: str, nvec: NVec) -> str:
        """``delta(q, nvec)``, checked to be a declared state.  Runs memoise
        it on their interned keys (``_interned``), so no memo sits here."""
        out = self.delta(q, nvec)
        if out not in self._declared:
            raise UnmatchedTransition(f"delta produced unknown state {out!r}")
        return out

    def initial_state(self, label: str) -> str:
        try:
            return self.init[label]
        except KeyError:
            raise InitializationError(f"no initial state for label {label!r}")


def all_nvecs(states: Iterable[str], rels: int) -> Iterable[NVec]:
    """Every neighbourhood over ``states``: one subset per relation."""
    return itertools.product(subsets(states), repeat=rels)


def check_enum_limit(states: int, rels: int) -> None:
    """Refuse to enumerate every neighbourhood over ``states`` states on
    ``rels`` relations when ``states * rels > ENUM_LIMIT``."""
    if states * rels > ENUM_LIMIT:
        raise ClassificationInfeasible(
            f"{states} states x {rels} relations exceeds the "
            f"exhaustive enumeration limit")


def all_pairs(a) -> Iterator[tuple[object, NVec]]:
    """Every (state, neighbourhood) pair of a distributed or alternating
    automaton: states in declared order, each with every neighbourhood in
    ``all_nvecs`` order.  Refuses ``|Q| * rels > ENUM_LIMIT`` before any
    step."""
    check_enum_limit(len(a.states), a.rels)
    # product materialises the neighbourhoods once, not once per state
    return itertools.product(a.states, all_nvecs(a.states, a.rels))


def _masks(mask: int) -> Iterator[int]:
    """The single bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _box(rule: Rule, bit: dict, n: int, rels: int):
    """The box of ``rule``'s guards: the least and the greatest
    neighbourhood it admits, each packed as one mask with relation i's
    received set in bits ``i*n`` to ``i*n + n - 1``; ``None`` if it admits
    none.  A name outside the states gets a bit above every relation's, so
    requiring it empties the box."""
    full, lo, hi = (1 << n) - 1, 0, (1 << n * rels) - 1
    for g in rule.guards:
        if g.op == "any":
            continue
        mask = 0
        for s in g.states:
            mask |= bit.get(s, 1 << n * rels)
        shift = (g.rel - 1) * n
        if g.op != "subseteq":
            lo |= mask << shift
        if g.op != "supseteq":
            hi &= ~((full & ~mask) << shift)
    return None if lo & ~hi else (lo, hi)


def _box_minus(lo, hi, mlo, mhi) -> list:
    """Disjoint boxes covering the box ``(lo, hi)`` less its nonempty meet
    ``(mlo, mhi)`` with another box: one per member that the meet needs
    and ``lo`` lacks, or that ``hi`` allows and the meet forbids, holding
    the neighbourhoods that break the meet first at that member."""
    out = []
    for e in _masks(mlo & ~lo):
        out.append((lo, hi & ~e))
        lo |= e
    for f in _masks(hi & ~mhi):
        out.append((lo | f, hi))
        hi &= ~f
    return out


class _Fragmented(LimitExceeded):
    """A box split into more than ``REGION_BOX_LIMIT`` pieces; caught by
    ``region_points``, which then gives up."""


def _uncovered(box, boxes):
    """The least member of the first piece of ``box`` that meets none of
    ``boxes`` (a neighbourhood in ``box`` outside all of them), or None if
    they cover it.  Depth first: a piece inside one box is dropped, and
    any other is split against the first box it meets."""
    pieces, split = [box], 0
    while pieces:
        lo, hi = pieces.pop()
        first = None
        for blo, bhi in boxes:
            mlo, mhi = lo | blo, hi & bhi
            if mlo & ~mhi:
                continue
            if mlo == lo and mhi == hi:
                break  # inside one box: covered
            if first is None:
                first = mlo, mhi
        else:
            if first is None:
                return lo
            parts = _box_minus(lo, hi, *first)
            split += len(parts)
            if split > REGION_BOX_LIMIT:
                raise _Fragmented
            pieces += reversed(parts)
    return None


def region_points(a) -> dict | None:
    """For an automaton whose ``delta`` is a ``RuleDelta``: each state ->
    one neighbourhood in each of its rules' regions that is not empty, in
    rule order, and then one that no rule matches, if any.  ``None`` for a
    callable ``delta``, or when one question below splits a box into more
    than ``REGION_BOX_LIMIT`` pieces.

    A rule matches a box: the neighbourhoods between a least and a
    greatest one, relation by relation.  First-match order makes a rule's
    region its box less the boxes of the rules before it, so the region is
    nonempty iff some point of the box lies in none of those
    (``_uncovered``); what no rule matches is the whole lattice less every
    box."""
    delta = a.delta
    if not isinstance(delta, RuleDelta):
        return None
    names = tuple(dict.fromkeys(a.states))
    n, rels = len(names), a.rels
    bit = {q: 1 << i for i, q in enumerate(names)}
    lattice = 0, (1 << n * rels) - 1

    def nvec(lo: int) -> NVec:
        return tuple(frozenset(names[m.bit_length() - 1]
                               for m in _masks((lo >> i * n) & ((1 << n) - 1)))
                     for i in range(rels))

    out = {}
    try:
        for q in names:
            boxes, points = [], []
            for rule in delta._by_src.get(q, ()):
                box = _box(rule, bit, n, rels)
                if box is not None:
                    points.append(_uncovered(box, boxes))
                    boxes.append(box)
            points.append(_uncovered(lattice, boxes))
            out[q] = [nvec(p) for p in points if p is not None]
    except _Fragmented:
        return None
    return out


def region_steps(a, fault: type) -> dict | None:
    """q -> ``a.step`` at each of ``region_points(a)[q]``: the values of
    the rules that fire, for a rule automaton.  A step that raises
    ``fault`` (no rule matches, or a bad target) propagates above
    ``ENUM_LIMIT``.  Within it, as for a callable ``delta`` or too many
    boxes, the answer is ``None``: the caller enumerates ``all_pairs``,
    which raises the message naming the first failing pair in its order."""
    points = region_points(a)
    if points is None:
        return None
    try:
        return {q: [a.step(q, n) for n in ns] for q, ns in points.items()}
    except fault:
        if len(a.states) * a.rels <= ENUM_LIMIT:
            return None
        raise


def _infer_bits(a) -> int:
    """The one width of the labels ``a.init`` names."""
    widths = {len(label) for label in a.init}
    if not widths:
        raise ValueError("automaton has no initialization entries")
    if len(widths) > 1:
        raise ValueError("initialization labels of mixed width")
    return widths.pop()


def _replay(initial: Sequence[int], log: Iterable) -> Iterator[list[int]]:
    """The configuration at each time step of a run that starts in
    ``initial`` and changes as ``log`` says, as one list updated in
    place."""
    conf = list(initial)
    yield conf
    for nodes, ids in log:
        for v, q in zip(nodes, ids):
            conf[v] = q
        yield conf


# not frozen: a frozen dataclass sets each field through object.__setattr__,
# about a microsecond for these six, a tenth of a run on a small digraph
@dataclass(eq=False)
class RunResult:
    """A run from time 0 through the lasso prefix and one period.

    The run is kept as its initial configuration ``initial``, in interned
    state ids, and a log with one entry per later time step: the nodes
    whose state changed in that step, in increasing order, and their new
    ids.  ``closing`` is the configuration the lasso closes on, at time
    ``prefix`` and again at ``prefix + period``.  ``names`` is the
    automaton's id -> state list (only appended to).  So a result costs
    in proportion to the nodes and the state changes, and replays just
    what it is asked for: ``ids`` and ``configs`` every configuration,
    once, on first access; ``state_at`` and ``visited_states`` one
    node's column."""

    initial: tuple[int, ...]
    log: list[tuple[list[int], list[int]]]
    closing: list[int]
    names: list = field(repr=False)
    prefix: int
    period: int

    def _column(self, v: int, upto: int | None = None) -> list[int]:
        """Node ``v``'s ids in the order it takes them, through time
        ``upto`` (default: the whole run)."""
        column = [self.initial[v]]
        for nodes, ids in self.log[:upto]:
            if v in nodes:
                column.append(ids[nodes.index(v)])
        return column

    @_cached
    def ids(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _replay(self.initial, self.log)))

    @_cached
    def configs(self) -> tuple[tuple[str, ...], ...]:
        name = self.names.__getitem__
        return tuple(tuple(map(name, c)) for c in self.ids)

    def state_at(self, t: int, v: int) -> str:
        if t > len(self.log):
            t = self.prefix + (t - self.prefix) % self.period
        return self.names[self._column(v, t)[-1]]

    def visited_states(self, v: int) -> set[str]:
        names = self.names
        return {names[i] for i in set(self._column(v))}


_weight_table: list[int] = []
_weight_bits = random.Random(0x1A550).getrandbits


def _weights(count: int) -> list[int]:
    """At least ``count`` lasso-hash weights, one per node (and, in timed
    runs, per edge): seeded 61-bit draws, so the same in every process
    whatever its ``PYTHONHASHSEED``.  Node v in state id q adds
    ``weights[v] * q`` to a configuration's hash.  The table is shared
    and only grows; entry i is always the i-th draw."""
    missing = count - len(_weight_table)
    if missing > 0:
        _weight_table.extend(_weight_bits(61) for _ in range(missing))
    return _weight_table


def _lasso_start(first: int, clash: dict, h: int, t: int,
                 replay: Iterator, same) -> int | None:
    """After time ``t``'s configuration hashed to ``h``, which time
    ``first`` hashed to before: the earlier time whose configuration
    ``same`` confirms equal to the current one, from the configurations
    ``replay`` yields one per time step from 0 on; or None, after noting
    ``t`` in ``clash`` (hash -> later times that share it).  So a hash
    collision never closes a lasso."""
    times = iter([first, *clash.get(h, ())])
    want = next(times)
    for s, conf in enumerate(replay):
        if s == want:
            if same(conf):
                return s
            want = next(times, None)
            if want is None:
                break
    clash.setdefault(h, []).append(t)
    return None


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


def _interned(a, rels: int) -> _Interned:
    """The automaton's id table and transition memo for ``rels`` relations,
    shared by every run of ``a`` on such digraphs (``asyncrun`` included)."""
    tables = a.__dict__.setdefault("_round_ids", {})
    ix = tables.get(rels)
    if ix is None:
        ix = tables[rels] = _Interned(rels)
    return ix


def _run_rounds(a, d: Digraph, initial: Sequence[str],
                letters: Sequence[str] | None, horizon: int) -> RunResult:
    """The round loop of synchronous runs (``letters`` None: slot 0 holds
    a node's current state) and forgetful runs (slot 0 holds its letter).
    It ends in the run's lasso, or raises ``HorizonExceeded`` if the lasso
    has not closed within ``horizon`` rounds.

    Round 1 computes every node.  Later rounds recompute, in increasing
    node order, only the nodes that read a node whose state changed in the
    last round: its out-neighbours, and in synchronous runs the node
    itself.  Every other node's key is unchanged, so it keeps its state.
    Lasso detection follows the changes too: a round that changes no
    node repeats the last configuration, and otherwise the round's
    changes update one hash, the sum of ``_weights()[v] * id`` over the
    nodes, which a dict maps to the first round that reached it.  A hit
    is confirmed by replaying the log (``_lasso_start``).  The run keeps
    its initial configuration and the log of changes, not a copy per
    round.
    A key missing from the memo is decoded and passed to ``a.step``; ``a``
    needs nothing else but a ``__dict__`` for its tables (one per relation
    count), so states may be any hashable values (``formulas.MuEvaluator``
    runs on frozensets)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    ix = _interned(a, d.rels)
    memo, bits = ix.memo, ix.bits
    slots, stride = d._in_slots, d.rels + 1
    state = list(map(ix.intern, initial))
    received = [b for q in state for b in bits[q]]
    own = letters is None
    if not own:
        received[::stride] = [bits[ix.intern(x)][0] for x in letters]
    first = 0 if own else 1  # the slots a node's state change rewrites
    start, weight = tuple(state), _weights(d.n)
    h = 0  # the lasso hash, less the initial configuration's
    seen, clash, log = {h: 0}, {}, []
    dirty = range(d.n)
    for t in range(1, horizon + 1):
        changed, new = [], []
        for v in dirty:
            key = 0
            for j in slots[v]:
                key |= received[j]
            q = memo.get(key)
            if q is None:
                q = memo[key] = ix.intern(a.step(*ix.decode(key)))
            if q != state[v]:  # other nodes read the old state in received
                h += weight[v] * (q - state[v])
                state[v] = q
                changed.append(v)
                new.append(q)
        if not changed:  # the last configuration again
            prefix = t - 1
            break
        readers = d._readers
        dirty = set(changed) if own else set()
        for v in changed:
            received[v * stride + first:(v + 1) * stride] = \
                bits[state[v]][first:]
            dirty.update(readers[v])
        dirty = sorted(dirty)
        prefix = seen.setdefault(h, t)
        if prefix != t:
            prefix = _lasso_start(prefix, clash, h, t, _replay(start, log),
                                  state.__eq__)
            if prefix is not None:
                break
        log.append((changed, new))
    else:
        raise HorizonExceeded(f"no lasso within {horizon} steps")
    return RunResult(start, log, state, ix.names, prefix=prefix,
                     period=t - prefix)


def sync_run(a: DistributedAutomaton, d: Digraph,
             horizon: int = DEFAULT_HORIZON_CAP) -> RunResult:
    """The synchronous run rho_0, rho_1, ... through its lasso, which must
    close within ``horizon`` rounds.

    rho_0(v) = init(label(v)); rho_{t+1}(v) = delta(rho_t(v), incoming sets).
    """
    if a.rels != d.rels:
        raise ValueError(f"automaton has {a.rels} relations, digraph {d.rels}")
    initial = [a.initial_state(x) for x in d.labels]
    return _run_rounds(a, d, initial, None, horizon)


def decide_acceptance_sync(a: DistributedAutomaton, pd: PointedDigraph) -> bool:
    run = sync_run(a, pd.digraph)
    return any(s in a.accepting for s in run.visited_states(pd.point))


def accepted_nodes(a: DistributedAutomaton, d: Digraph) -> frozenset[int]:
    """Bulk variant: the set of nodes whose machine ever visits an
    accepting state, from a single run."""
    return _accepting_columns(sync_run(a, d), a.accepting)


def _accepting_columns(run, accepting) -> frozenset[int]:
    """The nodes whose column of ``run.ids`` holds an accepting id, read
    off the initial configuration and the log."""
    hit = {i for i, q in enumerate(run.names) if q in accepting}
    out = {v for v, q in enumerate(run.initial) if q in hit}
    for nodes, ids in run.log:
        for v, q in zip(nodes, ids):
            if q in hit:
                out.add(v)
    return frozenset(out)


@dataclass(frozen=True)
class AutomatonClass:
    is_local: bool
    is_quasi_acyclic: bool
    is_monovisioned: bool

    def __post_init__(self):
        if self.is_local and not self.is_quasi_acyclic:
            raise ValueError("local implies quasi-acyclic")


def validate_total(a: DistributedAutomaton) -> tuple | None:
    """First (state, neighborhoods) pair whose step fails (no rule matches,
    or the target is undeclared), or None.

    A rule automaton is stepped once in each rule region and once in what
    its rules leave unmatched (``region_points``); above ``ENUM_LIMIT`` the
    first such pair that fails is the answer.  Otherwise the pairs are
    enumerated in ``all_pairs`` order.
    """
    points = region_points(a)
    if points is not None:
        fault = next(((q, n) for q, ns in points.items() for n in ns
                      if _fails(a, q, n)), None)
        if fault is None or len(a.states) * a.rels > ENUM_LIMIT:
            return fault
    return next(((q, n) for q, n in all_pairs(a) if _fails(a, q, n)), None)


def _fails(a: DistributedAutomaton, q: str, nvec: NVec) -> bool:
    try:
        a.step(q, nvec)
    except UnmatchedTransition:
        return True
    return False


def state_diagram(a: DistributedAutomaton) -> dict[str, set[str]]:
    """Successor map q -> {delta(q, nvec) : nvec}: from the rule regions
    of a rule automaton (``region_steps``), else by exhaustive
    enumeration."""
    steps = region_steps(a, UnmatchedTransition)
    if steps is not None:
        return {q: set(targets) for q, targets in steps.items()}
    succ: dict[str, set[str]] = {q: set() for q in a.states}
    for q, nvec in all_pairs(a):
        succ[q].add(a.step(q, nvec))
    return succ


def _has_nontrivial_cycle(succ: dict[str, set[str]]) -> bool:
    """Whether the successor map has a cycle other than a self-loop: a
    depth-first search from each unvisited state in ``succ`` order, on an
    explicit stack of (state, its remaining successors), so the depth of
    a long chain is no recursion."""
    color: dict[str, int] = {}  # 1: on the stack, 2: done
    for root in succ:
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            q, targets = stack[-1]
            for t in targets:
                if t == q:
                    continue
                c = color.get(t, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[t] = 1
                    stack.append((t, iter(succ[t])))
                    break
            else:
                color[q] = 2
                stack.pop()
    return False


def classify(a: DistributedAutomaton) -> AutomatonClass:
    succ = state_diagram(a)
    quasi = not _has_nontrivial_cycle(succ)
    local = quasi and not any(q in succ[q] and succ[q] != {q}
                              for q in a.states)
    mono = _check_monovisioned(a)
    return AutomatonClass(is_local=local, is_quasi_acyclic=quasi,
                          is_monovisioned=mono)


def _check_monovisioned(a: DistributedAutomaton) -> bool:
    if a.rels != 1:
        return False
    return any(all(a.step(q, nvec) == sink for q, nvec in all_pairs(a)
                   if len(nvec[0]) > 1 or sink in nvec[0] or q == sink)
               for sink in set(a.states) - set(a.accepting))


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
                                accepting=a.accepting, delta=delta)


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
                  horizon: int = DEFAULT_HORIZON_CAP) -> RunResult:
    if a.rels != d.rels:
        raise ValueError(f"automaton has {a.rels} relations, digraph {d.rels}")
    return _run_rounds(a, d, [a.initial] * d.n, d.labels, horizon)


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


def _names(value, what: str) -> list[str]:
    """``value`` if it is a JSON list of strings, else ``ValueError``."""
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise ValueError(f"{what} must be a list of strings, got {value!r}")
    return value


def _positive(obj: dict, key: str) -> int:
    """``obj[key]`` if it is an integer >= 1, else ``ValueError``."""
    value = obj[key]
    if not (isinstance(value, int) and value >= 1):
        raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _init(obj: dict, states: Sequence[str]) -> dict[str, str]:
    """The label -> state map of ``obj``, every state declared."""
    init = dict(obj["init"])
    if not set(init.values()) <= set(states):
        raise ValueError(f"initial states {init} not in state set")
    return init


def _rule_from_json(row: dict, src: str, rels: int,
                    many: bool = False) -> Rule:
    """One rule row; ``to`` is a state, or with ``many`` a list of states."""
    targets = _names(row["to"], "rule targets") if many else [row["to"]]
    _names([src, *targets], "rule states")
    rule = Rule(src, tuple(Guard(g["rel"], g["op"], frozenset(g.get("set", ())))
                           for g in row.get("guards", ())), row["to"])
    if any(g.rel > rels for g in rule.guards):
        raise ValueError(f"rule {row} reads a relation above {rels}")
    return rule


def from_json_dict(obj: dict) -> DistributedAutomaton:
    rels = _positive(obj, "relations")
    states = tuple(_names(obj["states"], "states"))
    return DistributedAutomaton(
        states=states,
        rels=rels,
        init=_init(obj, states),
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
    rels = _positive(obj, "relations")
    return ForgetfulAutomaton(
        states=tuple(_names(obj["states"], "states")),
        rels=rels,
        initial=obj["initial"],
        letters=tuple(obj["delta"]),
        delta=RuleDelta(_rule_from_json(row, letter, rels)
                        for letter, rows in obj["delta"].items()
                        for row in rows),
        accepting=frozenset(obj["accepting"]),
    )
