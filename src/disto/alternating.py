"""Alternating local automata with a global acceptance condition.

States carry levels: initial states sit at level 0 (or are permanent),
transitions between nonpermanent states climb exactly one level, and the
permanent states form the top level with self-loops only.  A run unfolds
configuration by configuration; acceptance is decided by the associated
two-player game (OR at existential configurations, AND at universal ones,
membership of the occurring permanent-state set in the accepting sets at
permanent configurations).

Closure constructions (complement, union, intersection, projection) and
the structural-induction compiler from MSO sentences live here too, as
does the bounded emptiness decider for the nondeterministic subclass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from . import formulas as fm
from .automata import (NVec, RuleDelta, UnmatchedTransition, _Interned,
                       _infer_bits, _init, _names, _positive, _rule_from_json,
                       _rule_json, all_pairs, region_steps)
from .graphs import (ENUM_SAFETY_BOUND, Digraph, LimitExceeded,
                     OracleBoundError, _bitstrings, enumerate_digraphs)

GAME_SUCCESSOR_CAP = 200_000


class AltError(ValueError):
    pass


class MixedConfiguration(AltError):
    pass


class AcceptingSets:
    """Membership-queriable family of accepting sets of permanent states."""

    def contains(self, occurring: frozenset) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitSets(AcceptingSets):
    sets: frozenset

    def contains(self, occurring: frozenset) -> bool:
        return occurring in self.sets


@dataclass(frozen=True)
class PredicateSets(AcceptingSets):
    fn: Callable[[frozenset], bool]

    def contains(self, occurring: frozenset) -> bool:
        return bool(self.fn(occurring))


def explicit(*sets: Iterable) -> ExplicitSets:
    return ExplicitSets(frozenset(frozenset(s) for s in sets))


@dataclass
class AltAutomaton:
    """<(E,U,P), init, delta, Acc> with set-valued transitions."""

    states: tuple
    kind: dict          # state -> 'E' | 'U' | 'P'
    rels: int
    init: dict          # label bitstring -> state
    delta: Callable[[object, NVec], frozenset]
    accepting: AcceptingSets
    succ_map: dict | None = None   # state -> frozenset of possible targets

    def __post_init__(self):
        kinds = set(self.kind.values())
        if not kinds <= {"E", "U", "P"}:
            raise AltError(f"bad state kinds {kinds - {'E', 'U', 'P'}}")
        if not any(k == "P" for k in self.kind.values()):
            raise AltError("the set of permanent states must be nonempty")
        self._declared = frozenset(self.states)

    def permanent(self) -> frozenset:
        return frozenset(q for q in self.states if self.kind[q] == "P")

    def step(self, q, nvec: NVec) -> frozenset:
        """``delta(q, nvec)``, checked: a nonempty set of declared states.
        The game memoises it on its interned keys, so no memo sits here."""
        try:
            out = frozenset(self.delta(q, nvec))
        except UnmatchedTransition as e:
            raise AltError(str(e)) from None
        if not out:
            raise AltError(f"empty transition value at state {q!r}")
        extra = out - self._declared
        if extra:
            raise AltError(f"transition from state {q!r} on {nvec} "
                           f"targets undeclared states "
                           f"{sorted(extra, key=repr)}")
        return out

    def successors_superset(self) -> dict:
        """state -> every state its transitions can reach.  Without a map
        supplied, the first call reads it off the rule regions of a rule
        automaton (``region_steps``), or else steps every (state,
        neighbourhood) pair, and attaches the result as ``succ_map``."""
        if self.succ_map is None:
            steps = region_steps(self, AltError)
            if steps is not None:
                succ = {q: frozenset().union(*ts) for q, ts in steps.items()}
            else:
                succ = {q: set() for q in self.states}
                for q, nvec in all_pairs(self):
                    succ[q] |= self.step(q, nvec)
            self.succ_map = {q: frozenset(t) for q, t in succ.items()}
        return self.succ_map


# ---------------------------------------------------------------------------
# Validation: the level conditions

def validate_alt(a: AltAutomaton) -> dict:
    """The unique level assignment, derived on the first call and kept on
    the automaton.  Raises ``AltError`` naming the first violated level
    condition, ``MixedConfiguration`` for a level of both E and U states."""
    if "_levels" in a.__dict__:
        return a._levels
    succ = a.successors_superset()
    perm = a.permanent()
    nonperm = [q for q in a.states if a.kind[q] != "P"]

    for p in perm:
        if succ[p] != {p}:
            raise AltError(
                f"permanent state {p!r} has a non-self-loop transition")

    incoming: dict = {q: set() for q in nonperm}
    for q1 in nonperm:
        for q2 in succ[q1]:
            if a.kind[q2] != "P":
                incoming[q2].add(q1)

    levels: dict = {}
    frontier = [q for q in nonperm if not incoming[q]]
    for q in frontier:
        levels[q] = 0
    i = 0
    while frontier:
        nxt = []
        for q1 in frontier:
            for q2 in succ[q1]:
                if a.kind[q2] == "P":
                    continue
                want = i + 1
                have = levels.get(q2)
                if have is None:
                    levels[q2] = want
                    nxt.append(q2)
                elif have != want:
                    raise AltError(
                        f"state {q2!r} would need levels {have} and {want}; "
                        f"transitions must go from one level to the next")
        frontier = nxt
        i += 1
    missing = [q for q in nonperm if q not in levels]
    if missing:
        raise AltError(
            f"states {missing} have incoming transitions but no consistent "
            f"level (cycle among nonpermanent states)")

    by_level: dict[int, set] = {}
    for q, lv in levels.items():
        by_level.setdefault(lv, set()).add(q)
    for lv, qs in sorted(by_level.items()):
        kinds = {a.kind[q] for q in qs}
        if len(kinds) > 1:
            raise MixedConfiguration(
                f"level {lv} mixes state types {sorted(kinds)}")

    top = (max(levels.values()) + 1) if levels else 0
    for p in perm:
        levels[p] = top

    for label, q in a.init.items():
        if a.kind[q] != "P" and levels.get(q, -1) != 0:
            raise AltError(
                f"initial state {q!r} (label {label!r}) is neither on the "
                f"lowest level nor permanent")
    a._levels = levels
    return levels


def length(a: AltAutomaton) -> int:
    return max(validate_alt(a).values())


def is_nondeterministic(a: AltAutomaton) -> bool:
    return all(k != "U" for k in a.kind.values())


def is_deterministic(a: AltAutomaton) -> bool:
    """Syntactic check: every transition value is a singleton, read off
    the rule regions of a rule automaton (``region_steps``), else off
    every (state, neighbourhood) pair."""
    if not is_nondeterministic(a):
        return False
    steps = region_steps(a, AltError)
    if steps is not None:
        return all(len(t) == 1 for ts in steps.values() for t in ts)
    return all(len(a.step(q, nvec)) == 1 for q, nvec in all_pairs(a))


# ---------------------------------------------------------------------------
# Configurations, the global transition function, and game acceptance

def configuration_kind(a: AltAutomaton, conf: tuple) -> str:
    kinds = {a.kind[q] for q in conf}
    if kinds <= {"P"}:
        return "P"
    nonperm = kinds - {"P"}
    if nonperm == {"E"}:
        return "E"
    if nonperm == {"U"}:
        return "U"
    raise MixedConfiguration(
        f"configuration mixes existential and universal states: {conf}")


def initial_configuration(a: AltAutomaton, d: Digraph) -> tuple:
    return tuple(a.init[d.label(v)] for v in d.nodes())


def _node_options(a: AltAutomaton, d: Digraph, conf: tuple, v: int):
    nvec = tuple(frozenset(conf[u] for u in d.in_neighbors(i, v))
                 for i in range(1, d.rels + 1))
    return sorted(a.step(conf[v], nvec), key=repr)


def global_successors(a: AltAutomaton, conf: tuple, d: Digraph) -> list[tuple]:
    """All successor configurations: the product of per-node local choices."""
    options = [_node_options(a, d, conf, v) for v in d.nodes()]
    count = 1
    for opts in options:
        count *= len(opts)
        if count > GAME_SUCCESSOR_CAP:
            raise LimitExceeded("configuration has too many successors "
                                f"(cap {GAME_SUCCESSOR_CAP})")
    return [tuple(choice) for choice in itertools.product(*options)]


# ORed over a configuration: 0 permanent (or no nodes), 1 E, 2 U, 3 mixed
_KIND_BIT = {"E": 1, "U": 2, "P": 0}


def decide_acceptance_alt(a: AltAutomaton, d: Digraph) -> bool:
    """Game evaluation over reachable configurations: OR at existential,
    AND at universal, accepting-set membership at permanent ones.

    Configurations are tuples of state ids.  A node's options are memoised
    on the automaton, for all digraphs, under the round loop's integer key
    (own state in slot 0, received states in slots 1..rels); a key missing
    from the memo is decoded and passed to ``a.step``.  States are interned
    up front in declared order, so option tuples sort as the states are
    declared; ``a.step`` refuses a delta target outside ``a.states``.
    Before its first game the automaton must pass ``validate_alt``, so
    every play reaches a permanent configuration within ``length(a)``
    rounds.

    The search runs on an explicit stack, not by recursion, so a long
    play needs no Python stack.  Each configuration with successors, one
    or many, is a frame ``(configuration, its successors not yet tried,
    existential?)``, trying successors in ``itertools.product`` order.  A
    child's value decides its frame when it is true at an existential
    frame or false at a universal one; otherwise the next successor is
    tried, and an exhausted frame takes its last child's value.
    """
    if a.rels != d.rels:
        raise AltError(f"automaton has {a.rels} relations, digraph {d.rels}")
    if "_interned" not in a.__dict__:
        validate_alt(a)
        ix = _Interned(a.rels)
        for q in a.states:
            ix.intern(q)
        a._interned = ix, [_KIND_BIT[a.kind[q]] for q in ix.names]
    ix, kind_bits = a._interned
    ids, names, bits, options = ix.ids, ix.names, ix.bits, ix.memo
    slots = d._in_slots
    acc_memo, memo, stack = {}, {}, []
    conf = tuple(ids[a.init[lab]] for lab in d.labels)
    while True:
        out = memo.get(conf)
        if out is None:
            mask = 0
            for q in conf:
                mask |= kind_bits[q]
            if mask:
                if mask == 3:  # only past a supplied succ_map missing targets
                    raise MixedConfiguration(
                        "configuration mixes existential and universal states")
                received = [b for q in conf for b in bits[q]]
                opts, count = [], 1
                for node_slots in slots:
                    key = 0
                    for j in node_slots:
                        key |= received[j]
                    o = options.get(key)
                    if o is None:
                        raw = a.step(*ix.decode(key))
                        o = options[key] = tuple(sorted(ids[t] for t in raw))
                    opts.append(o)
                for o in opts:
                    count *= len(o)
                    if count > GAME_SUCCESSOR_CAP:
                        raise LimitExceeded(
                            "configuration has too many successors "
                            f"(cap {GAME_SUCCESSOR_CAP})")
                successors = itertools.product(*opts)
                stack.append((conf, successors, mask == 1))
                conf = next(successors)
                continue
            occ = frozenset(conf)
            out = acc_memo.get(occ)
            if out is None:
                out = acc_memo[occ] = bool(a.accepting.contains(
                    frozenset(names[i] for i in occ)))
            memo[conf] = out
        # hand the value up to every frame it decides or exhausts
        while stack:
            top, successors, existential = stack[-1]
            if out is not existential:
                conf = next(successors, None)
                if conf is not None:
                    break
            memo[top] = out
            stack.pop()
        else:
            return out


# ---------------------------------------------------------------------------
# Profile normalization: prune to initial-reachable states and re-time the
# automaton so nonpermanent levels alternate existential (even) / universal
# (odd).  Needed to make any two operands level-type compatible for union.

def prune_reachable(a: AltAutomaton) -> AltAutomaton:
    succ = a.successors_superset()
    reach = set(a.init.values())
    work = list(reach)
    while work:
        q = work.pop()
        for t in succ.get(q, ()):
            if t not in reach:
                reach.add(t)
                work.append(t)
    states = tuple(q for q in a.states if q in reach)
    if len(states) == len(a.states):
        return a
    return AltAutomaton(
        states=states,
        kind={q: a.kind[q] for q in states},
        rels=a.rels, init=dict(a.init), delta=a.delta,
        accepting=a.accepting,
        succ_map={q: succ[q] & reach for q in states},
    )


def _strip_profile(state):
    if isinstance(state, tuple) and len(state) == 3 and state[0] == "rt":
        return state[1]
    return state


def normalize_profile(a: AltAutomaton) -> AltAutomaton:
    """Equivalent automaton whose nonpermanent levels alternate E,U,E,U...

    Levels are re-timed onto parity-matching slots; a level whose type
    already matches its slot costs nothing, otherwise one deterministic
    stall level is inserted.  Idempotent, so repeated closure compositions
    grow lengths linearly.
    """
    a = prune_reachable(a)
    levels = validate_alt(a)
    perm = a.permanent()
    nonperm = [q for q in a.states if a.kind[q] != "P"]
    if not nonperm:
        return a
    depth = max(levels[q] for q in nonperm)
    level_type = {levels[q]: a.kind[q] for q in nonperm}

    def parity_of(kind_: str) -> int:
        return 0 if kind_ == "E" else 1

    fire_slot: dict[int, int] = {}
    slot = -1
    for i in range(depth + 1):
        slot += 1
        if slot % 2 != parity_of(level_type[i]):
            slot += 1
        fire_slot[i] = slot
    if all(fire_slot[i] == i for i in range(depth + 1)):
        return a  # already alternating from an existential level 0

    enter_slot = {0: 0}
    for i in range(1, depth + 1):
        enter_slot[i] = fire_slot[i - 1] + 1
    succ = a.successors_superset()

    states: list = []
    kind: dict = {}
    new_succ: dict = {}

    def clone(q, s):
        return ("rt", q, s)

    def entry(q):
        return q if q in perm else clone(q, enter_slot[levels[q]])

    for q in nonperm:
        lv = levels[q]
        for s in range(enter_slot[lv], fire_slot[lv] + 1):
            c = clone(q, s)
            states.append(c)
            kind[c] = "E" if s % 2 == 0 else "U"
            if s < fire_slot[lv]:
                new_succ[c] = frozenset({clone(q, s + 1)})
            else:
                new_succ[c] = frozenset(entry(t) for t in succ[q])
    for p in a.states:  # in declared order, not the frozenset's
        if p not in perm:
            continue
        states.append(p)
        kind[p] = "P"
        new_succ[p] = frozenset({p})

    def delta(state, nvec: NVec):
        if state in perm:
            return frozenset({state})
        _, q, s = state
        if s < fire_slot[levels[q]]:
            return frozenset({clone(q, s + 1)})
        stripped = tuple(frozenset(_strip_profile(x) for x in ns)
                         for ns in nvec)
        return frozenset(entry(t) for t in a.step(q, stripped))

    init = {lab: (q if q in perm else clone(q, 0))
            for lab, q in a.init.items()}
    return AltAutomaton(states=tuple(states), kind=kind, rels=a.rels,
                        init=init, delta=delta, accepting=a.accepting,
                        succ_map=new_succ)


# ---------------------------------------------------------------------------
# Closure constructions

def complement(a: AltAutomaton) -> AltAutomaton:
    """Swap existential and universal states, complement the accepting sets."""
    flip = {"E": "U", "U": "E", "P": "P"}
    acc = a.accepting
    return AltAutomaton(
        states=a.states,
        kind={q: flip[k] for q, k in a.kind.items()},
        rels=a.rels, init=dict(a.init), delta=a.delta,
        accepting=PredicateSets(lambda s: not acc.contains(s)),
        succ_map=a.succ_map,
    )


def union(a: AltAutomaton, b: AltAutomaton) -> AltAutomaton:
    """In the first round every node picks one operand; mixed choices are
    caught locally when visible, or globally through the tagged permanent
    states in the accepting condition."""
    if a.rels != b.rels:
        raise AltError("union needs operands with equal relation count")
    if set(a.init) != set(b.init):
        raise AltError("union needs operands over the same alphabet")
    a = normalize_profile(a)
    b = normalize_profile(b)
    operands = {1: a, 2: b}
    conflict = ("conflict",)

    states: list = [("choice", lab) for lab in sorted(a.init)]
    kind: dict = {s: "E" for s in states}
    for j, op in operands.items():
        for q in op.states:
            states.append((j, q))
            kind[(j, q)] = op.kind[q]
    states.append(conflict)
    kind[conflict] = "P"

    perm_of = {j: op.permanent() for j, op in operands.items()}

    def delta(state, nvec: NVec):
        if state == conflict:
            return frozenset({conflict})
        if state[0] == "choice":
            lab = state[1]
            return frozenset({(1, a.init[lab]), (2, b.init[lab])})
        j, q = state
        op = operands[j]
        if q in perm_of[j]:
            return frozenset({state})
        stripped = []
        for ns in nvec:
            bucket = set()
            for s in ns:
                if isinstance(s, tuple) and len(s) == 2 and s[0] == j:
                    bucket.add(s[1])
                else:
                    return frozenset({conflict})
            stripped.append(frozenset(bucket))
        return frozenset((j, t) for t in op.step(q, tuple(stripped)))

    succ: dict = {}
    for lab in sorted(a.init):
        succ[("choice", lab)] = frozenset({(1, a.init[lab]), (2, b.init[lab]),
                                           conflict})
    for j, op in operands.items():
        opsucc = op.successors_superset()
        for q in op.states:
            succ[(j, q)] = frozenset((j, t) for t in opsucc[q])
            if q not in perm_of[j]:
                succ[(j, q)] |= {conflict}
    succ[conflict] = frozenset({conflict})

    acc_a, acc_b = a.accepting, b.accepting

    def accepts(occurring: frozenset) -> bool:
        if conflict in occurring:
            return False
        tags = {s[0] for s in occurring}
        if tags == {1}:
            return acc_a.contains(frozenset(s[1] for s in occurring))
        if tags == {2}:
            return acc_b.contains(frozenset(s[1] for s in occurring))
        return False

    init = {lab: ("choice", lab) for lab in a.init}
    return AltAutomaton(states=tuple(states), kind=kind, rels=a.rels,
                        init=init, delta=delta,
                        accepting=PredicateSets(accepts),
                        succ_map=succ)


def intersect(a: AltAutomaton, b: AltAutomaton) -> AltAutomaton:
    """Cartesian-product construction; inputs must be nondeterministic."""
    if not (is_nondeterministic(a) and is_nondeterministic(b)):
        raise AltError("the product construction needs nondeterministic "
                       "operands; complement/union give intersection of "
                       "alternating automata via De Morgan")
    if a.rels != b.rels or set(a.init) != set(b.init):
        raise AltError("intersection needs matching alphabet and relations")
    a = prune_reachable(a)
    b = prune_reachable(b)
    la, lb = validate_alt(a), validate_alt(b)
    perm_a, perm_b = a.permanent(), b.permanent()

    def compatible(q1, q2) -> bool:
        p1, p2 = q1 in perm_a, q2 in perm_b
        if p1 or p2:
            return True
        return la[q1] == lb[q2]

    pairs = [(q1, q2) for q1 in a.states for q2 in b.states
             if compatible(q1, q2)]
    kind = {}
    for (q1, q2) in pairs:
        if q1 in perm_a and q2 in perm_b:
            kind[(q1, q2)] = "P"
        else:
            kind[(q1, q2)] = "E"

    def delta(state, nvec: NVec):
        q1, q2 = state
        n1 = tuple(frozenset(s[0] for s in ns) for ns in nvec)
        n2 = tuple(frozenset(s[1] for s in ns) for ns in nvec)
        opts1 = a.step(q1, n1) if q1 not in perm_a else frozenset({q1})
        opts2 = b.step(q2, n2) if q2 not in perm_b else frozenset({q2})
        return frozenset(itertools.product(opts1, opts2))

    sa, sb = a.successors_superset(), b.successors_superset()
    succ = {}
    for (q1, q2) in pairs:
        t1 = sa[q1] if q1 not in perm_a else {q1}
        t2 = sb[q2] if q2 not in perm_b else {q2}
        succ[(q1, q2)] = frozenset(
            p for p in itertools.product(t1, t2) if compatible(*p))

    acc_a, acc_b = a.accepting, b.accepting

    def accepts(occurring: frozenset) -> bool:
        return (acc_a.contains(frozenset(p[0] for p in occurring))
                and acc_b.contains(frozenset(p[1] for p in occurring)))

    init = {lab: (a.init[lab], b.init[lab]) for lab in a.init}
    out = AltAutomaton(states=tuple(pairs), kind=kind, rels=a.rels,
                       init=init, delta=delta,
                       accepting=PredicateSets(accepts),
                       succ_map=succ)
    return prune_reachable(out)


def project(a: AltAutomaton, mapping: dict[str, str]) -> AltAutomaton:
    """Language image under a node projection: each node guesses a preimage
    of its label, then the operand runs one round delayed."""
    if set(mapping) != set(a.init):
        raise AltError("projection mapping must cover the operand's alphabet")
    if not all(isinstance(lab, str) and set(lab) <= {"0", "1"}
               for lab in mapping.values()):
        raise AltError("projection image labels must be bitstrings")
    a = prune_reachable(a)
    width = {len(lab) for lab in mapping.values()}
    if len(width) != 1:
        raise AltError("projection image labels of mixed width")
    out_labels = _bitstrings(width.pop())
    preimage: dict[str, list[str]] = {lab: [] for lab in out_labels}
    for src, dst in sorted(mapping.items()):
        preimage[dst].append(src)
    dead = ("proj-dead",)
    perm = a.permanent()

    states: list = [("start", lab) for lab in out_labels]
    kind: dict = {s: "E" for s in states}
    for q in a.states:
        states.append(("run", q))
        kind[("run", q)] = a.kind[q]
    states.append(dead)
    kind[dead] = "P"

    def lift(q):
        return ("run", q)

    def delta(state, nvec: NVec):
        if state == dead:
            return frozenset({dead})
        if state[0] == "start":
            pre = preimage[state[1]]
            if not pre:
                return frozenset({dead})
            return frozenset(lift(a.init[src]) for src in pre)
        q = state[1]
        stripped = tuple(
            frozenset(s[1] for s in ns
                      if isinstance(s, tuple) and s and s[0] == "run")
            for ns in nvec)
        return frozenset(lift(t) for t in a.step(q, stripped))

    succ: dict = {}
    asucc = a.successors_superset()
    for lab in out_labels:
        pre = preimage[lab]
        succ[("start", lab)] = (frozenset(lift(a.init[s]) for s in pre)
                                or frozenset({dead}))
    for q in a.states:
        succ[("run", q)] = frozenset(lift(t) for t in asucc[q])
    succ[dead] = frozenset({dead})

    acc = a.accepting

    def accepts(occurring: frozenset) -> bool:
        if dead in occurring:
            return False
        return acc.contains(frozenset(s[1] for s in occurring))

    init = {lab: ("start", lab) for lab in out_labels}
    out = AltAutomaton(states=tuple(states), kind=kind, rels=a.rels,
                       init=init, delta=delta,
                       accepting=PredicateSets(accepts),
                       succ_map=succ)
    return prune_reachable(out)


def intersect_demorgan(a: AltAutomaton, b: AltAutomaton) -> AltAutomaton:
    """Intersection of arbitrary alternating automata via De Morgan."""
    return complement(union(complement(a), complement(b)))


def apply_closure(kind: str, a: AltAutomaton, b: AltAutomaton | None = None,
                  mapping: dict | None = None) -> AltAutomaton:
    if kind == "complement":
        return complement(a)
    if kind == "union":
        if b is None:
            raise AltError("union needs two operands")
        return union(a, b)
    if kind == "intersect":
        if b is None:
            raise AltError("intersect needs two operands")
        return intersect(a, b)
    if kind == "project":
        if mapping is None:
            raise AltError("project needs a label mapping")
        return project(a, mapping)
    raise AltError(f"unknown closure kind {kind!r}")


# ---------------------------------------------------------------------------
# MSO sentences -> alternating automata (structural induction)

def _trivial_automaton(accept_all: bool, bits: int, rels: int) -> AltAutomaton:
    ok = ("ok",)
    acc = explicit({ok}) if accept_all else ExplicitSets(frozenset())
    return AltAutomaton(
        states=(ok,), kind={ok: "P"}, rels=rels,
        init={lab: ok for lab in _bitstrings(bits)},
        delta=lambda q, n: frozenset({q}), accepting=acc,
        succ_map={ok: frozenset({ok})})


def _local_check_automaton(check: Callable[[str], bool], bits: int,
                           rels: int) -> AltAutomaton:
    """Length-0 automaton: every node checks its own label; accepts iff no
    node reports a violation."""
    good, bad = ("good",), ("bad",)
    return AltAutomaton(
        states=(good, bad), kind={good: "P", bad: "P"}, rels=rels,
        init={lab: (good if check(lab) else bad) for lab in _bitstrings(bits)},
        delta=lambda q, n: frozenset({q}),
        accepting=explicit({good}),
        succ_map={good: frozenset({good}), bad: frozenset({bad})})


def _edge_check_automaton(xbit: int, ybit: int, rel: int, bits: int,
                          rels: int) -> AltAutomaton:
    """Length-1 automaton for R_rel(x,y): after one round the node holding
    the y-bit checks that some incoming rel-neighbor held the x-bit."""
    good, bad = ("good",), ("bad",)
    carriers = [("c", has_x, has_y) for has_x in (0, 1) for has_y in (0, 1)]
    states = tuple(carriers) + (good, bad)
    kind = {s: "E" for s in carriers}
    kind.update({good: "P", bad: "P"})

    def init_state(lab: str):
        return ("c", int(lab[xbit]), int(lab[ybit]))

    def delta(state, nvec: NVec):
        if state in (good, bad):
            return frozenset({state})
        _, _, has_y = state
        if not has_y:
            return frozenset({good})
        seen_x = any(isinstance(s, tuple) and s[0] == "c" and s[1]
                     for s in nvec[rel - 1])
        return frozenset({good if seen_x else bad})

    succ = {s: frozenset({good, bad}) for s in carriers}
    succ.update({good: frozenset({good}), bad: frozenset({bad})})
    return AltAutomaton(
        states=states, kind=kind, rels=rels,
        init={lab: init_state(lab) for lab in _bitstrings(bits)},
        delta=delta, accepting=explicit({good}), succ_map=succ)


def _exactly_one_automaton(bit: int, bits: int, rels: int) -> AltAutomaton:
    """Accepts iff exactly one node carries the given label bit: carriers
    branch universally into two markers and the accepting sets demand
    exactly one marker globally."""
    u_has, u_not = ("one", 1), ("one", 0)
    m3, m4, n = ("m3",), ("m4",), ("n",)
    states = (u_has, u_not, m3, m4, n)
    kind = {u_has: "U", u_not: "U", m3: "P", m4: "P", n: "P"}

    def delta(state, nvec: NVec):
        if state == u_has:
            return frozenset({m3, m4})
        if state == u_not:
            return frozenset({n})
        return frozenset({state})

    succ = {u_has: frozenset({m3, m4}), u_not: frozenset({n}),
            m3: frozenset({m3}), m4: frozenset({m4}), n: frozenset({n})}
    return AltAutomaton(
        states=states, kind=kind, rels=rels,
        init={lab: (u_has if lab[bit] == "1" else u_not)
              for lab in _bitstrings(bits)},
        delta=delta,
        accepting=explicit({m3}, {m4}, {m3, n}, {m4, n}),
        succ_map=succ)


def _project_out(a: AltAutomaton, syms: tuple, sym: str,
                 base_bits: int) -> AltAutomaton:
    pos = base_bits + syms.index(sym)
    mapping = {lab: lab[:pos] + lab[pos + 1:]
               for lab in _bitstrings(base_bits + len(syms))}
    return project(a, mapping)


def compile_mso_to_aldag(f, bits: int, rels: int) -> AltAutomaton:
    """Compile an MSO sentence over the digraph signature into an equivalent
    alternating automaton, by structural induction: local label checks and a
    one-round edge check at the atoms, complement/union for the Boolean
    layer, and projection (plus a uniqueness gadget for node quantifiers)
    for the existential quantifiers.  The set constants ``P1..P{bits}``
    read label bits and may occur free."""
    extra = sorted(s for s in fm.free_symbols(f)
                   if not 1 <= (fm.label_constant_index(s) or 0) <= bits)
    if extra:
        raise AltError(f"compile_mso_to_aldag needs a sentence; free: {extra}")
    return _compile(f, (), bits, rels)


def _bitpos(syms: tuple, sym: str, base_bits: int) -> int:
    return base_bits + syms.index(sym)


def _compile(f, syms: tuple, bits: int, rels: int) -> AltAutomaton:
    width_syms = syms

    if isinstance(f, fm.Top):
        return _trivial_automaton(True, bits + len(syms), rels)
    if isinstance(f, fm.Bot):
        return _trivial_automaton(False, bits + len(syms), rels)
    if isinstance(f, fm.Eq):
        pa = _bitpos(width_syms, f.a, bits)
        pb = _bitpos(width_syms, f.b, bits)
        return _local_check_automaton(lambda lab: lab[pa] == lab[pb],
                                      bits + len(syms), rels)
    if isinstance(f, fm.In):
        if f.at is None:
            raise AltError("position atoms are not part of the MSO kernel")
        pa = _bitpos(width_syms, f.at, bits)
        idx = fm.label_constant_index(f.setsym)
        if idx is not None and 1 <= idx <= bits:
            pX = idx - 1
        else:
            pX = _bitpos(width_syms, f.setsym, bits)
        return _local_check_automaton(
            lambda lab: not (lab[pa] == "1" and lab[pX] == "0"),
            bits + len(syms), rels)
    if isinstance(f, fm.RelAtom):
        if len(f.args) != 2:
            raise AltError("only binary relation atoms occur on digraphs")
        if not 1 <= f.rel <= rels:
            raise AltError(f"relation index {f.rel} out of range for "
                           f"{rels} relation(s)")
        px = _bitpos(width_syms, f.args[0], bits)
        py = _bitpos(width_syms, f.args[1], bits)
        return _edge_check_automaton(px, py, f.rel, bits + len(syms), rels)
    if isinstance(f, fm.Not):
        return complement(_compile(f.arg, syms, bits, rels))
    if isinstance(f, (fm.Or, fm.And)):
        if not f.args:
            return _trivial_automaton(isinstance(f, fm.And),
                                      bits + len(syms), rels)
        parts = [_compile(g, syms, bits, rels) for g in f.args]
        out = parts[0]
        for nxt in parts[1:]:
            if isinstance(f, fm.Or):
                out = union(out, nxt)
            else:
                out = intersect_demorgan(out, nxt)
        return out
    if isinstance(f, fm.Imp):
        return _compile(fm.Or((fm.Not(f.left), f.right)), syms, bits, rels)
    if isinstance(f, fm.ExistsSet):
        inner_syms = _insert(syms, f.sym)
        sub = _compile(f.body, inner_syms, bits, rels)
        return _project_out(sub, inner_syms, f.sym, bits)
    if isinstance(f, fm.ForallSet):
        return complement(_compile(fm.ExistsSet(f.sym, fm.Not(f.body)),
                                   syms, bits, rels))
    if isinstance(f, fm.ExistsNode):
        inner_syms = _insert(syms, f.sym)
        sub = _compile(f.body, inner_syms, bits, rels)
        one = _exactly_one_automaton(_bitpos(inner_syms, f.sym, bits),
                                     bits + len(inner_syms), rels)
        both = intersect_demorgan(sub, one)
        return _project_out(both, inner_syms, f.sym, bits)
    if isinstance(f, fm.ForallNode):
        return complement(_compile(fm.ExistsNode(f.sym, fm.Not(f.body)),
                                   syms, bits, rels))
    raise AltError(f"construct {type(f).__name__} is outside the supported "
                   f"MSO grammar")


def _insert(syms: tuple, sym: str) -> tuple:
    if sym in syms:
        raise AltError(f"symbol {sym!r} is shadowed; rename bound symbols")
    return tuple(sorted(syms + (sym,)))


# ---------------------------------------------------------------------------
# Emptiness for the nondeterministic subclass

@dataclass(frozen=True)
class EmptinessResult:
    empty: bool
    exact: bool
    witness: Digraph | None
    searched_up_to: int
    pigeonhole_bound: int


def nldag_emptiness(a: AltAutomaton, mode: str = "capped",
                    cap: int = 5) -> EmptinessResult:
    """Bounded witness search for nondeterministic automata.

    By the pigeonhole argument, a nonempty language contains a digraph with
    at most |Q|^(length+1) nodes.  The search enumerates digraphs up to
    isomorphism, up to ``ENUM_SAFETY_BOUND`` nodes at most; ``exact``
    reports whether the bound was fully covered.  When the enumerator
    refuses a node count (``OracleBoundError``), the answer is empty up to
    the largest node count searched in full.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if not is_nondeterministic(a):
        raise AltError("emptiness search needs a nondeterministic automaton")
    bound = len(a.states) ** (length(a) + 1)
    if mode == "pigeonhole":
        limit = bound
    elif mode == "capped":
        limit = min(bound, cap)
    else:
        raise AltError(f"unknown emptiness mode {mode!r}")
    if isinstance(a.accepting, ExplicitSets) and not a.accepting.sets:
        return EmptinessResult(True, True, None, 0, bound)
    nodes, bits, searched = min(limit, ENUM_SAFETY_BOUND), _infer_bits(a), 0
    try:
        for d in enumerate_digraphs(nodes, bits=bits, rels=a.rels,
                                    iso_reduce=True):
            if decide_acceptance_alt(a, d):
                return EmptinessResult(False, True, d, limit, bound)
            searched = d.n  # node counts come in increasing order
    except OracleBoundError:
        # the enumerator refused the next node count: the smaller ones
        # were searched in full, so the answer is empty up to those
        return EmptinessResult(True, False, None, searched, bound)
    return EmptinessResult(True, nodes >= bound, None, nodes, bound)


# ---------------------------------------------------------------------------
# JSON: {"states":[{"name":..,"kind":"E|U|P"}],"relations":r,
#        "init":{label:state},"rules":[{"from":..,"guards":[..],"to":[..]}],
#        "accepting_sets":[[states]]}

def to_json_dict(a: AltAutomaton) -> dict:
    if (not isinstance(a.delta, RuleDelta)
            or not isinstance(a.accepting, ExplicitSets)):
        raise AltError("only rule-based alternating automata have a JSON form")
    return {
        "states": [{"name": q, "kind": a.kind[q]} for q in a.states],
        "relations": a.rels,
        "init": dict(sorted(a.init.items())),
        "rules": [{"from": r.src, **_rule_json(r)} for r in a.delta.rules],
        "accepting_sets": sorted(sorted(s) for s in a.accepting.sets),
    }


def from_json_dict(obj: dict) -> AltAutomaton:
    rels = _positive(obj, "relations")
    states = tuple(_names([s["name"] for s in obj["states"]], "state names"))
    sets = [frozenset(_names(s, "accepting sets"))
            for s in obj["accepting_sets"]]
    if not all(s <= set(states) for s in sets):
        raise ValueError(f"accepting sets {obj['accepting_sets']} name "
                         f"undeclared states")
    return AltAutomaton(
        states=states,
        kind={s["name"]: s["kind"] for s in obj["states"]},
        rels=rels, init=_init(obj, states),
        delta=RuleDelta(_rule_from_json(r, r["from"], rels, many=True)
                        for r in obj["rules"]),
        accepting=explicit(*sets))
