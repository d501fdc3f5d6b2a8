"""Translations between the backward mu-fragment and quasi-acyclic automata.

Compilation runs the fixpoint iteration distributedly: states are sets of
verified propositions, so they only ever grow, which makes the automaton
quasi-acyclic and timing-independent.  Decompilation goes through the
automaton's finite trace set and the inductively defined relation that
says which trace a node can traverse given the traces its incoming
neighbors traverse in a lossless-asynchronous environment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .automata import (DistributedAutomaton, _has_nontrivial_cycle,
                       _infer_bits, state_diagram)
from .formulas import (And, BBox, BDia, Bot, In, MuSystem, Not, Or, Top,
                       _pair_holds, flatten_mu)
from .graphs import LimitExceeded, _bitstrings, subset_names, subsets

MAX_COMPILE_PROPS = 10
TRACE_LIMIT = 12  # max live traces: decompilation's histories are their subsets


class ClassError(ValueError):
    pass


Traces = frozenset  # of trace tuples


def compile_mu_to_aqda(system: MuSystem) -> DistributedAutomaton:
    """Build the equivalent quasi-acyclic asynchronous automaton.

    States are subsets of {P1..Pl, X1..Xm}; a transition adds exactly the
    variables whose body holds for the pair (own propositions, incoming
    proposition sets).  Monotone by construction.
    """
    system = flatten_mu(system)
    props = tuple(f"P{i}" for i in range(1, system.bits + 1)) + system.variables
    if len(props) > MAX_COMPILE_PROPS:
        raise LimitExceeded(
            f"{len(props)} propositions exceed the compile bound of "
            f"{MAX_COMPILE_PROPS} (powerset state space)")
    names = subset_names(props)
    by_name = {v: k for k, v in names.items()}
    main = system.variables[0]

    def delta(qname: str, nvec) -> str:
        q = by_name[qname]
        neigh = frozenset(by_name[x] for x in nvec[0])
        added = {name for name, body in zip(system.variables, system.bodies)
                 if _pair_holds(body, q, neigh)}
        return names[q | added]

    init = {}
    for label in _bitstrings(system.bits):
        init[label] = names[frozenset(
            f"P{i + 1}" for i, b in enumerate(label) if b == "1")]
    accepting = frozenset(n for s, n in names.items() if main in s)
    return DistributedAutomaton(
        states=tuple(names.values()),
        rels=1, init=init, accepting=accepting, delta=delta)


# ---------------------------------------------------------------------------
# Traces and the enables relation

def _require_quasi_acyclic(a: DistributedAutomaton) -> dict[str, set[str]]:
    """The successor map, from one state diagram, of a quasi-acyclic
    automaton; refuses any other."""
    if a.rels != 1:
        raise ClassError("trace machinery is defined over 1 relation")
    succ = successor_map(a)
    if _has_nontrivial_cycle(succ):
        raise ClassError("automaton is not quasi-acyclic; trace set infinite")
    return succ


def successor_map(a: DistributedAutomaton) -> dict[str, set[str]]:
    """q -> {delta(q,N) : N} without self-loops."""
    return {q: targets - {q} for q, targets in state_diagram(a).items()}


def compute_traces(a: DistributedAutomaton,
                   starts: Iterable[str] | None = None,
                   succ: dict[str, set[str]] | None = None) -> Traces:
    """All traces: nonempty state sequences with distinct adjacent entries,
    each step witnessed by some neighborhood.  ``starts`` restricts the
    admissible first states (default: every state); ``succ`` is the
    automaton's successor map, if the caller already has it.  Refuses more
    than ``TRACE_LIMIT`` live traces (those that start in an initial
    state), counted as they are found."""
    if succ is None:
        succ = _require_quasi_acyclic(a)
    live, count = frozenset(a.init.values()), 0
    out: set[tuple[str, ...]] = set()
    stack = [(q,) for q in (a.states if starts is None else starts)]
    while stack:
        trace = stack.pop()
        if trace[0] in live and trace not in out:
            count += 1
            if count > TRACE_LIMIT:
                raise LimitExceeded(
                    f"more than {TRACE_LIMIT} live traces (decompilation "
                    f"enumerates every set of them)")
        out.add(trace)
        stack.extend(trace + (t,) for t in succ[trace[-1]])
    return frozenset(out)


@dataclass(frozen=True)
class EnablesRelation:
    """The least relation over (sets of traces) x traces closed under the
    base rule (singleton histories and one transition) and the step rule
    driven by the one-round history evolution H ~> H'.

    ``enablers`` maps each trace to its enabling histories, each a sorted
    tuple of traces, ordered by size, then by members."""

    enablers: dict
    traces: Traces

    def enablers_of(self, trace: tuple[str, ...]) -> tuple:
        return self.enablers.get(trace, ())

    def holds(self, history: frozenset, trace: tuple[str, ...]) -> bool:
        return tuple(sorted(history)) in self.enablers_of(trace)


def compute_enables(a: DistributedAutomaton) -> EnablesRelation:
    """Least relation containing the base pairs and closed under the
    inductive clause, over the live traces: those whose first state is in
    the initialization image.

    Every other trace variable is identically empty in the decompiled
    system (its initialization disjunction is empty), so each pair left
    out corresponds to an identically-false disjunct; decompilation
    semantics is unchanged while the history space shrinks from 2^|T| to
    2^|live T|.
    """
    succ = _require_quasi_acyclic(a)
    start_states = sorted(frozenset(a.init.values()))
    traces = compute_traces(a, start_states, succ)

    # bitmask encoding of traces and histories
    by_index = sorted(traces)
    index = {t: i for i, t in enumerate(by_index)}
    ext_unions = []  # per trace, the nonempty unions of its extensions
    grow = []  # per trace, its last state and q -> the trace pushing q gives
    for t in by_index:
        pushed = {t[-1]: index[t]}
        for q in succ[t[-1]]:
            longer = t + (q,)
            if longer in index:
                pushed[q] = index[longer]
        grow.append((t[-1], pushed))
        # the sum of distinct single bits is their union
        ext_unions.append([sum(u) for u in itertools.islice(
            subsets(1 << i for i in sorted(pushed.values())), 1, None)])

    def successors_of(history: int) -> set[int]:
        # the unions of one extension union per trace, folded trace by trace
        out = {0}
        for i in _bits_of(history):
            out = {h | u for h in out for u in ext_unions[i]}
        return out

    lasts_memo: dict[int, frozenset] = {}

    def lasts_of(history: int) -> frozenset:
        got = lasts_memo.get(history)
        if got is None:
            got = frozenset(by_index[i][-1] for i in _bits_of(history))
            lasts_memo[history] = got
        return got

    # delta reads only a trace's last state and the history's last states:
    # the step memo maps the last states to a row, last state -> target,
    # and rows maps each history met to its row
    step_memo: dict[frozenset, dict[str, str]] = {}
    rows: dict[int, dict[str, str]] = {}

    enabled: dict[int, set[int]] = {}
    # base: {singleton traces of N} enables q.push(delta(q, N))
    for nstates in subsets(start_states):
        history = 0
        for q in nstates:
            history |= 1 << index[(q,)]
        bucket = enabled.setdefault(history, set())
        row = step_memo.setdefault(nstates, {})
        for q in start_states:
            target = row[q] = a.step(q, (nstates,))
            t = (q,) if target == q else (q, target)
            bucket.add(index[t])

    work = list(enabled)
    succ_cache: dict[int, set[int]] = {}
    while work:
        history = work.pop()
        current = list(enabled[history])
        nexts = succ_cache.get(history)
        if nexts is None:
            nexts = succ_cache[history] = successors_of(history)
        for h2 in nexts:
            bucket = enabled.setdefault(h2, set())
            before = len(bucket)
            row = rows.get(h2)
            if row is None:
                row = rows[h2] = step_memo.setdefault(lasts_of(h2), {})
            for ti in current:
                q, pushed = grow[ti]
                q2 = row.get(q)
                if q2 is None:
                    q2 = row[q] = a.step(q, (lasts_of(h2),))
                bucket.add(pushed[q2])
            if len(bucket) != before:
                work.append(h2)
    # by_index is sorted, so each history's traces come out sorted
    enablers: dict = {}
    for h, ts in enabled.items():
        history = tuple(by_index[i] for i in _bits_of(h))
        for ti in ts:
            enablers.setdefault(by_index[ti], []).append(history)
    return EnablesRelation(
        {t: tuple(sorted(hs, key=lambda h: (len(h), h)))
         for t, hs in enablers.items()}, traces)


def _bits_of(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


# ---------------------------------------------------------------------------
# Decompilation

def trace_var(trace: tuple[str, ...]) -> str:
    return "T<" + "|".join(trace) + ">"


def decompile_qda_to_mu(a: DistributedAutomaton) -> MuSystem:
    """Backward mu-fragment formula equivalent to a quasi-acyclic
    (lossless-asynchronous) automaton: one variable per trace plus a main
    variable collecting the accepting-ending traces.  A state name with
    whitespace, a parenthesis or ``|`` would make a trace variable that
    does not read back, or two traces one variable, so it is refused."""
    for q in a.states:
        if any(c.isspace() or c in "()|" for c in q):
            raise ValueError(f"state {q!r} cannot be spelled in a trace "
                             f"variable (whitespace, '(', ')' or '|')")
    enables = compute_enables(a)
    traces = sorted(enables.traces, key=lambda t: (len(t), t))
    bits = _infer_bits(a)

    names = ["X1"] + [trace_var(t) for t in traces]
    # one atom and one backward diamond per trace, shared by every body
    # (AST nodes are frozen)
    atoms = {t: In(name) for t, name in zip(traces, names[1:])}
    seen = {t: BDia(1, (atom,)) for t, atom in atoms.items()}
    bodies: list = [_accept_body(a, traces, atoms)]
    for trace in traces:
        if len(trace) == 1:
            bodies.append(_init_body(a, trace[0], bits))
        else:
            bodies.append(_transition_body(trace, enables, atoms, seen))
    return MuSystem(bits, tuple(names), tuple(bodies))


def _accept_body(a: DistributedAutomaton, traces, atoms):
    disjuncts = tuple(atoms[t] for t in traces if t[-1] in a.accepting)
    return _or(disjuncts)


def _init_body(a: DistributedAutomaton, state: str, bits: int):
    disjuncts = []
    for label in _bitstrings(bits):
        if a.init.get(label) != state:
            continue
        lits = tuple(In(f"P{i+1}") if b == "1" else Not(In(f"P{i+1}"))
                     for i, b in enumerate(label))
        disjuncts.append(_and(lits))
    return _or(tuple(disjuncts))


def _transition_body(trace, enables: EnablesRelation, atoms, seen):
    options = []
    for history in enables.enablers_of(trace):
        only_those = BBox(1, (_or(tuple(atoms[s] for s in history)),))
        options.append(_and(tuple(seen[s] for s in history) + (only_those,)))
    return _and((atoms[trace[:1]], _or(tuple(options))))


def _or(args: tuple):
    if not args:
        return Bot()
    if len(args) == 1:
        return args[0]
    return Or(args)


def _and(args: tuple):
    if not args:
        return Top()
    if len(args) == 1:
        return args[0]
    return And(args)

