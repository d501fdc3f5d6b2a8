"""Bridges to classical automata and the space-time Turing machine reduction.

Words of length n are identified with n-node pointed dipaths (the empty
word has no digraph counterpart, so word-level comparisons start at
length 1).  The Turing machine reduction exchanges the roles of space and
time: the i-th dipath node traverses the machine configuration at step i,
cell by cell, two cells behind its predecessor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .automata import (DistributedAutomaton, ForgetfulAutomaton, _names,
                       _positive, check_enum_limit)
from .graphs import LimitExceeded, PointedDigraph, dipath, subset_names

TM_WINDOW_LIMIT = 100_000  # max window states tm_to_da builds


@dataclass(frozen=True)
class Dfa:
    states: tuple[str, ...]
    initial: str
    delta: dict[tuple[str, str], str]  # (state, letter) -> state
    accepting: frozenset[str]

    def __post_init__(self):
        declared = set(self.states)
        if self.initial not in declared:
            raise ValueError(f"initial state {self.initial!r} not in state set")
        extra = sorted(self.accepting - declared, key=repr)
        if extra:
            raise ValueError(f"accepting states {extra} not in state set")
        for (q, a), q2 in self.delta.items():
            if not {q, q2} <= declared:
                raise ValueError(f"delta row {[q, a, q2]} names a state "
                                 f"not in the state set")

    def letters(self) -> tuple[str, ...]:
        return tuple(sorted({a for (_, a) in self.delta}))

    def accepts(self, word: Sequence[str]) -> bool:
        q = self.initial
        for letter in word:
            q = self.delta[(q, letter)]
        return q in self.accepting


@dataclass(frozen=True)
class TreeAutomaton:
    """Deterministic bottom-up automaton on ordered trees of bounded arity."""

    states: tuple[str, ...]
    arity: int
    delta: dict[tuple[tuple[str, ...], str], str]  # (child states, letter)
    accepting: frozenset[str]

    def letters(self) -> tuple[str, ...]:
        return tuple(sorted({a for (_, a) in self.delta}))

    def run_on(self, pd: PointedDigraph) -> str:
        """The state at the point: a node's children are its first
        in-neighbours over relations 1, 2, ... up to the first relation
        without one.  Post-order on an explicit stack, so deep trees do not
        reach the recursion limit."""
        d = pd.digraph

        def children(v: int) -> list[int]:
            out = []
            for i in range(1, d.rels + 1):
                incoming = d.in_neighbors(i, v)
                if not incoming:
                    break
                out.append(incoming[0])
            return out

        state: dict[int, str] = {}
        stack, open_ = [(pd.point, children(pd.point))], {pd.point}
        while stack:
            v, kids = stack[-1]
            pending = next((c for c in kids if c not in state), None)
            if pending is not None:
                if pending in open_:
                    raise ValueError(f"node {pending} is its own descendant")
                open_.add(pending)
                stack.append((pending, children(pending)))
                continue
            stack.pop()
            state[v] = self.delta[(tuple(state[c] for c in kids),
                                   d.label(v))]
        return state[pd.point]

    def accepts(self, pd: PointedDigraph) -> bool:
        return self.run_on(pd) in self.accepting


def _wait_state(states: Sequence[str]) -> str:
    """The bridges' waiting state: ``~``, lengthened until it is not one
    of the input's ``states``."""
    wait = "~"
    while wait in states:
        wait += "~"
    return wait


def word_to_dipath(word: Sequence[str]) -> PointedDigraph:
    if not word:
        raise ValueError("the empty word has no dipath counterpart")
    return dipath(len(word), labels=list(word))


def dfa_to_fda(b: Dfa) -> ForgetfulAutomaton:
    """Waiting-phase simulation: each node idles until its predecessor has
    computed the word automaton's state just before its own letter."""
    wait = _wait_state(b.states)
    states = (wait,) + b.states
    dfa_states = set(b.states)

    def delta(letter: str, nvec):
        received = nvec[0]
        if not received:
            return b.delta[(b.initial, letter)]
        if len(received) == 1:
            (q,) = received
            if q in dfa_states:
                return b.delta[(q, letter)]
        return wait

    return ForgetfulAutomaton(
        states=states, rels=1, initial=wait, letters=b.letters(),
        delta=delta, accepting=frozenset(b.accepting))


def fda_to_dfa(a: ForgetfulAutomaton) -> Dfa:
    """Powerset bridge: after reading i letters the word automaton's state
    is exactly the set of states the distributed automaton visits at the
    i-th node."""
    if a.rels != 1:
        raise ValueError("the word bridge needs a 1-relational automaton")
    check_enum_limit(len(a.states), a.rels)
    letters = a.letters
    name = subset_names(sorted(a.states))
    delta = {}
    for s in name:
        for letter in letters:
            if not s:
                image = {a.step(letter, (frozenset(),))}
            else:
                image = {a.step(letter, (frozenset({q}),)) for q in s}
            delta[(name[s], letter)] = name[frozenset({a.initial} | image)]
    accepting = frozenset(name[s] for s in name if s & a.accepting)
    return Dfa(states=tuple(name.values()), initial=name[frozenset()],
               delta=delta, accepting=accepting)


def treeautomaton_to_fda(t: TreeAutomaton) -> ForgetfulAutomaton:
    """Tree-automaton simulation: a node fires once every child slot holds a
    settled singleton (slots i+1..r empty), otherwise keeps waiting."""
    wait = _wait_state(t.states)
    states = (wait,) + t.states
    ta_states = set(t.states)

    def delta(letter: str, nvec):
        children = []
        for k, received in enumerate(nvec):
            if not received:
                if any(nvec[j] for j in range(k + 1, len(nvec))):
                    return wait
                break
            if len(received) != 1:
                return wait
            (q,) = received
            if q not in ta_states:
                return wait
            children.append(q)
        key = (tuple(children), letter)
        if key not in t.delta:
            return wait
        return t.delta[key]

    return ForgetfulAutomaton(
        states=states, rels=t.arity, initial=wait, letters=t.letters(),
        delta=delta, accepting=frozenset(t.accepting))


# ---------------------------------------------------------------------------
# Turing machines and the space-time exchange

@dataclass(frozen=True)
class TuringMachine:
    """Single one-way infinite tape, initially blank.  A left move on the
    leftmost cell stays put (the same convention is used by the direct
    simulator and the generated automaton)."""

    states: tuple[str, ...]
    tape: tuple[str, ...]
    initial: str
    blank: str
    delta: dict[tuple[str, str], tuple[str, str, str]]  # -> (q', sym', L|R)
    halt: str

    def __post_init__(self):
        states, tape = set(self.states), set(self.tape)
        if len(states) != len(self.states) or len(tape) != len(self.tape):
            raise ValueError("duplicate states or tape symbols")
        if self.initial == self.halt:
            raise ValueError("the initial state must differ from halt")
        if not {self.initial, self.halt} <= states:
            raise ValueError("initial or halt state not in the state set")
        if self.blank not in tape:
            raise ValueError("blank symbol missing from the tape alphabet")
        for (q, s), (q2, s2, move) in self.delta.items():
            if not ({q, q2} <= states and {s, s2} <= tape
                    and move in ("L", "R")):
                raise ValueError(f"delta row {[q, s, q2, s2, move]} names an "
                                 f"undeclared state or symbol, or moves "
                                 f"other than L or R")

    def step(self, config):
        """config = (state, head, tape dict); returns the next config or
        None when halted."""
        state, head, cells = config
        if state == self.halt:
            return None
        sym = cells.get(head, self.blank)
        q2, sym2, move = self.delta[(state, sym)]
        cells = dict(cells)
        cells[head] = sym2
        head2 = head - 1 if move == "L" else head + 1
        if head2 < 0:
            head2 = 0
        return (q2, head2, cells)

    def halting_time(self, max_steps: int) -> int | None:
        """Number of steps until halt, or None within the budget."""
        config = (self.initial, 0, {})
        for t in range(max_steps + 1):
            if config[0] == self.halt:
                return t
            config = self.step(config)
        return None

    def config_at(self, t: int):
        config = (self.initial, 0, {})
        for _ in range(t):
            if config[0] == self.halt:
                raise ValueError("machine halted before the requested step")
            config = self.step(config)
        return config


def _cell_content(config, pos: int, blank: str):
    state, head, cells = config
    sym = cells.get(pos, blank)
    return (state, sym) if pos == head else sym


def tm_to_da(m: TuringMachine) -> DistributedAutomaton:
    """Distributed automaton accepting exactly the n-node pointed dipath
    with n equal to the machine's halting time.

    States are windows (c1, c2, c3) over {waiting} + (Q x Gamma) + Gamma:
    the i-th node of a dipath streams configuration C_i cell by cell in its
    third component (c2, c1 trail one and two cells behind).  A node stays
    waiting until its predecessor's second component leaves the waiting
    symbol, giving a two-cell head start, and accepts on seeing the halting
    state.
    """
    windows = (1 + len(m.states) * len(m.tape) + len(m.tape)) ** 3
    if windows > TM_WINDOW_LIMIT:
        raise LimitExceeded(f"tm_to_da would build {windows} window "
                            f"states; the cap is {TM_WINDOW_LIMIT}")
    # the waiting value equals no symbol and no (state, symbol) pair, so
    # no name the machine chooses can make two windows alike
    W = None
    headed = [(q, s) for q in m.states for s in m.tape]
    cellvals = [W] + headed + list(m.tape)

    def is_headed(c) -> bool:
        return isinstance(c, tuple)

    def ca_rule(a, b, c):
        """Content of cell p in C_{i+1} given cells (p-1, p, p+1) of C_i;
        'a' may be the waiting symbol, meaning the left wall."""
        if is_headed(a):
            q, s = a
            if q != m.halt:
                q2, _, move = m.delta[(q, s)]
                if move == "R":
                    return (q2, b if not is_headed(b) else b[1])
            return b if not is_headed(b) else b[1]
        if is_headed(c):
            q, s = c
            if q != m.halt:
                q2, _, move = m.delta[(q, s)]
                if move == "L":
                    return (q2, b if not is_headed(b) else b[1])
            return b if not is_headed(b) else b[1]
        if is_headed(b):
            q, s = b
            if q == m.halt:
                return s
            q2, sym2, move = m.delta[(q, s)]
            if move == "L" and a == W:
                # left move on the leftmost cell stays put
                return (q2, sym2)
            return sym2
        return b

    # the source node of a dipath emits C_1 (one machine step from blank)
    first = m.step((m.initial, 0, {}))

    def source_next(own):
        c1, c2, c3 = own
        if c3 == W:
            return _cell_content(first, 0, m.blank)
        if c2 == W:
            return _cell_content(first, 1, m.blank)
        # cells from index 2 on are untouched after one step
        return m.blank

    def delta(own, nvec):
        received = nvec[0]
        if len(received) != 1:
            if not received:
                return (own[1], own[2], source_next(own))
            return (W, W, W)
        (pred,) = received
        if own[2] == W and pred[1] == W:
            return (W, W, W)
        return (own[1], own[2], ca_rule(*pred))

    states = tuple(itertools.product(cellvals, repeat=3))
    accepting = frozenset(w for w in states
                          if is_headed(w[2]) and w[2][0] == m.halt)
    return DistributedAutomaton(
        states=states, rels=1, init={"": (W, W, W)},
        accepting=accepting, delta=delta)


def tm_json_dict(m: TuringMachine) -> dict:
    return {
        "states": list(m.states),
        "tape": list(m.tape),
        "blank": m.blank,
        "initial": m.initial,
        "halt": m.halt,
        "delta": [[q, s, *m.delta[(q, s)]] for (q, s) in sorted(m.delta)],
    }


def tm_from_json_dict(obj: dict) -> TuringMachine:
    _names([obj["initial"], obj["blank"], obj["halt"]], "initial, blank, halt")
    delta = {(q, s): (q2, s2, move) for (q, s, q2, s2, move)
             in (_names(row, "delta rows") for row in obj["delta"])}
    return TuringMachine(states=tuple(_names(obj["states"], "states")),
                         tape=tuple(_names(obj["tape"], "tape")),
                         initial=obj["initial"], blank=obj["blank"],
                         delta=delta, halt=obj["halt"])


def dfa_json_dict(b: Dfa) -> dict:
    return {
        "states": list(b.states),
        "initial": b.initial,
        "accepting": sorted(b.accepting),
        "delta": [[q, a, b.delta[(q, a)]] for (q, a) in sorted(b.delta)],
    }


def dfa_from_json_dict(obj: dict) -> Dfa:
    delta = {(q, a): q2 for (q, a, q2)
             in (_names(row, "delta rows") for row in obj["delta"])}
    return Dfa(states=tuple(_names(obj["states"], "states")),
               initial=_names([obj["initial"]], "initial")[0],
               delta=delta, accepting=frozenset(obj["accepting"]))


def ta_json_dict(t: TreeAutomaton) -> dict:
    return {
        "states": list(t.states),
        "arity": t.arity,
        "accepting": sorted(t.accepting),
        "delta": [[list(children), letter, t.delta[(children, letter)]]
                  for (children, letter) in sorted(t.delta)],
    }


def ta_from_json_dict(obj: dict) -> TreeAutomaton:
    delta = {}
    for children, letter, q in obj["delta"]:
        _names(_names(children, "children") + [letter, q], "delta rows")
        delta[(tuple(children), letter)] = q
    return TreeAutomaton(states=tuple(_names(obj["states"], "states")),
                         arity=_positive(obj, "arity"), delta=delta,
                         accepting=frozenset(obj["accepting"]))
