"""Seeded random generators for test corpora."""

from __future__ import annotations

import itertools
import random

from disto import formulas as fm
from disto.alternating import AltAutomaton, explicit
from disto.automata import ForgetfulAutomaton
from disto.graphs import Digraph
from disto.reductions import Dfa, TreeAutomaton


def random_digraph(rng: random.Random, max_nodes: int, bits: int = 0,
                   rels: int = 1, edge_p: float = 0.4) -> Digraph:
    n = rng.randint(1, max_nodes)
    labels = ["".join(rng.choice("01") for _ in range(bits)) for _ in range(n)]
    edges = [(r, s, t) for r in range(1, rels + 1)
             for s in range(n) for t in range(n) if rng.random() < edge_p]
    return Digraph(bits, rels, tuple(labels), frozenset(edges))


def random_mu_system(rng: random.Random, max_vars: int = 2,
                     bits: int = 1, depth: int = 2,
                     flat: bool = True) -> fm.MuSystem:
    """Random system; with ``flat`` the bodies keep modal depth <= 1 (the
    normal form of the compilation proof), which keeps decompiled trace
    sets at desk scale.  Nested modalities are exercised separately."""
    m = rng.randint(1, max_vars)
    names = tuple(f"X{i+1}" for i in range(m))

    def atom():
        kind = rng.randrange(4 + bits * 2)
        if kind == 0:
            return fm.Top()
        if kind == 1:
            return fm.Bot()
        if kind in (2, 3):
            return fm.In(rng.choice(names))
        i = rng.randint(1, bits)
        if kind % 2:
            return fm.In(f"P{i}")
        return fm.Not(fm.In(f"P{i}"))

    def propositional(d):
        if d == 0 or rng.random() < 0.4:
            return atom()
        op = fm.Or if rng.random() < 0.5 else fm.And
        return op((propositional(d - 1), propositional(d - 1)))

    def body(d):
        if d == 0:
            return atom()
        kind = rng.randrange(5)
        if kind == 0:
            return atom()
        if kind == 1:
            return fm.Or((body(d - 1), body(d - 1)))
        if kind == 2:
            return fm.And((body(d - 1), body(d - 1)))
        arg = propositional(d - 1) if flat else body(d - 1)
        if kind == 3:
            return fm.BDia(1, (arg,))
        return fm.BBox(1, (arg,))

    return fm.MuSystem(bits, names, tuple(body(depth) for _ in names))


def random_dfa(rng: random.Random, max_states: int = 4,
               alphabet=("0", "1")) -> Dfa:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    delta = {(q, a): rng.choice(states) for q in states for a in alphabet}
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    return Dfa(states=states, initial=states[0], delta=delta,
               accepting=accepting)


def random_fda(rng: random.Random, max_states: int = 3,
               letters=("0", "1")) -> ForgetfulAutomaton:
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    subsets = [frozenset(c) for k in range(n + 1)
               for c in itertools.combinations(states, k)]
    table = {(letter, s): rng.choice(states)
             for letter in letters for s in subsets}
    accepting = frozenset(q for q in states if rng.random() < 0.4)
    return ForgetfulAutomaton(states=states, rels=1, initial=states[0],
                              letters=letters,
                              delta=lambda x, nvec: table[(x, nvec[0])],
                              accepting=accepting)


def random_tree_automaton(rng: random.Random, max_states: int = 3,
                          letters=("0", "1"), arity: int = 2) -> TreeAutomaton:
    n = rng.randint(1, max_states)
    states = tuple(f"t{i}" for i in range(n))
    delta = {}
    for k in range(arity + 1):
        for children in itertools.product(states, repeat=k):
            for letter in letters:
                delta[(children, letter)] = rng.choice(states)
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    return TreeAutomaton(states=states, arity=arity, delta=delta,
                         accepting=accepting)


def random_nldag(rng: random.Random, max_states: int = 4,
                 max_length: int = 2) -> AltAutomaton:
    """Leveled nondeterministic automaton over unlabeled digraphs."""
    length = rng.randint(0, max_length)
    remaining = max_states
    levels: list[tuple[str, ...]] = []
    for i in range(length):
        size = rng.randint(1, max(1, remaining - (length - i)))
        levels.append(tuple(f"l{i}_{j}" for j in range(size)))
        remaining -= size
    perm = tuple(f"p{j}" for j in range(max(1, remaining)))
    states = tuple(q for lv in levels for q in lv) + perm
    kind = {q: "E" for lv in levels for q in lv}
    kind.update({p: "P" for p in perm})

    # transitions: per state a watched set and two nonempty target choices
    rules = {}
    for i, lv in enumerate(levels):
        nxt = (levels[i + 1] if i + 1 < len(levels) else ()) + perm
        for q in lv:
            watch = frozenset(s for s in states if rng.random() < 0.3)
            t1 = frozenset(rng.sample(nxt, rng.randint(1, len(nxt))))
            t2 = frozenset(rng.sample(nxt, rng.randint(1, len(nxt))))
            rules[q] = (watch, t1, t2)

    def delta(q, nvec):
        if q in rules:
            watch, t1, t2 = rules[q]
            return t1 if nvec[0] & watch else t2
        return frozenset({q})

    succ = {q: (rules[q][1] | rules[q][2]) if q in rules else frozenset({q})
            for q in states}
    init_state = levels[0][rng.randrange(len(levels[0]))] if levels \
        else perm[rng.randrange(len(perm))]
    sets = []
    for k in range(1, len(perm) + 1):
        for combo in itertools.combinations(perm, k):
            if rng.random() < 0.4:
                sets.append(frozenset(combo))
    return AltAutomaton(states=states, kind=kind, rels=1,
                        init={"": init_state}, delta=delta,
                        accepting=explicit(*sets), succ_map=succ)


def random_mso_sentence(rng: random.Random, bits: int = 0,
                        qdepth: int = 2) -> fm.Formula:
    """Small sentence over the digraph signature with the given number of
    nested quantifiers."""
    node_syms: list[str] = []
    set_syms: list[str] = []

    def atom():
        opts = []
        if node_syms:
            x = rng.choice(node_syms)
            y = rng.choice(node_syms)
            opts += [fm.Eq(x, y), fm.RelAtom(1, (x, y))]
            if set_syms:
                opts.append(fm.In(rng.choice(set_syms), x))
            if bits:
                opts.append(fm.In(f"P{rng.randint(1, bits)}", x))
        if not opts:
            return fm.Top()
        return rng.choice(opts)

    def boolean(d):
        if d == 0:
            return atom()
        k = rng.randrange(4)
        if k == 0:
            return fm.Not(boolean(d - 1))
        if k == 1:
            return fm.Or((boolean(d - 1), boolean(d - 1)))
        if k == 2:
            return fm.And((boolean(d - 1), boolean(d - 1)))
        return atom()

    def build(d):
        if d == 0:
            return boolean(2)
        k = rng.randrange(4)
        if k == 0:
            sym = f"x{d}"
            node_syms.append(sym)
            out = fm.ExistsNode(sym, build(d - 1))
            node_syms.pop()
            return out
        if k == 1:
            sym = f"x{d}"
            node_syms.append(sym)
            out = fm.ForallNode(sym, build(d - 1))
            node_syms.pop()
            return out
        if k == 2:
            sym = f"Y{d}"
            set_syms.append(sym)
            out = fm.ExistsSet(sym, build(d - 1))
            set_syms.pop()
            return out
        sym = f"Y{d}"
        set_syms.append(sym)
        out = fm.ForallSet(sym, build(d - 1))
        set_syms.pop()
        return out

    return build(qdepth)


def random_dmlg_formula(rng: random.Random, bits: int = 1,
                        depth: int = 4) -> fm.Formula:
    def atom():
        k = rng.randrange(4)
        if k == 0:
            return fm.Top()
        if k == 1:
            return fm.Bot()
        if k == 2 and bits:
            return fm.In(f"P{rng.randint(1, bits)}")
        return fm.Is("a")

    def build(d):
        if d == 0:
            return atom()
        k = rng.randrange(9)
        if k == 0:
            return atom()
        if k == 1:
            return fm.Not(build(d - 1))
        if k == 2:
            return fm.Or((build(d - 1), build(d - 1)))
        if k == 3:
            return fm.And((build(d - 1), build(d - 1)))
        if k == 4:
            return fm.Dia(1, (build(d - 1),))
        if k == 5:
            return fm.BDia(1, (build(d - 1),))
        if k == 6:
            return fm.GDia(build(d - 1))
        if k == 7:
            return fm.Box(1, (build(d - 1),))
        return fm.BBox(1, (build(d - 1),))

    return build(depth)


def unreachable_accepting_nldag_json() -> dict:
    """Three permanent states over 2-bit labels and 2 relations; only p is
    ever entered and only {q} accepts, so the language is empty and its
    pigeonhole bound is 3 nodes."""
    states = ("p", "q", "r")
    return {
        "states": [{"name": q, "kind": "P"} for q in states],
        "relations": 2,
        "init": {"".join(lab): "p"
                 for lab in itertools.product("01", repeat=2)},
        "rules": [{"from": q, "guards": [], "to": [q]} for q in states],
        "accepting_sets": [["q"]],
    }
