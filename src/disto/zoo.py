"""Ready-made automata, formulas, and machines used across tests and the CLI."""

from __future__ import annotations

import itertools

from . import formulas as fm
from .alternating import AltAutomaton, explicit
from .automata import (DistributedAutomaton, ForgetfulAutomaton, Guard, Rule,
                       RuleDelta)
from .graphs import Digraph, _bitstrings
from .tiling import BORDER, TilingSystem, cell


def reachability_automaton() -> DistributedAutomaton:
    """The five-state quasi-acyclic asynchronous automaton for the
    reachability formula below (states 1..5; 3 and 5 accept)."""
    def g(op, *states):
        return Guard(1, op, frozenset(states))

    rules = [
        Rule("1", (g("subseteq", "4", "5"),), "5"),
        Rule("1", (g("subseteq", "1", "2", "4"),), "1"),
        Rule("1", (Guard(1, "any", frozenset()),), "3"),
        Rule("2", (g("subseteq", "4"),), "4"),
        Rule("2", (g("subseteq", "4", "5"),), "5"),
        Rule("2", (g("subseteq", "1", "2", "4"),), "2"),
        Rule("2", (Guard(1, "any", frozenset()),), "3"),
        Rule("3", (g("subseteq", "4", "5"),), "5"),
        Rule("3", (Guard(1, "any", frozenset()),), "3"),
        Rule("4", (g("supseteq", "5"),), "5"),
        Rule("4", (Guard(1, "any", frozenset()),), "4"),
        Rule("5", (Guard(1, "any", frozenset()),), "5"),
    ]
    return DistributedAutomaton(
        states=("1", "2", "3", "4", "5"),
        rels=1,
        init={"1": "1", "0": "2"},
        accepting=frozenset({"3", "5"}),
        delta=RuleDelta(rules),
    )


def reachability_mu_system() -> fm.MuSystem:
    """mu(X1, X2).((P1 and X2) or <-1>X1,  [-1]X2): reachable-backwards
    1-labeled node from which no directed cycle is backward-reachable."""
    x1 = fm.Or((fm.And((fm.In("P1"), fm.In("X2"))), fm.BDia(1, (fm.In("X1"),))))
    x2 = fm.BBox(1, (fm.In("X2"),))
    return fm.MuSystem(bits=1, variables=("X1", "X2"), bodies=(x1, x2))


def reachability_oracle(d: Digraph) -> frozenset[int]:
    """Independent graph oracle for the same property: nodes from which a
    backward walk reaches a 1-labeled node that has no backward path into a
    directed cycle."""
    # well-founded part of the reversed edge relation, by source stripping
    wf: set[int] = set()
    changed = True
    while changed:
        changed = False
        for v in d.nodes():
            if v in wf:
                continue
            if all(u in wf for u in d.in_neighbors(1, v)):
                wf.add(v)
                changed = True
    seeds = {v for v in wf if d.label(v)[0] == "1"}
    # forward closure: seeds reach v by following edges forward
    reach = set(seeds)
    frontier = list(seeds)
    while frontier:
        u = frontier.pop()
        for w in d.out_neighbors(1, u):
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    return frozenset(reach)


def synchrony_detector() -> DistributedAutomaton:
    """Accepts at a watcher node exactly when the two marcher signals are
    seen in the same round; distinguishes the synchronous timing from
    staggered ones, so it is not asynchronous."""
    labels = {"00": "w", "01": "b0", "10": "a0"}

    def delta(q, nvec):
        received = nvec[0]
        if q == "w":
            return "acc" if {"a1", "b1"} <= received else "w"
        if q in ("a0", "a1", "b0", "b1"):
            chain = {"a0": "a1", "a1": "a2", "b0": "b1", "b1": "b2"}
            return chain[q]
        return q  # acc, a2, b2 are sinks

    return DistributedAutomaton(
        states=("w", "a0", "a1", "a2", "b0", "b1", "b2", "acc"),
        rels=1,
        init={**labels, "11": "w"},
        accepting=frozenset({"acc"}),
        delta=delta,
    )


def synchrony_detector_graph() -> Digraph:
    """Two marchers feeding one watcher."""
    from .graphs import make
    return make(2, 1, ["10", "01", "00"], [(1, 0, 2), (1, 1, 2)])


def balanced_tree_fda() -> ForgetfulAutomaton:
    """Three-state forgetful automaton on unlabeled binary ordered ditrees
    accepting at the root iff the tree is NOT perfectly balanced."""
    def delta(letter, nvec):
        n1, n2 = nvec
        if n1 == n2 == frozenset({"w"}):
            return "w"
        if n1 <= {"f"} and n2 <= {"f"}:
            return "f"
        return "acc"

    return ForgetfulAutomaton(
        states=("w", "f", "acc"), rels=2, initial="w",
        letters=("",), delta=delta, accepting=frozenset({"acc"}))


def is_perfectly_balanced(pd) -> bool:
    """Direct oracle: every node's child subtrees all have equal height and
    full arity down to the leaves."""
    d = pd.digraph

    def height(v: int) -> int | None:
        children = [d.in_neighbors(i, v) for i in range(1, d.rels + 1)]
        kids = [c[0] for c in children if c]
        if not kids:
            return 0
        if len(kids) != d.rels:
            return None
        hs = [height(k) for k in kids]
        if None in hs or len(set(hs)) != 1:
            return None
        return hs[0] + 1

    return height(pd.point) is not None


# ---------------------------------------------------------------------------
# Alternating examples

def three_col_aldag() -> AltAutomaton:
    """Nondeterministic automaton accepting exactly the 3-colorable
    unlabeled digraphs: guess a color, then check the incoming colors."""
    ini, c1, c2, c3 = "ini", "c1", "c2", "c3"
    yes, no = "yes", "no"
    colors = (c1, c2, c3)

    def delta(q, nvec):
        if q == ini:
            return frozenset(colors)
        if q in colors:
            return frozenset({no}) if q in nvec[0] else frozenset({yes})
        return frozenset({q})

    kind = {ini: "E", c1: "E", c2: "E", c3: "E", yes: "P", no: "P"}
    succ = {ini: frozenset(colors), yes: frozenset({yes}),
            no: frozenset({no})}
    succ.update({c: frozenset({yes, no}) for c in colors})
    return AltAutomaton(
        states=(ini, c1, c2, c3, yes, no), kind=kind, rels=1,
        init={"": ini}, delta=delta, accepting=explicit({yes}),
        succ_map=succ)


def non_three_col_aldag() -> AltAutomaton:
    """Hand-written complement automaton: universal color branching,
    accepting when some node ends in 'no'."""
    a = three_col_aldag()
    kind = {q: ("U" if k == "E" else k) for q, k in a.kind.items()}
    return AltAutomaton(
        states=a.states, kind=kind, rels=1, init=dict(a.init), delta=a.delta,
        accepting=explicit({"no"}, {"yes", "no"}),
        succ_map=a.succ_map)


def concentric_circles_aldag() -> AltAutomaton:
    """Alternating automaton over {a,b,c}-labeled digraphs (a=00, b=01,
    c=10; 11 is rejected outright).  Accepts iff the labeling is a valid
    coloring, exactly one node is a-labeled, that node's undirected
    neighborhood is all b-labeled, and it has at least two incoming
    neighbors.  b-nodes pick one of two markers; the a-node universally
    splits on two more, which makes multiple a-nodes collide in some
    branch."""
    qa, qb, qc, qa2 = "qa", "qb", "qc", "qa'"
    b1, b2 = "b:1", "b:2"
    a3, a4, yes, no = "a:3", "a:4", "yes", "no"
    states = (qa, qb, qc, qa2, b1, b2, a3, a4, yes, no)
    kind = {qa: "E", qb: "E", qc: "E",
            qa2: "U", b1: "U", b2: "U",
            a3: "P", a4: "P", yes: "P", no: "P"}

    def delta(q, nvec):
        received = nvec[0]
        if q == qa:
            return frozenset({qa2})
        if q == qb:
            return frozenset({no}) if qb in received \
                else frozenset({b1, b2})
        if q == qc:
            bad = qc in received or qa in received
            return frozenset({no}) if bad else frozenset({yes})
        if q == qa2:
            ok = received and received <= {b1, b2} and \
                {b1, b2} <= received
            return frozenset({a3, a4}) if ok else frozenset({no})
        if q in (b1, b2):
            return frozenset({yes})
        return frozenset({q})

    succ = {qa: frozenset({qa2}), qb: frozenset({no, b1, b2}),
            qc: frozenset({no, yes}), qa2: frozenset({a3, a4, no}),
            b1: frozenset({yes}), b2: frozenset({yes})}
    succ.update({p: frozenset({p}) for p in (a3, a4, yes, no)})
    return AltAutomaton(
        states=states, kind=kind, rels=1,
        init={"00": qa, "01": qb, "10": qc, "11": no},
        delta=delta,
        accepting=explicit({a3, yes}, {a4, yes}),
        succ_map=succ)


def is_three_colorable(d: Digraph) -> bool:
    """Brute-force oracle over all colorings."""
    for combo in itertools.product(range(3), repeat=d.n):
        ok = True
        for (_, s, t) in d.edges:
            if combo[s] == combo[t]:
                ok = False
                break
        if ok:
            return True
    return False


def phi_three_color() -> fm.Formula:
    """The MSO sentence defining 3-colorability over 1-relational digraphs."""
    x, y = "u", "v"
    some = fm.Or((fm.In("X1", x), fm.In("X2", x), fm.In("X3", x)))
    disjoint = fm.And(tuple(
        fm.Not(fm.And((fm.In(a, x), fm.In(b, x))))
        for a, b in (("X1", "X2"), ("X1", "X3"), ("X2", "X3"))))
    proper = fm.And(tuple(
        fm.Not(fm.And((fm.In(c, x), fm.In(c, y)))) for c in ("X1", "X2", "X3")))
    body = fm.And((
        fm.ForallNode(x, fm.And((some, disjoint))),
        fm.ForallNode(x, fm.ForallNode(y, fm.Imp(fm.RelAtom(1, (x, y)),
                                                 proper))),
    ))
    return fm.ExistsSet("X1", fm.ExistsSet("X2", fm.ExistsSet("X3", body)))


def edgeless_sentence() -> fm.Formula:
    """No edge at all: not exists x,y. R(x,y)."""
    return fm.Not(fm.ExistsNode("u", fm.ExistsNode(
        "v", fm.RelAtom(1, ("u", "v")))))


def seeone(sub: fm.Formula, rel: int = 1) -> fm.Formula:
    """Exactly one rel-successor satisfies the subformula."""
    y = "Useeone"
    return fm.And((
        fm.Dia(rel, (sub,)),
        fm.ForallSet(y, fm.Imp(
            fm.Dia(rel, (fm.And((sub, fm.In(y))),)),
            fm.Box(rel, (fm.Imp(sub, fm.In(y)),)))),
    ))


# ---------------------------------------------------------------------------
# Turing machines with known halting times (verified by direct simulation)

def sample_turing_machines():
    """Five machines halting after 1..6 steps, plus halting-time labels."""
    out = []

    def tm(states, delta, halt="h"):
        from .reductions import TuringMachine
        # complete unreachable (state, symbol) combinations so the
        # transition table is total on its domain
        full = dict(delta)
        for q in states:
            if q == halt:
                continue
            for s in ("_", "x"):
                full.setdefault((q, s), (q, s, "R"))
        return TuringMachine(states=tuple(states), tape=("_", "x"),
                             initial=states[0], blank="_", delta=full,
                             halt=halt)

    # halts in 1 step
    out.append(tm(("q0", "h"), {("q0", "_"): ("h", "x", "R")}))
    # halts in 2 steps: write, move right, halt
    out.append(tm(("q0", "q1", "h"), {
        ("q0", "_"): ("q1", "x", "R"),
        ("q1", "_"): ("h", "x", "R"),
    }))
    # halts in 3 steps: right, right, halt
    out.append(tm(("q0", "q1", "q2", "h"), {
        ("q0", "_"): ("q1", "x", "R"),
        ("q1", "_"): ("q2", "x", "R"),
        ("q2", "_"): ("h", "_", "L"),
    }))
    # halts in 4 steps: right, back left, then forward to halt
    out.append(tm(("q0", "q1", "q2", "q3", "h"), {
        ("q0", "_"): ("q1", "x", "R"),
        ("q1", "_"): ("q2", "x", "L"),
        ("q2", "x"): ("q3", "_", "R"),
        ("q3", "x"): ("h", "x", "R"),
    }))
    # halts in 6 steps: zigzag over three written cells
    out.append(tm(("q0", "q1", "q2", "q3", "q4", "q5", "h"), {
        ("q0", "_"): ("q1", "x", "R"),
        ("q1", "_"): ("q2", "x", "R"),
        ("q2", "_"): ("q3", "x", "L"),
        ("q3", "x"): ("q4", "x", "L"),
        ("q4", "x"): ("q5", "x", "R"),
        ("q5", "x"): ("h", "x", "R"),
    }))
    return out


def looping_turing_machine():
    from .reductions import TuringMachine
    return TuringMachine(states=("q0", "q1", "h"), tape=("_",),
                         initial="q0", blank="_",
                         delta={("q0", "_"): ("q1", "_", "R"),
                                ("q1", "_"): ("q0", "_", "R")},
                         halt="h")


# ---------------------------------------------------------------------------
# Tiling

def even_width_tiling_system() -> TilingSystem:
    """Two states alternating along rows; accepts exactly even-width
    unlabeled grids.  Tiles are collected from valid runs of small even
    grids, which pins the alternation pattern locally."""
    tiles = set()
    for h, w in [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2), (3, 4)]:
        rows = []
        for i in range(h + 2):
            row = []
            for j in range(w + 2):
                if 1 <= i <= h and 1 <= j <= w:
                    row.append(cell("", "A" if j % 2 == 1 else "B"))
                else:
                    row.append(BORDER)
            rows.append(row)
        for i in range(h + 1):
            for j in range(w + 1):
                tiles.add((rows[i][j], rows[i][j + 1],
                           rows[i + 1][j], rows[i + 1][j + 1]))
    return TilingSystem(bits=0, states=("A", "B"), tiles=frozenset(tiles))


def all_blocks_tiling_system(states=("s",), bits: int = 0) -> TilingSystem:
    """Every possible block over the given states: accepts every grid."""
    cells = [BORDER] + [cell(lab, q) for lab in _bitstrings(bits)
                        for q in states]
    tiles = frozenset(itertools.product(cells, repeat=4))
    return TilingSystem(bits=bits, states=tuple(states), tiles=tiles)


def empty_tiling_system(bits: int = 0) -> TilingSystem:
    return TilingSystem(bits=bits, states=("s",), tiles=frozenset())
