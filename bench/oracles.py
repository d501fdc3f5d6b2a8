"""Expected answers written for the benchmark alone.

Nothing here imports disto: each function recomputes a verdict from the
raw input (edge lists, label strings, rule tables) so a wrong answer from
the program cannot also be the expected answer.
"""

from __future__ import annotations

import itertools


def reach_nodes(n: int, labels, edges) -> frozenset[int]:
    """Nodes reached by a forward walk from a 1-labelled node that no
    directed cycle reaches (the property of the reachability automaton and
    its fixpoint system).  ``edges`` holds (src, dst) pairs."""
    preds = [[] for _ in range(n)]
    succs = [[] for _ in range(n)]
    for s, t in edges:
        preds[t].append(s)
        succs[s].append(t)
    # well-founded part: repeatedly strip nodes whose predecessors are in it
    wf = [False] * n
    pending = [len(p) for p in preds]
    stack = [v for v in range(n) if pending[v] == 0]
    while stack:
        v = stack.pop()
        wf[v] = True
        for w in succs[v]:
            pending[w] -= 1
            if pending[w] == 0:
                stack.append(w)
    seen = {v for v in range(n) if wf[v] and labels[v][0] == "1"}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in succs[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def dipath_reach(labels) -> frozenset[int]:
    """Closed form of reach_nodes on the dipath 0 -> 1 -> ... -> n-1: node v
    is reached exactly when some node at or before it is labelled 1."""
    out, hit = set(), False
    for v, lab in enumerate(labels):
        hit = hit or lab[0] == "1"
        if hit:
            out.add(v)
    return frozenset(out)


def k_colorable(n: int, edges, k: int) -> bool:
    for combo in itertools.product(range(k), repeat=n):
        if all(combo[s] != combo[t] for s, t in edges):
            return True
    return False


def _guard_holds(guard: dict, received: frozenset) -> bool:
    states = frozenset(guard.get("set", ()))
    op = guard["op"]
    if op == "subseteq":
        return received <= states
    if op == "supseteq":
        return received >= states
    if op == "eq":
        return received == states
    return True


def fda_accepts_word(fda: dict, word: str) -> bool:
    """Forgetful automaton (rule JSON) on the dipath spelling ``word``,
    pointed at its last node: synchronous rounds until the configuration
    repeats; accept if the last node ever holds an accepting state."""
    def step(letter, received):
        for rule in fda["delta"][letter]:
            if all(_guard_holds(g, received) for g in rule["guards"]):
                return rule["to"]
        raise ValueError("no rule matches")

    accepting = set(fda["accepting"])
    conf = (fda["initial"],) * len(word)
    seen = set()
    while conf not in seen:
        if conf[-1] in accepting:
            return True
        seen.add(conf)
        conf = tuple(step(word[v], frozenset({conf[v - 1]}) if v else
                          frozenset()) for v in range(len(word)))
    return False


def dfa_accepts(dfa: dict, word: str) -> bool:
    delta = {(q, a): q2 for q, a, q2 in dfa["delta"]}
    q = dfa["initial"]
    for a in word:
        q = delta[(q, a)]
    return q in set(dfa["accepting"])


def forward_closure(n: int, labels, edges) -> frozenset[int]:
    """1-labelled nodes and every node a directed path from one reaches."""
    succs = [[] for _ in range(n)]
    for s, t in edges:
        succs[s].append(t)
    seen = {v for v in range(n) if labels[v][0] == "1"}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in succs[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)
