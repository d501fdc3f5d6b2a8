"""Inputs and stored expected answers for the ``verbs`` workload.

``verbs_pool.json`` holds, per CLI verb, a pool of input files, the argv
that runs the verb on them, and the expected answer.  A run picks pool
entries with its seed.  The expected answers come only from brute-force
oracles (``eval_mso``, ``eval_mu_full``, ``ts_recognize_bruteforce``), the
benchmark's own ``oracles`` module, or closed forms of the constructions,
never from the verb under test.  Regenerate with

    python3 bench/verbs_pool.py --regen
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import oracles

BENCH_DIR = Path(__file__).resolve().parent
POOL_PATH = BENCH_DIR / "verbs_pool.json"
POOL_SEED = 20260917
POOL_SIZE = 24

# (verb, invocations per cycle); one cycle is one closed-loop batch of 50.
# decompile-qda is the one slow verb (about 40 ms against 1-8 ms at the
# reference speed).  As 1 of 50 invocations it is the top 2% of a run, so
# p99 falls on its median: its upper half spreads with garbage-collection
# pauses, its middle does not
MIX = [
    ("compile-mu", 3), ("decompile-qda", 1), ("compile-mso", 3),
    ("alt-accept", 3), ("alt-closure", 3), ("accept-timed", 3),
    ("falsify-async", 3), ("empty-forgetful", 3), ("empty-nldag", 3),
    ("search-witness", 3), ("dfa2fda", 3), ("fda2dfa", 3), ("ta2fda", 3),
    ("tm2da", 3), ("ts-recognize", 5), ("grid-check", 5),
]
CYCLES = 6


def materialize(entry: dict, inputs: Path, out_prefix: str
                ) -> tuple[list[str], dict[str, str]]:
    """Write the entry's input files under ``inputs``, each content once
    (file creation is the slow part of set-up); outputs go to
    ``out_prefix`` + name.  Return the argv and the path of every file."""
    paths = {}
    for name, content in entry["files"].items():
        text = content if isinstance(content, str) else json.dumps(content)
        digest = hashlib.sha1(text.encode()).hexdigest()[:16]
        p = inputs / f"{digest}-{name}"
        if not p.exists():
            p.write_text(text)
        paths[name] = str(p)
    for name in entry.get("outputs", ()):
        paths[name] = out_prefix + name
    argv = [paths.get(a[1:-1], a) if a.startswith("{") else a
            for a in entry["argv"]]
    return argv, paths


def check(verb: str, report: dict, want: dict, paths: dict[str, str]) -> bool:
    if report["verdict"] != want["verdict"] or report["exit"] != 0:
        return False
    details = report["details"]
    if any(details.get(k) != v for k, v in want.get("details", {}).items()):
        return False
    if verb == "decompile-qda":
        return _check_decompiled(details["formula"], want)
    if verb == "search-witness":
        w = details["witness"]
        n = len(w["nodes"])
        labels = [nd["label"] for nd in sorted(w["nodes"],
                                               key=lambda nd: nd["id"])]
        edges = [(s, t) for (_, s, t) in w["edges"]]
        return w["point"] in oracles.reach_nodes(n, labels, edges)
    if verb == "fda2dfa":
        dfa = json.loads(Path(paths["dfa.json"]).read_text())
        return [w for w in _words() if oracles.dfa_accepts(dfa, w)] == \
            want["language"]
    return True


@functools.lru_cache(maxsize=4)
def _parse_decompiled(text: str):
    # every run decompiles the same automaton, and parsing its 70 kB formula
    # costs far more than evaluating it; parse each distinct text once
    from disto import formulas
    return formulas.parse_mu(text, bits=1)


def _check_decompiled(text: str, want: dict) -> bool:
    from disto import formulas, graphs
    system = _parse_decompiled(text)
    for g, nodes in zip(want["digraphs"], want["accepted"]):
        vals, _ = formulas.eval_mu_full(system, graphs.from_json_dict(g))
        if sorted(vals[system.variables[0]]) != nodes:
            return False
    return True


def _words(max_len: int = 5) -> list[str]:
    import itertools
    return ["".join(w) for n in range(1, max_len + 1)
            for w in itertools.product("01", repeat=n)]


# ---------------------------------------------------------------------------
# Pool generation (oracle-only)

def _graph(bits, labels, edges, point=None, rels=1):
    from disto import graphs
    return graphs.to_json_dict(graphs.make(bits, rels, labels, edges, point))


def _reach_json() -> dict:
    from disto import automata, zoo
    return automata.to_json_dict(zoo.reachability_automaton())


def _chain_qda(m: int) -> dict:
    """Quasi-acyclic automaton: a 1-labelled node sits in y; a 0-labelled
    node waits in n and moves to c(i+1) when it first receives c(i) (c0 is
    y).  Every state but n accepts, so a node accepts exactly when a
    1-labelled node reaches it, whatever the timing."""
    chain = ["y"] + [f"c{i}" for i in range(1, m + 1)]
    rules = [{"from": "n", "guards": [{"rel": 1, "op": "supseteq",
                                       "set": [chain[i]]}],
              "to": chain[i + 1]} for i in reversed(range(m))]
    rules += [{"from": q, "guards": [], "to": q} for q in ["n"] + chain]
    return {"states": ["n"] + chain, "relations": 1,
            "init": {"0": "n", "1": "y"}, "accepting": chain, "rules": rules}


def _renamed(obj: dict, rng) -> dict:
    tags = rng.sample(range(1000), len(obj["states"]))
    r = {q: f"s{t}" for q, t in zip(obj["states"], tags)}.get
    return {"states": [r(q) for q in obj["states"]],
            "relations": obj["relations"],
            "init": {k: r(v) for k, v in obj["init"].items()},
            "accepting": sorted(r(q) for q in obj["accepting"]),
            "rules": [{"from": r(x["from"]), "to": r(x["to"]),
                       "guards": [dict(g, set=sorted(r(q) for q in g["set"]))
                                  for g in x["guards"]]}
                      for x in obj["rules"]]}


def _coloring_json(k: int, accepting) -> dict:
    colors = [f"c{i}" for i in range(1, k + 1)]
    rules = [{"from": "ini", "guards": [], "to": colors}]
    for c in colors:
        rules.append({"from": c, "guards": [{"rel": 1, "op": "supseteq",
                                             "set": [c]}], "to": ["no"]})
        rules.append({"from": c, "guards": [], "to": ["yes"]})
    rules += [{"from": "yes", "guards": [], "to": ["yes"]},
              {"from": "no", "guards": [], "to": ["no"]}]
    return {"states": [{"name": "ini", "kind": "E"}]
            + [{"name": c, "kind": "E"} for c in colors]
            + [{"name": "yes", "kind": "P"}, {"name": "no", "kind": "P"}],
            "relations": 1, "init": {"": "ini"}, "rules": rules,
            "accepting_sets": accepting}


def _chain_fda(m: int, accepting: list[str]) -> dict:
    """q0..qm plus an unreachable 'dead'; on letter 1 a node moves one step
    past the highest state it receives, on letter 0 it resets."""
    one = [{"guards": [{"rel": 1, "op": "supseteq", "set": [f"q{i}"]}],
            "to": f"q{i + 1}"} for i in reversed(range(m))]
    one.append({"guards": [], "to": "q0"})
    return {"states": [f"q{i}" for i in range(m + 1)] + ["dead"],
            "relations": 1, "initial": "q0", "accepting": accepting,
            "delta": {"0": [{"guards": [], "to": "q0"}], "1": one}}


def _random_mso(rng):
    """Sentence with two nested quantifiers over a Boolean matrix."""
    from disto import formulas as fm
    nodes, sets = [], []

    def atom():
        opts = []
        if nodes:
            x, y = rng.choice(nodes), rng.choice(nodes)
            opts += [fm.Eq(x, y), fm.RelAtom(1, (x, y))]
            if sets:
                opts.append(fm.In(rng.choice(sets), x))
        return rng.choice(opts) if opts else fm.Top()

    def boolean(d):
        k = rng.randrange(4) if d else 3
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
        sym = f"x{d}" if k < 2 else f"Y{d}"
        (nodes if k < 2 else sets).append(sym)
        inner = build(d - 1)
        (nodes if k < 2 else sets).pop()
        return (fm.ExistsNode, fm.ForallNode, fm.ExistsSet,
                fm.ForallSet)[k](sym, inner)

    return build(2)


def _edges(rng, n, m, loops=True):
    pairs = [(s, t) for s in range(n) for t in range(n) if loops or s != t]
    return sorted(rng.sample(pairs, m))


def _entry(verb: str, rng) -> dict:
    from disto import formulas, graphs, reductions, tiling, zoo
    if verb == "compile-mu":
        import workloads
        system = workloads.random_mu_system(rng)
        labels = workloads.random_labels(rng, 4, 2)
        edges = _edges(rng, 4, 6)
        point = rng.randrange(4)
        d = graphs.make(1, 1, labels, [(1, s, t) for s, t in edges])
        vals, _ = formulas.eval_mu_full(system, d)
        ok = point in vals[system.variables[0]]
        return {"files": {"f.mu": formulas.print_mu(system),
                          "g.json": _graph(1, labels, [(1, s, t) for s, t in
                                                       edges], point)},
                "argv": ["compile-mu", "{f.mu}", "--bits", "1", "--accept",
                         "{g.json}"],
                "expect": {"verdict": "accepted" if ok else "rejected"}}
    if verb == "decompile-qda":
        gs, acc = [], []
        for _ in range(2):
            # two nodes keep the brute-force evaluation of the nine-variable
            # decompiled system at a few milliseconds
            labels = [rng.choice("01") for _ in range(2)]
            edges = _edges(rng, 2, 2)
            gs.append(_graph(1, labels, [(1, s, t) for s, t in edges]))
            acc.append(sorted(oracles.forward_closure(2, labels, edges)))
        # state names stay fixed: the decompiler's cost depends on the
        # iteration order of its state sets, hence on the names
        return {"files": {"a.json": _chain_qda(6)},
                "argv": ["decompile-qda", "{a.json}"],
                "expect": {"verdict": "decompiled", "digraphs": gs,
                           "accepted": acc}}
    if verb == "compile-mso":
        f = _random_mso(rng)
        edges = [(1, s, t) for s, t in _edges(rng, 3, 4)]
        ok = formulas.eval_mso(f, graphs.make(0, 1, [""] * 3, edges))
        return {"files": {"f.sexp": formulas.print_formula(f),
                          "g.json": _graph(0, [""] * 3, edges)},
                "argv": ["compile-mso", "{f.sexp}", "--accept", "{g.json}"],
                "expect": {"verdict": "accepted" if ok else "rejected"}}
    if verb in ("alt-accept", "alt-closure"):
        k = rng.choice((2, 3))
        edges = _edges(rng, 4, 5, loops=False)
        ok = oracles.k_colorable(4, edges, k)
        files = {"a.json": _coloring_json(k, [["yes"]]),
                 "g.json": _graph(0, [""] * 4, [(1, s, t) for s, t in edges])}
        if verb == "alt-accept":
            argv = ["alt-accept", "{a.json}", "{g.json}"]
        else:
            argv = ["alt-closure", "complement", "{a.json}", "--accept",
                    "{g.json}"]
            ok = not ok
        return {"files": files, "argv": argv,
                "expect": {"verdict": "accepted" if ok else "rejected"}}
    if verb == "accept-timed":
        import workloads
        labels = workloads.random_labels(rng, 6, 1)
        edges = _edges(rng, 6, 8)
        point = rng.randrange(6)
        d = graphs.make(1, 1, labels, [(1, s, t) for s, t in edges])
        ok = point in oracles.reach_nodes(6, labels, edges)
        return {"files": {"a.json": _reach_json(),
                          "g.json": _graph(1, labels, [(1, s, t) for s, t in
                                                       edges], point),
                          "t.json": workloads.random_timing(rng, d, 20)},
                "argv": ["accept-timed", "{a.json}", "{g.json}", "{t.json}"],
                "expect": {"verdict": "accepted" if ok else "rejected"}}
    if verb == "falsify-async":
        import workloads
        labels = workloads.random_labels(rng, 5, 1)
        edges = [(1, s, t) for s, t in _edges(rng, 5, 7)]
        return {"files": {"a.json": _reach_json(),
                          "g.json": _graph(1, labels, edges)},
                "argv": ["falsify-async", "{a.json}", "{g.json}",
                         "--samples", "10", "--prefix", "10", "--lossless",
                         "--seed", str(rng.randrange(1 << 20))],
                # the reachability automaton is asynchronous
                "expect": {"verdict": "consistent-so-far"}}
    if verb == "empty-forgetful":
        m = rng.choice((2, 3, 4))
        reachable = rng.random() < 0.5
        acc = [f"q{rng.randint(1, m)}"] if reachable else ["dead"]
        return {"files": {"a.json": _chain_fda(m, acc)},
                "argv": ["empty-forgetful", "{a.json}"],
                "expect": {"verdict": "nonempty" if reachable else "empty"}}
    if verb == "empty-nldag":
        acc = rng.choice(([["yes"]], [], [["no"]]))
        return {"files": {"a.json": _coloring_json(rng.choice((2, 3)), acc)},
                "argv": ["empty-nldag", "{a.json}", "--max-nodes", "3"],
                # 'no' alone: one node with a self-loop; no sets: empty
                "expect": {"verdict": "nonempty" if acc else "empty"}}
    if verb == "search-witness":
        # a single 1-labelled node is accepted, so a witness always exists
        return {"files": {"a.json": _renamed(_reach_json(), rng)},
                "argv": ["search-witness", "{a.json}", "--max-nodes", "3"],
                "expect": {"verdict": "witness"}}
    if verb == "dfa2fda":
        n = rng.randint(2, 4)
        states = [f"d{i}" for i in range(n)]
        delta = [[q, a, rng.choice(states)] for q in states for a in "01"]
        acc = sorted(q for q in states if rng.random() < 0.5)
        return {"files": {"dfa.json": {"states": states, "initial": "d0",
                                       "accepting": acc, "delta": delta}},
                "argv": ["dfa2fda", "{dfa.json}"],
                # the bridge adds one waiting state to the word automaton
                "expect": {"verdict": "converted",
                           "details": {"states": n + 1,
                                       "letters": ["0", "1"]}}}
    if verb == "fda2dfa":
        m = rng.choice((1, 2, 3))
        fda = _chain_fda(m, [f"q{rng.randint(0, m)}"])
        return {"files": {"a.json": fda}, "outputs": ["dfa.json"],
                "argv": ["fda2dfa", "{a.json}", "--out", "{dfa.json}"],
                # powerset construction: one word state per subset
                "expect": {"verdict": "converted",
                           "details": {"states": 2 ** (m + 2)},
                           "language": [w for w in _words()
                                        if oracles.fda_accepts_word(fda, w)]}}
    if verb == "ta2fda":
        n = rng.randint(2, 3)
        states = [f"t{i}" for i in range(n)]
        delta = []
        for k in range(3):
            import itertools
            for kids in itertools.product(states, repeat=k):
                for letter in "01":
                    delta.append([list(kids), letter, rng.choice(states)])
        acc = sorted(q for q in states if rng.random() < 0.5)
        return {"files": {"ta.json": {"states": states, "arity": 2,
                                      "accepting": acc, "delta": delta}},
                "argv": ["ta2fda", "{ta.json}"],
                "expect": {"verdict": "converted",
                           "details": {"states": n + 1, "arity": 2}}}
    if verb == "tm2da":
        import workloads
        k = rng.randint(2, 5)
        n = rng.choice((k - 1, k, k + 1))
        return {"files": {"tm.json": workloads.counter_tm(k),
                          "p.json": graphs.to_json_dict(graphs.dipath(n))},
                "argv": ["tm2da", "{tm.json}", "--accept", "{p.json}"],
                # the space-time automaton accepts exactly the halting length
                "expect": {"verdict": "accepted" if n == k else "rejected"}}
    if verb == "ts-recognize":
        h, w = rng.randint(1, 3), rng.randint(1, 3)
        ts, g = zoo.even_width_tiling_system(), graphs.grid(h, w)
        ok = tiling.ts_recognize_bruteforce(ts, g)
        return {"files": {"ts.json": tiling.ts_to_json_dict(ts),
                          "g.json": graphs.to_json_dict(g)},
                "argv": ["ts-recognize", "{ts.json}", "{g.json}"],
                "expect": {"verdict": "accepted" if ok else "rejected"}}
    if verb == "grid-check":
        h, w = rng.randint(1, 5), rng.randint(1, 5)
        g = graphs.to_json_dict(graphs.grid(h, w))
        if rng.random() < 0.5:
            # a loop puts a cycle into the vertical successor relation
            v = rng.randrange(h * w)
            g["edges"] = sorted(g["edges"] + [[1, v, v]])
            want = {"verdict": "not-a-grid"}
        else:
            want = {"verdict": "is-grid",
                    "details": {"height": h, "width": w}}
        return {"files": {"g.json": g}, "argv": ["grid-check", "{g.json}"],
                "expect": want}
    raise ValueError(verb)


def regenerate() -> dict:
    pool = {}
    for verb, _ in MIX:
        rng = random.Random(f"{POOL_SEED}:{verb}")
        pool[verb] = [_entry(verb, rng) for _ in range(POOL_SIZE)]
    return pool


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python3 bench/verbs_pool.py --regen")
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    POOL_PATH.write_text(json.dumps(regenerate(), separators=(",", ":"),
                                    sort_keys=True) + "\n")
    print(f"wrote {POOL_PATH}")
