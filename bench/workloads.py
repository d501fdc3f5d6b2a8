"""The three benchmark workloads.

A workload is built from a seed (its set-up) and then hands out queries:
``Query.run()`` is the call whose latency is measured, ``Query.expected``
is the answer it must produce, computed from an oracle or a closed form
after the call returns (or stored with the benchmark).  The seed picks
labels, edges and pool entries; it never changes how many queries of each
kind a cycle holds or how large the structures are.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import oracles
import verbs_pool

from disto import alternating as alt
from disto import asyncrun, automata, cli, formulas, graphs, mucompile
from disto import reductions, tiling, zoo

BENCH_DIR = Path(__file__).resolve().parent


def _eq(got, want) -> bool:
    return got == want


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    expected: Any                       # a value, or a callable giving it
    same: Callable[[Any, Any], bool] = _eq
    ends_cycle: bool = True             # a timed run may stop after it
    result: Any = None

    def expected_value(self):
        return self.expected() if callable(self.expected) else self.expected


class Stream:
    """One kind of query, handed out in passes; ``weight`` is the number of
    queries in one pass, so interleaving by weight keeps every prefix of the
    run at the same mix."""

    def __init__(self, weight: int, make_pass: Callable[[], Iterator[Query]]):
        self.weight = weight
        self.make_pass = make_pass


def interleave(streams: list[Stream], passes: int | None,
               after_first_pass: Callable[[], None] = lambda: None
               ) -> Iterator[Query]:
    """Hand out queries from the stream that is furthest behind, as a share
    of its weight.  With ``passes`` set, stop when every stream has
    finished that many passes; otherwise restart streams forever.
    ``after_first_pass`` is called once, when every stream has finished
    its first pass."""
    iters = [s.make_pass() for s in streams]
    done = [0] * len(streams)
    finished = [0] * len(streams)
    while True:
        live = [i for i in range(len(streams))
                if passes is None or finished[i] < passes]
        if not live:
            return
        i = min(live, key=lambda k: (done[k] / streams[k].weight, k))
        q = next(iters[i], None)
        if q is None:
            finished[i] += 1
            if finished[i] == 1 and min(finished) == 1:
                after_first_pass()
            iters[i] = streams[i].make_pass()
            if passes is not None and finished[i] >= passes:
                continue
            q = next(iters[i])
        done[i] += 1
        yield q


# ---------------------------------------------------------------------------
# Seeded input generators (the program sees only what they produce)

def random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Exactly m distinct (src, dst) pairs, self-loops allowed."""
    pairs = [(s, t) for s in range(n) for t in range(n)]
    return sorted(rng.sample(pairs, m))


def random_layered(rng: random.Random, layers: int, width: int,
                   back: int) -> list[tuple[int, int]]:
    """Edges of a random layered digraph: every node past the first layer
    has one or two in-neighbours in the layer before, and ``back`` extra
    edges point backwards, closing cycles.  The depth is fixed, so the
    number of rounds a run takes barely depends on the seed."""
    edges = set()
    for layer in range(1, layers):
        for v in range(layer * width, (layer + 1) * width):
            for _ in range(rng.randint(1, 2)):
                edges.add((rng.randrange((layer - 1) * width, layer * width),
                           v))
    while back:
        s, t = rng.randrange(layers * width), rng.randrange(layers * width)
        if t // width <= s // width and (s, t) not in edges:
            edges.add((s, t))
            back -= 1
    return sorted(edges)


def random_labels(rng: random.Random, n: int, ones: int) -> list[str]:
    labels = ["0"] * n
    for v in rng.sample(range(n), ones):
        labels[v] = "1"
    return labels


def random_mu_system(rng: random.Random, bits: int = 1) -> formulas.MuSystem:
    """Two-variable flat system: bodies have modal depth at most one, the
    normal form the compiler works in."""
    names = ("X1", "X2")
    fm = formulas

    def atom():
        k = rng.randrange(6)
        if k == 0:
            return fm.Top()
        if k == 1:
            return fm.Bot()
        if k in (2, 3):
            return fm.In(rng.choice(names))
        if k == 4:
            return fm.In(f"P{rng.randint(1, bits)}")
        return fm.Not(fm.In(f"P{rng.randint(1, bits)}"))

    def prop(d):
        if d == 0 or rng.random() < 0.4:
            return atom()
        op = fm.Or if rng.random() < 0.5 else fm.And
        return op((prop(d - 1), prop(d - 1)))

    def body(d):
        if d == 0:
            return atom()
        k = rng.randrange(5)
        if k == 0:
            return atom()
        if k == 1:
            return fm.Or((body(d - 1), body(d - 1)))
        if k == 2:
            return fm.And((body(d - 1), body(d - 1)))
        modal = fm.BDia if k == 3 else fm.BBox
        return modal(1, (prop(d - 1),))

    return fm.MuSystem(bits, names, tuple(body(2) for _ in names))


# ---------------------------------------------------------------------------
# sweep: every small digraph through one automaton or formula

class Sweep:
    """One pass sweeps each family once, enumerated afresh.  A query is one
    block of BLOCK consecutive digraphs of the enumeration, pulled from the
    enumerator and checked inside the timed call: a single digraph takes
    tens of microseconds, too little for a steady latency, and users wait
    for the sweep, not for one digraph.  The game blocks, 50 of the 1,548
    queries of a pass, are the slowest and hold p99."""

    name = "sweep"
    BLOCK = 64
    TAIL_PERCENTILE = 99.0

    def __init__(self, seed: int, tiny: bool = False):
        self.max_nodes = 3 if tiny else 4
        # isomorphism classes with up to 4 (3) nodes, per label width
        self.sizes = {1: 792, 0: 116} if tiny else {1: 46752, 0: 3160}
        rng = random.Random(seed)
        self.reach = mucompile.compile_mu_to_aqda(zoo.reachability_mu_system())
        self.evaluator = formulas.MuEvaluator(zoo.reachability_mu_system())
        self.three_col = zoo.three_col_aldag()
        systems = 2 if tiny else 6
        self.corpus = [mucompile.compile_mu_to_aqda(random_mu_system(rng))
                       for _ in range(systems)]
        self.falsify_inputs = []
        for k in range(len(self.corpus)):
            for _ in range(2 if tiny else 6):
                d = graphs.make(1, 1, random_labels(rng, 5, 2),
                                [(1, s, t) for s, t in random_edges(rng, 5, 8)])
                self.falsify_inputs.append((k, d, rng.randrange(1 << 30)))

    def _blocks(self, bits: int) -> int:
        return -(-self.sizes[bits] // self.BLOCK)

    def _sweep(self, kind: str, bits: int, decide, oracle):
        """Blocks of one fresh enumeration.  A block's answer is its digraph
        count and its verdicts; the last block also pulls one digraph past
        the family's size, so a short or a long enumeration fails."""
        family = graphs.enumerate_digraphs(self.max_nodes, bits=bits, rels=1,
                                           iso_reduce=True)
        blocks = self._blocks(bits)
        for b in range(blocks):
            want = min(self.BLOCK, self.sizes[bits] - b * self.BLOCK)
            pull = self.BLOCK + (b == blocks - 1)
            batch: list = []

            def run(batch=batch, pull=pull):
                batch.extend(itertools.islice(family, pull))
                return len(batch), [decide(d) for d in batch]

            yield Query(kind, run,
                        lambda batch=batch, want=want:
                        (want, [oracle(d) for d in batch]))

    def _accepted_pass(self):
        return self._sweep("sweep.accepted_nodes", 1,
                           lambda d: automata.accepted_nodes(self.reach, d),
                           zoo.reachability_oracle)

    def _mu_pass(self):
        return self._sweep("sweep.mu_eval", 1, self.evaluator.eval,
                           zoo.reachability_oracle)

    def _game_pass(self):
        return self._sweep("sweep.three_col_game", 0,
                           lambda d: alt.decide_acceptance_alt(self.three_col,
                                                               d),
                           zoo.is_three_colorable)

    def _falsify_pass(self):
        # compiled automata are asynchronous, so no sample may disagree
        for k, d, s in self.falsify_inputs:
            yield Query("sweep.falsify_async",
                        lambda a=self.corpus[k], d=d, s=s:
                        asyncrun.falsify_consistency(a, d, samples=8,
                                                     prefix_len=10,
                                                     lossless=True, seed=s),
                        None)

    def streams(self) -> list[Stream]:
        return [Stream(self._blocks(1), self._accepted_pass),
                Stream(self._blocks(1), self._mu_pass),
                Stream(self._blocks(0), self._game_pass),
                Stream(len(self.falsify_inputs), self._falsify_pass)]

    def close(self):
        pass


# ---------------------------------------------------------------------------
# long-runs: few large structures, many rounds each

class LongRuns:
    """One cycle: SYNC_DIPATH automaton runs and one fixpoint evaluation on
    a 250-node dipath, automaton runs and a fixpoint evaluation on random
    120-node layered digraphs, three Turing-machine automata on two dipaths each of
    about their halting length, a forgetful run on a 255-node ordered ditree, a
    timed run with a 300-step timing prefix, and tiling recognition and
    grid validation on a 10 x 12 or 10 x 13 grid.  The dipath runs are the
    slowest queries; the random-digraph runs are the most numerous."""

    name = "long-runs"
    # of 26 queries per cycle, 7 are faster than the random-digraph runs
    # and 7 slower, so the median sits in the middle of that kind, whose
    # round counts spread widely (4 to 29), so 96 digraphs per seed keep the
    # median from moving with the seed; the two dipath runs are the top
    # 8%, so p95 falls among theirs
    TAIL_PERCENTILE = 95.0
    SYNC_DIPATH = 2
    SYNC_RANDOM = 12

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        scale = 4 if tiny else 1
        self.reach = zoo.reachability_automaton()
        self.evaluator = formulas.MuEvaluator(zoo.reachability_mu_system())
        self.variants = 2 if tiny else 8

        n_path = 250 // scale
        self.paths = []
        for _ in range(self.variants * self.SYNC_DIPATH):
            labels = random_labels(rng, n_path, 3)
            self.paths.append((graphs.dipath(n_path, labels), labels))

        # per cycle one digraph for the fixpoint evaluator and SYNC_RANDOM
        # for the automaton; a run's median latency falls among the latter
        layers, width = 12 // scale, 10
        self.randoms = []
        for _ in range(self.variants * (1 + self.SYNC_RANDOM)):
            labels = random_labels(rng, layers * width, 6)
            edges = random_layered(rng, layers, width, back=3)
            d = graphs.make(1, 1, labels, [(1, s, t) for s, t in edges])
            self.randoms.append((d, oracles.reach_nodes(layers * width, labels,
                                                        edges)))

        # counter machines: k steps writing x to the right, then halt
        machines = []
        for k in (4, 5, 6):
            m = reductions.tm_from_json_dict(counter_tm(k))
            machines.append((k, reductions.tm_to_da(m)))
        # two dipaths per machine and cycle, each one step short of, at or
        # past its halting length
        self.tm_inputs = [[(k, a, k + rng.choice((-1, 0, 1)))
                           for k, a in machines for _ in range(2)]
                          for _ in range(self.variants)]

        height = 7 // (2 if tiny else 1)
        self.trees = [balanced_tree(height, drop_leaf=(i % 2 == 1), rng=rng)
                      for i in range(self.variants)]
        self.balance = zoo.balanced_tree_fda()

        n_async = 60 // scale
        self.timed = []
        for _ in range(self.variants):
            labels = random_labels(rng, n_async, 2)
            edges = random_edges(rng, n_async, n_async + n_async // 4)
            d = graphs.make(1, 1, labels, [(1, s, t) for s, t in edges])
            timing = asyncrun.timing_from_json_dict(
                random_timing(rng, d, 300 // scale), d)
            self.timed.append((d, timing,
                               oracles.reach_nodes(n_async, labels, edges)))

        self.tiling = zoo.even_width_tiling_system()
        h, w = (6, 6) if tiny else (10, 12)
        self.grids = [graphs.grid(h, w + (i % 2)) for i in range(self.variants)]

    def _cycle(self, i: int):
        *body, last = self._cycle_body(i)
        for q in body:
            q.ends_cycle = False
            yield q
        yield last

    def _cycle_body(self, i: int):
        # every lambda binds its inputs now: the cycle is built before it runs
        paths = self.paths[i * self.SYNC_DIPATH:(i + 1) * self.SYNC_DIPATH]
        for pd, labels in paths:
            yield Query("long.sync_dipath",
                        lambda pd=pd: automata.decide_acceptance_sync(
                            self.reach, pd),
                        "1" in labels)
        pd, labels = paths[0]
        yield Query("long.mu_dipath",
                    lambda d=pd.digraph: self.evaluator.eval(d),
                    oracles.dipath_reach(labels))
        first = i * (1 + self.SYNC_RANDOM)
        d, want = self.randoms[first]
        yield Query("long.mu_random", lambda d=d: self.evaluator.eval(d), want)
        for d, want in self.randoms[first + 1:first + 1 + self.SYNC_RANDOM]:
            yield Query("long.sync_random",
                        lambda d=d: automata.accepted_nodes(self.reach, d),
                        want)
        for k, a, n in self.tm_inputs[i]:
            yield Query("long.tm_dipath",
                        lambda a=a, n=n: automata.decide_acceptance_sync(
                            a, graphs.dipath(n)),
                        n == k)
        tree, unbalanced = self.trees[i]
        yield Query("long.forgetful_tree",
                    lambda tree=tree: automata.decide_acceptance_forgetful(
                        self.balance, tree),
                    unbalanced)
        d, timing, want = self.timed[i]
        yield Query("long.async_timed",
                    lambda d=d, timing=timing: asyncrun.timed_accepted_nodes(
                        self.reach, d, timing),
                    want)
        g = self.grids[i]
        h, w = g.grid_coords[-1]
        yield Query("long.ts_recognize",
                    lambda g=g: tiling.ts_recognize(self.tiling, g) is not None,
                    w % 2 == 0)
        yield Query("long.grid_validate", lambda g=g: tiling.grid_validate(g),
                    None)

    def _pass(self):
        for i in range(self.variants):
            yield from self._cycle(i)

    def streams(self) -> list[Stream]:
        return [Stream(1, self._pass)]

    def close(self):
        pass


def counter_tm(k: int) -> dict:
    """Machine that writes x and moves right k times, halting at step k."""
    states = [f"q{i}" for i in range(k)] + ["h"]
    delta = []
    for i in range(k):
        for sym in ("_", "x"):
            delta.append([states[i], sym, states[i + 1], "x", "R"])
    return {"states": states, "tape": ["_", "x"], "blank": "_",
            "initial": "q0", "halt": "h", "delta": delta}


def balanced_tree(height: int, drop_leaf: bool, rng: random.Random):
    """Perfect ordered binary ditree (relation 1: left child, 2: right
    child, edges point to the parent), optionally missing one leaf.
    Returns the pointed tree and whether it is unbalanced."""
    edges = []
    n = (1 << (height + 1)) - 1
    drop = rng.randrange(n // 2, n) if drop_leaf else None
    for v in range(1, n):
        if v == drop:
            continue
        edges.append((1 if v % 2 == 1 else 2, v, (v - 1) // 2))
    keep = [v for v in range(n) if v != drop]
    ids = {v: i for i, v in enumerate(keep)}
    edges = [(r, ids[s], ids[t]) for r, s, t in edges]
    return graphs.make(0, 2, [""] * len(keep), edges, point=0), drop_leaf


def random_timing(rng: random.Random, d: graphs.Digraph, prefix: int) -> dict:
    """Lossless timing JSON: random activity bits, edges into inactive nodes
    switched off."""
    order = sorted(d.edges)
    steps = []
    for _ in range(prefix):
        nodes = [rng.randint(0, 1) for _ in range(d.n)]
        edges = [rng.randint(0, 1) & nodes[t] for (_, _, t) in order]
        steps.append({"nodes": nodes, "edges": edges})
    return {"lossless": True, "prefix": steps}


# ---------------------------------------------------------------------------
# verbs: a seeded batch of CLI invocations on generated files

def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue())
    report["exit"] = code
    return report


class Verbs:
    name = "verbs"
    # decompile-qda, 1 of 50 invocations and the slowest, holds p99
    TAIL_PERCENTILE = 99.0

    def __init__(self, seed: int, tiny: bool = False, workdir: Path = None):
        pool = json.loads((BENCH_DIR / "verbs_pool.json").read_text())
        rng = random.Random(seed)
        self.workdir = workdir
        inputs, outputs = workdir / "in", workdir / "out"
        inputs.mkdir(parents=True)
        outputs.mkdir()
        self.cycles = 1 if tiny else verbs_pool.CYCLES
        self.queries: list[Query] = []
        for c in range(self.cycles):
            for verb, repeat in verbs_pool.MIX:
                for r in range(1 if tiny else repeat):
                    entry = rng.choice(pool[verb])
                    argv, paths = verbs_pool.materialize(
                        entry, inputs, f"{outputs}/{c}-{verb}-{r}-")
                    self.queries.append(Query(
                        f"verbs.{verb}",
                        lambda argv=argv: run_cli(argv),
                        entry["expect"],
                        lambda got, want, paths=paths, verb=verb:
                        verbs_pool.check(verb, got, want, paths),
                        ends_cycle=False))
            self.queries[-1].ends_cycle = True

    def _pass(self):
        yield from self.queries

    def streams(self) -> list[Stream]:
        return [Stream(1, self._pass)]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"sweep": Sweep, "long-runs": LongRuns, "verbs": Verbs}
