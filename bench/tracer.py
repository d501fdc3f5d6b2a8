"""Spans around the calls into each disto module, recorded from outside.

``install()`` replaces the public entry points listed in ``LAYERS`` with
wrappers, in every disto module that refers to them, so calls made by
disto itself are traced too.  Each call becomes a span (name, start, end,
parent, query id) kept in memory; ``self_times()`` charges every span's
duration minus its children's to the span's layer.  Counts are taken from
returned values, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from time import perf_counter

# layer -> {module: [function, ...]}; methods are written Class.method
LAYERS = {
    "graphs.enum": {"graphs": ["enumerate_digraphs",
                               "enumerate_rooted_ditrees",
                               "enumerate_ordered_ditrees"]},
    "graphs.load": {"graphs": ["from_json_dict", "dipath", "grid",
                               "ditree_from_parents", "make"]},
    "automata.sync": {"automata": ["sync_run", "decide_acceptance_sync",
                                   "accepted_nodes"]},
    "automata.forgetful": {"automata": ["forgetful_run",
                                        "decide_acceptance_forgetful"]},
    "automata.load": {"automata": ["from_json_dict",
                                   "forgetful_from_json_dict"]},
    "asyncrun.run": {"asyncrun": ["async_run", "decide_acceptance_timed",
                                  "timed_accepted_nodes",
                                  "falsify_consistency", "sample_timing",
                                  "timing_from_json_dict"]},
    "alternating.game": {"alternating": ["decide_acceptance_alt"]},
    "alternating.build": {"alternating": ["compile_mso_to_aldag",
                                          "apply_closure", "complement",
                                          "union", "intersect", "project",
                                          "from_json_dict"]},
    "alternating.emptiness": {"alternating": ["nldag_emptiness"]},
    "formulas.mu_eval": {"formulas": ["MuEvaluator.__init__",
                                      "MuEvaluator.eval",
                                      "MuEvaluator.eval_full"]},
    "formulas.parse": {"formulas": ["parse_formula", "parse_mu", "print_mu",
                                    "print_formula"]},
    "mucompile.compile": {"mucompile": ["compile_mu_to_aqda"]},
    "mucompile.decompile": {"mucompile": ["decompile_qda_to_mu",
                                          "compute_enables",
                                          "compute_traces"]},
    "decision.search": {"decision": ["forgetful_emptiness",
                                     "forgetful_witness",
                                     "bounded_ditree_search"]},
    "reductions.bridge": {"reductions": ["dfa_to_fda", "fda_to_dfa",
                                         "treeautomaton_to_fda", "tm_to_da",
                                         "tm_from_json_dict",
                                         "dfa_from_json_dict",
                                         "ta_from_json_dict",
                                         "dfa_json_dict"]},
    "tiling": {"tiling": ["ts_recognize", "grid_validate",
                          "grid_dimensions", "grid_coordinates",
                          "ts_from_json_dict"]},
    "cli.self": {"cli": ["main"]},
}

GENERATORS = {"enumerate_digraphs", "enumerate_rooted_ditrees",
              "enumerate_ordered_ditrees"}

# per-layer time metrics: span name -> metric name
TIME_METRICS = {
    "graphs.enum": "graphs.enum_s", "graphs.load": "graphs.load_s",
    "automata.sync": "automata.sync_s",
    "automata.forgetful": "automata.forgetful_s",
    "automata.load": "automata.load_s", "asyncrun.run": "asyncrun.run_s",
    "alternating.game_warm": "alternating.game_warm_s",
    "alternating.game_cold": "alternating.game_cold_s",
    "alternating.build": "alternating.build_s",
    "alternating.emptiness": "alternating.emptiness_s",
    "formulas.mu_eval": "formulas.mu_eval_s",
    "formulas.parse": "formulas.parse_s",
    "mucompile.compile": "mucompile.compile_s",
    "mucompile.decompile": "mucompile.decompile_s",
    "decision.search": "decision.search_s",
    "reductions.bridge": "reductions.bridge_s",
    "tiling": "tiling.s", "cli.self": "cli.self_s",
    "bench.check": "bench.check_s",
}

COUNT_METRICS = ["graphs.enum_digraphs", "automata.sync_node_steps",
                 "automata.forgetful_node_steps", "asyncrun.runs",
                 "asyncrun.run_node_steps", "alternating.game_calls",
                 "alternating.states", "formulas.mu_eval_node_rounds",
                 "mucompile.decompiled_vars"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, query]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query = -1
        self.enabled = False

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.query])
        self.stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self.stack.pop()

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for name, start, end, parent, query in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{query}\n")


def _counter(fname: str):
    """Work counts read from a traced call's arguments and result."""
    if fname == "sync_run":
        def count(t, args, out, i):
            t.counts["automata.sync_node_steps"] += args[1].n * len(out.configs)
    elif fname == "forgetful_run":
        def count(t, args, out, i):
            t.counts["automata.forgetful_node_steps"] += \
                args[1].n * len(out.configs)
    elif fname == "async_run":
        def count(t, args, out, i):
            t.counts["asyncrun.runs"] += 1
            t.counts["asyncrun.run_node_steps"] += args[1].n * len(out.configs)
    elif fname == "decide_acceptance_alt":
        def count(t, args, out, i):
            t.counts["alternating.game_calls"] += 1
    elif fname == "MuEvaluator.eval_full":
        def count(t, args, out, i):
            t.counts["formulas.mu_eval_node_rounds"] += \
                args[1].n * (out[1] + 1)
    elif fname == "decompile_qda_to_mu":
        def count(t, args, out, i):
            t.counts["mucompile.decompiled_vars"] += len(out.variables)
    else:
        return None
    return count


def _count_built_states(t: Tracer, args, out, i):
    # only the outermost construction: inner closures are part of it
    parent = t.spans[i][3]
    if parent < 0 or t.spans[parent][0] != "alternating.build":
        t.counts["alternating.states"] += len(out.states)


def _wrap(fn, layer: str, fname: str, tracer: Tracer):
    count = _counter(fname)
    if layer == "alternating.build":
        count = _count_built_states

    if fname in GENERATORS:
        def traced_gen(*args, **kw):
            inner = fn(*args, **kw)

            def gen():
                while True:
                    if not tracer.enabled:
                        item = next(inner, StopIteration)
                    else:
                        i = tracer.begin(layer)
                        try:
                            item = next(inner, StopIteration)
                        finally:
                            tracer.end(i)
                    if item is StopIteration:
                        return
                    if tracer.enabled:
                        tracer.counts["graphs.enum_digraphs"] += 1
                    yield item
            return gen()
        return traced_gen

    def traced(*args, **kw):
        if not tracer.enabled:
            return fn(*args, **kw)
        name = layer
        if layer == "alternating.game":
            # the first game on an automaton object fills its step memo
            cold = getattr(args[0], "_interned", None) is None
            name = "alternating.game_cold" if cold else "alternating.game_warm"
        i = tracer.begin(name)
        try:
            out = fn(*args, **kw)
        finally:
            tracer.end(i)
        if count is not None:
            count(tracer, args, out, i)
        return out
    return traced


def install(tracer: Tracer) -> None:
    """Swap every listed entry point for its traced wrapper, wherever a
    disto module holds a reference to it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "disto" or name.startswith("disto.")]
    for layer, per_module in LAYERS.items():
        for modname, names in per_module.items():
            mod = sys.modules[f"disto.{modname}"]
            for fname in names:
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth,
                            _wrap(getattr(cls, meth), layer, fname, tracer))
                    continue
                orig = getattr(mod, fname)
                wrapped = _wrap(orig, layer, fname, tracer)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
