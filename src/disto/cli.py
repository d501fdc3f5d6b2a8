"""Command-line entry point.

Every verb reads declared file formats, runs one module operation, and
prints a canonical JSON report: {"schema": "disto/1", "verdict": ...,
"details": ...}.  Exit codes: 0 on success, 1 on input errors, and 2 for
"rejected"/"empty"-class verdicts when --strict is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import alternating as alt
from . import asyncrun, automata, decision, formulas, graphs
from . import mucompile, reductions, tiling

SCHEMA = "disto/1"
GEN_SIZE_LIMIT = 10 ** 5  # max nodes * (bits + 1) that gen builds

_REJECTING_VERDICTS = {"rejected", "empty", "empty-up-to-cap",
                       "counterexample", "none-up-to-bound", "not-a-grid",
                       "violation"}


class InputError(ValueError):
    pass


def report_format(verdict: str, details: dict | None = None) -> str:
    """Canonical report text: fixed key order, deterministic serialization."""
    payload = {"schema": SCHEMA, "verdict": verdict,
               "details": details or {}}
    return json.dumps(payload, indent=2, sort_keys=False)


def _load(path: str, build, text: bool = False):
    """``build`` applied to the file at ``path``: to its text when ``text``
    is set (S-expression files), else to its top-level JSON object.  An
    unreadable file, bad JSON, another top level, and a ``KeyError``,
    ``TypeError``, ``AttributeError`` or ``IndexError`` raised by ``build``
    on a malformed object become an ``InputError`` naming the path."""
    try:
        with open(path) as fh:
            obj = fh.read() if text else json.load(fh)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # not UTF-8, nested too deep
        raise InputError(f"{path}: {type(e).__name__}: {e}") from None
    if not (text or isinstance(obj, dict)):
        raise InputError(f"{path}: top level is not a JSON object")
    try:
        return build(obj)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None
    except (KeyError, TypeError, AttributeError, IndexError) as e:
        raise InputError(f"{path}: {type(e).__name__}: {e}") from None


def _pointed(obj: dict) -> graphs.PointedDigraph:
    g = graphs.from_json_dict(obj)
    if not isinstance(g, graphs.PointedDigraph):
        raise InputError("digraph has no point")
    return g


def _digraph(obj: dict) -> graphs.Digraph:
    g = graphs.from_json_dict(obj)
    return g.digraph if isinstance(g, graphs.PointedDigraph) else g


def _write_out(args, obj: dict) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Verb handlers: each returns (verdict, details)

def cmd_run(args):
    a = _load(args.automaton, automata.from_json_dict)
    d = _load(args.graph, _digraph)
    run = automata.sync_run(a, d, horizon=int(args.horizon))
    return "ran", {
        "prefix": run.prefix,
        "period": run.period,
        "configurations": [list(c) for c in run.configs],
    }


def cmd_accept(args):
    a = _load(args.automaton, automata.from_json_dict)
    pd = _load(args.graph, _pointed)
    ok = automata.decide_acceptance_sync(a, pd)
    return ("accepted" if ok else "rejected"), {"point": pd.point}


def cmd_accept_timed(args):
    a = _load(args.automaton, automata.from_json_dict)
    pd = _load(args.graph, _pointed)
    timing = _load(args.timing, lambda obj: asyncrun.timing_from_json_dict(
        obj, pd.digraph))
    ok = asyncrun.decide_acceptance_timed(a, pd, timing)
    return ("accepted" if ok else "rejected"), {"point": pd.point}


def cmd_falsify_async(args):
    a = _load(args.automaton, automata.from_json_dict)
    d = _load(args.graph, _digraph)
    found = asyncrun.falsify_consistency(
        a, d, samples=args.samples, prefix_len=args.prefix,
        lossless=args.lossless, seed=args.seed)
    if found is None:
        return "consistent-so-far", {"samples": args.samples,
                                     "prefix": args.prefix}
    details = {
        "node": found.node,
        "timing_a": asyncrun.timing_to_json_dict(found.timing_a),
        "timing_b": asyncrun.timing_to_json_dict(found.timing_b),
    }
    return "counterexample", details


def cmd_compile_mu(args):
    system = _load(args.formula, lambda text: formulas.parse_mu(
        text, bits=args.bits), text=True)
    a = mucompile.compile_mu_to_aqda(system)
    details = {"states": len(a.states), "accepting": len(a.accepting),
               "relations": a.rels}
    if args.accept:
        pd = _load(args.accept, _pointed)
        ok = automata.decide_acceptance_sync(a, pd)
        return ("accepted" if ok else "rejected"), details
    return "compiled", details


def cmd_decompile_qda(args):
    a = _load(args.automaton, automata.from_json_dict)
    system = mucompile.decompile_qda_to_mu(a)
    text = formulas.print_mu(system)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return "decompiled", {"variables": len(system.variables),
                          "formula": text}


def cmd_compile_mso(args):
    f = _load(args.formula, formulas.parse_formula, text=True)
    a = alt.compile_mso_to_aldag(f, bits=args.bits, rels=args.relations)
    details = {"states": len(a.states), "length": alt.length(a)}
    if args.accept:
        d = _load(args.accept, _digraph)
        ok = alt.decide_acceptance_alt(a, d)
        return ("accepted" if ok else "rejected"), details
    return "compiled", details


def cmd_alt_accept(args):
    a = _load(args.automaton, alt.from_json_dict)
    d = _load(args.graph, _digraph)
    ok = alt.decide_acceptance_alt(a, d)
    return ("accepted" if ok else "rejected"), {}


def cmd_alt_closure(args):
    a = _load(args.automaton, alt.from_json_dict)
    b = _load(args.second, alt.from_json_dict) if args.second else None
    mapping = _load(args.mapping, dict) if args.mapping else None
    out = alt.apply_closure(args.kind, a, b, mapping)
    details = {"states": len(out.states), "kind": args.kind}
    if args.accept:
        d = _load(args.accept, _digraph)
        ok = alt.decide_acceptance_alt(out, d)
        return ("accepted" if ok else "rejected"), details
    return "closed", details


def cmd_empty_forgetful(args):
    a = _load(args.automaton, automata.forgetful_from_json_dict)
    verdict = decision.forgetful_emptiness(a)
    if verdict.empty:
        return "empty", {}
    details = {"time": verdict.time, "state": verdict.state}
    witness = decision.forgetful_witness(a, verdict.time, verdict.state)
    details["witness"] = graphs.to_json_dict(witness)
    _write_out(args, details["witness"])
    return "nonempty", details


def cmd_empty_nldag(args):
    a = _load(args.automaton, alt.from_json_dict)
    result = alt.nldag_emptiness(a, mode=args.mode, cap=args.max_nodes)
    if not result.empty:
        details = {"witness": graphs.to_json_dict(result.witness)}
        _write_out(args, details["witness"])
        return "nonempty", details
    verdict = "empty" if result.exact else "empty-up-to-cap"
    return verdict, {"searched_up_to": result.searched_up_to,
                     "pigeonhole_bound": result.pigeonhole_bound}


def cmd_search_witness(args):
    a = _load(args.automaton, automata.from_json_dict)
    found = decision.bounded_ditree_search(a, args.max_nodes)
    if found is None:
        return "none-up-to-bound", {"max_nodes": args.max_nodes}
    witness = graphs.to_json_dict(found)
    _write_out(args, witness)
    return "witness", {"witness": witness}


def cmd_dfa2fda(args):
    dfa = _load(args.dfa, reductions.dfa_from_json_dict)
    fda = reductions.dfa_to_fda(dfa)
    return "converted", {"states": len(fda.states),
                         "letters": list(fda.letters)}


def cmd_fda2dfa(args):
    fda = _load(args.automaton, automata.forgetful_from_json_dict)
    dfa = reductions.fda_to_dfa(fda)
    obj = reductions.dfa_json_dict(dfa)
    _write_out(args, obj)
    return "converted", {"states": len(dfa.states)}


def cmd_ta2fda(args):
    ta = _load(args.ta, reductions.ta_from_json_dict)
    fda = reductions.treeautomaton_to_fda(ta)
    return "converted", {"states": len(fda.states), "arity": fda.rels}


def cmd_tm2da(args):
    m = _load(args.tm, reductions.tm_from_json_dict)
    a = reductions.tm_to_da(m)
    details = {"states": len(a.states)}
    if args.accept:
        pd = _load(args.accept, _pointed)
        ok = automata.decide_acceptance_sync(a, pd)
        return ("accepted" if ok else "rejected"), details
    return "converted", details


def cmd_ts_recognize(args):
    ts = _load(args.system, tiling.ts_from_json_dict)
    g = _load(args.graph, _digraph)
    run = tiling.ts_recognize(ts, g)
    if run is None:
        return "rejected", {}
    return "accepted", {"run": [list(row) for row in run.cells]}


def cmd_grid_check(args):
    d = _load(args.graph, _digraph)
    try:
        h, w = tiling.grid_dimensions(d)
    except tiling.StructureError as e:
        if e.condition is None:
            raise
        return "not-a-grid", {"failed_condition": e.condition,
                              "name": tiling.grid_condition_name(e.condition)}
    return "is-grid", {"height": h, "width": w}


def cmd_gen(args):
    # negative sizes pass on to the generators and checks that refuse them
    nodes = (max(args.n, 0) if args.kind == "dipath"
             else max(args.height, 0) * max(args.width, 0))
    if nodes * (max(args.bits, 0) + 1) > GEN_SIZE_LIMIT:
        raise graphs.LimitExceeded(
            f"{nodes} nodes x {args.bits + 1} (bits + 1) exceeds the gen "
            f"size limit {GEN_SIZE_LIMIT}")
    if args.kind == "dipath":
        g = graphs.dipath(args.n, bits=args.bits)
    else:
        g = graphs.grid(args.height, args.width, bits=args.bits)
    fault = graphs.validate(g)
    if fault:
        raise InputError(fault)
    obj = graphs.to_json_dict(g)
    _write_out(args, obj)
    return "generated", obj


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: each ``parse_args`` fills a fresh ``Namespace``, and each verb's
    handler is bound here through ``set_defaults(fn=...)``."""
    p = argparse.ArgumentParser(prog="disto")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 on rejecting/empty verdicts")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, **arguments):
        sp = sub.add_parser(name)
        for arg, kw in arguments.items():
            sp.add_argument(arg.replace("_", "-") if arg.startswith("--")
                            else arg, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("run", cmd_run, automaton={}, graph={})
    sp.add_argument("--horizon", default=automata.DEFAULT_HORIZON_CAP)
    add("accept", cmd_accept, automaton={}, graph={})
    add("accept-timed", cmd_accept_timed, automaton={}, graph={}, timing={})
    sp = add("falsify-async", cmd_falsify_async, automaton={}, graph={})
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--prefix", type=int, default=20)
    sp.add_argument("--lossless", action="store_true")
    sp.add_argument("--seed", type=int, required=True)
    sp = add("compile-mu", cmd_compile_mu, formula={})
    sp.add_argument("--bits", type=int, default=None)
    sp.add_argument("--accept", default=None)
    sp = add("decompile-qda", cmd_decompile_qda, automaton={})
    sp.add_argument("--out", default=None)
    sp = add("compile-mso", cmd_compile_mso, formula={})
    sp.add_argument("--bits", type=int, default=0)
    sp.add_argument("--relations", type=int, default=1)
    sp.add_argument("--accept", default=None)
    add("alt-accept", cmd_alt_accept, automaton={}, graph={})
    sp = add("alt-closure", cmd_alt_closure, kind={}, automaton={})
    sp.add_argument("--second", default=None)
    sp.add_argument("--mapping", default=None)
    sp.add_argument("--accept", default=None)
    sp = add("empty-forgetful", cmd_empty_forgetful, automaton={})
    sp.add_argument("--out", default=None)
    sp = add("empty-nldag", cmd_empty_nldag, automaton={})
    sp.add_argument("--mode", default="capped",
                    choices=["capped", "pigeonhole"])
    sp.add_argument("--max-nodes", type=int, default=5)
    sp.add_argument("--out", default=None)
    sp = add("search-witness", cmd_search_witness, automaton={})
    sp.add_argument("--max-nodes", type=int, required=True)
    sp.add_argument("--out", default=None)
    add("dfa2fda", cmd_dfa2fda, dfa={})
    sp = add("fda2dfa", cmd_fda2dfa, automaton={})
    sp.add_argument("--out", default=None)
    add("ta2fda", cmd_ta2fda, ta={})
    sp = add("tm2da", cmd_tm2da, tm={})
    sp.add_argument("--accept", default=None)
    add("ts-recognize", cmd_ts_recognize, system={}, graph={})
    add("grid-check", cmd_grid_check, graph={})
    sp = add("gen", cmd_gen, kind={"choices": ["dipath", "grid"]})
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--height", type=int, default=1)
    sp.add_argument("--width", type=int, default=1)
    sp.add_argument("--bits", type=int, default=0)
    sp.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = 1
    try:
        verdict, details = args.fn(args)
        code = 2 if args.strict and verdict in _REJECTING_VERDICTS else 0
    except InputError as e:
        verdict, details = "input-error", {"message": str(e)}
    except graphs.LimitExceeded as e:
        verdict, details = "limit-exceeded", {
            "message": f"{type(e).__name__}: {e}"}
    except (ValueError, KeyError) as e:
        verdict, details = "input-error", {
            "message": f"{type(e).__name__}: {e}"}
    try:
        print(report_format(verdict, details))
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at interpreter exit does not raise again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
