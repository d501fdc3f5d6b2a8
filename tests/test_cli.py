import contextlib
import copy
import functools
import inspect
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

import disto
from disto import automata, cli, graphs, zoo
from disto.cli import main, report_format
from disto.formulas import _SYNTAX, print_formula, print_mu
from disto.reductions import tm_json_dict

import gens


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def fig_automaton_file(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(automata.to_json_dict(
        zoo.reachability_automaton())))
    return str(path)


@pytest.fixture
def edge_graph_file(tmp_path):
    path = tmp_path / "g.json"
    pd = graphs.make(1, 1, ["1", "0"], [(1, 0, 1)], point=1)
    path.write_text(json.dumps(graphs.to_json_dict(pd)))
    return str(path)


def test_report_schema_and_determinism():
    r1 = report_format("accepted", {"x": 1})
    r2 = report_format("accepted", {"x": 1})
    assert r1 == r2
    obj = json.loads(r1)
    assert list(obj) == ["schema", "verdict", "details"]
    assert obj["schema"] == "disto/1"


def test_accept_verb(capsys, fig_automaton_file, edge_graph_file):
    code, out = run_cli(capsys, "accept", fig_automaton_file,
                        edge_graph_file)
    assert code == 0 and out["verdict"] == "accepted"


def test_run_verb_reports_lasso(capsys, fig_automaton_file, edge_graph_file):
    code, out = run_cli(capsys, "run", fig_automaton_file, edge_graph_file)
    assert code == 0
    assert out["details"]["period"] == 1


def test_run_past_its_horizon_reports_limit_exceeded(
        capsys, fig_automaton_file, edge_graph_file):
    code, out = run_cli(capsys, "run", fig_automaton_file, edge_graph_file,
                        "--horizon", "0")
    assert code == 1 and out["verdict"] == "limit-exceeded"
    assert out["details"]["message"].startswith("HorizonExceeded: ")


def _oscillator_rules() -> list:
    """``gens.oscillator`` as rule rows: with nothing received a node
    flips between a and b, else it copies a received state."""
    return [row for q, flip in (("a", "b"), ("b", "a")) for row in (
        {"from": q, "guards": [{"rel": 1, "op": "eq", "set": []}],
         "to": flip},
        {"from": q, "guards": [{"rel": 1, "op": "supseteq", "set": ["a"]}],
         "to": "a"},
        {"from": q, "guards": [], "to": "b"})]


@pytest.mark.parametrize("horizon,verdict", [
    ("3", "limit-exceeded"), ("4", "ran"), (None, "ran"),
    ("auto", "input-error"), ("4.0", "input-error"), ("-1", "input-error"),
    ("0", "limit-exceeded")])
def test_run_ends_in_its_lasso_or_past_the_horizon(capsys, tmp_path,
                                                   horizon, verdict):
    # the oscillator's lasso on a 3-node dipath closes at round 2 + 2
    files = {"osc": {"states": ["a", "b"], "relations": 1,
                     "init": {"": "a"}, "accepting": ["b"],
                     "rules": _oscillator_rules()},
             "path": graphs.to_json_dict(graphs.dipath(3).digraph)}
    argv = ["run", "@osc", "@path"]
    if horizon is not None:
        argv += ["--horizon", horizon]
    code, out = run_cli(capsys, *_write_files(str(tmp_path), files, argv))
    assert out["verdict"] == verdict and code == (verdict != "ran")
    if verdict == "ran":
        assert (out["details"]["prefix"], out["details"]["period"]) == (2, 2)
        assert out["details"]["configurations"] == [
            list(c) for c in automata.sync_run(
                gens.oscillator(), graphs.dipath(3).digraph).configs]
    elif verdict == "limit-exceeded":
        assert out["details"]["message"] == (
            f"HorizonExceeded: no lasso within {horizon} steps")
    elif horizon == "-1":
        assert out["details"]["message"] == (
            "ValueError: horizon must be >= 0")


def test_run_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # a 40-node dipath under the oscillator: its lasso closes on a hit of
    # the lasso hash, whose weights must be the same in every process
    files = {"osc": {"states": ["a", "b"], "relations": 1,
                     "init": {"": "a"}, "accepting": ["b"],
                     "rules": _oscillator_rules()},
             "path": graphs.to_json_dict(graphs.dipath(40).digraph)}
    argv = _write_files(str(tmp_path), files, ["run", "@osc", "@path"])
    outs = [subprocess.run(
        [sys.executable, "-m", "disto.cli", *argv], capture_output=True,
        check=True, env=dict(os.environ, PYTHONHASHSEED=seed,
                             PYTHONPATH=os.path.dirname(
                                 os.path.dirname(disto.__file__)))).stdout
        for seed in ("0", "1")]
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert (report["details"]["prefix"], report["details"]["period"]) == (
        39, 2)


def test_exit_codes(capsys, fig_automaton_file, tmp_path):
    lonely = tmp_path / "lone.json"
    pd = graphs.make(1, 1, ["0"], [], point=0)
    lonely.write_text(json.dumps(graphs.to_json_dict(pd)))
    code, out = run_cli(capsys, "accept", fig_automaton_file, str(lonely))
    assert code == 0 and out["verdict"] == "rejected"
    code, out = run_cli(capsys, "--strict", "accept", fig_automaton_file,
                        str(lonely))
    assert code == 2
    code, out = run_cli(capsys, "accept", fig_automaton_file, "/nope.json")
    assert code == 1 and out["verdict"] == "input-error"


def test_gen_roundtrips_through_parser(capsys, tmp_path):
    out_path = tmp_path / "grid.json"
    code, out = run_cli(capsys, "gen", "grid", "--height", "2",
                        "--width", "3", "--out", str(out_path))
    assert code == 0
    back = graphs.from_json_dict(json.loads(out_path.read_text()))
    assert back == graphs.grid(2, 3)
    code, out = run_cli(capsys, "grid-check", str(out_path))
    assert out["verdict"] == "is-grid"
    assert out["details"] == {"height": 2, "width": 3}


def test_compile_mu_and_accept(capsys, tmp_path, edge_graph_file):
    formula = tmp_path / "f.mu"
    formula.write_text(print_mu(zoo.reachability_mu_system()))
    code, out = run_cli(capsys, "compile-mu", str(formula),
                        "--accept", edge_graph_file)
    assert code == 0 and out["verdict"] == "accepted"
    assert out["details"]["states"] == 8


def test_compile_mu_refuses_a_variable_named_like_a_label_bit(
        capsys, tmp_path, edge_graph_file):
    formula = tmp_path / "f.mu"
    formula.write_text("(mu ((P1 (bdia 1 (in P1)))))")
    code, out = run_cli(capsys, "compile-mu", str(formula), "--bits", "1",
                        "--accept", edge_graph_file)
    assert code == 1 and out["verdict"] == "input-error"
    assert "'P1'" in out["details"]["message"]


def test_decompile_roundtrip(capsys, tmp_path, fig_automaton_file):
    out_path = tmp_path / "dec.mu"
    code, out = run_cli(capsys, "decompile-qda", fig_automaton_file,
                        "--out", str(out_path))
    assert code == 0 and out["verdict"] == "decompiled"
    from disto.formulas import MuEvaluator, parse_mu
    sys_ = parse_mu(out_path.read_text(), bits=1)
    ev = MuEvaluator(sys_)
    d = graphs.make(1, 1, ["1", "0"], [(1, 0, 1)])
    assert ev.eval(d) == zoo.reachability_oracle(d)


def test_falsify_async_counterexample(capsys, tmp_path):
    det = tmp_path / "det.json"
    # the synchrony detector is function-backed; express it as rules
    from disto.automata import Guard, Rule, RuleDelta, DistributedAutomaton
    rules = [
        Rule("w", (Guard(1, "supseteq", frozenset({"a1", "b1"})),), "acc"),
        Rule("w", (), "w"),
        Rule("a0", (), "a1"), Rule("a1", (), "a2"), Rule("a2", (), "a2"),
        Rule("b0", (), "b1"), Rule("b1", (), "b2"), Rule("b2", (), "b2"),
        Rule("acc", (), "acc"),
    ]
    a = DistributedAutomaton(
        states=("w", "a0", "a1", "a2", "b0", "b1", "b2", "acc"), rels=1,
        init={"00": "w", "01": "b0", "10": "a0", "11": "w"},
        accepting=frozenset({"acc"}), delta=RuleDelta(rules))
    det.write_text(json.dumps(automata.to_json_dict(a)))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(
        zoo.synchrony_detector_graph())))
    code, out = run_cli(capsys, "falsify-async", str(det), str(g),
                        "--samples", "40", "--seed", "1", "--lossless")
    assert out["verdict"] == "counterexample"
    assert out["details"]["node"] == 2
    # the emitted timing parses back and reproduces the divergence
    from disto.asyncrun import timing_from_json_dict, timed_accepted_nodes
    d = zoo.synchrony_detector_graph()
    ta = timing_from_json_dict(out["details"]["timing_a"], d)
    tb = timing_from_json_dict(out["details"]["timing_b"], d)
    assert (2 in timed_accepted_nodes(a, d, ta)) != (
        2 in timed_accepted_nodes(a, d, tb))


def test_empty_forgetful_verbs(capsys, tmp_path):
    empty = {
        "states": ["q"], "relations": 1, "initial": "q",
        "accepting": [],
        "delta": {"": [{"guards": [], "to": "q"}]},
    }
    f = tmp_path / "e.json"
    f.write_text(json.dumps(empty))
    code, out = run_cli(capsys, "empty-forgetful", str(f))
    assert out["verdict"] == "empty"
    nonempty = dict(empty, accepting=["q"])
    f.write_text(json.dumps(nonempty))
    code, out = run_cli(capsys, "--strict", "empty-forgetful", str(f))
    assert code == 0 and out["verdict"] == "nonempty"
    witness = graphs.from_json_dict(out["details"]["witness"])
    assert witness.digraph.n == 1


def test_empty_forgetful_builds_a_deep_witness(capsys, tmp_path):
    f = tmp_path / "chain.json"
    f.write_text(json.dumps(gens.forgetful_chain_json(1100)))
    code, out = run_cli(capsys, "empty-forgetful", str(f))
    assert code == 0 and out["verdict"] == "nonempty"
    assert out["details"]["time"] == 1100
    witness = graphs.from_json_dict(out["details"]["witness"])
    assert witness.digraph.n == 1101


def test_tm2da_verb(capsys, tmp_path):
    tm = tmp_path / "tm.json"
    tm.write_text(json.dumps(tm_json_dict(zoo.sample_turing_machines()[0])))
    g = tmp_path / "p1.json"
    g.write_text(json.dumps(graphs.to_json_dict(graphs.dipath(1))))
    code, out = run_cli(capsys, "tm2da", str(tm), "--accept", str(g))
    assert out["verdict"] == "accepted"


def test_ts_recognize_verb(capsys, tmp_path):
    from disto.tiling import ts_to_json_dict
    ts = tmp_path / "ts.json"
    ts.write_text(json.dumps(ts_to_json_dict(zoo.even_width_tiling_system())))
    g = tmp_path / "grid.json"
    g.write_text(json.dumps(graphs.to_json_dict(graphs.grid(2, 2))))
    code, out = run_cli(capsys, "ts-recognize", str(ts), str(g))
    assert out["verdict"] == "accepted"
    g.write_text(json.dumps(graphs.to_json_dict(graphs.grid(2, 3))))
    code, out = run_cli(capsys, "ts-recognize", str(ts), str(g))
    assert out["verdict"] == "rejected"


def test_grid_check_names_the_failed_condition(capsys, tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(
        graphs.make(0, 2, ["", ""], []))))
    code, out = run_cli(capsys, "grid-check", str(g))
    assert out["verdict"] == "not-a-grid"
    assert out["details"] == {
        "failed_condition": 3,
        "name": "iii (unique node that is a source for both relations)"}
    g.write_text(json.dumps(graphs.to_json_dict(graphs.make(0, 1, [""], []))))
    code, out = run_cli(capsys, "grid-check", str(g))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == (
        "StructureError: grid_validate needs a 2-relational digraph")


def test_grid_verbs_on_150_by_150_grids(capsys, tmp_path):
    from disto.tiling import ts_to_json_dict
    ts = tmp_path / "ts.json"
    ts.write_text(json.dumps(ts_to_json_dict(zoo.even_width_tiling_system())))
    for width, verdict in ((150, "accepted"), (149, "rejected")):
        g = tmp_path / f"grid{width}.json"
        code, _ = run_cli(capsys, "gen", "grid", "--height", "150",
                          "--width", str(width), "--out", str(g))
        assert code == 0
        code, out = run_cli(capsys, "grid-check", str(g))
        assert out["verdict"] == "is-grid"
        assert out["details"] == {"height": 150, "width": width}
        code, out = run_cli(capsys, "ts-recognize", str(ts), str(g))
        assert out["verdict"] == verdict


def test_empty_nldag_verb(capsys, tmp_path):
    obj = {
        "states": [{"name": "p", "kind": "P"}],
        "relations": 1, "init": {"": "p"},
        "rules": [{"from": "p", "guards": [], "to": ["p"]}],
        "accepting_sets": [],
    }
    f = tmp_path / "n.json"
    f.write_text(json.dumps(obj))
    code, out = run_cli(capsys, "empty-nldag", str(f))
    assert out["verdict"] == "empty"
    obj["accepting_sets"] = [["p"]]
    f.write_text(json.dumps(obj))
    code, out = run_cli(capsys, "empty-nldag", str(f))
    assert out["verdict"] == "nonempty"


def test_empty_nldag_refused_mid_search_is_empty_up_to_cap(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(graphs, "CANDIDATE_LIMIT", 100_000)
    f = tmp_path / "n.json"
    f.write_text(json.dumps(gens.unreachable_accepting_nldag_json()))
    code, out = run_cli(capsys, "empty-nldag", str(f), "--max-nodes", "3")
    assert code == 0 and out["verdict"] == "empty-up-to-cap"
    assert out["details"] == {"searched_up_to": 2, "pigeonhole_bound": 3}


def test_search_witness_verb(capsys, tmp_path, fig_automaton_file):
    code, out = run_cli(capsys, "search-witness", fig_automaton_file,
                        "--max-nodes", "2")
    assert out["verdict"] == "witness"
    w = graphs.from_json_dict(out["details"]["witness"])
    assert automata.decide_acceptance_sync(zoo.reachability_automaton(), w)


def test_compile_mso_verb(capsys, tmp_path):
    f = tmp_path / "f.sexp"
    f.write_text("(not (exists u (exists v (rel 1 u v))))")
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(graphs.make(0, 1, [""], []))))
    code, out = run_cli(capsys, "compile-mso", str(f), "--accept", str(g))
    assert out["verdict"] == "accepted"


@pytest.mark.parametrize("text,message", [
    ("(not " * 2999 + "(top)" + ")" * 2999,
     "ParseError: nesting deeper than 100 at offset 500"),
    ("(exists x (exists y (rel 5 x y)))",
     "AltError: relation index 5 out of range for 1 relation(s)"),
    ("(exists x (exists y (rel 1 (x) y)))",
     "ParseError: (rel ...) expects two or more symbols, got [['x'], 'y']"),
    ("(exists x (exists y (rel 0 x y)))",
     "ParseError: relation indices are 1, 2, ..., got '0'"),
], ids=["3000-deep", "rel-5", "rel-list-argument", "rel-0"])
def test_compile_mso_refuses_malformed_sentences(capsys, tmp_path, text,
                                                 message):
    f = tmp_path / "f.sexp"
    f.write_text(text)
    code, out = run_cli(capsys, "compile-mso", str(f))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == message


def test_accept_timed_verb(capsys, tmp_path, fig_automaton_file,
                           edge_graph_file):
    from disto.asyncrun import sample_timing, timing_to_json_dict
    d = graphs.make(1, 1, ["1", "0"], [(1, 0, 1)])
    t = tmp_path / "t.json"
    t.write_text(json.dumps(timing_to_json_dict(
        sample_timing(d, 6, lossless=True, seed=4))))
    code, out = run_cli(capsys, "accept-timed", fig_automaton_file,
                        edge_graph_file, str(t))
    assert code == 0 and out["verdict"] == "accepted"


ALDAG_JSON = {
    "states": [{"name": "ini", "kind": "E"},
               {"name": "yes", "kind": "P"}, {"name": "no", "kind": "P"}],
    "relations": 1,
    "init": {"": "ini"},
    "rules": [
        {"from": "ini",
         "guards": [{"rel": 1, "op": "supseteq", "set": ["ini"]}],
         "to": ["no"]},
        {"from": "ini", "guards": [], "to": ["yes"]},
        {"from": "yes", "guards": [], "to": ["yes"]},
        {"from": "no", "guards": [], "to": ["no"]},
    ],
    "accepting_sets": [["yes"]],
}


def test_alt_accept_and_closure_verbs(capsys, tmp_path):
    f = tmp_path / "aldag.json"
    f.write_text(json.dumps(ALDAG_JSON))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(
        graphs.make(0, 1, [""], []))))  # edgeless: every node picks yes
    code, out = run_cli(capsys, "alt-accept", str(f), str(g))
    assert out["verdict"] == "accepted"
    code, out = run_cli(capsys, "alt-closure", "complement", str(f),
                        "--accept", str(g))
    assert out["verdict"] == "rejected"
    code, out = run_cli(capsys, "alt-closure", "union", str(f),
                        "--second", str(f), "--accept", str(g))
    assert out["verdict"] == "accepted"


@pytest.mark.parametrize("a_to", [["b"], ["b", "p"]])
def test_alt_verbs_refuse_a_cycle_among_nonpermanent_states(capsys, tmp_path,
                                                            a_to):
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps(gens.cyclic_aldag_json(a_to)))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(graphs.make(0, 1, [""], []))))
    for argv in (["alt-accept", str(f), str(g)],
                 ["alt-closure", "complement", str(f), "--accept", str(g)]):
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out["verdict"] == "input-error"
        assert "cycle among nonpermanent states" in out["details"]["message"]


def test_dfa2fda_and_ta2fda_verbs(capsys, tmp_path):
    from disto.reductions import dfa_json_dict, ta_json_dict
    import gens as g
    import random
    dfa = tmp_path / "dfa.json"
    dfa.write_text(json.dumps(dfa_json_dict(g.random_dfa(random.Random(3)))))
    code, out = run_cli(capsys, "dfa2fda", str(dfa))
    assert code == 0 and out["verdict"] == "converted"
    ta = tmp_path / "ta.json"
    ta.write_text(json.dumps(ta_json_dict(
        g.random_tree_automaton(random.Random(3)))))
    code, out = run_cli(capsys, "ta2fda", str(ta))
    assert code == 0 and out["details"]["arity"] == 2


def test_fda2dfa_verb(capsys, tmp_path):
    fda = {
        "states": ["q"], "relations": 1, "initial": "q",
        "accepting": ["q"],
        "delta": {"0": [{"guards": [], "to": "q"}],
                  "1": [{"guards": [], "to": "q"}]},
    }
    f = tmp_path / "fda.json"
    f.write_text(json.dumps(fda))
    out_path = tmp_path / "dfa.json"
    code, out = run_cli(capsys, "fda2dfa", str(f), "--out", str(out_path))
    assert code == 0
    from disto.reductions import dfa_from_json_dict
    dfa = dfa_from_json_dict(json.loads(out_path.read_text()))
    assert dfa.accepts(("0", "1"))


@pytest.mark.parametrize("rel,rels,message", [
    (0, 2, "guard relation index 0 is not >= 1"),
    (3, 1, "reads a relation above 1")])
def test_guard_relation_out_of_range_is_an_input_error(
        capsys, tmp_path, rel, rels, message):
    guards = [{"rel": rel, "op": "any", "set": []}]
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(
        graphs.make(0, rels, [""], [], point=0))))
    files = {
        "accept": {"states": ["q"], "relations": rels, "init": {"": "q"},
                   "accepting": [],
                   "rules": [{"from": "q", "guards": guards, "to": "q"}]},
        "fda2dfa": {"states": ["q"], "relations": rels, "initial": "q",
                    "accepting": [],
                    "delta": {"": [{"guards": guards, "to": "q"}]}},
        "alt-accept": {"states": [{"name": "q", "kind": "P"}],
                       "relations": rels, "init": {"": "q"},
                       "rules": [{"from": "q", "guards": guards,
                                  "to": ["q"]}],
                       "accepting_sets": [["q"]]},
    }
    f = tmp_path / "a.json"
    for verb, obj in files.items():
        f.write_text(json.dumps(obj))
        extra = [] if verb == "fda2dfa" else [str(g)]
        code, out = run_cli(capsys, verb, str(f), *extra)
        assert code == 1 and out["verdict"] == "input-error"
        text = out["details"]["message"]
        assert text.startswith("ValueError: ") and message in text


def test_fda2dfa_refuses_an_undeclared_target(capsys, tmp_path):
    f = tmp_path / "fda.json"
    f.write_text(json.dumps({
        "states": ["q"], "relations": 1, "initial": "q", "accepting": [],
        "delta": {"0": [{"guards": [], "to": "ghost"}]}}))
    code, out = run_cli(capsys, "fda2dfa", str(f))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == (
        "UnmatchedTransition: delta produced unknown state 'ghost'")


def test_empty_forgetful_refuses_an_undeclared_initial_state(capsys, tmp_path):
    f = tmp_path / "fda.json"
    f.write_text(json.dumps({
        "states": ["q"], "relations": 1, "initial": "ghost",
        "accepting": ["ghost"],
        "delta": {"": [{"guards": [], "to": "q"}]}}))
    code, out = run_cli(capsys, "empty-forgetful", str(f))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"].startswith("ValueError: ")


def test_accept_refuses_a_point_outside_the_digraph(
        capsys, fig_automaton_file, tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(dict(graphs.to_json_dict(
        graphs.make(1, 1, ["1"], [])), point=7)))
    code, out = run_cli(capsys, "accept", fig_automaton_file, str(g))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == (
        "ValueError: point 7 is not a valid node id")


@pytest.mark.parametrize("position", [0, 1])
def test_accept_refuses_a_json_list(capsys, fig_automaton_file,
                                    edge_graph_file, tmp_path, position):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([1, 2]))
    files = [fig_automaton_file, edge_graph_file]
    files[position] = str(bad)
    code, out = run_cli(capsys, "accept", *files)
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == (
        f"{bad}: top level is not a JSON object")


@pytest.mark.parametrize("edge", [(1, -1, 1), (2, 0, 1), (0, 0, 1),
                                  (1, 0, 5)])
def test_timed_verbs_refuse_faulty_edges(capsys, fig_automaton_file,
                                         tmp_path, edge):
    pd = graphs.make(1, 1, ["1", "0"], [edge], point=1)
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(pd)))
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"lossless": True, "prefix": [
        {"nodes": [1, 0], "edges": [1]}]}))
    message = "ValueError: " + graphs.edge_fault(pd.digraph, edge)
    for argv in (("accept-timed", fig_automaton_file, str(g), str(t)),
                 ("falsify-async", fig_automaton_file, str(g),
                  "--samples", "5", "--seed", "0")):
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out["verdict"] == "input-error"
        assert out["details"]["message"] == message


@pytest.mark.parametrize("lossless", [True, False])
@pytest.mark.parametrize("node_bits", [[1], [1, 1, 1]])
def test_accept_timed_refuses_a_wrong_node_bit_count(
        capsys, fig_automaton_file, edge_graph_file, tmp_path, lossless,
        node_bits):
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"lossless": lossless, "prefix": [
        {"nodes": [1, 1], "edges": [0]}, {"nodes": node_bits, "edges": [1]}]}))
    code, out = run_cli(capsys, "accept-timed", fig_automaton_file,
                        edge_graph_file, str(t))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == (
        "TimingError: step 2: wrong node-bit count")


@pytest.mark.parametrize("timing,message", [
    ({"prefix": {"nodes": [1, 1]}}, "timing has no prefix list"),
    ({"lossless": "false", "prefix": []},
     "timing's lossless flag is not a boolean"),
    ({"prefix": [{"nodes": [1, 2], "edges": [0]}]},
     "step 1: nodes and edges must be lists of 0/1 bits"),
    ({"prefix": [{"nodes": [1, 1]}]},
     "step 1: nodes and edges must be lists of 0/1 bits")])
def test_accept_timed_refuses_a_malformed_timing(
        capsys, fig_automaton_file, edge_graph_file, tmp_path, timing,
        message):
    t = tmp_path / "t.json"
    t.write_text(json.dumps(timing))
    code, out = run_cli(capsys, "accept-timed", fig_automaton_file,
                        edge_graph_file, str(t))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == "TimingError: " + message


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
_BITS = st.lists(st.sampled_from([0, 1]) | _JSON, max_size=4)
_STEP = (st.fixed_dictionaries({"nodes": _BITS, "edges": _BITS})
         | st.fixed_dictionaries({"nodes": _BITS}) | _JSON)
_TIMING = st.fixed_dictionaries(
    {}, optional={"lossless": _JSON,
                  "prefix": st.lists(_STEP, max_size=4) | _JSON})


@settings(max_examples=200, deadline=None)
@given(timing=_TIMING)
def test_accept_timed_reports_every_mutated_timing(timing):
    pd = graphs.make(1, 1, ["1", "0"], [(1, 0, 1)], point=1)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"a.json": automata.to_json_dict(zoo.reachability_automaton()),
                 "g.json": graphs.to_json_dict(pd), "t.json": timing}
        for name, obj in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(obj, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["accept-timed", *(os.path.join(tmp, name)
                                          for name in files)])
    report = json.loads(out.getvalue())  # exactly one JSON document
    assert report["schema"] == "disto/1" and code in (0, 1, 2)
    assert (code == 1) == (report["verdict"] == "input-error")


def _sexpr_bases():
    rng = random.Random(12)
    bases = [("compile-mso", print_formula(
        gens.random_mso_sentence(rng, bits=0, qdepth=1 + i % 2)))
        for i in range(6)]
    bases += [("compile-mu", print_mu(gens.random_mu_system(rng)))
              for _ in range(6)]
    return bases


_VOCAB = ["(", ")", "mu", "x1", "x2", "Y1", "Y2", "X1", "P1", "P7", "0", "1",
          "5", "\u00b2", *sorted(op for op, _, _ in _SYNTAX.values())]
_EDITS = st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                            st.integers(0, 1000), st.sampled_from(_VOCAB)),
                  max_size=4)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(_sexpr_bases()), edits=_EDITS)
def test_compile_verbs_report_every_mutated_sexpr(base, edits):
    verb, text = base
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    for edit, at, tok in edits:
        if edit == "insert":
            tokens.insert(at % (len(tokens) + 1), tok)
        elif tokens:
            i = at % len(tokens)
            if edit == "delete":
                del tokens[i]
            else:
                tokens[i] = tok
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.sexp")
        with open(path, "w") as fh:
            fh.write(" ".join(tokens))
        argv = [verb, path] + (["--bits", "1"] if verb == "compile-mu" else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    report = json.loads(out.getvalue())  # exactly one JSON document
    assert report["schema"] == "disto/1" and code in (0, 1, 2)
    assert (code == 1) == (report["verdict"] in ("input-error",
                                                 "limit-exceeded"))


def _write_files(tmp, files: dict, argv: list) -> list:
    """Write ``files`` (name -> JSON object or S-expression text) into
    ``tmp`` and return ``argv`` with each ``@name`` replaced by its path."""
    for name in {a[1:] for a in argv if a.startswith("@")}:
        with open(os.path.join(tmp, name), "w") as fh:
            value = files[name]
            fh.write(value if isinstance(value, str) else json.dumps(value))
    return [os.path.join(tmp, a[1:]) if a.startswith("@") else a
            for a in argv]


@functools.lru_cache(maxsize=1)
def _verb_files():
    """Small valid input files for every verb: JSON objects, and the
    S-expression texts of the compile verbs."""
    from disto.asyncrun import timing_to_json_dict, sample_timing
    from disto.reductions import dfa_json_dict, ta_json_dict
    from disto.tiling import ts_to_json_dict
    pd = graphs.make(1, 1, ["1", "0"], [(1, 0, 1)], point=1)
    alt1 = dict(ALDAG_JSON, init={"0": "ini", "1": "yes"})
    return {
        "a": automata.to_json_dict(zoo.reachability_automaton()),
        "g": graphs.to_json_dict(pd),
        "g0": graphs.to_json_dict(graphs.make(0, 1, [""], [], point=0)),
        "t": timing_to_json_dict(sample_timing(pd.digraph, 3, True, seed=1)),
        "alt": ALDAG_JSON, "alt1": alt1, "map": {"0": "1", "1": "0"},
        "fda": {"states": ["q", "r"], "relations": 1, "initial": "q",
                "accepting": ["r"],
                "delta": {"0": [{"guards": [{"rel": 1, "op": "supseteq",
                                             "set": ["q"]}], "to": "r"},
                                {"guards": [], "to": "q"}],
                          "1": [{"guards": [], "to": "r"}]}},
        "dfa": dfa_json_dict(gens.random_dfa(random.Random(3))),
        "ta": ta_json_dict(gens.random_tree_automaton(random.Random(3))),
        "tm": tm_json_dict(zoo.sample_turing_machines()[0]),
        "ts": ts_to_json_dict(zoo.even_width_tiling_system()),
        "grid": graphs.to_json_dict(graphs.grid(2, 2)),
        "p1": graphs.to_json_dict(graphs.dipath(1)),
        "mu": print_mu(zoo.reachability_mu_system()),
        "mso": "(exists x (in P1 x))",
    }


# Each verb with its file arguments written as @name.  The graphs
# stay small and --max-nodes, --samples low so that every run is short.
_VERB_ARGV = [
    ["run", "@a", "@g"], ["accept", "@a", "@g"],
    ["accept-timed", "@a", "@g", "@t"],
    ["falsify-async", "@a", "@g", "--samples", "3", "--seed", "0"],
    ["compile-mu", "@mu", "--bits", "1", "--accept", "@g"],
    ["decompile-qda", "@a"],
    ["compile-mso", "@mso", "--bits", "1", "--accept", "@g"],
    ["alt-accept", "@alt", "@g0"],
    ["alt-closure", "complement", "@alt", "--accept", "@g0"],
    ["alt-closure", "union", "@alt", "--second", "@alt"],
    ["alt-closure", "project", "@alt1", "--mapping", "@map",
     "--accept", "@g"],
    ["empty-forgetful", "@fda"], ["empty-nldag", "@alt", "--max-nodes", "2"],
    ["search-witness", "@a", "--max-nodes", "2"], ["dfa2fda", "@dfa"],
    ["fda2dfa", "@fda"], ["ta2fda", "@ta"], ["tm2da", "@tm", "--accept", "@p1"],
    ["ts-recognize", "@ts", "@grid"], ["grid-check", "@grid"],
]
_OTHER_TYPES = [None, True, 5, 1.5, "x", "", [], {}, [5], ["x"], {"x": 5}]


def _paths(obj, at=()):
    yield at
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, at + (key,))


def _mutate(obj, pick, edit, other, number):
    """``obj`` with one edit at the path ``pick`` selects: its key dropped,
    its value replaced by ``other``, a list emptied or nested, or an integer
    moved to ``number``."""
    paths = list(_paths(obj))[1:]
    if not paths:
        return obj
    path = paths[pick % len(paths)]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if edit == "drop" and isinstance(parent, dict):
        del parent[key]
    elif edit == "empty" and isinstance(value, list):
        parent[key] = []
    elif edit == "nest" and isinstance(value, list):
        parent[key] = [value]
    elif edit == "number" and type(value) is int:
        parent[key] = number
    else:
        parent[key] = copy.deepcopy(other)
    return obj


# Integers stay within -2..9: each interned state's key has one bit per
# state and slot, so its size grows with the square of the relation count
# (a 1-state automaton on a 2-node digraph with 20,000 relations peaks at
# about 52 MB), and a mutated relation count of 10^6 would need tens of GB.
_JSON_EDITS = st.lists(st.tuples(
    st.integers(0, 10 ** 6), st.sampled_from(["drop", "replace", "empty",
                                               "nest", "number"]),
    st.sampled_from(_OTHER_TYPES), st.integers(-2, 9)), min_size=1, max_size=3)


@settings(max_examples=1000, deadline=None)
@given(argv=st.sampled_from(_VERB_ARGV), which=st.integers(0, 3),
       edits=_JSON_EDITS)
@example(argv=["search-witness", "@a", "--max-nodes", "2"], which=0,
         edits=[(255, "replace", "", 0)])  # an empty init names no labels
def test_every_verb_reports_every_mutated_json(argv, which, edits):
    files = copy.deepcopy(_verb_files())
    names = [a[1:] for a in argv
             if a.startswith("@") and isinstance(files[a[1:]], dict)]
    target = names[which % len(names)]
    for pick, edit, other, number in edits:
        files[target] = _mutate(files[target], pick, edit, other, number)
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(_write_files(tmp, files, argv))
    report = json.loads(out.getvalue())  # exactly one JSON document
    assert report["schema"] == "disto/1" and code in (0, 1, 2)
    assert (code == 1) == (report["verdict"] in ("input-error",
                                                 "limit-exceeded"))


def _edited(name, path, value):
    """The verb files with the value at ``path`` in file ``name`` set."""
    files = copy.deepcopy(_verb_files())
    *parents, key = path
    at = files[name]
    for k in parents:
        at = at[k]
    at[key] = value
    return files


@pytest.mark.parametrize("argv,files,message", [
    (["accept", "@a", "@g"], _edited("a", ["states"], 5),
     "states must be a list of strings, got 5"),
    (["accept", "@a", "@g"], _edited("a", ["rules"], [5]),
     "TypeError: 'int' object is not subscriptable"),
    (["accept", "@a", "@g"], _edited("a", ["rules", 0, "guards"], "x"),
     "TypeError: string indices must be integers"),
    (["grid-check", "@grid"], _edited("grid", ["nodes"], 5),
     "TypeError: 'int' object is not iterable"),
    (["grid-check", "@grid"], _edited("grid", ["nodes", 0, "label"], 5),
     "label of node 0 is not a 0-bit string"),
    (["alt-accept", "@alt", "@g0"],
     _edited("alt", ["states"], ["ini", "yes", "no"]),
     "TypeError: string indices must be integers"),
    (["ts-recognize", "@ts", "@grid"], _edited("ts", ["tiles"], 5),
     "TypeError: 'int' object is not iterable"),
    (["tm2da", "@tm", "--accept", "@p1"], _edited("tm", ["delta"], 5),
     "TypeError: 'int' object is not iterable"),
    (["tm2da", "@tm", "--accept", "@p1"], _edited("tm", ["tape", 1], "q0/_"),
     "names an undeclared state or symbol"),
    (["fda2dfa", "@fda"], _edited("fda", ["delta"], []),
     "AttributeError: 'list' object has no attribute 'items'"),
    (["ta2fda", "@ta"], _edited("ta", ["delta", 0, 0], 5),
     "children must be a list of strings, got 5"),
    (["alt-closure", "project", "@alt", "--mapping", "@map"],
     dict(_verb_files(), map={"": 5}),
     "projection image labels must be bitstrings"),
    (["alt-closure", "project", "@alt1", "--mapping", "@map"],
     _edited("map", ["0"], 5), "projection image labels must be bitstrings"),
    (["alt-accept", "@alt", "@g0"],
     _edited("alt", ["rules", 1, "to"], [["yes"]]),
     "rule targets must be a list of strings"),
    (["accept", "@a", "@g"], _edited("a", ["init", "0"], ["x"]),
     "TypeError: unhashable type: 'list'"),
    (["accept", "@a", "@g"], _edited("a", ["init", "0"], "ghost"),
     "ValueError: initial states"),
    (["alt-accept", "@alt", "@g0"],
     _edited("alt", ["accepting_sets", 0], ["ghost"]),
     "name undeclared states"),
    (["empty-nldag", "@alt", "--max-nodes", "2"], _edited("alt", ["init"], {}),
     "ValueError: automaton has no initialization entries"),
    (["ts-recognize", "@ts", "@grid"], _edited("ts", ["states"], "AB"),
     "states must be a list of strings, got 'AB'"),
    (["ts-recognize", "@ts", "@grid"], _edited("ts", ["bits"], 0.0),
     "bits must be an integer >= 0, got 0.0"),
    (["ts-recognize", "@ts", "@grid"], _edited("ts", ["bits"], -1),
     "bits must be an integer >= 0, got -1"),
    # {"P1,X1"} and {P1, X1} would be one state: the variable P1,X1 is
    # empty, but the automaton would accept
    (["compile-mu", "@mu", "--accept", "@g1"],
     dict(_verb_files(), mu="(mu ((X1 (in P1)) (P1,X1 (top))))",
          g1=graphs.to_json_dict(graphs.make(1, 1, ["0"], [], point=0))),
     "member 'P1,X1' cannot be named"),
    # {"a,b"} and {a, b} would be one DFA state, accepting 00
    (["fda2dfa", "@fda"],
     dict(_verb_files(), fda={"states": ["a", "b", "a,b"], "relations": 1,
                              "initial": "a", "accepting": ["a,b"],
                              "delta": {"0": [{"to": "b"}]}}),
     "member 'a,b' cannot be named"),
    # T<a b> does not read back as one variable
    (["decompile-qda", "@a"],
     dict(_verb_files(), a={"states": ["a b", "c"], "relations": 1,
                            "init": {"0": "a b"}, "accepting": ["c"],
                            "rules": [{"from": "a b", "to": "c"},
                                      {"from": "c", "to": "c"}]}),
     "state 'a b' cannot be spelled"),
    # the traces (a, c) and (a|c) would both be T<a|c>
    (["decompile-qda", "@a"],
     dict(_verb_files(), a={"states": ["a", "c", "a|c"], "relations": 1,
                            "init": {"0": "a", "1": "a|c"},
                            "accepting": ["c"],
                            "rules": [{"from": "a", "to": "c"},
                                      {"from": "c", "to": "c"},
                                      {"from": "a|c", "to": "a|c"}]}),
     "state 'a|c' cannot be spelled"),
    (["dfa2fda", "@dfa"], _edited("dfa", ["initial"], "zz"),
     "ValueError: initial state 'zz' not in state set"),
    (["dfa2fda", "@dfa"], _edited("dfa", ["accepting"], ["zz"]),
     "ValueError: accepting states ['zz'] not in state set"),
    (["dfa2fda", "@dfa"],
     dict(_verb_files(), dfa={"states": ["s"], "initial": "s",
                              "accepting": ["s"],
                              "delta": [["s", "0", "zz"]]}),
     "ValueError: delta row ['s', '0', 'zz'] names a state not in the "
     "state set"),
    (["dfa2fda", "@dfa"],
     dict(_verb_files(), dfa={"states": ["s"], "initial": "s",
                              "accepting": [],
                              "delta": [["s", "0", "s"], ["zz", "0", "s"]]}),
     "ValueError: delta row ['zz', '0', 's'] names a state not in the "
     "state set"),
    (["ts-recognize", "@ts", "@grid"], _edited("ts", ["tiles", 0],
                                               ["#", "#", "#"]),
     "ValueError: tile ['#', '#', '#'] does not have 4 cells"),
], ids=["states-5", "rules-[5]", "guards-x", "nodes-5", "label-5",
        "alt-states-strings", "tiles-5", "tm-delta-5", "tm-window-names",
        "fda-delta-[]",
        "ta-children-5", "mapping-empty-label-5", "mapping-5",
        "alt-target-list", "init-list", "init-undeclared",
        "accepting-undeclared", "alt-init-empty", "ts-states-string",
        "ts-bits-float", "ts-bits-negative", "mu-variable-comma",
        "fda-state-comma", "qda-state-space", "qda-state-bar",
        "dfa-initial-undeclared", "dfa-accepting-undeclared",
        "dfa-target-undeclared", "dfa-source-undeclared", "ts-tile-3-cells"])
def test_malformed_files_get_one_input_error(capsys, tmp_path, argv, files,
                                             message):
    code, out = run_cli(capsys, *_write_files(str(tmp_path), files, argv))
    assert code == 1 and out["verdict"] == "input-error"
    assert message in out["details"]["message"]


def test_an_alternating_rule_automaton_over_the_enumeration_cap_is_decided(
        capsys, tmp_path):
    # 17 states on 1 relation: past the cap of all_pairs, but the rule
    # regions give its successor map
    states = [f"q{i}" for i in range(17)]
    obj = {"states": [{"name": q, "kind": "E"} for q in states[:-1]]
           + [{"name": states[-1], "kind": "P"}],
           "relations": 1, "init": {"": "q0"},
           "rules": [{"from": q, "guards": [], "to": [states[-1]]}
                     for q in states],
           "accepting_sets": [[states[-1]]]}
    files = {"big": obj, "g0": _verb_files()["g0"]}
    code, out = run_cli(capsys, *_write_files(str(tmp_path), files,
                                              ["alt-accept", "@big", "@g0"]))
    assert code == 0 and out["verdict"] == "accepted"


def test_a_40_state_2_relation_alternating_rule_automaton_is_decided(
        capsys, tmp_path):
    # a_i climbs to a_{i+1} while relation 1 holds a_i (a self-loop), and
    # may also climb, or give up, while relation 2 is empty; a_37 accepts
    # only on the self-loop
    climb = [f"a{i}" for i in range(38)]
    rules = []
    for q, nxt in zip(climb, climb[1:]):
        rules += [
            {"from": q, "guards": [{"rel": 1, "op": "supseteq", "set": [q]}],
             "to": [nxt]},
            {"from": q, "guards": [{"rel": 2, "op": "eq", "set": []}],
             "to": [nxt, "no"]},
            {"from": q, "to": ["no"]}]
    rules += [{"from": "a37", "guards": [{"rel": 1, "op": "supseteq",
                                          "set": ["a37"]}], "to": ["yes"]},
              {"from": "a37", "to": ["no"]},
              {"from": "yes", "to": ["yes"]}, {"from": "no", "to": ["no"]}]
    files = {"big": {"states": [{"name": q, "kind": "E"} for q in climb]
                     + [{"name": "yes", "kind": "P"},
                        {"name": "no", "kind": "P"}],
                     "relations": 2, "init": {"": "a0"}, "rules": rules,
                     "accepting_sets": [["yes"]]}}
    for edges, verdict in [([(1, 0, 0)], "accepted"), ([], "rejected"),
                           ([(2, 0, 0)], "rejected"),
                           ([(1, 0, 0), (2, 0, 0)], "accepted")]:
        files["g"] = graphs.to_json_dict(graphs.make(0, 2, [""], edges,
                                                     point=0))
        code, out = run_cli(capsys, *_write_files(str(tmp_path), files,
                                                  ["alt-accept", "@big",
                                                   "@g"]))
        assert code == 0 and out["verdict"] == verdict


def _cap_files():
    """Files just over a cap: a 20-state chain automaton with 20 live
    traces, a 17-state forgetful automaton whose second step set holds all
    17 states, a 9-state, 9-symbol Turing machine, and an 11-proposition
    formula."""
    from disto.reductions import TuringMachine
    states = [f"q{i}" for i in range(17)]
    chain = [f"q{i}" for i in range(20)]
    tm_states = tuple(f"q{i}" for i in range(8)) + ("h",)
    tape = tuple("_abcdefgh")
    tm = TuringMachine(states=tm_states, tape=tape, initial="q0", blank="_",
                       delta={(q, s): ("h", s, "R")
                              for q in tm_states[:-1] for s in tape},
                       halt="h")
    return dict(
        _verb_files(),
        chain20={"states": chain, "relations": 1, "init": {"": "q0"},
                 "accepting": [], "rules": [{"from": q, "guards": [], "to": t}
                                            for q, t in zip(chain, chain[1:]
                                                            + chain[-1:])]},
        f17={"states": states, "relations": 1, "initial": "q0",
             "accepting": [],
             "delta": {format(i, "05b"): [{"guards": [], "to": q}]
                       for i, q in enumerate(states)}},
        tm9=tm_json_dict(tm), mu11="(mu ((X1 (in P1))))")


@pytest.mark.parametrize("argv,cls", [
    (["run", "@a", "@g", "--horizon", "0"], "HorizonExceeded"),
    (["decompile-qda", "@chain20"], "LimitExceeded"),
    (["alt-accept", "@alt", "@g0"], "LimitExceeded"),
    (["tm2da", "@tm9"], "LimitExceeded"),
    (["compile-mu", "@mu11", "--bits", "10"], "LimitExceeded"),
    (["search-witness", "@a", "--max-nodes", "7"], "OracleBoundError"),
    (["empty-forgetful", "@f17"], "ClassificationInfeasible"),
    (["fda2dfa", "@f17"], "ClassificationInfeasible"),
    (["gen", "dipath", "--n", str(cli.GEN_SIZE_LIMIT + 1)], "LimitExceeded"),
], ids=["horizon", "trace-limit", "game-successors", "tm-windows",
        "compile-props", "ditree-nodes", "forgetful-steps", "fda-powerset",
        "gen-size"])
def test_every_cap_is_a_limit(capsys, tmp_path, monkeypatch, argv, cls):
    from disto import alternating
    # only the alt-accept row plays a game: its first configuration has
    # one successor, over a cap of 0
    monkeypatch.setattr(alternating, "GAME_SUCCESSOR_CAP", 0)
    code, out = run_cli(capsys, *_write_files(str(tmp_path), _cap_files(),
                                              argv))
    assert code == 1 and out["verdict"] == "limit-exceeded"
    assert out["details"]["message"].startswith(f"{cls}: ")


def test_a_1500_state_chain_is_refused_by_its_live_traces(capsys, tmp_path):
    # the quasi-acyclicity check walks the whole chain before the trace
    # cap refuses it
    chain = [f"q{i}" for i in range(1500)]
    files = {"chain": {"states": chain, "relations": 1, "init": {"": "q0"},
                       "accepting": [],
                       "rules": [{"from": q, "guards": [], "to": t}
                                 for q, t in zip(chain,
                                                 chain[1:] + chain[-1:])]}}
    code = main(_write_files(str(tmp_path), files, ["decompile-qda",
                                                     "@chain"]))
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert captured.err == ""
    assert code == 1 and out["verdict"] == "limit-exceeded"
    assert out["details"]["message"].startswith("LimitExceeded: more than ")


def test_empty_nldag_searches_a_cap_above_the_enumeration_bound(capsys,
                                                               tmp_path):
    # the pigeonhole bound is 3^2 = 9, so --max-nodes 8 is the search cap
    code, out = run_cli(capsys, *_write_files(
        str(tmp_path), _verb_files(),
        ["empty-nldag", "@alt", "--max-nodes", "8"]))
    assert code == 0 and out["verdict"] == "nonempty"
    assert graphs.from_json_dict(out["details"]["witness"]).n == 1


@pytest.mark.parametrize("argv,bound", [
    (["falsify-async", "@a", "@g", "--samples", "-3", "--seed", "1"],
     "samples"),
    (["empty-nldag", "@alt", "--max-nodes", "-2"], "cap"),
    (["search-witness", "@a", "--max-nodes", "-2"], "max_nodes"),
], ids=["falsify-samples", "nldag-cap", "witness-max-nodes"])
def test_a_negative_search_bound_is_an_input_error(capsys, tmp_path, argv,
                                                   bound):
    code, out = run_cli(capsys, *_write_files(str(tmp_path), _verb_files(),
                                              argv))
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == f"ValueError: {bound} must be >= 0"


def test_a_directory_as_the_path_is_an_input_error(capsys, tmp_path,
                                                   edge_graph_file):
    for argv in (["alt-accept", str(tmp_path), edge_graph_file],
                 ["compile-mso", str(tmp_path)]):
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out["verdict"] == "input-error"
        assert out["details"]["message"] == f"{tmp_path}: Is a directory"


def test_gen_refuses_negative_bits(capsys):
    code, out = run_cli(capsys, "gen", "dipath", "--n", "2", "--bits", "-1")
    assert code == 1 and out["verdict"] == "input-error"
    assert out["details"]["message"] == "bits must be an integer >= 0"


@pytest.mark.parametrize("labels,verdict", [(["1", "0"], "accepted"),
                                             (["0", "0"], "rejected")])
def test_compile_mso_reads_label_constants(capsys, tmp_path, labels, verdict):
    f = tmp_path / "f.sexp"
    f.write_text("(exists x (in P1 x))")
    g = tmp_path / "g.json"
    g.write_text(json.dumps(graphs.to_json_dict(
        graphs.make(1, 1, labels, [(1, 0, 1)]))))
    code, out = run_cli(capsys, "compile-mso", str(f), "--bits", "1",
                        "--accept", str(g))
    assert code == 0 and out["verdict"] == verdict


def _disto_modules():
    for info in pkgutil.iter_modules(disto.__path__):
        yield __import__(f"disto.{info.name}", fromlist=["_"])


def test_every_library_error_is_a_value_error_or_a_limit():
    found = set()
    for module in _disto_modules():
        found |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException)
                  and cls.__module__ == module.__name__}
    limits = {cls for cls in found if issubclass(cls, graphs.LimitExceeded)}
    assert len(found) >= 14
    assert {automata.HorizonExceeded, automata.ClassificationInfeasible,
            graphs.OracleBoundError, graphs.LimitExceeded} <= limits
    assert all(issubclass(cls, ValueError) != (cls in limits)
               for cls in found)


def _readme_caps() -> str:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    return text.split("### Caps", 1)[1].split("\n#", 1)[0]


def test_every_cap_constant_is_documented():
    caps = _readme_caps()
    named = re.compile(r"[A-Z_]+_(LIMIT|CAP|BOUND)|MAX_[A-Z_]+")
    constants = [name for module in _disto_modules()
                 for name, value in vars(module).items()
                 if named.fullmatch(name) and type(value) is int]
    assert len(constants) >= 10
    assert [c for c in constants if f"`{c}`" not in caps] == []
    knobs = {"bound", "safety_bound", "safety_cap", "restrict_to_initial"}
    for module in _disto_modules():
        for name, obj in inspect.getmembers(module):
            if name.startswith("_") or getattr(
                    obj, "__module__", None) != module.__name__:
                continue
            members = ([m for n, m in vars(obj).items()
                        if not n.startswith("_")]
                       if inspect.isclass(obj) else [obj])
            for f in members:
                if inspect.isfunction(f):
                    params = set(inspect.signature(f).parameters)
                    assert not params & knobs, (module.__name__, name)
    # one round bound: the lasso must close within ``horizon`` rounds
    from disto import asyncrun
    for run in (automata.sync_run, automata.forgetful_run,
                asyncrun.async_run):
        params = inspect.signature(run).parameters
        assert "cap" not in params
        assert params["horizon"].default == automata.DEFAULT_HORIZON_CAP


def test_every_annotation_resolves():
    # the modules postpone annotations, so a name missing from an import
    # shows only when something reads the hints
    checked = 0
    for module in _disto_modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for f in (obj, *members):
                f = getattr(f, "__func__", getattr(f, "fget", f))
                if inspect.isfunction(f) or inspect.isclass(f):
                    typing.get_type_hints(f)
                    checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# One parser per process

def test_a_reader_that_closes_early_gets_no_traceback():
    # a report of several MB, read 200 bytes at a time: the write fails
    # with a broken pipe once the reader has closed
    proc = subprocess.Popen(
        [sys.executable, "-m", "disto.cli", "gen", "dipath", "--n", "50000",
         "--bits", "1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(disto.__file__))))
    assert len(proc.stdout.read(200)) == 200
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_the_parser_is_built_once_and_not_at_import():
    assert cli.build_parser() is cli.build_parser()
    probe = ("import disto.cli as c; "
             "print(c.build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.path.dirname(
                             os.path.dirname(disto.__file__))))
    assert out.stdout.strip() == "0"


def test_defaults_do_not_leak_between_calls(capsys, fig_automaton_file,
                                            tmp_path):
    lonely = tmp_path / "lone.json"
    lonely.write_text(json.dumps(graphs.to_json_dict(
        graphs.make(1, 1, ["0"], [], point=0))))
    assert run_cli(capsys, "--strict", "accept", fig_automaton_file,
                   str(lonely))[0] == 2
    assert run_cli(capsys, "accept", fig_automaton_file,
                   str(lonely)) == (0, {"schema": "disto/1",
                                        "verdict": "rejected",
                                        "details": {"point": 0}})

    sentence = tmp_path / "s.sexp"
    sentence.write_text("(exists x (in P1 x))")
    code, out = run_cli(capsys, "compile-mso", str(sentence), "--bits", "1")
    assert code == 0 and out["verdict"] == "compiled"
    code, out = run_cli(capsys, "compile-mso", str(sentence))
    assert code == 1 and out["details"]["message"].endswith("free: ['P1']")

    # pigeonhole bound 2: the capped search stops at --max-nodes 1
    nldag = tmp_path / "n.json"
    nldag.write_text(json.dumps({
        "states": [{"name": "p", "kind": "P"}, {"name": "q", "kind": "P"}],
        "relations": 1, "init": {"": "p"},
        "rules": [{"from": q, "guards": [], "to": [q]} for q in "pq"],
        "accepting_sets": [["q"]]}))
    code, out = run_cli(capsys, "empty-nldag", str(nldag), "--max-nodes", "1",
                        "--mode", "pigeonhole")
    assert out["verdict"] == "empty"
    code, out = run_cli(capsys, "empty-nldag", str(nldag), "--max-nodes", "1")
    assert out["verdict"] == "empty-up-to-cap"

    written = tmp_path / "path.json"
    first = run_cli(capsys, "gen", "dipath", "--n", "2", "--out", str(written))
    written.unlink()
    assert run_cli(capsys, "gen", "dipath", "--n", "2") == first
    assert not written.exists()


def test_a_usage_error_leaves_the_next_report_unchanged(
        capsys, fig_automaton_file, edge_graph_file):
    argv = ["falsify-async", fig_automaton_file, edge_graph_file,
            "--samples", "3"]
    before = run_cli(capsys, *argv, "--seed", "1")
    for bad in (["no-such-verb"], argv):
        with pytest.raises(SystemExit) as e:
            main(bad)
        assert e.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *argv, "--seed", "1") == before


def _pool_invocations(tmp_path) -> list[list[str]]:
    """The benchmark pool's first entry of every verb, its files written
    under ``tmp_path``."""
    pool_path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                             "verbs_pool.json")
    with open(pool_path) as fh:
        pool = json.load(fh)
    invocations = []
    for verb, entries in sorted(pool.items()):
        entry = entries[0]
        at = tmp_path / verb
        at.mkdir()
        paths = {}
        for name, content in entry["files"].items():
            paths[name] = at / name
            paths[name].write_text(content if isinstance(content, str)
                                   else json.dumps(content))
        paths.update((name, at / name) for name in entry.get("outputs", ()))
        invocations.append([str(paths[a[1:-1]]) if a.startswith("{") else a
                            for a in entry["argv"]])
    return invocations


def test_cached_and_fresh_parsers_give_identical_reports(
        capsys, tmp_path, monkeypatch):
    invocations = _pool_invocations(tmp_path)
    assert len(invocations) == 16

    def reports():
        out = []
        for argv in invocations:
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    cached = reports()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = reports()
    assert cached == fresh
    assert all(code == 0 for code, _ in cached)
