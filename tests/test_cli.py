import json

import pytest

from disto import automata, graphs, zoo
from disto.cli import main, report_format
from disto.formulas import print_mu
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
