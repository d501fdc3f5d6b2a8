import itertools
import random

import pytest

from disto import formulas as fm
from disto import graphs, zoo
from disto.formulas import (BDia, Box, Dia, EvalError, ExistsNode,
                            ExistsSet, ForallNode, ForallSet, GBox, GDia, In,
                            Is, KernelViolation, MuEvaluator, MuSystem, Not,
                            ParseError, RelAtom, Top, check_kernel,
                            eval_modal, eval_mso, eval_mu, eval_mu_full,
                            flatten_mu, modal_depth, parse_formula, parse_mu,
                            print_formula, print_mu, sem_nodes,
                            standard_translation)
from disto.graphs import OracleBoundError, make

import gens


def pointed(labels, edges, point=0, bits=None):
    if bits is None:
        bits = len(labels[0])
    return make(bits, 1, labels, edges, point=point)


def test_top_true_everywhere():
    assert eval_modal(Top(), pointed([""], [], bits=0))
    assert eval_modal(Is("pos"), pointed([""], [], bits=0))


def test_diamond_at_sink_false():
    pd = pointed(["", ""], [(1, 0, 1)], point=1, bits=0)
    assert not eval_modal(Dia(1, (Top(),)), pd)
    assert eval_modal(Dia(1, (Top(),)), pointed(["", ""], [(1, 0, 1)],
                                                point=0, bits=0))


def test_backward_diamond_direction():
    pd = pointed(["1", "0"], [(1, 0, 1)], point=1)
    assert eval_modal(BDia(1, (In("P1"),)), pd)
    assert not eval_modal(Dia(1, (In("P1"),)), pd)


def test_global_diamond():
    pd = pointed(["0", "1"], [], point=0)
    assert eval_modal(GDia(In("P1")), pd)
    assert not eval_modal(GBox(In("P1")), pd)


def test_boxes_are_duals():
    rng = random.Random(3)
    for _ in range(30):
        d = gens.random_digraph(rng, 3, bits=1)
        f = gens.random_dmlg_formula(rng, depth=3)
        for v in d.nodes():
            pd = d.at(v)
            env = {"a": 0}
            lhs = eval_modal(Box(1, (f,)), pd, env)
            rhs = not eval_modal(Dia(1, (Not(f),)), pd, env)
            assert lhs == rhs


def test_seeone_unique_successor():
    one = pointed(["0", "1"], [(1, 0, 1)], point=0)
    two = pointed(["0", "1", "1"], [(1, 0, 1), (1, 0, 2)], point=0)
    f = zoo.seeone(In("P1"))
    assert eval_mso(f, one)
    assert not eval_mso(f, two)


@pytest.mark.parametrize("f", [Dia(0, (Top(),)), Box(3, (Top(),)),
                               BDia(3, (Top(),))])
def test_modal_relation_index_out_of_range_raises(f):
    pd = make(0, 2, ["", ""], [(1, 0, 1), (2, 1, 0)], point=0)
    with pytest.raises(EvalError, match=f"relation index {f.rel} out of "
                                        f"range"):
        eval_mso(f, pd)


def test_label_constant_p0_is_not_a_label_bit():
    pd = make(2, 1, ["01", "01"], [(1, 0, 1)], point=0)
    assert eval_mso(In("P2"), pd) and not eval_mso(In("P1"), pd)
    with pytest.raises(EvalError, match="unbound set symbol 'P0'"):
        eval_mso(In("P0"), pd)
    assert eval_mso(In("P0"), pd, env={"P0": frozenset({0})})


def test_unbound_symbol_raises():
    with pytest.raises(EvalError):
        eval_modal(In("Q"), pointed([""], [], bits=0))
    with pytest.raises(EvalError):
        eval_modal(Is("b"), pointed([""], [], bits=0))


def test_mso_three_coloring_examples():
    f = zoo.phi_three_color()
    triangle = make(0, 1, [""] * 3,
                    [(1, 0, 1), (1, 1, 2), (1, 2, 0)])
    assert eval_mso(f, triangle)
    k4 = make(0, 1, [""] * 4,
              [(1, i, j) for i in range(4) for j in range(4) if i != j])
    assert not eval_mso(f, k4)


def test_mso_three_coloring_matches_bruteforce_oracle():
    f = zoo.phi_three_color()
    for d in graphs.enumerate_digraphs(3, bits=0, rels=1,
                                       iso_reduce=True):
        assert eval_mso(f, d) == zoo.is_three_colorable(d)


def test_mso_full_set_witness():
    f = ExistsSet("X", ForallNode("x", In("X", "x")))
    rng = random.Random(1)
    for _ in range(10):
        assert eval_mso(f, gens.random_digraph(rng, 4))


def test_mso_bound_enforced():
    big = make(0, 1, [""] * 7, [])
    with pytest.raises(OracleBoundError):
        eval_mso(Top(), big)


def test_sem_nodes_negation_duality():
    rng = random.Random(8)
    for _ in range(25):
        d = gens.random_digraph(rng, 3, bits=1)
        f = gens.random_dmlg_formula(rng, depth=3)
        env = {"a": 0}
        pos = sem_nodes(f, d, env)
        neg = sem_nodes(Not(f), d, env)
        assert pos | neg == frozenset(d.nodes()) and not pos & neg


# ---------------------------------------------------------------------------
# mu systems

def test_mu_constant_body():
    sys_ = MuSystem(0, ("X",), (Top(),))
    d = make(0, 1, ["", ""], [(1, 0, 1)])
    vals, steps = eval_mu_full(sys_, d)
    assert vals["X"] == {0, 1} and steps == 1


def test_mu_identity_is_bottom():
    sys_ = MuSystem(0, ("X",), (In("X"),))
    d = make(0, 1, ["", ""], [(1, 0, 1)])
    assert eval_mu(sys_, d) == frozenset()


def test_mu_reachability_example():
    sys_ = zoo.reachability_mu_system()
    d = make(1, 1, ["1", "0"], [(1, 0, 1)])
    assert eval_mu(sys_, d) == {0, 1}


def test_mu_variables_cannot_be_negated():
    with pytest.raises(KernelViolation):
        MuSystem(0, ("X",), (Not(In("X")),))


def test_mu_forward_modality_rejected():
    with pytest.raises(KernelViolation):
        MuSystem(0, ("X",), (Dia(1, (In("X"),)),))


@pytest.mark.parametrize("bad", [In("P2"), Not(In("X")), Dia(1, (Top(),))])
def test_a_shared_subtree_with_a_bad_atom_is_refused(bad):
    # one subtree object in every body, and twice within one body: a
    # node is walked once per validation, but its verdict is not skipped
    shared = BDia(1, (fm.Or((In("X"), bad)),))
    for bodies in ((shared, shared), (fm.Or((shared, shared)), Top()),
                   (Top(), fm.And((shared, In("Y"))))):
        with pytest.raises(KernelViolation):
            MuSystem(1, ("X", "Y"), bodies)
    # a subtree accepted under 2 bits is checked afresh under 1
    two_bits = BDia(1, (In("P2"),))
    MuSystem(2, ("X",), (two_bits,))
    with pytest.raises(KernelViolation):
        MuSystem(1, ("X",), (two_bits,))


def test_operator_monotone(mu_corpus):
    rng = random.Random(17)
    for sys_ in mu_corpus[:8]:
        d = gens.random_digraph(rng, 4, bits=1)
        nodes = list(d.nodes())
        for _ in range(10):
            small = {x: frozenset(v for v in nodes if rng.random() < 0.4)
                     for x in sys_.variables}
            big = {x: small[x] | frozenset(
                v for v in nodes if rng.random() < 0.3)
                for x in sys_.variables}
            fs = fm.mu_operator(sys_, d, small)
            fb = fm.mu_operator(sys_, d, big)
            assert all(fs[x] <= fb[x] for x in sys_.variables)


def test_approximants_increase(mu_corpus):
    rng = random.Random(18)
    for sys_ in mu_corpus[:8]:
        d = gens.random_digraph(rng, 3, bits=1)
        vals = {x: frozenset() for x in sys_.variables}
        while True:
            nxt = fm.mu_operator(sys_, d, vals)
            assert all(vals[x] <= nxt[x] for x in sys_.variables)
            if nxt == vals:
                break
            vals = nxt


def test_knaster_tarski_small():
    sys_ = zoo.reachability_mu_system()
    for d in graphs.enumerate_digraphs(2, bits=1, rels=1):
        nodes = tuple(d.nodes())
        best = None
        m = len(sys_.variables)
        subsets = [frozenset(c) for k in range(len(nodes) + 1)
                   for c in itertools.combinations(nodes, k)]
        for combo in itertools.product(subsets, repeat=m):
            vals = dict(zip(sys_.variables, combo))
            out = fm.mu_operator(sys_, d, vals)
            if all(out[x] <= vals[x] for x in sys_.variables):
                if best is None:
                    best = dict(vals)
                else:
                    best = {x: best[x] & vals[x] for x in sys_.variables}
        lfp, _ = eval_mu_full(sys_, d)
        assert lfp == best


def test_flattening_preserves_semantics(mu_corpus):
    for sys_ in mu_corpus:
        flat = flatten_mu(sys_)
        assert all(modal_depth(b) <= 1 for b in flat.bodies)
        for d in graphs.enumerate_digraphs(2, bits=1, rels=1):
            assert eval_mu(sys_, d) == eval_mu(flat, d)


def _digraph(rng, n, rels):
    labels = tuple(rng.choice("01") for _ in range(n))
    edges = frozenset((r, s, t) for r in range(1, rels + 1)
                      for s in range(n) for t in range(n)
                      if rng.random() < 0.35)
    return graphs.Digraph(1, rels, labels, edges)


def test_fast_evaluator_matches_reference(mu_corpus):
    """One evaluator per system, reused over every digraph: its valuation is
    the oracle's on the flattened system restricted to the original
    variables, with the same step count.  The evaluator reads relation 1
    only, so a 2-relation digraph is compared with its relation-1 part."""
    rng = random.Random(62)
    systems = mu_corpus + [gens.random_mu_system(rng, max_vars=3, depth=3,
                                                 flat=False)
                           for _ in range(6)]
    digraphs = [_digraph(rng, n, rels) for n in range(7) for rels in (1, 2)
                for _ in range(2)]
    for sys_ in systems:
        ev = MuEvaluator(sys_)
        flat = flatten_mu(sys_)
        for d in digraphs:
            ref = graphs.Digraph(1, 1, d.labels,
                                 frozenset(e for e in d.edges if e[0] == 1))
            want, want_steps = eval_mu_full(flat, ref)
            vals, steps = ev.eval_full(d)
            assert vals == {x: want[x] for x in sys_.variables}
            assert vals == eval_mu_full(sys_, ref)[0]
            assert steps == want_steps <= len(flat.variables) * d.n


def test_mu_evaluation_refuses_a_digraph_without_relations():
    sys_ = zoo.reachability_mu_system()
    d = graphs.Digraph(1, 0, ("1",), frozenset())
    with pytest.raises(ValueError, match="read relation 1") as fast:
        MuEvaluator(sys_).eval_full(d)
    with pytest.raises(ValueError, match="read relation 1") as oracle:
        eval_mu_full(sys_, d)
    assert str(fast.value) == str(oracle.value)


def test_mu_evaluator_keeps_one_table_per_relation_count():
    ev = MuEvaluator(zoo.reachability_mu_system())
    rng = random.Random(5)
    ev.eval(_digraph(rng, 4, 1))
    one = ev._round_ids[1]
    ev.eval(_digraph(rng, 4, 2))
    assert ev._round_ids[1] is one and set(ev._round_ids) == {1, 2}


# ---------------------------------------------------------------------------
# standard translation

def test_translation_table_atoms():
    assert standard_translation(In("P1")) == In("P1", at="pos")
    out = standard_translation(GDia(In("P1")))
    assert out == ExistsNode("pos", In("P1", at="pos"))


def test_translation_is_first_order():
    rng = random.Random(30)
    for _ in range(50):
        f = gens.random_dmlg_formula(rng, depth=4)
        out = standard_translation(f)
        check_kernel(out, "FO")


def test_translation_agreement():
    rng = random.Random(31)
    for _ in range(50):
        f = gens.random_dmlg_formula(rng, depth=4)
        out = standard_translation(f)
        for _ in range(4):
            d = gens.random_digraph(rng, 3, bits=1)
            env = {"a": rng.randrange(d.n)}
            for v in d.nodes():
                assert (eval_modal(f, d.at(v), env)
                        == eval_mso(out, d.at(v), env))


def test_translation_rejects_quantified_input():
    with pytest.raises(KernelViolation):
        standard_translation(ExistsSet("X", In("X")))


# ---------------------------------------------------------------------------
# parsing and printing

def test_parse_examples():
    assert parse_formula("(dia (in P))") == Dia(1, (In("P"),))
    sys_ = parse_mu("(mu ((X (or (in P1) (bdia X)))))")
    assert sys_.variables == ("X",) and sys_.bits == 1


def test_parse_kernel_violation():
    with pytest.raises(KernelViolation):
        parse_formula("(bdia X)", kernel="ML")
    parse_formula("(bdia (in X))", kernel="bML")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_formula("(dia (in P)")
    with pytest.raises(ParseError):
        parse_formula("(dia (in P))) extra")
    with pytest.raises(ParseError):
        parse_formula("(frobnicate x)")


def test_print_parse_roundtrip():
    rng = random.Random(77)
    for _ in range(40):
        f = gens.random_dmlg_formula(rng, depth=3)
        assert parse_formula(print_formula(f)) == f
    for _ in range(10):
        sys_ = gens.random_mu_system(rng)
        assert parse_mu(print_mu(sys_), bits=sys_.bits) == sys_
    for i in range(40):
        f = gens.random_mso_sentence(rng, bits=i % 3, qdepth=1 + i % 3)
        assert parse_formula(print_formula(f)) == f
    for f in (zoo.phi_three_color(), zoo.edgeless_sentence(),
              zoo.seeone(In("P1")), zoo.seeone(Top(), rel=2)):
        assert parse_formula(print_formula(f)) == f


@pytest.mark.parametrize("text,message", [
    ("(top x)", "(top ...) has extra arguments ['x']"),
    ("(bot 1)", "(bot ...) has extra arguments ['1']"),
    ("(in (x))", "(in ...) expects a symbol, got ['x']"),
    ("(rel 1 (x) y)",
     "(rel ...) expects two or more symbols, got [['x'], 'y']"),
    ("(rel 0 x y)", "relation indices are 1, 2, ..., got '0'"),
    ("(dia 0 (top))", "relation indices are 1, 2, ..., got '0'"),
])
def test_malformed_forms_are_refused(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_every_ast_class_has_one_syntax_entry():
    classes = {c for c in vars(fm).values() if isinstance(c, type)
               and c.__module__ == fm.__name__
               and hasattr(c, "__dataclass_fields__")} - {fm.MuSystem}
    assert set(fm._SYNTAX) == classes
    assert len({op for op, _, _ in fm._SYNTAX.values()}) == len(classes)
    for cls, (_, kinds, _) in fm._SYNTAX.items():
        assert len(kinds) == len(cls.__dataclass_fields__)


def test_nesting_is_bounded():
    def nested(depth):
        return "(not " * (depth - 1) + "(top)" + ")" * (depth - 1)

    f = parse_formula(nested(fm.MAX_NESTING))
    assert print_formula(f) == nested(fm.MAX_NESTING)
    assert modal_depth(f) == 0 and fm.features(f) == frozenset()
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_formula(nested(fm.MAX_NESTING + 1))


def test_long_formula_parses_in_one_pass():
    text = "(or" + " (in P1)" * 80_000 + ")"  # 240,002 tokens
    f = parse_formula(text)
    assert len(f.args) == 80_000 and print_formula(f) == text


def test_parse_print_canonical_form():
    text = "( dia   1 (in  P1) )"
    f = parse_formula(text)
    canon = print_formula(f)
    assert canon == "(dia 1 (in P1))"
    assert print_formula(parse_formula(canon)) == canon


def test_parse_fo_and_quantifiers():
    f = parse_formula("(exists x (exists y (rel 1 x y)))", kernel="FO")
    assert f == ExistsNode("x", ExistsNode("y", RelAtom(1, ("x", "y"))))
    f2 = parse_formula("(forall-set X (imp (in X) (top)))")
    assert isinstance(f2, ForallSet)


def test_variable_named_like_a_label_constant_is_refused():
    with pytest.raises(KernelViolation, match="'P1'"):
        parse_mu("(mu ((P1 (bdia 1 (in P1)))))")
    with pytest.raises(KernelViolation, match="'P3'"):
        MuSystem(1, ("X1", "P3"), (In("P3"), Top()))
    assert parse_mu("(mu ((Q1 (bdia 1 (in Q1)))))").variables == ("Q1",)
