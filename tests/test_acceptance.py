"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`; every test here carries
the ``acceptance`` marker, so `pytest -m "not acceptance"` runs the module
suites alone.  Exhaustive sweeps are
isomorphism-reduced only where noted (all checked semantics are
isomorphism-invariant; the reduction itself is validated in test_graphs).
"""

import itertools
import random

import pytest

from disto import alternating as alt
from disto import asyncrun, automata, decision, graphs, reductions
from disto import formulas as fm
from disto import mucompile, tiling, zoo
from disto.automata import (decide_acceptance_forgetful,
                            decide_acceptance_sync, monovisioned_transform)
from disto.formulas import MuEvaluator, eval_mu_full
from disto.graphs import dipath, enumerate_digraphs, grid, make

import gens

pytestmark = pytest.mark.acceptance


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def compiled_corpus(mu_corpus):
    return [(s, mucompile.compile_mu_to_aqda(s)) for s in mu_corpus]


def test_criterion_01_mu_compiler_soundness():
    """Compiled Fig-formula automaton == reachability oracle, all 1-bit
    digraphs with <= 4 nodes, exhaustively (no isomorphism reduction)."""
    a = mucompile.compile_mu_to_aqda(zoo.reachability_mu_system())
    mismatches = 0
    total = 0
    for d in enumerate_digraphs(4, bits=1, rels=1):
        total += 1
        if automata.accepted_nodes(a, d) != zoo.reachability_oracle(d):
            mismatches += 1
    report("criterion 1: mu-compiler soundness vs reachability oracle",
           mismatches == 0, f"{total} digraphs, {mismatches} mismatches")


def test_criterion_02_compiled_automata_asynchrony(compiled_corpus):
    rng = random.Random(777)
    digraphs = [gens.random_digraph(rng, 6, bits=1) for _ in range(50)]
    counterexamples = 0
    for k, (_, a) in enumerate(compiled_corpus):
        for j, d in enumerate(digraphs):
            found = asyncrun.falsify_consistency(
                a, d, samples=100, prefix_len=20, lossless=True,
                seed=1000 * k + j)
            if found is not None:
                counterexamples += 1
    report("criterion 2: compiled automata pass the consistency falsifier",
           counterexamples == 0,
           "20 systems x 50 digraphs x 100 lossless timings")


def test_criterion_03_round_trip_compile_decompile(compiled_corpus,
                                                   small_digraphs_1bit):
    mismatches = 0
    for system, a in compiled_corpus:
        back = mucompile.decompile_qda_to_mu(a)
        ev_orig = MuEvaluator(system)
        ev_back = MuEvaluator(back)
        for d in small_digraphs_1bit:
            if ev_orig.eval(d) != ev_back.eval(d):
                mismatches += 1
    report("criterion 3: compile -> decompile round trip",
           mismatches == 0,
           f"20 systems x {len(small_digraphs_1bit)} digraphs, "
           f"{mismatches} mismatches")


def test_criterion_04_knaster_tarski(mu_corpus, small_digraphs_1bit):
    bad = 0
    for system in mu_corpus:
        m = len(system.variables)
        for d in small_digraphs_1bit:
            lfp, steps = eval_mu_full(system, d)
            if steps > m * d.n:
                bad += 1
                continue
            nodes = tuple(d.nodes())
            subsets = [frozenset(c) for k in range(d.n + 1)
                       for c in itertools.combinations(nodes, k)]
            meet = {x: frozenset(nodes) for x in system.variables}
            for combo in itertools.product(subsets, repeat=m):
                vals = dict(zip(system.variables, combo))
                out = fm.mu_operator(system, d, vals)
                if all(out[x] <= vals[x] for x in system.variables):
                    meet = {x: meet[x] & vals[x] for x in system.variables}
            if meet != lfp:
                bad += 1
    report("criterion 4: least fixpoint == meet of prefixpoints, "
           "approximants within m*n",
           bad == 0, f"20 systems x {len(small_digraphs_1bit)} digraphs")


def test_criterion_05_three_colorability_aldag():
    a3 = zoo.three_col_aldag()
    comp = alt.complement(a3)
    fig = zoo.non_three_col_aldag()
    mism_direct = mism_comp = mism_fig = 0
    total = 0
    for d in enumerate_digraphs(4, bits=0, rels=1):
        total += 1
        want = zoo.is_three_colorable(d)
        if alt.decide_acceptance_alt(a3, d) != want:
            mism_direct += 1
        got_comp = alt.decide_acceptance_alt(comp, d)
        if got_comp != (not want):
            mism_comp += 1
        if got_comp != alt.decide_acceptance_alt(fig, d):
            mism_fig += 1
    ok = mism_direct == mism_comp == mism_fig == 0
    report("criterion 5: 3-colorability automaton, its complement, and the "
           "drawn complement automaton", ok,
           f"{total} digraphs; mismatches {mism_direct}/{mism_comp}/"
           f"{mism_fig}")


def test_criterion_06_mso_compiler():
    sweep_full = list(enumerate_digraphs(3, bits=0, rels=1))
    sweep_iso = list(enumerate_digraphs(3, bits=0, rels=1, iso_reduce=True))
    bad = 0
    checked = []

    # phi-3-color on the isomorphism-reduced sweep (semantics invariant)
    a = alt.compile_mso_to_aldag(zoo.phi_three_color(), bits=0, rels=1)
    for d in sweep_iso:
        if alt.decide_acceptance_alt(a, d) != fm.eval_mso(
                zoo.phi_three_color(), d):
            bad += 1
    checked.append(f"3color/{len(sweep_iso)}")

    f_edgeless = zoo.edgeless_sentence()
    a = alt.compile_mso_to_aldag(f_edgeless, bits=0, rels=1)
    for d in sweep_full:
        if alt.decide_acceptance_alt(a, d) != fm.eval_mso(f_edgeless, d):
            bad += 1
    checked.append(f"edgeless/{len(sweep_full)}")

    rng = random.Random(606)
    for i in range(3):
        f = gens.random_mso_sentence(rng, bits=0, qdepth=2)
        a = alt.compile_mso_to_aldag(f, bits=0, rels=1)
        for d in sweep_full:
            if alt.decide_acceptance_alt(a, d) != fm.eval_mso(f, d):
                bad += 1
        checked.append(f"random{i}/{len(sweep_full)}")
    report("criterion 6: MSO->automaton compiler vs brute-force evaluation",
           bad == 0, ", ".join(checked) + f"; {bad} mismatches")


def test_criterion_07_forgetful_emptiness():
    rng = random.Random(707)
    contradictions = 0
    nonempty = empty = 0
    for _ in range(100):
        a = gens.random_fda(rng, max_states=4)
        verdict = decision.forgetful_emptiness(a)
        if not verdict.empty:
            nonempty += 1
            try:
                w = decision.forgetful_witness(a, verdict.time,
                                               verdict.state)
            except decision.WitnessError:
                contradictions += 1
                continue
            if not decide_acceptance_forgetful(a, w):
                contradictions += 1
        else:
            empty += 1
            if decision.bounded_ditree_search(a, 4) is not None:
                contradictions += 1
    report("criterion 7: forgetful emptiness vs witness synthesis and "
           "bounded search", contradictions == 0,
           f"{nonempty} nonempty / {empty} empty, "
           f"{contradictions} contradictions")


def test_criterion_08_word_bridge():
    rng = random.Random(808)
    words = [w for n in range(1, 9)
             for w in itertools.product("01", repeat=n)]
    bad = 0
    for _ in range(20):
        b = gens.random_dfa(rng, max_states=4)
        fda = reductions.dfa_to_fda(b)
        for w in words:
            if decide_acceptance_forgetful(
                    fda, reductions.word_to_dipath(w)) != b.accepts(w):
                bad += 1
    for _ in range(20):
        a = gens.random_fda(rng, max_states=3)
        dfa = reductions.fda_to_dfa(a)
        for w in words:
            if dfa.accepts(w) != decide_acceptance_forgetful(
                    a, reductions.word_to_dipath(w)):
                bad += 1
    report("criterion 8: word bridge preserves languages both ways",
           bad == 0, f"20 DFAs + 20 FDAs x {len(words)} words")


def test_criterion_09_tree_bridge():
    fda = zoo.balanced_tree_fda()
    bad = 0
    total = 0
    for tree in graphs.enumerate_ordered_ditrees_by_height(4, bits=0,
                                                           arity=2):
        total += 1
        want = not zoo.is_perfectly_balanced(tree)
        if decide_acceptance_forgetful(fda, tree) != want:
            bad += 1
    detail = f"balance automaton on {total} ditrees of height <= 4"

    rng = random.Random(909)
    trees5 = list(graphs.enumerate_ordered_ditrees(5, bits=1, arity=2))
    for _ in range(10):
        ta = gens.random_tree_automaton(rng, max_states=3)
        afda = reductions.treeautomaton_to_fda(ta)
        for tree in trees5:
            if ta.accepts(tree) != decide_acceptance_forgetful(afda, tree):
                bad += 1
    report("criterion 9: tree bridge (balance automaton + 10 random "
           "tree automata)", bad == 0,
           detail + f"; 10 TAs x {len(trees5)} ditrees <= 5 nodes")


def test_criterion_10_space_time():
    bad = 0
    times = []
    for m in zoo.sample_turing_machines():
        k = m.halting_time(30)
        times.append(k)
        a = reductions.tm_to_da(m)
        mono = monovisioned_transform(a)
        for n in range(1, k + 4):
            pd = dipath(n)
            got = decide_acceptance_sync(a, pd)
            if got != (n == k):
                bad += 1
            if decide_acceptance_sync(mono, pd) != got:
                bad += 1
    report("criterion 10: space-time simulation accepts exactly the "
           "halting-length dipath; monovisioned transform preserves",
           bad == 0, f"halting times {times}")


def test_criterion_11_grid_characterization():
    grids = {}
    for h in range(1, 5):
        for w in range(1, 5):
            if h * w <= 4:
                grids.setdefault(h * w, []).append(grid(h, w))
    bad = 0

    def is_grid_oracle(d):
        for g in grids.get(d.n, []):
            if (len(d.relation(1)), len(d.relation(2))) != (
                    len(g.relation(1)), len(g.relation(2))):
                continue
            if graphs.are_isomorphic(d, g):
                return True
        return False

    total3 = 0
    for d in enumerate_digraphs(3, bits=0, rels=2):
        total3 += 1
        if (tiling.grid_validate(d) is None) != is_grid_oracle(d):
            bad += 1

    # n = 4 decomposition: (a) grids satisfy injectivity; (b) the
    # injectivity checker is exhaustively correct per relation; (c) all
    # doubly-injective digraphs are swept in full
    for gs in grids.values():
        for g in gs:
            for i in (1, 2):
                if not tiling.is_partial_injective(g.relation(i)):
                    bad += 1
    pairs4 = [(s, t) for s in range(4) for t in range(4)]
    injective4 = []
    for mask in range(1 << 16):
        rel = [p for i, p in enumerate(pairs4) if mask >> i & 1]
        srcs = [s for (s, _) in rel]
        dsts = [t for (_, t) in rel]
        want = (len(set(srcs)) == len(srcs)
                and len(set(dsts)) == len(dsts))
        if tiling.is_partial_injective(frozenset(rel)) != want:
            bad += 1
        if want:
            injective4.append(rel)
    total4 = 0
    for r1 in injective4:
        e1 = [(1, s, t) for (s, t) in r1]
        for r2 in injective4:
            total4 += 1
            d = make(0, 2, [""] * 4,
                     e1 + [(2, s, t) for (s, t) in r2])
            if (tiling.grid_validate(d) is None) != is_grid_oracle(d):
                bad += 1
    report("criterion 11: grid characterization exact",
           bad == 0,
           f"{total3} digraphs <= 3 nodes; {len(injective4)}^2 = {total4} "
           f"doubly-injective 4-node digraphs; injectivity checker "
           f"exhaustive on 65536 relations")


def test_criterion_12_tiling_agreement():
    systems = [
        zoo.even_width_tiling_system(),
        zoo.all_blocks_tiling_system(),
        zoo.all_blocks_tiling_system(states=("A", "B")),
        zoo.empty_tiling_system(),
    ]
    rng = random.Random(912)
    base = zoo.all_blocks_tiling_system(states=("A", "B"))
    systems.append(tiling.TilingSystem(
        0, ("A", "B"),
        frozenset(t for t in base.tiles if rng.random() < 0.4)))
    bad = 0
    even_ok = True
    for ts in systems:
        for h in range(1, 4):
            for w in range(1, 4):
                g = grid(h, w)
                got = tiling.ts_recognize(ts, g) is not None
                if got != tiling.ts_recognize_bruteforce(ts, g):
                    bad += 1
                if ts is systems[0] and got != (w % 2 == 0):
                    even_ok = False
    report("criterion 12: tiling recognition vs exhaustive assignment "
           "enumeration", bad == 0 and even_ok,
           "5 systems x grids up to 3x3")


def test_criterion_13_nldag_emptiness():
    rng = random.Random(913)
    stream = None
    bad = 0
    found_empty = found_nonempty = 0
    autos = [gens.random_nldag(rng, max_states=4, max_length=2)
             for _ in range(10)]
    for a in autos:
        result = alt.nldag_emptiness(a, mode="capped", cap=5)
        if not result.empty:
            found_nonempty += 1
            if not alt.decide_acceptance_alt(a, result.witness):
                bad += 1
            continue
        found_empty += 1
        if result.pigeonhole_bound <= 5 and not result.exact:
            bad += 1
        # direct exhaustive acceptance search up to 5 nodes
        if stream is None:
            stream = list(enumerate_digraphs(5, bits=0, rels=1,
                                             iso_reduce=True))
        if any(alt.decide_acceptance_alt(a, d) for d in stream):
            bad += 1
    report("criterion 13: NLDAg emptiness (capped 5) vs direct search",
           bad == 0,
           f"{found_nonempty} nonempty (witnesses re-verified), "
           f"{found_empty} empty (swept exhaustively up to isomorphism)")
