"""Formula ASTs and evaluators.

Three layers share one AST:
  * modal kernels (forward / backward / global diamonds and their boxes),
  * a first-order / MSO layer with node and set quantifiers, evaluated by
    brute force under a hard node bound (the trusted oracle path),
  * the backward mu-fragment: simultaneous least fixpoints over backward
    modal bodies with unnegated variables.

Set constants P1..Pk are interpreted by the digraph's label bits; every
other set or node symbol must come from the environment or a binder.
Relation symbols are the digraph's edge relations, numbered from 1.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .automata import DEFAULT_HORIZON_CAP, _run_rounds
from .graphs import Digraph, OracleBoundError, PointedDigraph, subsets

MSO_NODE_BOUND = 6


class EvalError(Exception):
    pass


class KernelViolation(Exception):
    pass


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Is:
    sym: str


@dataclass(frozen=True)
class In:
    setsym: str
    at: str | None = None  # None = at the evaluation position


@dataclass(frozen=True)
class Eq:
    a: str
    b: str


@dataclass(frozen=True)
class RelAtom:
    rel: int
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class Or:
    args: tuple


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Dia:
    rel: int
    args: tuple


@dataclass(frozen=True)
class BDia:
    rel: int
    args: tuple


@dataclass(frozen=True)
class GDia:
    arg: "Formula"


@dataclass(frozen=True)
class Box:
    rel: int
    args: tuple


@dataclass(frozen=True)
class BBox:
    rel: int
    args: tuple


@dataclass(frozen=True)
class GBox:
    arg: "Formula"


@dataclass(frozen=True)
class ExistsNode:
    sym: str
    body: "Formula"


@dataclass(frozen=True)
class ForallNode:
    sym: str
    body: "Formula"


@dataclass(frozen=True)
class ExistsSet:
    sym: str
    body: "Formula"


@dataclass(frozen=True)
class ForallSet:
    sym: str
    body: "Formula"


Formula = object

_LABEL_CONST = re.compile(r"^P(\d+)$")


def label_constant_index(sym: str) -> int | None:
    """P1..Pk are reserved set constants backed by label bits (1-based)."""
    m = _LABEL_CONST.match(sym)
    return int(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# Free symbols and kernel classes

def free_symbols(f: Formula) -> frozenset[str]:
    """Free node and set symbols, with the evaluation position written 'pos'."""
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Is):
        return frozenset({"pos", f.sym})
    if isinstance(f, In):
        return frozenset({f.setsym, "pos" if f.at is None else f.at})
    if isinstance(f, Eq):
        return frozenset({f.a, f.b})
    if isinstance(f, RelAtom):
        return frozenset(f.args)
    if isinstance(f, Not):
        return free_symbols(f.arg)
    if isinstance(f, (Or, And)):
        out = frozenset()
        for g in f.args:
            out |= free_symbols(g)
        return out
    if isinstance(f, Imp):
        return free_symbols(f.left) | free_symbols(f.right)
    if isinstance(f, (Dia, BDia, Box, BBox)):
        out = frozenset({"pos"})
        for g in f.args:
            out |= free_symbols(g)
        return out
    if isinstance(f, (GDia, GBox)):
        return free_symbols(f.arg) - {"pos"}
    if isinstance(f, (ExistsNode, ForallNode, ExistsSet, ForallSet)):
        return free_symbols(f.body) - {f.sym}
    raise TypeError(f"not a formula: {f!r}")


_MODAL_ATOMS = frozenset({"is", "in-pos"})
_FO_ATOMS = frozenset({"eq", "in-at", "rel"})

KERNEL_FEATURES = {
    "ML": _MODAL_ATOMS | {"dia"},
    "bML": _MODAL_ATOMS | {"bdia"},
    "dML": _MODAL_ATOMS | {"dia", "bdia"},
    "MLg": _MODAL_ATOMS | {"dia", "gdia"},
    "bMLg": _MODAL_ATOMS | {"bdia", "gdia"},
    "dMLg": _MODAL_ATOMS | {"dia", "bdia", "gdia"},
    "FO": _FO_ATOMS | {"exists-node"},
}
for _name in list(KERNEL_FEATURES):
    KERNEL_FEATURES[f"MSO({_name})"] = KERNEL_FEATURES[_name] | {"exists-set"}
KERNEL_FEATURES["MSO"] = KERNEL_FEATURES["MSO(FO)"]


def features(f: Formula) -> frozenset[str]:
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Is):
        return frozenset({"is"})
    if isinstance(f, In):
        return frozenset({"in-pos" if f.at is None else "in-at"})
    if isinstance(f, Eq):
        return frozenset({"eq"})
    if isinstance(f, RelAtom):
        return frozenset({"rel"})
    if isinstance(f, Not):
        return features(f.arg)
    if isinstance(f, (Or, And)):
        out = frozenset()
        for g in f.args:
            out |= features(g)
        return out
    if isinstance(f, Imp):
        return features(f.left) | features(f.right)
    if isinstance(f, (Dia, Box)):
        out = frozenset({"dia"})
        for g in f.args:
            out |= features(g)
        return out
    if isinstance(f, (BDia, BBox)):
        out = frozenset({"bdia"})
        for g in f.args:
            out |= features(g)
        return out
    if isinstance(f, (GDia, GBox)):
        return frozenset({"gdia"}) | features(f.arg)
    if isinstance(f, (ExistsNode, ForallNode)):
        return frozenset({"exists-node"}) | features(f.body)
    if isinstance(f, (ExistsSet, ForallSet)):
        return frozenset({"exists-set"}) | features(f.body)
    raise TypeError(f"not a formula: {f!r}")


def check_kernel(f: Formula, kernel: str) -> None:
    try:
        allowed = KERNEL_FEATURES[kernel]
    except KeyError:
        raise ValueError(f"unknown kernel class {kernel!r}")
    extra = features(f) - allowed
    if extra:
        raise KernelViolation(
            f"features {sorted(extra)} not allowed in kernel {kernel}")


# ---------------------------------------------------------------------------
# Evaluation

class _Ctx:
    __slots__ = ("d", "rels")

    def __init__(self, d: Digraph):
        self.d = d
        self.rels = {}

    def relation(self, i: int) -> frozenset:
        r = self.rels.get(i)
        if r is None:
            if not 1 <= i <= self.d.rels:
                raise EvalError(f"relation index {i} out of range")
            r = self.d.relation(i)
            self.rels[i] = r
        return r


def _node(env: dict, sym: str) -> int:
    try:
        return env[sym]
    except KeyError:
        raise EvalError(f"unbound node symbol {sym!r}")


def _in_set(ctx: _Ctx, env: dict, setsym: str, v: int) -> bool:
    idx = label_constant_index(setsym)
    if idx is not None and idx <= ctx.d.bits:
        return ctx.d.label(v)[idx - 1] == "1"
    try:
        return v in env[setsym]
    except KeyError:
        raise EvalError(f"unbound set symbol {setsym!r}")


def _holds(f: Formula, ctx: _Ctx, env: dict) -> bool:
    d = ctx.d
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Is):
        return _node(env, "pos") == _node(env, f.sym)
    if isinstance(f, In):
        v = _node(env, "pos" if f.at is None else f.at)
        return _in_set(ctx, env, f.setsym, v)
    if isinstance(f, Eq):
        return _node(env, f.a) == _node(env, f.b)
    if isinstance(f, RelAtom):
        return tuple(_node(env, x) for x in f.args) in ctx.relation(f.rel)
    if isinstance(f, Not):
        return not _holds(f.arg, ctx, env)
    if isinstance(f, Or):
        return any(_holds(g, ctx, env) for g in f.args)
    if isinstance(f, And):
        return all(_holds(g, ctx, env) for g in f.args)
    if isinstance(f, Imp):
        return (not _holds(f.left, ctx, env)) or _holds(f.right, ctx, env)
    if isinstance(f, (Dia, BDia)):
        if len(f.args) != 1:
            raise EvalError("diamonds over binary relations take one argument")
        pos = _node(env, "pos")
        succ = (d.out_neighbors(f.rel, pos) if isinstance(f, Dia)
                else d.in_neighbors(f.rel, pos))
        return any(_holds(f.args[0], ctx, {**env, "pos": u}) for u in succ)
    if isinstance(f, (Box, BBox)):
        if len(f.args) != 1:
            raise EvalError("boxes over binary relations take one argument")
        pos = _node(env, "pos")
        succ = (d.out_neighbors(f.rel, pos) if isinstance(f, Box)
                else d.in_neighbors(f.rel, pos))
        return all(_holds(f.args[0], ctx, {**env, "pos": u}) for u in succ)
    if isinstance(f, GDia):
        return any(_holds(f.arg, ctx, {**env, "pos": u}) for u in d.nodes())
    if isinstance(f, GBox):
        return all(_holds(f.arg, ctx, {**env, "pos": u}) for u in d.nodes())
    if isinstance(f, ExistsNode):
        return any(_holds(f.body, ctx, {**env, f.sym: u}) for u in d.nodes())
    if isinstance(f, ForallNode):
        return all(_holds(f.body, ctx, {**env, f.sym: u}) for u in d.nodes())
    if isinstance(f, (ExistsSet, ForallSet)):
        combine = any if isinstance(f, ExistsSet) else all
        return combine(
            _holds(f.body, ctx, {**env, f.sym: sub})
            for sub in subsets(d.nodes()))
    raise TypeError(f"not a formula: {f!r}")


def eval_modal(f: Formula, pd: PointedDigraph, env: dict | None = None) -> bool:
    """Evaluate a quantifier-free (modal) formula at the distinguished node."""
    bad = features(f) & {"exists-node", "exists-set"}
    if bad:
        raise KernelViolation("eval_modal does not handle quantifiers; "
                              "use eval_mso")
    ctx = _Ctx(pd.digraph)
    return _holds(f, ctx, {**(env or {}), "pos": pd.point})


def eval_mso(f: Formula, g: Digraph | PointedDigraph,
             env: dict | None = None, bound: int = MSO_NODE_BOUND) -> bool:
    """Brute-force evaluation with set/node quantifiers (the trusted oracle).

    Refuses structures above the node bound instead of approximating.
    """
    d = g.digraph if isinstance(g, PointedDigraph) else g
    if d.n > bound:
        raise OracleBoundError(
            f"structure has {d.n} nodes, oracle bound is {bound}")
    env = dict(env or {})
    if isinstance(g, PointedDigraph):
        env.setdefault("pos", g.point)
    return _holds(f, _Ctx(d), env)


def sem_nodes(f: Formula, d: Digraph, env: dict | None = None,
              bound: int = MSO_NODE_BOUND) -> frozenset[int]:
    """The node-set variant: nodes at which the formula holds."""
    if d.n > bound:
        raise OracleBoundError(
            f"structure has {d.n} nodes, oracle bound is {bound}")
    ctx = _Ctx(d)
    base = dict(env or {})
    return frozenset(v for v in d.nodes()
                     if _holds(f, ctx, {**base, "pos": v}))


# ---------------------------------------------------------------------------
# Standard translation dMLg -> FO

def standard_translation(f: Formula) -> Formula:
    check_kernel(f, "dMLg")
    counter = itertools.count(1)

    def fresh() -> str:
        return f"x{next(counter)}"

    def st(g: Formula, cur: str) -> Formula:
        if isinstance(g, Top):
            return Top()
        if isinstance(g, Bot):
            return Bot()
        if isinstance(g, Is):
            return Eq(cur, g.sym)
        if isinstance(g, In):
            return In(g.setsym, at=cur)
        if isinstance(g, Not):
            return Not(st(g.arg, cur))
        if isinstance(g, Or):
            return Or(tuple(st(h, cur) for h in g.args))
        if isinstance(g, And):
            return And(tuple(st(h, cur) for h in g.args))
        if isinstance(g, Imp):
            return Imp(st(g.left, cur), st(g.right, cur))
        if isinstance(g, Dia):
            x = fresh()
            return ExistsNode(x, And((RelAtom(g.rel, (cur, x)),
                                      st(g.args[0], x))))
        if isinstance(g, BDia):
            x = fresh()
            return ExistsNode(x, And((RelAtom(g.rel, (x, cur)),
                                      st(g.args[0], x))))
        if isinstance(g, Box):
            x = fresh()
            return ForallNode(x, Imp(RelAtom(g.rel, (cur, x)),
                                     st(g.args[0], x)))
        if isinstance(g, BBox):
            x = fresh()
            return ForallNode(x, Imp(RelAtom(g.rel, (x, cur)),
                                     st(g.args[0], x)))
        if isinstance(g, GDia):
            return ExistsNode("pos", st(g.arg, "pos"))
        if isinstance(g, GBox):
            return ForallNode("pos", st(g.arg, "pos"))
        raise TypeError(f"not a dMLg formula: {g!r}")

    return st(f, "pos")


# ---------------------------------------------------------------------------
# The backward mu-fragment: simultaneous least fixpoints

@dataclass(frozen=True)
class MuSystem:
    """mu(X1..Xm).(body1..bodym) with bodies in backward modal logic over
    set constants P1..Pbits (possibly negated) and unnegated variables.
    Component X1 is the main variable."""

    bits: int
    variables: tuple[str, ...]
    bodies: tuple

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a mu-system needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate fixpoint variables")
        for name in self.variables:
            if label_constant_index(name) is not None:
                raise KernelViolation(f"fixpoint variable {name!r} is named "
                                      f"like a label constant")
        for body in self.bodies:
            _check_mu_body(body, set(self.variables), self.bits)

    def body_of(self, name: str):
        return self.bodies[self.variables.index(name)]


def _check_mu_body(f: Formula, variables: set[str], bits: int) -> None:
    if isinstance(f, (Top, Bot)):
        return
    if isinstance(f, In) and f.at is None:
        idx = label_constant_index(f.setsym)
        if f.setsym in variables:
            return
        if idx is not None and 1 <= idx <= bits:
            return
        raise KernelViolation(f"symbol {f.setsym!r} is neither a variable "
                              f"nor a label constant within {bits} bits")
    if isinstance(f, Not):
        inner = f.arg
        if (isinstance(inner, In) and inner.at is None
                and inner.setsym not in variables
                and label_constant_index(inner.setsym) is not None):
            return
        raise KernelViolation("negation is only allowed on set constants "
                              "in the mu-fragment")
    if isinstance(f, (Or, And)):
        for g in f.args:
            _check_mu_body(g, variables, bits)
        return
    if isinstance(f, (BDia, BBox)):
        if f.rel != 1 or len(f.args) != 1:
            raise KernelViolation("mu bodies use unary backward modalities "
                                  "over the single relation")
        _check_mu_body(f.args[0], variables, bits)
        return
    raise KernelViolation(f"construct {type(f).__name__} not in the "
                          f"mu-fragment grammar")


def _mu_holds(f: Formula, d: Digraph, vals: dict[str, frozenset],
              v: int) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, In):
        if f.setsym in vals:
            return v in vals[f.setsym]
        return d.label(v)[label_constant_index(f.setsym) - 1] == "1"
    if isinstance(f, Not):
        return not _mu_holds(f.arg, d, vals, v)
    if isinstance(f, Or):
        return any(_mu_holds(g, d, vals, v) for g in f.args)
    if isinstance(f, And):
        return all(_mu_holds(g, d, vals, v) for g in f.args)
    if isinstance(f, BDia):
        return any(_mu_holds(f.args[0], d, vals, u)
                   for u in d.in_neighbors(1, v))
    if isinstance(f, BBox):
        return all(_mu_holds(f.args[0], d, vals, u)
                   for u in d.in_neighbors(1, v))
    raise TypeError(f"not a mu body: {f!r}")


def mu_operator(system: MuSystem, d: Digraph,
                vals: dict[str, frozenset]) -> dict[str, frozenset]:
    """One application of the operator induced by the bodies."""
    return {
        name: frozenset(v for v in d.nodes()
                        if _mu_holds(body, d, vals, v))
        for name, body in zip(system.variables, system.bodies)
    }


def _check_mu_digraph(system: MuSystem, d: Digraph) -> None:
    if system.bits != d.bits:
        raise ValueError(f"system has {system.bits} label bits, "
                         f"digraph has {d.bits}")
    if d.rels < 1:
        raise ValueError("mu bodies read relation 1; digraph has none")


def eval_mu_full(system: MuSystem, d: Digraph):
    """Iterate approximants from the empty tuple to the least fixpoint.

    Returns (valuation, steps) where steps is the index of the first
    fixpoint in the approximant sequence (bounded by m * node_count).
    """
    _check_mu_digraph(system, d)
    vals = {name: frozenset() for name in system.variables}
    steps = 0
    while True:
        new = mu_operator(system, d, vals)
        if new == vals:
            return vals, steps
        vals = new
        steps += 1


def eval_mu(system: MuSystem, d: Digraph) -> frozenset[int]:
    vals, _ = eval_mu_full(system, d)
    return vals[system.variables[0]]


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Top, Bot, In, Is, Eq, RelAtom)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.arg)
    if isinstance(f, (Or, And)):
        return max((modal_depth(g) for g in f.args), default=0)
    if isinstance(f, Imp):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, (Dia, BDia, Box, BBox)):
        return 1 + max((modal_depth(g) for g in f.args), default=0)
    if isinstance(f, (GDia, GBox)):
        return 1 + modal_depth(f.arg)
    raise TypeError(f"not a formula: {f!r}")


def flatten_mu(system: MuSystem) -> MuSystem:
    """Eliminate nested modalities by introducing fresh variables; preserves
    eval_mu (the new components are auxiliary least-fixpoint variables)."""
    names = list(system.variables)
    bodies = list(system.bodies)
    counter = itertools.count(1)

    def fresh() -> str:
        while True:
            cand = f"Z{next(counter)}"
            if cand not in names:
                return cand

    def fl(f: Formula) -> Formula:
        if isinstance(f, (Top, Bot, In, Not)):
            return f
        if isinstance(f, (Or, And)):
            return type(f)(tuple(fl(g) for g in f.args))
        if isinstance(f, (BDia, BBox)):
            arg = fl(f.args[0])
            if modal_depth(arg) >= 1:
                name = fresh()
                names.append(name)
                bodies.append(arg)
                arg = In(name)
            return type(f)(f.rel, (arg,))
        raise TypeError(f"not a mu body: {f!r}")

    i = 0
    while i < len(bodies):
        bodies[i] = fl(bodies[i])
        i += 1
    return MuSystem(system.bits, tuple(names), tuple(bodies))


def _pair_holds(f, own: frozenset, neigh) -> bool:
    """Whether a flattened mu body holds at a node whose own propositions
    are ``own`` and whose in-neighbours' proposition sets are ``neigh``:
    atoms read ``own``, backward modalities quantify over ``neigh``, and
    their arguments are read with no neighbours of their own."""
    if isinstance(f, In):
        return f.setsym in own
    if isinstance(f, Not):
        return f.arg.setsym not in own
    if isinstance(f, Or):
        return any(_pair_holds(g, own, neigh) for g in f.args)
    if isinstance(f, And):
        return all(_pair_holds(g, own, neigh) for g in f.args)
    if isinstance(f, BDia):
        return any(_pair_holds(f.args[0], n, ()) for n in neigh)
    if isinstance(f, BBox):
        return all(_pair_holds(f.args[0], n, ()) for n in neigh)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    raise TypeError(f"not a flattened mu body: {f!r}")


class MuEvaluator:
    """Reusable fixpoint evaluator: the flattened system run as a
    distributed automaton on the synchronous round loop.

    A node's state is the set of its label propositions P<i> and of the
    flattened variables that hold there.  A round recomputes every variable
    from the label part of the node's state and the states of its
    in-neighbours over relation 1, so from the label-only configuration the
    run visits the approximants of the least fixpoint and its lasso prefix
    is the iteration count.  The round loop memoises transitions on the
    evaluator, for all digraphs.  Agrees with eval_mu_full; cross-checked
    in tests.
    """

    def __init__(self, system: MuSystem):
        self.system = system
        flat = flatten_mu(system)
        self._vars = frozenset(flat.variables)
        self._bodies = tuple(zip(flat.variables, flat.bodies))

    def step(self, own: frozenset, nvec) -> frozenset:
        neigh = nvec[0]
        return own.difference(self._vars).union(
            name for name, body in self._bodies
            if _pair_holds(body, own, neigh))

    def eval_full(self, d: Digraph):
        """Valuation of the original variables plus the iteration count of
        the flattened system."""
        _check_mu_digraph(self.system, d)
        initial = [frozenset(f"P{i}" for i, b in enumerate(lab, 1) if b == "1")
                   for lab in d.labels]
        run = _run_rounds(self, d, initial, None, "auto", DEFAULT_HORIZON_CAP)
        final = run.configs[-1]
        vals = {name: frozenset(v for v, q in enumerate(final) if name in q)
                for name in self.system.variables}
        return vals, run.prefix

    def eval(self, d: Digraph) -> frozenset[int]:
        vals, _ = self.eval_full(d)
        return vals[self.system.variables[0]]


# ---------------------------------------------------------------------------
# S-expression text format

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _tokenize(text: str):
    pos = 0
    for m in _TOKEN.finditer(text):
        gap = text[pos:m.start()]
        if gap.strip():
            raise ParseError(f"stray characters at offset {pos}")
        pos = m.end()
        yield m.group(), m.start()
    if text[pos:].strip():
        raise ParseError(f"stray characters at offset {pos}")


def _read(tokens: list) -> object:
    if not tokens:
        raise ParseError("unexpected end of input")
    tok, at = tokens.pop(0)
    if tok == "(":
        items = []
        while tokens and tokens[0][0] != ")":
            items.append(_read(tokens))
        if not tokens:
            raise ParseError(f"unclosed '(' at offset {at}")
        tokens.pop(0)
        return items
    if tok == ")":
        raise ParseError(f"unexpected ')' at offset {at}")
    return tok


def _sexpr_to_formula(x) -> Formula:
    if isinstance(x, str):
        # bare set symbol as membership shorthand: X means (in X)
        return In(x)
    if not x:
        raise ParseError("empty form")
    head = x[0]
    rest = x[1:]
    if head == "top":
        return Top()
    if head == "bot":
        return Bot()
    if head == "is":
        return Is(_sym(rest, 1)[0])
    if head == "in":
        if len(rest) == 1:
            return In(rest[0])
        a, b = _sym(rest, 2)
        return In(a, at=b)
    if head == "eq":
        a, b = _sym(rest, 2)
        return Eq(a, b)
    if head == "rel":
        if len(rest) < 3:
            raise ParseError("(rel i x0 x1 ...) needs an index and arguments")
        return RelAtom(_int(rest[0]), tuple(rest[1:]))
    if head == "not":
        return Not(_one(rest))
    if head == "or":
        return Or(tuple(_sexpr_to_formula(r) for r in rest))
    if head == "and":
        return And(tuple(_sexpr_to_formula(r) for r in rest))
    if head == "imp":
        if len(rest) != 2:
            raise ParseError("(imp f g) takes two formulas")
        return Imp(_sexpr_to_formula(rest[0]), _sexpr_to_formula(rest[1]))
    if head in ("dia", "bdia", "box", "bbox"):
        rel, forms = _modal_args(rest)
        cls = {"dia": Dia, "bdia": BDia, "box": Box, "bbox": BBox}[head]
        return cls(rel, forms)
    if head == "gdia":
        return GDia(_one(rest))
    if head == "gbox":
        return GBox(_one(rest))
    if head == "exists":
        return ExistsNode(_binder(rest), _sexpr_to_formula(rest[1]))
    if head == "forall":
        return ForallNode(_binder(rest), _sexpr_to_formula(rest[1]))
    if head == "exists-set":
        return ExistsSet(_binder(rest), _sexpr_to_formula(rest[1]))
    if head == "forall-set":
        return ForallSet(_binder(rest), _sexpr_to_formula(rest[1]))
    if head == "mu":
        raise ParseError("(mu ...) is a system, use parse_mu")
    raise ParseError(f"unknown operator {head!r}")


def _sym(rest, k):
    if len(rest) != k or any(not isinstance(r, str) for r in rest):
        raise ParseError(f"expected {k} symbol(s), got {rest!r}")
    return rest


def _int(tok) -> int:
    if not isinstance(tok, str) or not tok.isdigit():
        raise ParseError(f"expected a relation index, got {tok!r}")
    return int(tok)


def _one(rest) -> Formula:
    if len(rest) != 1:
        raise ParseError(f"expected one formula, got {len(rest)}")
    return _sexpr_to_formula(rest[0])


def _binder(rest) -> str:
    if len(rest) != 2 or not isinstance(rest[0], str):
        raise ParseError("binder form is (<op> <symbol> <formula>)")
    return rest[0]


def _modal_args(rest):
    if rest and isinstance(rest[0], str) and rest[0].isdigit():
        rel, forms = int(rest[0]), rest[1:]
    else:
        rel, forms = 1, rest
    if not forms:
        raise ParseError("modalities take at least one formula")
    return rel, tuple(_sexpr_to_formula(r) for r in forms)


def parse_formula(text: str, kernel: str | None = None) -> Formula:
    tokens = list(_tokenize(text))
    f = _sexpr_to_formula(_read(tokens))
    if tokens:
        raise ParseError(f"trailing input at offset {tokens[0][1]}")
    if kernel is not None:
        check_kernel(f, kernel)
    return f


def parse_mu(text: str, bits: int | None = None) -> MuSystem:
    tokens = list(_tokenize(text))
    x = _read(tokens)
    if tokens:
        raise ParseError(f"trailing input at offset {tokens[0][1]}")
    if not isinstance(x, list) or not x or x[0] != "mu" or len(x) != 2:
        raise ParseError("expected (mu ((X f) ...))")
    pairs = x[1]
    if not isinstance(pairs, list) or not pairs:
        raise ParseError("mu needs a nonempty binding list")
    names, bodies = [], []
    for p in pairs:
        if not isinstance(p, list) or len(p) != 2 or not isinstance(p[0], str):
            raise ParseError("each binding is (X formula)")
        names.append(p[0])
        bodies.append(_sexpr_to_formula(p[1]))
    if bits is None:
        bits = 0
        for b in bodies:
            for sym in _set_constants(b, set(names)):
                bits = max(bits, label_constant_index(sym) or 0)
    return MuSystem(bits, tuple(names), tuple(bodies))


def _set_constants(f: Formula, variables: set[str]):
    if isinstance(f, In) and f.at is None and f.setsym not in variables:
        yield f.setsym
    elif isinstance(f, Not):
        yield from _set_constants(f.arg, variables)
    elif isinstance(f, (Or, And)):
        for g in f.args:
            yield from _set_constants(g, variables)
    elif isinstance(f, (BDia, BBox)):
        for g in f.args:
            yield from _set_constants(g, variables)


def print_formula(f: Formula) -> str:
    if isinstance(f, Top):
        return "(top)"
    if isinstance(f, Bot):
        return "(bot)"
    if isinstance(f, Is):
        return f"(is {f.sym})"
    if isinstance(f, In):
        return f"(in {f.setsym})" if f.at is None else f"(in {f.setsym} {f.at})"
    if isinstance(f, Eq):
        return f"(eq {f.a} {f.b})"
    if isinstance(f, RelAtom):
        return f"(rel {f.rel} {' '.join(f.args)})"
    if isinstance(f, Not):
        return f"(not {print_formula(f.arg)})"
    if isinstance(f, Or):
        return f"(or {' '.join(print_formula(g) for g in f.args)})"
    if isinstance(f, And):
        return f"(and {' '.join(print_formula(g) for g in f.args)})"
    if isinstance(f, Imp):
        return f"(imp {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, (Dia, BDia, Box, BBox)):
        op = {Dia: "dia", BDia: "bdia", Box: "box", BBox: "bbox"}[type(f)]
        inner = " ".join(print_formula(g) for g in f.args)
        return f"({op} {f.rel} {inner})"
    if isinstance(f, GDia):
        return f"(gdia {print_formula(f.arg)})"
    if isinstance(f, GBox):
        return f"(gbox {print_formula(f.arg)})"
    if isinstance(f, ExistsNode):
        return f"(exists {f.sym} {print_formula(f.body)})"
    if isinstance(f, ForallNode):
        return f"(forall {f.sym} {print_formula(f.body)})"
    if isinstance(f, ExistsSet):
        return f"(exists-set {f.sym} {print_formula(f.body)})"
    if isinstance(f, ForallSet):
        return f"(forall-set {f.sym} {print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


def print_mu(system: MuSystem) -> str:
    inner = " ".join(f"({name} {print_formula(body)})"
                     for name, body in zip(system.variables, system.bodies))
    return f"(mu ({inner}))"
