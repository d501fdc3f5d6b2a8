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
from dataclasses import dataclass, fields

from .automata import DEFAULT_HORIZON_CAP, _run_rounds
from .graphs import Digraph, OracleBoundError, PointedDigraph, subsets

MSO_NODE_BOUND = 6
# Deepest parenthesis nesting the reader accepts: well below the interpreter's
# recursion limit, so that the recursive walks over a parsed formula fit.
MAX_NESTING = 100


class EvalError(ValueError):
    pass


class KernelViolation(ValueError):
    pass


class ParseError(ValueError):
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

# Field kinds of the S-expression syntax.  A form is (<op> <field> ...), its
# fields in dataclass field order; each kind is read and printed one way.
_SYM = "a symbol"
_OPT_SYM = "an optional symbol"  # absent: the evaluation position
_REL = "a relation index"
_OPT_REL = "an optional relation index"  # absent: relation 1
_SYMS = "two or more symbols"
_FORM = "a formula"
_FORMS = "formulas"
_FORMS1 = "one or more formulas"

# class -> (operator, field kinds, kernel feature).  The one table of the
# syntax: the reader, the printer and the structural walks all read it.
_SYNTAX = {
    Top: ("top", (), None),
    Bot: ("bot", (), None),
    Is: ("is", (_SYM,), "is"),
    In: ("in", (_SYM, _OPT_SYM), "in-pos"),  # "in-at" with a node symbol
    Eq: ("eq", (_SYM, _SYM), "eq"),
    RelAtom: ("rel", (_REL, _SYMS), "rel"),
    Not: ("not", (_FORM,), None),
    Or: ("or", (_FORMS,), None),
    And: ("and", (_FORMS,), None),
    Imp: ("imp", (_FORM, _FORM), None),
    Dia: ("dia", (_OPT_REL, _FORMS1), "dia"),
    BDia: ("bdia", (_OPT_REL, _FORMS1), "bdia"),
    GDia: ("gdia", (_FORM,), "gdia"),
    Box: ("box", (_OPT_REL, _FORMS1), "dia"),
    BBox: ("bbox", (_OPT_REL, _FORMS1), "bdia"),
    GBox: ("gbox", (_FORM,), "gdia"),
    ExistsNode: ("exists", (_SYM, _FORM), "exists-node"),
    ForallNode: ("forall", (_SYM, _FORM), "exists-node"),
    ExistsSet: ("exists-set", (_SYM, _FORM), "exists-set"),
    ForallSet: ("forall-set", (_SYM, _FORM), "exists-set"),
}
_BY_OP = {op: cls for cls, (op, _, _) in _SYNTAX.items()}
# class -> ((field name, kind), ...)
_FIELDS = {cls: tuple(zip((fl.name for fl in fields(cls)), kinds))
           for cls, (_, kinds, _) in _SYNTAX.items()}

_MODALITIES = (Dia, BDia, Box, BBox)

_LABEL_CONST = re.compile(r"^P(\d+)$")


def label_constant_index(sym: str) -> int | None:
    """P1..Pk are reserved set constants backed by label bits (1-based)."""
    m = _LABEL_CONST.match(sym)
    return int(m.group(1)) if m else None


def _fields_of(f: Formula) -> tuple:
    try:
        return _FIELDS[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


def _children(f: Formula) -> list:
    """The direct subformulas of ``f``, in field order."""
    out = []
    for name, kind in _fields_of(f):
        if kind == _FORM:
            out.append(getattr(f, name))
        elif kind in (_FORMS, _FORMS1):
            out.extend(getattr(f, name))
    return out


# ---------------------------------------------------------------------------
# Free symbols and kernel classes

def free_symbols(f: Formula) -> frozenset[str]:
    """Free node and set symbols, with the evaluation position written 'pos'."""
    if isinstance(f, (ExistsNode, ForallNode, ExistsSet, ForallSet)):
        return free_symbols(f.body) - {f.sym}
    if isinstance(f, (GDia, GBox)):
        return free_symbols(f.arg) - {"pos"}
    out = set()
    for name, kind in _fields_of(f):
        value = getattr(f, name)
        if kind == _SYM:
            out.add(value)
        elif kind == _OPT_SYM:
            out.add("pos" if value is None else value)
        elif kind == _SYMS:
            out.update(value)
    if isinstance(f, (Is,) + _MODALITIES):
        out.add("pos")
    for g in _children(f):
        out |= free_symbols(g)
    return frozenset(out)


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
    out = set()
    for g in _children(f):
        out |= features(g)
    feature = _SYNTAX[type(f)][2]
    if isinstance(f, In) and f.at is not None:
        feature = "in-at"
    if feature is not None:
        out.add(feature)
    return frozenset(out)


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
    if idx is not None and 1 <= idx <= ctx.d.bits:
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
    if isinstance(f, _MODALITIES):
        if len(f.args) != 1:
            raise EvalError("modalities over binary relations take one "
                            "argument")
        if not 1 <= f.rel <= d.rels:
            raise EvalError(f"relation index {f.rel} out of range")
        pos = _node(env, "pos")
        succ = (d.out_neighbors(f.rel, pos) if isinstance(f, (Dia, Box))
                else d.in_neighbors(f.rel, pos))
        combine = any if isinstance(f, (Dia, BDia)) else all
        return combine(_holds(f.args[0], ctx, {**env, "pos": u}) for u in succ)
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


def _check_mso_bound(d: Digraph) -> None:
    if d.n > MSO_NODE_BOUND:
        raise OracleBoundError(
            f"structure has {d.n} nodes, oracle bound is {MSO_NODE_BOUND}")


def eval_mso(f: Formula, g: Digraph | PointedDigraph,
             env: dict | None = None) -> bool:
    """Brute-force evaluation with set/node quantifiers (the trusted oracle).

    Refuses structures above MSO_NODE_BOUND nodes instead of approximating.
    """
    d = g.digraph if isinstance(g, PointedDigraph) else g
    _check_mso_bound(d)
    env = dict(env or {})
    if isinstance(g, PointedDigraph):
        env.setdefault("pos", g.point)
    return _holds(f, _Ctx(d), env)


def sem_nodes(f: Formula, d: Digraph,
              env: dict | None = None) -> frozenset[int]:
    """The node-set variant: nodes at which the formula holds."""
    _check_mso_bound(d)
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
        variables, seen = set(self.variables), set()
        for body in self.bodies:
            _check_mu_body(body, variables, self.bits, seen)

    def body_of(self, name: str):
        return self.bodies[self.variables.index(name)]


def _check_mu_body(f: Formula, variables: set[str], bits: int,
                   seen: set[int]) -> None:
    """Refuse ``f`` unless it is a mu-fragment body.  ``seen`` holds the
    ids of the nodes already checked against the same ``variables`` and
    ``bits``, so a subtree shared between bodies is walked once."""
    if id(f) in seen:
        return
    seen.add(id(f))
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
            _check_mu_body(g, variables, bits, seen)
        return
    if isinstance(f, (BDia, BBox)):
        if f.rel != 1 or len(f.args) != 1:
            raise KernelViolation("mu bodies use unary backward modalities "
                                  "over the single relation")
        _check_mu_body(f.args[0], variables, bits, seen)
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
    depth = max(map(modal_depth, _children(f)), default=0)
    return depth + 1 if isinstance(f, _MODALITIES + (GDia, GBox)) else depth


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
        run = _run_rounds(self, d, initial, None, DEFAULT_HORIZON_CAP)
        final, names = run.closing, run.names
        vals = {name: frozenset(v for v, q in enumerate(final)
                                if name in names[q])
                for name in self.system.variables}
        return vals, run.prefix

    def eval(self, d: Digraph) -> frozenset[int]:
        vals, _ = self.eval_full(d)
        return vals[self.system.variables[0]]


# ---------------------------------------------------------------------------
# S-expression text format

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _read(text: str) -> list | str:
    """The one S-expression in ``text`` as nested lists of symbols, read in
    one pass over the tokens; nesting deeper than MAX_NESTING is refused."""
    top = []
    stack = []  # the open lists, each with the offset of its '('
    for m in _TOKEN.finditer(text):
        tok, at = m.group(), m.start()
        if top:
            raise ParseError(f"trailing input at offset {at}")
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} at "
                                 f"offset {at}")
            stack.append(([], at))
            continue
        if tok == ")":
            if not stack:
                raise ParseError(f"unexpected ')' at offset {at}")
            tok = stack.pop()[0]
        (stack[-1][0] if stack else top).append(tok)
    if stack:
        raise ParseError(f"unclosed '(' at offset {stack[-1][1]}")
    if not top:
        raise ParseError("unexpected end of input")
    return top[0]


def _rel_index(tok) -> int | None:
    """The relation index ``tok`` spells, or None if it is not a number."""
    if not (isinstance(tok, str) and tok.isdigit()):
        return None
    if not tok.isdecimal() or int(tok) < 1:
        raise ParseError(f"relation indices are 1, 2, ..., got {tok!r}")
    return int(tok)


def _sexpr_to_formula(x) -> Formula:
    if isinstance(x, str):
        # bare set symbol as membership shorthand: X means (in X)
        return In(x)
    if not x:
        raise ParseError("empty form")
    head, rest = x[0], x[1:]
    cls = _BY_OP.get(head) if isinstance(head, str) else None
    if cls is None:
        if head == "mu":
            raise ParseError("(mu ...) is a system, use parse_mu")
        raise ParseError(f"unknown operator {head!r}")
    values, i = [], 0  # i: the next unread item of rest
    for _, kind in _FIELDS[cls]:
        item = rest[i] if i < len(rest) else None
        if kind in (_REL, _OPT_REL):
            index = _rel_index(item)
            if index is None and kind == _REL:
                raise _expected(head, kind, item)
            values.append(index or 1)
            i += index is not None
        elif kind == _SYM:
            if not isinstance(item, str):
                raise _expected(head, kind, item)
            values.append(item)
            i += 1
        elif kind == _OPT_SYM:
            values.append(item if isinstance(item, str) else None)
            i += isinstance(item, str)
        elif kind == _FORM:
            if item is None:
                raise _expected(head, kind, item)
            values.append(_sexpr_to_formula(item))
            i += 1
        else:  # the rest of the form
            items, i = rest[i:], len(rest)
            if kind == _SYMS:
                if len(items) < 2 or not all(isinstance(y, str)
                                             for y in items):
                    raise _expected(head, kind, items)
                values.append(tuple(items))
            else:
                if kind == _FORMS1 and not items:
                    raise _expected(head, kind, items)
                values.append(tuple(map(_sexpr_to_formula, items)))
    if i < len(rest):
        raise ParseError(f"({head} ...) has extra arguments {rest[i:]!r}")
    return cls(*values)


def _expected(head: str, kind: str, got) -> ParseError:
    if got is None:
        return ParseError(f"({head} ...) is missing {kind}")
    return ParseError(f"({head} ...) expects {kind}, got {got!r}")


def parse_formula(text: str, kernel: str | None = None) -> Formula:
    f = _sexpr_to_formula(_read(text))
    if kernel is not None:
        check_kernel(f, kernel)
    return f


def parse_mu(text: str, bits: int | None = None) -> MuSystem:
    x = _read(text)
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
    for g in _children(f):
        yield from _set_constants(g, variables)


def _print_all(fs) -> str:
    return " ".join(map(print_formula, fs))


# field kinds -> printer of (operator, formula); the classes that share a
# layout share their field names
_PRINTERS = {
    (): lambda op, f: f"({op})",
    (_SYM,): lambda op, f: f"({op} {f.sym})",
    (_SYM, _OPT_SYM): lambda op, f: (f"({op} {f.setsym})" if f.at is None
                                     else f"({op} {f.setsym} {f.at})"),
    (_SYM, _SYM): lambda op, f: f"({op} {f.a} {f.b})",
    (_REL, _SYMS): lambda op, f: f"({op} {f.rel} {' '.join(f.args)})",
    (_FORM,): lambda op, f: f"({op} {print_formula(f.arg)})",
    (_FORMS,): lambda op, f: f"({op} {_print_all(f.args)})",
    (_FORM, _FORM): lambda op, f: (f"({op} {print_formula(f.left)} "
                                   f"{print_formula(f.right)})"),
    (_OPT_REL, _FORMS1): lambda op, f: f"({op} {f.rel} {_print_all(f.args)})",
    (_SYM, _FORM): lambda op, f: f"({op} {f.sym} {print_formula(f.body)})",
}


def print_formula(f: Formula) -> str:
    try:
        op, kinds, _ = _SYNTAX[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    return _PRINTERS[kinds](op, f)


def print_mu(system: MuSystem) -> str:
    inner = " ".join(f"({name} {print_formula(body)})"
                     for name, body in zip(system.variables, system.bodies))
    return f"(mu ({inner}))"
