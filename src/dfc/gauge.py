"""Constraint atoms and gauge-epigraph lowering templates.

The unit of output is a constraint atom over named variables: a linear row,
a second-order cone row, a perspective of a catalog function, or a gauge
bound applied to a (optionally positive-part) linear recombination.  Builders
assemble formulations by instantiating the epigraph template of a set: the
template of S describes {(w, t) : gauge of S at w <= t} through atoms that
are affine in (w, t) and any auxiliary variables, so substituting affine
expressions for w and t yields valid constraint blocks for translates,
scalings and combinations without re-deriving anything per builder.  The
set oracles' fallbacks compile the same lowering once per set, at columns
(w, t) (analysis._template).  Every row of a lowering is one combination
dot(coeffs, exprs), the only place expressions are added: a box or an
H-polyhedron gives one row a.w - b t per row of sets.collect_rows.

Everything here is immutable; fresh auxiliary names come from an explicit
deterministic counter so repeated builds of one instance are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sets
from .sets import (
    Ball,
    Box,
    CatalogFunction,
    ConicRep,
    DfcError,
    HPolyhedron,
    Intersect,
    LevelSet,
    MaxOf,
    AffineFn,
    Scale,
    SetExpr,
    SumCone,
    Translate,
    VPolytope,
    _arr,
)


class ConditionViolated(DfcError):
    """The cone-sum precondition of a positive-part gauge block fails.

    The message names the frame direction j along which it fails and, from a
    builder, the piece; ``witness`` is a point of K outside the piece.  When
    C cap K is unbounded, the message and ``witness`` give an axis direction
    along which it is unbounded instead.  The condition is decided exactly
    on polyhedral parts of C and on curved parts whose recession cone holds
    the frame rays; other curved parts are only sampled, so for them a
    refutation is certain and a pass is not.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# affine expressions over named variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Aff:
    """Affine expression sum(coeff * var) + const with sorted, nonzero terms."""

    terms: tuple[tuple[str, float], ...]
    const: float = 0.0

    @staticmethod
    def of(coeffs: dict[str, float] | None = None, const: float = 0.0) -> "Aff":
        items = tuple(
            sorted((k, float(v)) for k, v in (coeffs or {}).items() if v != 0.0)
        )
        return Aff(items, float(const))

    @staticmethod
    def var(name: str, coeff: float = 1.0) -> "Aff":
        return Aff(((name, float(coeff)),) if coeff != 0.0 else ())

    @staticmethod
    def const_of(value: float) -> "Aff":
        return Aff.of({}, value)

    def evaluate(self, env: dict[str, float]) -> float:
        return self.const + sum(c * env[n] for n, c in self.terms)

    def scaled(self, k: float) -> "Aff":
        return Aff.of({n: k * c for n, c in self.terms}, k * self.const)


def dot(coeffs, exprs, const: float = 0.0) -> Aff:
    """const + sum_k coeffs[k] * exprs[k], the one way expressions are added:
    each name's coefficient is summed left to right, and zero coefficients
    are skipped."""
    acc = {}
    for k, e in zip(coeffs, exprs, strict=True):
        k = float(k)
        if k == 0.0:
            continue
        const += k * e.const
        for n, c in e.terms:
            acc[n] = acc.get(n, 0.0) + k * c
    return Aff.of(acc, const)


def combo(names: "list[str] | tuple[str, ...]", coeffs, const: float = 0.0) -> Aff:
    return dot(coeffs, [Aff.var(n) for n in names], const)


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Linear:
    """expr <= 0 (relation 'le') or expr == 0 (relation 'eq')."""

    expr: Aff
    relation: str = "le"


@dataclass(frozen=True)
class SOC:
    """||(arg_1, ..., arg_m)||_2 <= bound."""

    arg: tuple[Aff, ...]
    bound: Aff


@dataclass(frozen=True)
class Perspective:
    """Closed perspective of a catalog function: t f(x/t) <= 0 with t >= 0."""

    fn: CatalogFunction
    arg: tuple[Aff, ...]
    scale: Aff


@dataclass(frozen=True)
class GaugePlus:
    """gauge_{set_ref}( sum_j d_j * pos(e_j) ) <= rhs.

    Each term is a pair (direction d_j, expression e_j); with positive_part
    False the plain value e_j is used instead of its positive part pos(e_j).
    The reference set must contain the origin.
    """

    set_ref: SetExpr
    terms: tuple[tuple[tuple[float, ...], Aff], ...]
    rhs: Aff
    positive_part: bool = True


Atom = "Linear | SOC | Perspective | GaugePlus"


def atom_exprs(atom) -> tuple[Aff, ...]:
    """The affine arguments of an atom, its bound last: a Linear row's
    expression; an SOC's norm arguments, then its bound; a Perspective's
    arguments, then its scale; a GaugePlus's term expressions, then its rhs."""
    if isinstance(atom, Linear):
        return (atom.expr,)
    if isinstance(atom, SOC):
        return (*atom.arg, atom.bound)
    if isinstance(atom, Perspective):
        return (*atom.arg, atom.scale)
    if isinstance(atom, GaugePlus):
        return (*(e for _, e in atom.terms), atom.rhs)
    raise TypeError(f"not an atom: {atom!r}")


class NameGen:
    """Deterministic fresh-name counter (one per build): z0, z1, ..."""

    def __init__(self):
        self._n = 0

    def fresh(self) -> str:
        name = f"z{self._n}"
        self._n += 1
        return name


# ---------------------------------------------------------------------------
# atom evaluation
# ---------------------------------------------------------------------------


def atom_violation(atom, env: dict[str, float]) -> float:
    """Signed violation: <= 0 means satisfied, +inf allowed."""
    if isinstance(atom, Linear):
        v = atom.expr.evaluate(env)
        return abs(v) if atom.relation == "eq" else v
    if isinstance(atom, SOC):
        vals = np.array([e.evaluate(env) for e in atom.arg])
        return float(np.linalg.norm(vals)) - atom.bound.evaluate(env)
    if isinstance(atom, Perspective):
        t = atom.scale.evaluate(env)
        x = np.array([e.evaluate(env) for e in atom.arg])
        if t < 0.0:
            return -t
        return atom.fn.persp_value(x, t)
    if isinstance(atom, GaugePlus):
        w = np.zeros(atom.set_ref.dim)
        for d, e in atom.terms:
            val = e.evaluate(env)
            w += (max(val, 0.0) if atom.positive_part else val) * _arr(d)
        gamma, _ = gauge_and_normal(atom.set_ref, w)
        return gamma - atom.rhs.evaluate(env)
    raise TypeError(f"not an atom: {atom!r}")


# ---------------------------------------------------------------------------
# gauge values with supporting normals (for evaluation and cut generation)
# ---------------------------------------------------------------------------


def gauge_and_normal(S: SetExpr, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (gamma, q) with gamma the gauge of S at w and q a subgradient.

    q satisfies q.z <= gauge(z) for all z and q.w = gamma.  When the gauge is
    +inf along w (the set is flat in that direction), q is a separating
    direction with q.x <= 0 on S and q.w > 0.  S must contain the origin.
    Translates fold into the set's data (_recenter); boxes and H-polyhedra
    take row ratios, balls and conic sets a root per cone block, level sets
    their persp_root, intersections the largest child gauge, and the rest,
    V-polytopes included, the template cut loop (gauge_via_template).
    """
    n = S.dim
    w = np.asarray(w, dtype=float)
    if float(np.max(np.abs(w), initial=0.0)) == 0.0:
        return 0.0, np.zeros(n)
    if isinstance(S, Translate):
        S = _recenter(S.child, _arr(S.offset))
    if isinstance(S, (Box, HPolyhedron)):
        return _rows_gauge(*sets.collect_rows(S), w)
    if isinstance(S, Ball):  # one soc block: (r, x - center) in the cone
        A = np.vstack([np.zeros(n), np.eye(n)])
        S = sets.conic(A, (), np.concatenate([[S.radius], -_arr(S.center)]), [("soc", n + 1)])
    if isinstance(S, ConicRep) and not S.B:
        return _conic_gauge(S, w)
    if isinstance(S, Scale) and S.factor > 0.0:
        g, q = gauge_and_normal(S.child, w)
        return g / S.factor, q / S.factor
    if isinstance(S, LevelSet):
        return _level_set_gauge(S.fn, w)
    if isinstance(S, Intersect):
        return _max_gauge(gauge_and_normal(child, w) for child in S.children)
    from . import analysis

    return analysis.gauge_via_template(S, w)


def _max_gauge(pairs) -> tuple[float, np.ndarray]:
    """The first pair with the largest gauge, that of the parts' intersection."""
    best = (-1.0, None)
    for pair in pairs:
        best = max(best, pair, key=lambda p: p[0])
        if math.isinf(pair[0]):
            break
    return best


def _rows_gauge(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Gauge of {x : A x <= b} at w: the largest ratio A_i.w / b_i, with
    normal A_i / b_i; +inf with normal A_i on a row with b_i = 0 that w
    violates."""
    if np.any(b < 0.0):
        raise sets.BasePointNotInSet("gauge needs the origin in the polyhedron")
    vals = A @ w
    best, q = 0.0, np.zeros(w.shape[0])
    for i in range(A.shape[0]):
        if b[i] == 0.0 and vals[i] > 0.0:
            return math.inf, A[i].copy()
        if b[i] > 0.0 and vals[i] / b[i] > best:
            best = vals[i] / b[i]
            q = A[i] / b[i]
    return best, q


def _conic_gauge(S: ConicRep, w: np.ndarray):
    """Largest block gauge of a conic set without auxiliaries, 'nonneg' rows
    as -A x <= c and 'zero' rows as both; the template cut loop if an soc c
    is not interior to its cone."""
    A, c = _arr(S.A), _arr(S.c)
    parts, at = [], 0
    for sl in S.cones:
        Ab, cb = A[at : at + sl.size], c[at : at + sl.size]
        at += sl.size
        if sl.kind == "soc":
            if cb[0] <= float(np.linalg.norm(cb[1:])):
                from . import analysis

                return analysis.gauge_via_template(S, w)
            parts.append(_soc_gauge(Ab @ w, cb, Ab))
        elif sl.kind == "nonneg":
            parts.append(_rows_gauge(-Ab, cb, w))
        else:
            parts.append(_rows_gauge(np.vstack([-Ab, Ab]), np.concatenate([cb, -cb]), w))
    return _max_gauge(parts)


def _soc_gauge(v: np.ndarray, c: np.ndarray, A: np.ndarray) -> tuple[float, np.ndarray]:
    """Least t >= 0 with u = v + t c in the cone ||u[1:]|| <= u[0], for c
    interior to it: the larger root of the Lorentz form <u, u> = 0, taken in
    a form without cancellation.  Its normal -A^T y / (y.c), y = (u0, -u[1:]),
    is the subgradient of the block {x : A x + c in cone} at v = A w.  At the
    apex u = 0 any y of the cone serves; it takes y = e_0."""
    nv, nc = float(np.linalg.norm(v[1:])), float(np.linalg.norm(c[1:]))
    if v[0] >= nv:
        return 0.0, np.zeros(A.shape[1])
    alpha = (c[0] - nc) * (c[0] + nc)
    beta = float(v[0] * c[0] - v[1:] @ c[1:])
    gamma = (v[0] - nv) * (v[0] + nv)
    disc = math.sqrt(max(beta * beta - alpha * gamma, 0.0))
    t = (disc - beta) / alpha if beta < 0.0 else -gamma / (beta + disc)
    y = v + t * c
    y[1:] = -y[1:]
    if y[0] <= 1e-12 * (abs(v[0]) + t * c[0]):  # w / t is the apex
        y = np.eye(c.shape[0])[0]
    return t, -(A.T @ y) / float(y @ c)


def _recenter(S: SetExpr, offset: np.ndarray) -> SetExpr:
    """S + offset folded into the data of boxes, balls, polyhedra, V-polytopes
    and conic sets, and of scalings and intersections whose parts all fold;
    any other set stays a Translate."""
    if isinstance(S, Translate):
        return _recenter(S.child, offset + _arr(S.offset))
    if isinstance(S, Box):
        return Box(sets._vec(_arr(S.lower) + offset), sets._vec(_arr(S.upper) + offset))
    if isinstance(S, Ball):
        return Ball(sets._vec(_arr(S.center) + offset), S.radius)
    if isinstance(S, HPolyhedron):
        return HPolyhedron(S.A, sets._vec(_arr(S.b) + _arr(S.A) @ offset))
    if isinstance(S, VPolytope):
        return VPolytope(sets._mat(_arr(S.vertices) + offset))
    if isinstance(S, ConicRep):
        return ConicRep(S.A, S.B, sets._vec(_arr(S.c) - _arr(S.A) @ offset), S.cones)
    if isinstance(S, Intersect):
        children = tuple(_recenter(child, offset) for child in S.children)
        if not any(isinstance(child, Translate) for child in children):
            return Intersect(children)
    if isinstance(S, Scale) and S.factor > 0.0:
        child = _recenter(S.child, offset / S.factor)
        if not isinstance(child, Translate):
            return Scale(child, S.factor)
    return Translate(S, sets._vec(offset))


def _level_set_gauge(fn: CatalogFunction, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Gauge of {fn <= 0} at w with subgradient g / (g.p) at p = w / gauge,
    g the x part of persp_grad(p, 1).  fn.persp_root gives the gauge in an
    exact form with no bracket, so it scales with w; a few ulps are added
    where rounding left persp(w, gauge) > 0.  Recession directions give 0,
    flat ones +inf with a homogeneous valid row a.x <= 0 that w violates.
    """
    gamma = fn.persp_root(w)
    if gamma == 0.0:
        return 0.0, np.zeros(w.shape[0])
    if math.isinf(gamma):
        for a, c in fn.persp_valid_rows():
            if c == 0.0 and float(a @ w) > 0.0:
                return math.inf, a / float(np.linalg.norm(a))
        raise sets.UnboundedDirection("gauge is unbounded along w with no separating row")
    k = -52
    while fn.persp_value(w, gamma) > 0.0:
        gamma *= 1.0 + 2.0**k
        k += 1
    p = w / gamma
    u = fn.persp_grad(p, 1.0)[0]
    up = float(u @ p)
    if up <= 1e-12:
        return gamma, np.zeros(w.shape[0])
    return gamma, u / up


# ---------------------------------------------------------------------------
# epigraph lowering
# ---------------------------------------------------------------------------


def lower_epigraph(
    S: SetExpr,
    w_exprs: "tuple[Aff, ...] | list[Aff]",
    tau: Aff,
    gen: NameGen,
) -> tuple[list, list[str]]:
    """Atoms describing {(w, tau) : gauge of S at w <= tau} plus fresh aux names.
    They do not impose tau >= 0; a caller that needs it bounds tau.

    Substituting affine expressions for w and tau keeps validity because all
    emitted atoms are affine in those positions.
    """
    w_exprs = tuple(w_exprs)
    if len(w_exprs) != S.dim:
        raise sets.DimensionMismatch("template arity differs from the set dimension")
    return _lower(S, w_exprs, tau, gen)


def _lower(S, w, tau, gen):
    if isinstance(S, (Box, HPolyhedron)):
        A, b = sets.collect_rows(S)
        return [Linear(dot((*a, -bi), (*w, tau))) for a, bi in zip(A, b)], []
    if isinstance(S, Ball):
        arg = tuple(dot((1.0, -c), (e, tau)) for e, c in zip(w, _arr(S.center)))
        return [SOC(arg, tau.scaled(S.radius))], []
    if isinstance(S, VPolytope):
        V = _arr(S.vertices)
        lam = [gen.fresh() for _ in range(V.shape[0])]
        lv = [Aff.var(name) for name in lam]
        atoms = [Linear(dot((1.0, *-V[:, j]), (w[j], *lv)), "eq") for j in range(S.dim)]
        atoms.append(Linear(dot([1.0] * len(lv) + [-1.0], [*lv, tau]), "eq"))
        atoms.extend(Linear(Aff.var(name, -1.0)) for name in lam)
        return atoms, lam
    if isinstance(S, ConicRep):
        zs = [gen.fresh() for _ in range(S.aux_dim)]
        cols = (tau, *w, *map(Aff.var, zs))
        B = _arr(S.B) if S.B else np.zeros((len(S.c), 0))
        rows = [dot((c, *a, *bz), cols) for c, a, bz in zip(_arr(S.c), _arr(S.A), B)]
        atoms = []
        at = 0
        for sl in S.cones:
            seg = rows[at : at + sl.size]
            if sl.kind == "nonneg":
                atoms.extend(Linear(e.scaled(-1.0)) for e in seg)
            elif sl.kind == "zero":
                atoms.extend(Linear(e, "eq") for e in seg)
            else:
                atoms.append(SOC(tuple(seg[1:]), seg[0]))
            at += sl.size
        return atoms, zs
    if isinstance(S, LevelSet):
        return _lower_fn(S.fn, w, tau), []
    if isinstance(S, Translate):
        shifted = tuple(dot((1.0, -o), (e, tau)) for e, o in zip(w, _arr(S.offset)))
        return _lower(S.child, shifted, tau, gen)
    if isinstance(S, Scale):
        if S.factor == 0.0:
            return _lower(S.child, w, Aff.const_of(0.0), gen)
        return _lower(S.child, w, tau.scaled(S.factor), gen)
    if isinstance(S, SumCone):
        R = _arr(S.rays) if S.rays else np.zeros((0, S.dim))
        inner = [gen.fresh() for _ in range(S.dim)]
        mus = [gen.fresh() for _ in range(R.shape[0])]
        atoms, aux = _lower(S.child, tuple(Aff.var(n) for n in inner), tau, gen)
        mv = [Aff.var(name) for name in mus]
        for j in range(S.dim):
            row = dot((1.0, -1.0, *-R[:, j]), (w[j], Aff.var(inner[j]), *mv))
            atoms.append(Linear(row, "eq"))
        atoms.extend(Linear(Aff.var(name, -1.0)) for name in mus)
        return atoms, inner + mus + aux
    if isinstance(S, Intersect):
        atoms, aux = [], []
        for child in S.children:
            a, x = _lower(child, w, tau, gen)
            atoms.extend(a)
            aux.extend(x)
        return atoms, aux
    raise TypeError(f"cannot lower {type(S).__name__}")


def _lower_fn(fn: CatalogFunction, w, tau):
    if isinstance(fn, AffineFn):
        return [Linear(dot((fn.beta, *_arr(fn.a)), (tau, *w)))]
    if isinstance(fn, MaxOf):
        atoms = []
        for part in fn.parts:
            atoms.extend(_lower_fn(part, w, tau))
        return atoms
    return [Perspective(fn, tuple(w), tau)]


# ---------------------------------------------------------------------------
# the cone-sum condition of positive-part gauge blocks
# ---------------------------------------------------------------------------


def _probe_cone_sum_condition(C: SetExpr, V, s, probes: int, seed: int):
    """Raise ConditionViolated unless C cap K is compact and
    ((C cap K) - K) cap K = C cap K, the condition under which a positive-part
    GaugePlus block over C is exact.  K is the cone of the frame rows v_j of
    V with signs s: s_j v_j.x >= 0 where s_j != 0 and v_j.x = 0 where s_j = 0.

    With the frame orthonormal, take coordinates z_j = s_j v_j.x.  The
    condition says C cap K is down-closed in z, and the box [0, z] is the hull
    of z with any coordinates zeroed, so it holds exactly when P_j(C cap K)
    lies in C for every j with s_j != 0, where P_j = I - v_j v_j^T.  A row
    a.x <= b of a polyhedral part of C holds when h_{C cap K}(P_j a) <= b.  A
    curved part L holds when -s_j v_j is in its recession cone, since
    P_j p = p - z_j s_j v_j.  Only when that fails are exposed points of
    C cap K along ``probes`` seeded directions (analysis.sample_directions)
    projected and tested, which can refute the condition but not prove it.
    A stalled oracle raises sets.Stalled.
    """
    n = C.dim
    V = np.asarray(V, dtype=float)
    supp = [j for j in range(V.shape[0]) if s[j] != 0]
    k_rows = np.array([s[j] * V[j] for j in supp]).reshape(-1, n)
    z_rows = np.array([V[j] for j in range(V.shape[0]) if s[j] == 0]).reshape(-1, n)

    # compactness: support of C cap K along the coordinate axes
    cut = np.vstack([-k_rows, z_rows, -z_rows])
    CK = sets.intersect(C, sets.hpoly(cut, np.zeros(cut.shape[0]))) if cut.size else C
    for j in range(n):
        for sgn in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sgn
            if math.isinf(sets.support(CK, e)):
                raise ConditionViolated(
                    f"cone-sum template needs a compact base piece; it is unbounded "
                    f"along {_point_text(e)}",
                    tuple(e),
                )

    proj = {j: np.eye(n) - np.outer(V[j], V[j]) for j in supp}

    def escape(j, p):
        w = tuple(float(v) for v in proj[j] @ p)
        return ConditionViolated(
            f"cone-sum condition fails along frame direction {j}: the point "
            f"{_point_text(w)} of K is outside the base piece",
            w,
        )

    curved = []
    for part in _conjuncts(C):
        try:
            A, b = sets.collect_rows(part)
        except sets.NotPolyhedral:
            curved.append(part)
            continue
        for j in supp:
            for a, bound in zip(A, b):
                d = proj[j] @ a
                flat = float(np.max(np.abs(d))) <= 1e-12
                if (0.0 if flat else sets.support(CK, d)) > bound + 1e-6:
                    # any point of C cap K escapes when P_j a = 0
                    raise escape(j, sets.exposed_point(CK, np.eye(n)[0] if flat else d))
    pending = [
        (j, L)
        for L in curved
        for j in supp
        if not sets.recession_contains(L, -s[j] * V[j])
    ]
    if not pending:
        return
    from . import analysis

    for u in analysis.sample_directions(n, probes, seed):
        p = sets.exposed_point(CK, u)
        for j, L in pending:
            if not sets.contains(L, proj[j] @ p, 1e-6):
                raise escape(j, p)


def _conjuncts(S: SetExpr, offset=None) -> list:
    """Sets whose intersection is S: Intersect nodes are split into their
    children, and any translates above them folded into each (_recenter)."""
    if isinstance(S, Translate):
        shift = _arr(S.offset) if offset is None else offset + _arr(S.offset)
        return _conjuncts(S.child, shift)
    if isinstance(S, Intersect):
        return [p for c in S.children for p in _conjuncts(c, offset)]
    return [S if offset is None else _recenter(S, offset)]


def _point_text(x) -> str:
    return "(" + ", ".join(f"{float(v):.6g}" for v in x) + ")"
