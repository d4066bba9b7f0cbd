"""Constraint atoms and gauge-epigraph lowering templates.

The unit of output is a constraint atom over named variables: a linear row,
a second-order cone row, a perspective of a catalog function, or a gauge
bound applied to a (optionally positive-part) linear recombination.  Builders
assemble formulations by instantiating the epigraph template of a set: the
template of S describes {(w, t) : gauge of S at w <= t} through atoms that
are affine in (w, t) and any auxiliary variables, so substituting affine
expressions for w and t yields valid constraint blocks for translates,
scalings and combinations without re-deriving anything per builder.

Everything here is immutable; fresh auxiliary names come from an explicit
deterministic counter so repeated builds of one instance are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    SignedBasis,
    SumCone,
    Translate,
    VPolytope,
    _arr,
)


class ConditionViolated(DfcError):
    """A probed structural precondition failed; the witness point is attached."""

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
        return Aff.of({name: coeff})

    @staticmethod
    def const_of(value: float) -> "Aff":
        return Aff.of({}, value)

    def evaluate(self, env: dict[str, float]) -> float:
        return self.const + sum(c * env[n] for n, c in self.terms)

    def coeff_map(self) -> dict[str, float]:
        return dict(self.terms)

    def names(self) -> set[str]:
        return {n for n, _ in self.terms}

    def __add__(self, other: "Aff") -> "Aff":
        coeffs = self.coeff_map()
        for n, c in other.terms:
            coeffs[n] = coeffs.get(n, 0.0) + c
        return Aff.of(coeffs, self.const + other.const)

    def __sub__(self, other: "Aff") -> "Aff":
        return self + other.scaled(-1.0)

    def scaled(self, k: float) -> "Aff":
        return Aff.of({n: k * c for n, c in self.terms}, k * self.const)

    def shifted(self, delta: float) -> "Aff":
        return Aff(self.terms, self.const + delta)


def combo(names: "list[str] | tuple[str, ...]", coeffs, const: float = 0.0) -> Aff:
    cv = np.asarray(coeffs, dtype=float).reshape(-1)
    return Aff.of({n: float(c) for n, c in zip(names, cv)}, const)


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


@dataclass(frozen=True)
class ConstraintBlock:
    """Atoms over named variables, with one provenance label per atom."""

    variables: tuple[str, ...]
    atoms: tuple[object, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.provenance):
            raise ValueError("provenance must label every atom")


class NameGen:
    """Deterministic fresh-name counter (one per build)."""

    def __init__(self, prefix: str = "z"):
        self.prefix = prefix
        self._n = 0

    def fresh(self, prefix: str | None = None) -> str:
        name = f"{prefix or self.prefix}{self._n}"
        self._n += 1
        return name


def atom_names(atom) -> set[str]:
    if isinstance(atom, Linear):
        return atom.expr.names()
    if isinstance(atom, SOC):
        out = atom.bound.names()
        for e in atom.arg:
            out |= e.names()
        return out
    if isinstance(atom, Perspective):
        out = atom.scale.names()
        for e in atom.arg:
            out |= e.names()
        return out
    if isinstance(atom, GaugePlus):
        out = atom.rhs.names()
        for _, e in atom.terms:
            out |= e.names()
        return out
    raise TypeError(f"not an atom: {atom!r}")


# ---------------------------------------------------------------------------
# atom evaluation
# ---------------------------------------------------------------------------


def gauge_plus_argument(atom: GaugePlus, env: dict[str, float]) -> np.ndarray:
    dim = atom.set_ref.dim
    w = np.zeros(dim)
    for d, e in atom.terms:
        val = e.evaluate(env)
        if atom.positive_part:
            val = max(val, 0.0)
        w += val * _arr(d)
    return w


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
        w = gauge_plus_argument(atom, env)
        gamma, _ = gauge_and_normal(atom.set_ref, w)
        return gamma - atom.rhs.evaluate(env)
    raise TypeError(f"not an atom: {atom!r}")


def block_feasible(atoms, env: dict[str, float], tol: float) -> bool:
    return all(atom_violation(a, env) <= tol for a in atoms)


# ---------------------------------------------------------------------------
# gauge values with supporting normals (for evaluation and cut generation)
# ---------------------------------------------------------------------------


def gauge_and_normal(S: SetExpr, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (gamma, q) with gamma the gauge of S at w and q a subgradient.

    q satisfies q.z <= gauge(z) for all z and q.w = gamma.  When the gauge is
    +inf along w (the set is flat in that direction), q is a separating
    direction with q.x <= 0 on S and q.w > 0.  S must contain the origin.
    """
    n = S.dim
    w = np.asarray(w, dtype=float)
    if float(np.max(np.abs(w), initial=0.0)) == 0.0:
        return 0.0, np.zeros(n)
    if isinstance(S, Box):
        lo, up = _arr(S.lower), _arr(S.upper)
        best, q, flat = 0.0, np.zeros(n), None
        for j in range(n):
            if w[j] > 0.0:
                if up[j] <= 0.0:
                    flat = (j, 1.0)
                    break
                if not math.isinf(up[j]) and w[j] / up[j] > best:
                    best = w[j] / up[j]
                    q = np.zeros(n)
                    q[j] = 1.0 / up[j]
            elif w[j] < 0.0:
                if lo[j] >= 0.0:
                    flat = (j, -1.0)
                    break
                if not math.isinf(lo[j]) and w[j] / lo[j] > best:
                    best = w[j] / lo[j]
                    q = np.zeros(n)
                    q[j] = 1.0 / lo[j]
        if flat is not None:
            j, sgn = flat
            qf = np.zeros(n)
            qf[j] = sgn
            return math.inf, qf
        return best, q
    if isinstance(S, Ball):
        c, r = _arr(S.center), S.radius
        a = float(c @ c) - r * r
        if a >= 0.0:
            raise ValueError("gauge needs the origin in the ball's interior")
        wc = float(w @ c)
        lam = (math.sqrt(wc * wc - a * float(w @ w)) - wc) / (-a)
        p = w / lam
        u = p - c
        sigma = float(c @ u) + r * float(np.linalg.norm(u))
        return lam, u / sigma
    if isinstance(S, HPolyhedron):
        A, b = _arr(S.A), _arr(S.b)
        if np.any(b < 0.0):
            raise ValueError("gauge needs the origin in the polyhedron")
        vals = A @ w
        best, q, flat = 0.0, np.zeros(n), None
        for i in range(A.shape[0]):
            if b[i] == 0.0:
                if vals[i] > 0.0:
                    flat = i
                    break
                continue
            if vals[i] / b[i] > best:
                best = vals[i] / b[i]
                q = A[i] / b[i]
        if flat is not None:
            return math.inf, A[flat].copy()
        return best, q
    if isinstance(S, VPolytope):
        return _vpolytope_gauge(S, w)
    if isinstance(S, Scale) and S.factor > 0.0:
        g, q = gauge_and_normal(S.child, w)
        return g / S.factor, q / S.factor
    if isinstance(S, LevelSet):
        return _level_set_gauge(S.fn, w)
    if isinstance(S, Intersect):
        best, bestq = -1.0, None
        for child in S.children:
            g, q = gauge_and_normal(child, w)
            if g > best:
                best, bestq = g, q
            if math.isinf(g):
                break
        return best, bestq
    return _polar_gauge(S, w)


def _vpolytope_gauge(S: VPolytope, w: np.ndarray) -> tuple[float, np.ndarray]:
    # gauge(w) = max {q.w : q.v <= 1 for every vertex v} by polarity;
    # the maximizer is the subgradient itself.
    from . import simplex

    V = _arr(S.vertices)
    n = V.shape[1]
    cap = sets.RAY_CAP
    res = simplex.solve_lp(
        w,
        [V[i] for i in range(V.shape[0])],
        [1.0] * V.shape[0],
        None,
        None,
        np.full(n, -cap),
        np.full(n, cap),
    )
    if res.status != "optimal":
        raise ValueError("polytope gauge needs the origin inside the hull")
    q = res.x
    if float(np.max(np.abs(q))) >= cap * (1.0 - 1e-9):
        # flat direction: the polar is unbounded, so conv(V) lies in a
        # halfspace through the origin that w violates
        u = q / float(np.linalg.norm(q))
        return math.inf, u
    return float(res.value), q.copy()


def _polar_gauge(S: SetExpr, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Gauge and subgradient via cutting planes on the polar set.

    Maximizes q.w over {q : q.x <= 1 on S}, separating with exposed points
    of S, so it only needs the set's support oracle.  Requires a bounded S;
    unbounded sets must be covered by a structural rule above.
    """
    from . import simplex

    n = w.shape[0]
    cap = sets.RAY_CAP
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    lb, ub = np.full(n, -cap), np.full(n, cap)
    res = None
    for _ in range(5000):
        res = simplex.solve_lp(w, rows, rhs, None, None, lb, ub, warm=res)
        if res.status != "optimal":
            raise ArithmeticError("polar gauge master problem failed")
        q = res.x
        sig = sets.support(S, q)
        if math.isinf(sig):
            raise ArithmeticError("gauge subgradient fallback needs a bounded set")
        if sig <= 1.0 + 1e-9:
            scale = max(sig, 1.0)
            q = q / scale
            return float(q @ w), q.copy()
        rows.append(sets.exposed_point(S, q))
        rhs.append(1.0)
    raise ArithmeticError("polar gauge did not converge")


def _level_set_gauge(fn: CatalogFunction, w: np.ndarray) -> tuple[float, np.ndarray]:
    # The perspective of fn is positively homogeneous in (x, t), so
    # gauge(w) = inf {t > 0 : persp(w, t) <= 0} and bisection on t suffices.
    def ok(t: float) -> bool:
        return fn.persp_value(w, t) <= 0.0

    lo_cap, hi_cap = sets.GAUGE_BRACKET
    hi = 1.0
    while hi <= sets.RAY_CAP and not ok(hi):
        hi *= 4.0
    if hi > sets.RAY_CAP:
        # flat direction: no positive scaling is feasible.  A homogeneous
        # valid row (a.x <= 0) that w violates separates it from the cone.
        for a, c in fn.persp_valid_rows():
            if c == 0.0 and float(a @ w) > 0.0:
                return math.inf, a / float(np.linalg.norm(a))
        raise ValueError("gauge is unbounded along w with no separating row")
    lo = max(lo_cap, hi / 4.0) if hi > 1.0 else lo_cap
    if ok(lo):
        return 0.0, np.zeros(w.shape[0])
    for _ in range(sets.GAUGE_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    gamma = hi
    p = w / gamma
    u = fn.grad(p)
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
    with_tau_row: bool = True,
) -> tuple[list, list[str]]:
    """Atoms describing {(w, tau) : gauge of S at w <= tau} plus fresh aux names.

    Substituting affine expressions for w and tau keeps validity because all
    emitted atoms are affine in those positions.
    """
    w_exprs = tuple(w_exprs)
    if len(w_exprs) != S.dim:
        raise sets.DimensionMismatch("template arity differs from the set dimension")
    atoms, aux = _lower(S, w_exprs, tau, gen)
    if with_tau_row:
        atoms.append(Linear(tau.scaled(-1.0)))
    return atoms, aux


def _lower(S, w, tau, gen):
    if isinstance(S, Box):
        atoms = []
        lo, up = _arr(S.lower), _arr(S.upper)
        for j in range(S.dim):
            if not math.isinf(up[j]):
                atoms.append(Linear(w[j] - tau.scaled(float(up[j]))))
            if not math.isinf(lo[j]):
                atoms.append(Linear(tau.scaled(float(lo[j])) - w[j]))
        return atoms, []
    if isinstance(S, Ball):
        c = _arr(S.center)
        arg = tuple(w[j] - tau.scaled(float(c[j])) for j in range(S.dim))
        return [SOC(arg, tau.scaled(S.radius))], []
    if isinstance(S, HPolyhedron):
        A, b = _arr(S.A), _arr(S.b)
        atoms = []
        for i in range(A.shape[0]):
            row = Aff.const_of(0.0)
            for j in range(S.dim):
                if A[i, j] != 0.0:
                    row = row + w[j].scaled(float(A[i, j]))
            atoms.append(Linear(row - tau.scaled(float(b[i]))))
        return atoms, []
    if isinstance(S, VPolytope):
        V = _arr(S.vertices)
        lam = [gen.fresh("z") for _ in range(V.shape[0])]
        atoms = []
        for j in range(S.dim):
            expr = w[j]
            for v, name in zip(V, lam):
                if v[j] != 0.0:
                    expr = expr - Aff.var(name, float(v[j]))
            atoms.append(Linear(expr, "eq"))
        total = Aff.of({name: 1.0 for name in lam}) - tau
        atoms.append(Linear(total, "eq"))
        atoms.extend(Linear(Aff.var(name, -1.0)) for name in lam)
        return atoms, lam
    if isinstance(S, ConicRep):
        A, c = _arr(S.A), _arr(S.c)
        zs = [gen.fresh("z") for _ in range(S.aux_dim)]
        B = _arr(S.B) if S.B else None
        rows = []
        for i in range(A.shape[0]):
            expr = tau.scaled(float(c[i]))
            for j in range(S.dim):
                if A[i, j] != 0.0:
                    expr = expr + w[j].scaled(float(A[i, j]))
            if B is not None:
                for t, name in enumerate(zs):
                    if B[i, t] != 0.0:
                        expr = expr + Aff.var(name, float(B[i, t]))
            rows.append(expr)
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
        off = _arr(S.offset)
        shifted = tuple(
            w[j] - tau.scaled(float(off[j])) if off[j] != 0.0 else w[j]
            for j in range(S.dim)
        )
        return _lower(S.child, shifted, tau, gen)
    if isinstance(S, Scale):
        if S.factor == 0.0:
            return _lower(S.child, w, Aff.const_of(0.0), gen)
        return _lower(S.child, w, tau.scaled(S.factor), gen)
    if isinstance(S, SumCone):
        R = _arr(S.rays) if S.rays else np.zeros((0, S.dim))
        inner = [gen.fresh("z") for _ in range(S.dim)]
        mus = [gen.fresh("z") for _ in range(R.shape[0])]
        atoms, aux = _lower(S.child, tuple(Aff.var(n) for n in inner), tau, gen)
        for j in range(S.dim):
            expr = w[j] - Aff.var(inner[j])
            for r, name in zip(R, mus):
                if r[j] != 0.0:
                    expr = expr - Aff.var(name, float(r[j]))
            atoms.append(Linear(expr, "eq"))
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
        a = _arr(fn.a)
        expr = tau.scaled(fn.beta)
        for j, e in enumerate(w):
            if a[j] != 0.0:
                expr = expr + e.scaled(float(a[j]))
        return [Linear(expr)]
    if isinstance(fn, MaxOf):
        atoms = []
        for part in fn.parts:
            atoms.extend(_lower_fn(part, w, tau))
        return atoms
    return [Perspective(fn, tuple(w), tau)]


# ---------------------------------------------------------------------------
# public template ops
# ---------------------------------------------------------------------------

GAUGE_EPIGRAPH_LABEL = "gaugeconechar"
CONE_SUM_LABEL = "finalfinalgaugelemma"


def epi_gauge(
    S: SetExpr,
    base,
    x_names: "tuple[str, ...] | list[str]",
    y_name: str,
    gen: NameGen | None = None,
) -> ConstraintBlock:
    """Constraint block encoding gauge_{S - base}(x) <= y over named variables.

    Lowering goes through the homogenized template of S shifted by -base, so
    the base point cancels out of the atoms wherever the data allows.
    """
    bv = np.asarray(base, dtype=float).reshape(-1)
    if bv.shape[0] != S.dim:
        raise sets.DimensionMismatch("base dimension differs from the set")
    if not sets.contains(S, bv, 1e-6):
        raise sets.BasePointNotInSet("epigraph base point is outside the set")
    gen = gen or NameGen()
    shifted = Translate(S, tuple(float(-v) for v in bv)) if np.any(bv != 0.0) else S
    w = tuple(Aff.var(n) for n in x_names)
    atoms, aux = lower_epigraph(shifted, w, Aff.var(y_name), gen)
    names = tuple(x_names) + (y_name,) + tuple(aux)
    return ConstraintBlock(names, tuple(atoms), (GAUGE_EPIGRAPH_LABEL,) * len(atoms))


def epi_gauge_cone_sum(
    C: SetExpr,
    basis: SignedBasis,
    x_names: "tuple[str, ...] | list[str]",
    y_name: str,
    check: bool = True,
    probes: int = 500,
    seed: int = 20240,
) -> ConstraintBlock:
    """Epigraph block for the gauge of (C cap K) + M via positive parts.

    K is the cone spanned by the rays s_j v_j (so s_j v_j . x >= 0 where
    s_j != 0 and v_j . x = 0 where s_j = 0) and M the cone spanned by the
    rays t_j v_j.  The block uses one gauge atom over C with a positive-part
    recombination plus sign rows, and is exact when C cap K is compact and
    ((C cap K) - K) cap K = C cap K.  With check=True that condition is
    probed on sampled points and ConditionViolated (with a witness) is
    raised when refuted; check=False skips the probe.
    """
    basis.validate()
    n = C.dim
    V = _arr(basis.V)
    if V.shape != (n, n):
        raise sets.DimensionMismatch("cone-sum template needs a full square basis")
    if check:
        _probe_cone_sum_condition(C, basis, probes, seed)
    x = tuple(Aff.var(nm) for nm in x_names)
    y = Aff.var(y_name)
    terms = []
    rows = []
    for j in range(V.shape[0]):
        sj, tj = basis.s[j], basis.t[j]
        vj = V[j]
        proj = Aff.const_of(0.0)
        for i in range(n):
            if vj[i] != 0.0:
                proj = proj + x[i].scaled(float(vj[i]))
        if sj * tj == -1:
            d = tuple(float(sj * v) for v in vj)
            terms.append((d, proj.scaled(float(sj))))
        else:
            # s_j = 0 or s_j t_j = 1: the component grows freely along t_j v_j
            rows.append(Linear(proj.scaled(float(-tj))))
    atoms: list = [GaugePlus(C, tuple(terms), y, True)]
    atoms.extend(rows)
    atoms.append(Linear(y.scaled(-1.0)))
    names = tuple(x_names) + (y_name,)
    return ConstraintBlock(names, tuple(atoms), (CONE_SUM_LABEL,) * len(atoms))


def _probe_cone_sum_condition(C: SetExpr, basis: SignedBasis, probes: int, seed: int):
    rng = np.random.default_rng(seed)
    n = C.dim
    V = _arr(basis.V)
    supp = [j for j in range(V.shape[0]) if basis.s[j] != 0]
    ineq = [basis.s[j] * V[j] for j in supp]
    zero = [V[j] for j in range(V.shape[0]) if basis.s[j] == 0]
    k_rows = np.array(ineq) if ineq else np.zeros((0, n))
    z_rows = np.array(zero) if zero else np.zeros((0, n))

    def in_k(p):
        ok = bool(np.all(k_rows @ p >= -1e-9)) if ineq else True
        return ok and (not zero or bool(np.all(np.abs(z_rows @ p) <= 1e-9)))

    # compactness probe: support of C cap K along the coordinate axes
    cut = np.vstack([-k_rows, z_rows, -z_rows])
    CK = sets.intersect(C, sets.hpoly(cut, np.zeros(cut.shape[0]))) if cut.size else C
    for j in range(n):
        for sgn in (1.0, -1.0):
            e = np.zeros(n)
            e[j] = sgn
            if math.isinf(sets.support(CK, e)):
                raise ConditionViolated(
                    "cone-sum template needs a compact base piece", tuple(e)
                )
    scale_hint = 1.0 + max(
        abs(sets.support(CK, e))
        for j in range(n)
        for e in (np.eye(n)[j], -np.eye(n)[j])
    )
    for _ in range(probes):
        u = rng.normal(size=n)
        nu = float(np.linalg.norm(u))
        if nu < 1e-9:
            continue
        p = sets.exposed_point(CK, u / nu)
        alphas = np.abs(rng.normal(size=len(supp))) * scale_hint * rng.uniform(0, 1)
        q = np.zeros(n)
        for a, j in zip(alphas, supp):
            q += a * basis.s[j] * V[j]
        xpt = p - q
        if in_k(xpt) and not sets.contains(C, xpt, 1e-6):
            raise ConditionViolated(
                "difference point escapes the base piece", tuple(float(v) for v in xpt)
            )
