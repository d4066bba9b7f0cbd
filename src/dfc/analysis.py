"""Empirical certification of formulation strength.

One cutting-plane loop, maximize_over_atoms, does every optimization: linear
atoms seed one simplex.Master per optimization, nonlinear atoms (cone rows,
perspectives, gauge bounds) append supporting cuts at master optima, and each
round resumes from the last optimal basis, until the worst violation drops
below tolerance.  feasibility_gap runs it with every row relaxed by a uniform
slack.  All optimization happens inside an explicit box (radius 1e3); a
solution pressed against that box is flagged and read as "unbounded" by the
support-function callers.  The optimizer fallbacks of sets.py share one
compiled epigraph template per set, kept in a bounded cache, and a bounded
memo of its exact optimizations by direction, so the support and the exposed
point along one direction cost one cut loop.

The sharp and ideal bounds are a max over the pieces, max_i (h_i(u) + v_i),
taken as a running max: closed-form pieces first, then each curved piece
with the running max as its floor.  A piece's cut loop stops as soon as its
LP value, an upper bound on its support, falls to the floor, since the piece
can no longer raise the max; the bound is the same as with every loop run
to convergence.

Verification routines compare a formulation's linear relaxation against
set-level oracles:

    check_sharp       projected support equality over sampled x-directions
    check_ideal       joint (x, y) support equality, or exact vertex
                      integrality for purely linear formulations
    check_par_conditions   membership and support equality for family covers
    check_bbj_condition    basis-subsystem optimum matching
    check_minkowski_ideal  slice-vs-average support comparison

All five sampled checks are front ends of one engine, _sampled_check, that
differ only in their directions and their per-sample evaluator: the
relaxation evaluator (sharp, ideal, minkowski) compares the compiled
relaxation's maximum with a support bound, the cover evaluator (par) and the
basis evaluator (bbj) test their conditions.  An evaluator gives a sample's
margin term and witnesses; the engine alone splits the samples between this
process and at most jobs - 1 forked children (in-process where os.fork is
missing; a child that dies without a result is a DfcError), counts the
samples not evaluated, takes the margin, orders and cuts the witnesses and
gives the verdict.  Sampled checks return "not-refuted" rather than
"pass"; only exact modes may say "pass".  A sample whose optimizer stalled is
not counted, and leaves the verdict "inconclusive" unless another fails.
Every report records the seed, direction count, tolerance and reproducible
witnesses, and multi-process runs merge results by sample index so the
output is identical at any job count.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import gauge as gauge_mod
from . import sets, simplex
from .gauge import Aff, GaugePlus, Linear, Perspective, SOC
from .sets import QuadraticPlus, SetExpr

BOX_RADIUS = 1e3
CUT_TOL = 1e-8
MAX_CUT_ROUNDS = 5000
VERTEX_ROW_CAP = 64
VERTEX_DIM_CAP = 10
VERTEX_TOL = 1e-9  # sign threshold of the double description
BASIS_CAP = 10_000
DEFAULT_SEED = 20240
TEMPLATE_CACHE_SIZE = 256  # compiled set templates kept per process


class ExactModeUnavailable(sets.DfcError, ValueError):
    """The exact ideal check cannot run: the formulation is not purely
    linear, or its vertex enumeration is over the caps."""


# ---------------------------------------------------------------------------
# atom compilation
# ---------------------------------------------------------------------------


def _aff_vec(e: Aff, index: dict[str, int], n: int) -> tuple[np.ndarray, float]:
    v = np.zeros(n)
    for name, c in e.terms:
        v[index[name]] += c
    return v, e.const


@dataclass
class _Compiled:
    names: list[str]
    index: dict[str, int]
    lb: np.ndarray
    ub: np.ndarray
    rows: list[np.ndarray]
    rhs: list[float]
    eq_rows: list[np.ndarray]
    eq_rhs: list[float]
    nonlinear: list  # (atom, precomputed data)
    trivially_infeasible: bool = False

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """rows, rhs, eq_rows and eq_rhs as arrays, which masters only read."""
        n = len(self.names)
        return (
            np.array(self.rows, dtype=float).reshape(len(self.rows), n),
            np.array(self.rhs, dtype=float),
            np.array(self.eq_rows, dtype=float).reshape(len(self.eq_rows), n),
            np.array(self.eq_rhs, dtype=float),
        )


def compile_atoms(atoms, variables) -> _Compiled:
    """variables: iterable of (name, lb, ub) triples, in a fixed order."""
    names = [v[0] for v in variables]
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    lb = np.array([v[1] for v in variables], dtype=float) if n else np.zeros(0)
    ub = np.array([v[2] for v in variables], dtype=float) if n else np.zeros(0)
    cp = _Compiled(names, index, lb, ub, [], [], [], [], [])

    def add_row(vec, const):
        # vec.z + const <= 0
        if not np.any(vec):
            if const > 1e-9:
                cp.trivially_infeasible = True
            return
        cp.rows.append(vec)
        cp.rhs.append(-const)

    for atom in atoms:
        if isinstance(atom, Linear):
            vec, const = _aff_vec(atom.expr, index, n)
            if atom.relation == "eq":
                if not np.any(vec):
                    if abs(const) > 1e-9:
                        cp.trivially_infeasible = True
                    continue
                cp.eq_rows.append(vec)
                cp.eq_rhs.append(-const)
            else:
                add_row(vec, const)
        elif isinstance(atom, SOC):
            arg = [_aff_vec(e, index, n) for e in atom.arg]
            bound = _aff_vec(atom.bound, index, n)
            cp.nonlinear.append((atom, (arg, bound)))
            add_row(-bound[0], -bound[1])  # bound expression must be nonnegative
        elif isinstance(atom, Perspective):
            arg = [_aff_vec(e, index, n) for e in atom.arg]
            sc = _aff_vec(atom.scale, index, n)
            cp.nonlinear.append((atom, (arg, sc)))
            add_row(-sc[0], -sc[1])
            for a, c in atom.fn.persp_valid_rows():
                vec = sum(float(a[j]) * arg[j][0] for j in range(len(arg))) - c * sc[0]
                const = sum(float(a[j]) * arg[j][1] for j in range(len(arg))) - c * sc[1]
                add_row(vec, const)
        elif isinstance(atom, GaugePlus):
            terms = [
                (np.asarray(d, dtype=float), _aff_vec(e, index, n))
                for d, e in atom.terms
            ]
            rhs = _aff_vec(atom.rhs, index, n)
            cp.nonlinear.append((atom, (terms, rhs)))
            add_row(-rhs[0], -rhs[1])
        else:
            raise TypeError(f"cannot compile atom {atom!r}")
    return cp


# ---------------------------------------------------------------------------
# cutting-plane optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptResult:
    # optimal | infeasible | stalled | dominated (the LP value fell to the
    # floor; seen only by support_via_optimizer, which maps it to -inf)
    status: str
    value: float
    point: np.ndarray | None
    env: dict[str, float] | None
    box_active: bool
    rounds: int


def _atom_violation_and_cuts(atom, pre, z: np.ndarray, want_cut: bool):
    """Return (violation, cuts) with each cut a (vec, rhs) row vec.z <= rhs."""
    if isinstance(atom, SOC):
        arg, bound = pre
        vals = np.array([a @ z + c for a, c in arg])
        bval = bound[0] @ z + bound[1]
        nrm = math.sqrt(float(vals.dot(vals)))  # what np.linalg.norm computes
        viol = nrm - bval
        if not want_cut or viol <= 0.0:
            return viol, []
        if nrm == 0.0:  # the bound itself is negative: cut -bound <= 0
            return viol, [(-bound[0], bound[1])]
        g = (vals / nrm).tolist()
        vec = sum(gi * a for gi, (a, _) in zip(g, arg)) - bound[0]
        const = sum(gi * c for gi, (_, c) in zip(g, arg)) - bound[1]
        return viol, [(vec, -const)]
    if isinstance(atom, Perspective):
        arg, sc = pre
        x = np.array([a @ z + c for a, c in arg])
        t = float(sc[0] @ z + sc[1])
        if t < 0.0:
            return -t, [(-sc[0], sc[1])] if want_cut else []
        viol = atom.fn.persp_value(x, max(t, 0.0))
        if not want_cut or viol <= 0.0:
            return viol, []
        if isinstance(atom.fn, QuadraticPlus):
            return viol, _quadratic_plus_cut(atom.fn, arg, sc, x, t)
        gx, gt, off = _generic_persp_tangent(atom.fn, x, t)
        vec = sum(float(gx[j]) * arg[j][0] for j in range(len(arg))) + gt * sc[0]
        const = sum(float(gx[j]) * arg[j][1] for j in range(len(arg))) + gt * sc[1]
        return viol, [(vec, off - const)]
    if isinstance(atom, GaugePlus):
        terms, rhs = pre
        rval = float(rhs[0] @ z + rhs[1])
        dim = atom.set_ref.dim
        w = np.zeros(dim)
        vals = []
        for d, (vec, const) in terms:
            v = float(vec @ z + const)
            if atom.positive_part:
                v = max(v, 0.0)
            vals.append(v)
            w += v * d
        gamma, q = gauge_mod.gauge_and_normal(atom.set_ref, w)
        viol = gamma - rval if math.isfinite(gamma) else math.inf
        if not want_cut or viol <= 0.0:
            return viol, []
        kappa = 1.0 if math.isfinite(gamma) else 0.0
        vec = -kappa * rhs[0]
        const = -kappa * rhs[1]
        qscale = float(np.linalg.norm(q))
        for (d, (tvec, tconst)), v in zip(terms, vals):
            coef = float(q @ d)
            if atom.positive_part:
                if coef < -1e-6 * max(qscale, 1.0) * float(np.linalg.norm(d)):
                    raise ValueError(
                        "gauge term misaligned with the subgradient; "
                        "positive-part cut would be invalid here"
                    )
                coef = max(coef, 0.0)
                if v <= 0.0:
                    continue  # positive part is inactive; chain rule gives 0
            if coef != 0.0:
                vec = vec + coef * tvec
                const = const + coef * tconst
        return viol, [(vec, -const)]
    raise TypeError(f"not a separable atom: {atom!r}")


def _quadratic_plus_cut(fn: QuadraticPlus, arg, sc, x: np.ndarray, t: float):
    # constraint ((a.x')+)^2 <= t * (w.x'); tangents q <= (lam t + s/lam)/2
    a, wlin = sets._arr(fn.a), sets._arr(fn.w)
    q0 = float(a @ x + fn.beta * t)
    s0 = float(wlin @ x)
    q_vec = sum(float(a[j]) * arg[j][0] for j in range(len(arg))) + fn.beta * sc[0]
    q_const = sum(float(a[j]) * arg[j][1] for j in range(len(arg))) + fn.beta * sc[1]
    s_vec = sum(float(wlin[j]) * arg[j][0] for j in range(len(arg)))
    s_const = sum(float(wlin[j]) * arg[j][1] for j in range(len(arg)))
    cuts = []
    if s0 < 0.0:
        cuts.append((-s_vec, s_const))
    if q0 <= 0.0:
        return cuts
    if t > 1e-12 and s0 > 1e-12:
        lam = math.sqrt(s0 / t)
    elif t > 1e-12:
        # s0 ~ 0: anchor at the contact point with q = q0 so the cut
        # separates; lam = 1 would leave the candidate on the cut boundary.
        lam = q0 / t
    elif s0 > 1e-12:
        lam = s0 / q0
    else:
        lam = 1.0
    lam = min(max(lam, 1e-8), 1e8)
    vec = q_vec - 0.5 * lam * sc[0] - (0.5 / lam) * s_vec
    const = q_const - 0.5 * lam * sc[1] - (0.5 / lam) * s_const
    cuts.append((vec, -const))
    return cuts


def _generic_persp_tangent(fn, x: np.ndarray, t: float):
    """Supporting cut gx.x + gt.t <= off for {persp <= 0} near (x, t)."""
    t_cl = max(t, 1e-9)
    x_cl = x
    if isinstance(fn, sets.GeoMeanDeficit):
        x_cl = np.minimum(x, fn.shift * t_cl - 1e-9)
    if isinstance(fn, sets.MaxOf):
        best = max(fn.parts, key=lambda p: p.persp_value(x, t))
        return _generic_persp_tangent(best, x, t)
    gx, gt = fn.persp_grad(x_cl, t_cl)
    val = fn.persp_value(x_cl, t_cl)
    off = float(gx @ x_cl) + gt * t_cl - val
    return gx, gt, off


def maximize_over_atoms(
    compiled: _Compiled,
    objective: np.ndarray,
    box_radius: float = BOX_RADIUS,
    max_rounds: int = MAX_CUT_ROUNDS,
    extra_eq: tuple[list[np.ndarray], list[float]] | None = None,
    _gap: int | None = None,
    _floor: float = -math.inf,
) -> OptResult:
    """Kelley's cutting-plane loop over ``compiled.stacked``, the rows a
    template or relaxation stacks once for every direction.  With ``_gap``,
    the column of a uniform slack that the rows subtract, atoms are violated
    only beyond slack + CUT_TOL and their cuts subtract it too.  A stalled result
    keeps the last master optimum, if any, in ``point``.

    With a ``_floor``, the loop stops as "dominated" at the first master
    optimum whose value is at most the floor and whose point is off the
    artificial box: every cut is valid, so that value bounds the true
    maximum from above, and the caller only needs to know it cannot exceed
    the floor."""
    if compiled.trivially_infeasible:
        return OptResult("infeasible", -math.inf, None, None, False, 0)
    lb = np.maximum(compiled.lb, -box_radius)
    ub = np.minimum(compiled.ub, box_radius)
    rows, rhs, eq_rows, eq_rhs = compiled.stacked
    if extra_eq is not None:
        eq_rows = compiled.eq_rows + list(extra_eq[0])
        eq_rhs = compiled.eq_rhs + list(extra_eq[1])
    master = simplex.Master(objective, rows, rhs, eq_rows, eq_rhs, lb, ub)

    rounds = 0
    res = None
    z = None
    for rounds in range(1, max_rounds + 1):
        res = master.solve()
        if res.status == "infeasible":
            return OptResult("infeasible", -math.inf, None, None, False, rounds)
        if res.status != "optimal":
            return OptResult("stalled", math.nan, None, None, False, rounds)
        z = res.x
        if res.value <= _floor and not _box_contact(z, lb, ub, compiled, box_radius):
            return OptResult("dominated", float(res.value), z, None, False, rounds)
        limit = CUT_TOL if _gap is None else z[_gap] + CUT_TOL
        violated = False
        new_cuts = []
        for atom, pre in compiled.nonlinear:
            viol, cuts = _atom_violation_and_cuts(atom, pre, z, want_cut=True)
            if viol > limit:
                violated = True
                new_cuts.extend(cuts)
        if not violated:
            break
        if not new_cuts:
            return OptResult("stalled", math.nan, z, None, False, rounds)
        G_new = np.array([vec for vec, _ in new_cuts])
        if _gap is not None:
            G_new[:, _gap] -= 1.0
        master.add_rows(G_new, np.array([r for _, r in new_cuts]))
    else:
        return OptResult("stalled", math.nan, z, None, False, rounds)

    env = dict(zip(compiled.names, z.tolist()))
    at_box = _box_contact(z, lb, ub, compiled, box_radius)
    return OptResult("optimal", float(res.value), z, env, at_box, rounds)


def _box_contact(z, lb, ub, compiled: _Compiled, box_radius: float) -> bool:
    """Whether z touches the artificial box on a variable only it bounds."""
    near = 1e-6 * box_radius
    at_box = (((ub - z) <= near) & (compiled.ub > box_radius)) | (
        ((z - lb) <= near) & (compiled.lb < -box_radius)
    )
    return bool(at_box.any())


def feasibility_gap(atoms, variables) -> tuple[float, dict[str, float] | None]:
    """Smallest uniform slack s >= 0 making all atoms hold, with a witness env.

    maximize_over_atoms minimizes s with every row and cut relaxed by s, in
    at most 200 rounds; if it stops short, the gap is the worst true
    violation at its last master optimum.  Returns (inf, None) when even the
    linear outer approximation is empty.
    """
    boxed = [(v[0], max(v[1], -BOX_RADIUS), min(v[2], BOX_RADIUS)) for v in variables]
    gidx = len(boxed)
    # only the nonlinear atoms' separation data; their own rows are not used
    cp = compile_atoms(
        [a for a in atoms if not isinstance(a, Linear)], boxed + [("_gap", 0.0, 1e6)]
    )
    rows, rhs = [], []
    for atom in (a for a in atoms if isinstance(a, Linear)):
        vec, const = _aff_vec(atom.expr, cp.index, gidx + 1)
        for sgn in (1.0, -1.0) if atom.relation == "eq" else (1.0,):
            rows.append(sgn * vec)
            rows[-1][gidx] = -1.0
            rhs.append(-sgn * const)
    cp = replace(cp, rows=rows, rhs=rhs, trivially_infeasible=False)
    obj = np.zeros(gidx + 1)
    obj[gidx] = -1.0  # maximize -gap
    # the box is already in the bounds; the gap keeps its own upper bound
    res = maximize_over_atoms(cp, obj, box_radius=math.inf, max_rounds=200, _gap=gidx)
    if res.point is None:
        return math.inf, None
    z = res.point
    env = {nm: float(z[i]) for i, nm in enumerate(cp.names[:gidx])}
    if res.status == "optimal":
        return float(max(z[gidx], 0.0)), env
    worst_true = max(
        (_atom_violation_and_cuts(a, p, z, want_cut=False)[0] for a, p in cp.nonlinear),
        default=0.0,
    )
    return float(max(z[gidx], worst_true, 0.0)), env


# ---------------------------------------------------------------------------
# oracle backends used by sets.py
# ---------------------------------------------------------------------------


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _template(S: SetExpr) -> _Compiled:
    """S's epigraph template at tau = 1 (point w first, then auxiliaries),
    compiled once per set.  Shared, so never mutated."""
    w = tuple(Aff.var(f"w{j}") for j in range(S.dim))
    atoms, aux = gauge_mod.lower_epigraph(
        S, w, Aff.const_of(1.0), gauge_mod.NameGen(), with_tau_row=False
    )
    names = [f"w{j}" for j in range(S.dim)] + list(aux)
    return compile_atoms(atoms, [(nm, -math.inf, math.inf) for nm in names])


class _SetOptimum(NamedTuple):
    status: str  # optimal | infeasible | dominated
    value: float
    box_active: bool
    point: np.ndarray | None  # the w part, read-only


def _maximize_over_set(
    S: SetExpr, u, what: str, floor: float = -math.inf
) -> _SetOptimum:
    """Maximize u.w over S's template; ArithmeticError when it stalls.  Only
    exact optima (no floor) are memoized."""
    key = np.asarray(u, dtype=float).tobytes()
    try:
        if floor == -math.inf:
            return _set_optimum(S, key)
        return _optimize_set(S, key, floor)
    except ArithmeticError:
        raise ArithmeticError(f"{what} stalled") from None


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _set_optimum(S: SetExpr, u: bytes) -> _SetOptimum:
    """The template optimization along u (float64 bytes), kept so that the
    support and exposed-point fallbacks along one direction share one cut
    loop.  A stall raises and is not kept."""
    return _optimize_set(S, u, -math.inf)


def _optimize_set(S: SetExpr, u: bytes, floor: float) -> _SetOptimum:
    """One cut loop over S's template along u, stopped early at ``floor``."""
    compiled = _template(S)
    obj = np.zeros(len(compiled.names))
    obj[: S.dim] = np.frombuffer(u)
    res = maximize_over_atoms(compiled, obj, _floor=floor)
    if res.status == "stalled":
        raise ArithmeticError("stalled")
    point = res.point
    if point is not None:
        point = point[: S.dim].copy()
        point.setflags(write=False)  # shared by every caller along u
    return _SetOptimum(res.status, res.value, res.box_active, point)


def support_via_optimizer(S: SetExpr, u: np.ndarray, floor: float = -math.inf) -> float:
    """The support along u; -inf (the identity of a max) instead when the cut
    loop shows it cannot exceed ``floor``."""
    res = _maximize_over_set(S, u, "support optimization", floor)
    if res.status == "infeasible":
        raise sets.EmptySet("support of an empty set")
    if res.status == "dominated":
        return -math.inf
    return math.inf if res.box_active else res.value


def exposed_point_via_optimizer(S: SetExpr, u: np.ndarray) -> np.ndarray:
    res = _maximize_over_set(S, u, "exposed point optimization")
    if res.status == "infeasible":
        raise sets.EmptySet("exposed point of an empty set")
    if res.box_active:
        raise sets.UnboundedDirection("no exposed point along an unbounded direction")
    return res.point.copy()


def find_point_via_optimizer(S: SetExpr):
    # A zero objective would make every outer-approximation vertex optimal
    # and the cut loop would have to carve the whole box; a fixed direction
    # anchors the iterates so the cuts localize.
    res = _maximize_over_set(S, np.full(S.dim, -1.0 / math.sqrt(S.dim)), "feasibility probe")
    if res.status == "infeasible":
        return None
    return res.point.copy()


def _template_member(S: SetExpr, x: np.ndarray, tau: float, tol: float) -> bool:
    """Whether x lies in tau * S (tau = 0: the recession cone), by the
    feasibility gap of S's epigraph template at the fixed point (x, tau)."""
    point = tuple(Aff.const_of(float(v)) for v in x)
    atoms, aux = gauge_mod.lower_epigraph(
        S, point, Aff.const_of(tau), gauge_mod.NameGen(), with_tau_row=False
    )
    if not aux:
        return gauge_mod.block_feasible(atoms, {}, tol)
    gap, _ = feasibility_gap(atoms, [(nm, -math.inf, math.inf) for nm in aux])
    return gap <= tol


def gauge_via_template(S: SetExpr, w: np.ndarray) -> float:
    """Least tau with w in tau * S, minimized over S's epigraph template with
    tau free.  It is homogeneous: w is scaled to unit max norm, and by 1e-3
    more when no optimum fits in the artificial box, so gauges up to 1e6 are
    found, as far as RAY_CAP reaches.  +inf when no tau in reach fits;
    ArithmeticError when the cut loop stalls or still ends on the box."""
    s = float(np.max(np.abs(w)))
    for scale in (s, s * BOX_RADIUS):
        point = tuple(Aff.const_of(float(v / scale)) for v in w)
        atoms, aux = gauge_mod.lower_epigraph(S, point, Aff.var("tau"), gauge_mod.NameGen())
        names = [(nm, -math.inf, math.inf) for nm in ["tau"] + list(aux)]
        res = maximize_over_atoms(compile_atoms(atoms, names), -np.eye(len(names))[0])
        if res.status == "stalled":
            raise ArithmeticError("template gauge stalled")
        if res.status == "optimal" and not res.box_active:
            return max(-res.value, 0.0) * scale
    if res.status == "infeasible":
        return math.inf
    raise ArithmeticError("template gauge reached the artificial box")


def member_via_feasibility(S: SetExpr, x: np.ndarray, tol: float) -> bool:
    return _template_member(S, x, 1.0, tol)


def recession_member_via_template(S: SetExpr, d: np.ndarray, tol: float) -> bool:
    return _template_member(S, d, 0.0, tol)


# ---------------------------------------------------------------------------
# direction sampling
# ---------------------------------------------------------------------------


def sample_directions(
    dim: int, count: int, seed: int, axes_first: bool = False
) -> np.ndarray:
    """Deterministic unit directions: an angle grid in the plane, a Fibonacci
    sphere in dimension three, normalized Gaussians beyond.  With axes_first
    the signed coordinate axes occupy the first 2*dim slots of the budget."""
    rng = np.random.default_rng(seed)
    out = []
    if axes_first:
        for j in range(dim):
            for sgn in (1.0, -1.0):
                e = np.zeros(dim)
                e[j] = sgn
                out.append(e)
    remaining = count - len(out)
    if remaining <= 0:
        return np.array(out[:count])
    if dim == 1:
        vals = [np.array([1.0 if i % 2 == 0 else -1.0]) for i in range(remaining)]
        out.extend(vals)
    elif dim == 2:
        offset = rng.uniform(0.0, 2.0 * math.pi / max(remaining, 1))
        for i in range(remaining):
            th = offset + 2.0 * math.pi * i / remaining
            out.append(np.array([math.cos(th), math.sin(th)]))
    elif dim == 3:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        golden = math.pi * (3.0 - math.sqrt(5.0))
        for i in range(remaining):
            zc = 1.0 - 2.0 * (i + 0.5) / remaining
            rad = math.sqrt(max(1.0 - zc * zc, 0.0))
            th = phase + golden * i
            out.append(np.array([rad * math.cos(th), rad * math.sin(th), zc]))
    else:
        while len(out) < count:
            v = rng.normal(size=dim)
            nm = float(np.linalg.norm(v))
            if nm > 1e-9:
                out.append(v / nm)
    return np.array(out[:count])


# ---------------------------------------------------------------------------
# vertex enumeration (double description)
# ---------------------------------------------------------------------------


@dataclass
class VertexSet:
    vertices: np.ndarray
    rays: np.ndarray
    lineality: np.ndarray


def enumerate_vertices(G, h, A_eq=None, b_eq=None) -> VertexSet:
    """Vertices and extreme rays of {x : G x <= h, A_eq x = b_eq}.

    Double description over the homogenization cone, with combinatorial
    adjacency.  Capped at VERTEX_ROW_CAP rows and VERTEX_DIM_CAP dimensions.
    """
    tol = VERTEX_TOL
    G = np.asarray(G, dtype=float) if G is not None and len(G) else np.zeros((0, 0))
    d = G.shape[1] if G.size else (
        np.asarray(A_eq, dtype=float).shape[1] if A_eq is not None else 0
    )
    rows = []
    if G.size:
        hv = np.asarray(h, dtype=float).reshape(-1)
        for i in range(G.shape[0]):
            rows.append(np.concatenate([G[i], [-hv[i]]]))
    if A_eq is not None and len(A_eq):
        Am = np.asarray(A_eq, dtype=float).reshape(len(A_eq), d)
        bv = np.asarray(b_eq, dtype=float).reshape(-1)
        for i in range(Am.shape[0]):
            rows.append(np.concatenate([Am[i], [-bv[i]]]))
            rows.append(np.concatenate([-Am[i], [bv[i]]]))
    if len(rows) > VERTEX_ROW_CAP:
        raise ExactModeUnavailable(f"vertex enumeration capped at {VERTEX_ROW_CAP} rows")
    if d > VERTEX_DIM_CAP:
        raise ExactModeUnavailable(f"vertex enumeration capped at dim {VERTEX_DIM_CAP}")

    trow = np.zeros(d + 1)
    trow[d] = -1.0  # -t <= 0 first
    allrows = [trow] + rows
    allrows = [r / max(float(np.linalg.norm(r)), 1e-300) for r in allrows]

    lineality = [np.eye(d + 1)[j] for j in range(d + 1)]
    rays: list[np.ndarray] = []
    masks: list[int] = []

    for ridx, a in enumerate(allrows):
        bit = 1 << ridx
        if lineality:
            vals = [float(a @ l) for l in lineality]
            k = int(np.argmax(np.abs(vals)))
            if abs(vals[k]) > tol:
                l0, v0 = lineality[k], vals[k]
                lineality = [
                    l - (float(a @ l) / v0) * l0
                    for i, l in enumerate(lineality)
                    if i != k
                ]
                rays = [r - (float(a @ r) / v0) * l0 for r in rays]
                r0 = l0 if v0 < 0.0 else -l0
                # old rays now sit on this row; the fresh ray is strictly inside
                masks = [m | bit for m in masks]
                rays.append(r0 / max(float(np.linalg.norm(r0)), 1e-300))
                masks.append(bit - 1)
                continue
        vals = [float(a @ r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > tol]
        neg = [i for i, v in enumerate(vals) if v < -tol]
        zero = [i for i, v in enumerate(vals) if -tol <= v <= tol]
        new_rays: list[np.ndarray] = []
        new_masks: list[int] = []
        for i in zero:
            new_rays.append(rays[i])
            new_masks.append(masks[i] | bit)
        for i in neg:
            new_rays.append(rays[i])
            new_masks.append(masks[i])
        for p in pos:
            for q in neg:
                common = masks[p] & masks[q]
                adjacent = True
                for w in range(len(rays)):
                    if w in (p, q):
                        continue
                    if (common & masks[w]) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                r = vals[p] * rays[q] - vals[q] * rays[p]
                nr = float(np.linalg.norm(r))
                if nr <= tol:
                    continue
                new_rays.append(r / nr)
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks

    verts, ray_out = [], []
    for r in rays:
        t = r[d]
        if t > tol:
            verts.append(r[:d] / t)
        elif abs(t) <= tol and float(np.linalg.norm(r[:d])) > tol:
            ray_out.append(r[:d] / float(np.linalg.norm(r[:d])))

    def dedup(points):
        seen = {}
        for p in points:
            key = tuple(np.round(p / 1e-9) * 1e-9)
            if key not in seen:
                seen[key] = p
        return np.array(list(seen.values())) if seen else np.zeros((0, d))

    lin = np.array([l[:d] for l in lineality if float(np.linalg.norm(l[:d])) > tol])
    if lin.size == 0:
        lin = np.zeros((0, d))
    return VertexSet(dedup(verts), dedup(ray_out), lin)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    check: str
    verdict: str  # pass | fail | not-refuted
    tolerance: float
    seed: int | None = None
    directions: int | None = None
    samples: int = 0
    margin: float = 0.0
    witnesses: tuple = ()
    notes: tuple = ()
    elapsed_s: float = 0.0

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc.update(
            witnesses=[dict(w) for w in self.witnesses],
            notes=list(self.notes),
            elapsed_s=round(self.elapsed_s, 3),
        )
        return doc


def _vec_list(v) -> list[float]:
    return [float(x) for x in np.asarray(v).reshape(-1)]


# ---------------------------------------------------------------------------
# formulation access
# ---------------------------------------------------------------------------


def compile_relaxation(form) -> _Compiled:
    """Compile a formulation's atoms with binaries relaxed to [0, 1]."""
    variables = []
    for v in form.variables:
        lo, hi = v.lb, v.ub
        if v.kind == "binary":
            lo, hi = max(lo, 0.0), min(hi, 1.0)
        variables.append((v.name, lo, hi))
    return compile_atoms(list(form.atoms), variables)


def _maximize_named(compiled: _Compiled, objective, fixed=None) -> OptResult:
    """maximize_over_atoms with the objective and the variables held fixed
    given by name."""
    obj = np.zeros(len(compiled.names))
    for nm, c in objective.items():
        obj[compiled.index[nm]] += c
    eq = None
    if fixed:
        eye = np.eye(len(compiled.names))
        eq = ([eye[compiled.index[nm]] for nm in fixed], list(fixed.values()))
    return maximize_over_atoms(compiled, obj, extra_eq=eq)


def relaxation_max_violation(form, env: dict[str, float]) -> float:
    """Worst atom violation of a named point, bounds included."""
    worst = 0.0
    for v in form.variables:
        val = env[v.name]
        if math.isfinite(v.lb):
            worst = max(worst, v.lb - val)
        if math.isfinite(v.ub):
            worst = max(worst, val - v.ub)
    for atom in form.atoms:
        worst = max(worst, gauge_mod.atom_violation(atom, env))
    return worst


# ---------------------------------------------------------------------------
# the sampled-check engine
# ---------------------------------------------------------------------------


def _eval_chunk(evaluate, args, dirs, idx0=0):
    """The evaluator's result for each of a run of samples."""
    return [evaluate(args, idx0 + off, d) for off, d in enumerate(dirs)]


def _fork_chunk(evaluate, args, dirs, idx0):
    """Fork a child that evaluates one chunk, pickles ("ok", results) or
    ("err", exception) into a pipe and leaves by os._exit; the child's pid
    and the pipe's read end, whose write end is closed here."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    status = 1
    try:  # child: never returns
        os.close(r)
        try:
            msg = pickle.dumps(("ok", _eval_chunk(evaluate, args, dirs, idx0)))
        except Exception as exc:
            msg = pickle.dumps(("err", exc))
        with open(w, "wb") as fh:
            fh.write(msg)
        status = 0
    finally:
        os._exit(status)


def _forked_chunks(evaluate, args, chunks):
    """Each (first sample, directions) chunk after the first in a child
    forked before this process evaluates the first; the results in sample
    order.  A failure here or in a child kills and reaps the children still
    running before it is raised; a child that ends without a result raises
    DfcError naming its chunk."""
    kids, reaped = [], 0  # (pid, read end) per chunk after the first
    try:
        for idx0, part in chunks[1:]:
            kids.append(_fork_chunk(evaluate, args, part, idx0))
        results = _eval_chunk(evaluate, args, chunks[0][1])
        for (pid, fh), (idx0, part) in zip(kids, chunks[1:]):
            data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            try:
                kind, value = pickle.loads(data)
            except Exception:
                how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise sets.DfcError(
                    f"the worker of chunk {reaped} (samples {idx0}-{idx0 + len(part) - 1}) "
                    f"ended without a result ({how})"
                ) from None
            if kind == "err":
                raise value
            results += value
        return results
    finally:
        for pid, _ in kids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, fh in kids:
            fh.close()


def _sampled_check(check, dirs, evaluate, args, tol, seed, jobs, notes=()) -> AnalysisReport:
    """The sampled-check engine.  ``evaluate(args, idx, d)`` judges sample
    idx along direction d: None when it could not be evaluated, else its
    margin term and its witnesses as (sort key, witness) pairs.  At jobs > 1
    the samples fall into contiguous chunks: this process evaluates the
    first and a forked child each of the others (all in this process where
    os.fork is missing), and the results come back in sample order.  The
    margin is the largest term, at least 0; the witnesses are sorted by key
    and cut to 8, and any witness fails the check."""
    t0 = time.perf_counter()
    size = max(1, (len(dirs) + jobs - 1) // jobs)
    chunks = [(i, dirs[i : i + size]) for i in range(0, len(dirs), size)]
    if len(chunks) > 1 and hasattr(os, "fork"):
        results = _forked_chunks(evaluate, args, chunks)
    else:
        results = _eval_chunk(evaluate, args, dirs)
    done = [r for r in results if r is not None]
    stalled = len(results) - len(done)
    if stalled:
        notes += (f"{stalled} of {len(results)} samples not evaluated (optimizer stalled)",)
    found = sorted((kw for _, kws in done for kw in kws), key=lambda kw: kw[0])
    return AnalysisReport(
        check=check,
        verdict="fail" if found else "inconclusive" if stalled else "not-refuted",
        tolerance=tol,
        seed=seed,
        directions=len(dirs),
        samples=len(done),
        margin=float(max([0.0] + [term for term, _ in done])),
        witnesses=tuple(w for _, w in found[:8]),
        notes=notes,
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# sampled support comparisons (sharp / ideal / minkowski)
# ---------------------------------------------------------------------------


def _union_support(form, d: np.ndarray) -> float:
    u = d[: len(form.x_names)]
    return _max_support(form.sets, u, [0.0] * len(form.sets))


def _embedded_support(form, d: np.ndarray) -> float:
    n = len(form.x_names)
    u, v = d[:n], d[n:]
    return _max_support(form.sets, u, [float(c) for c in v])


def _max_support(pieces, u: np.ndarray, shifts: list[float]) -> float:
    """max_i (h_i(u) + shifts[i]) as a running max: closed-form pieces
    first, then the rest in order, each with the running max as its floor,
    so a cut loop stops as soon as its piece cannot win.  Exact: a piece
    stopped early comes back as -inf and leaves the max as it is."""
    order = sorted(range(len(pieces)), key=lambda i: not sets.has_closed_form_support(pieces[i]))
    best = -math.inf
    for i in order:
        if best == math.inf:
            break
        floor = sets.shifted_floor(best, shifts[i])
        best = max(best, sets.support(pieces[i], u, floor) + shifts[i])
    return best


def _average_support(form, d: np.ndarray) -> float:
    return sum(sets.support(S, d) for S in form.sets) / len(form.y_names)


def _relaxation_sample(args, idx, d):
    """The compiled relaxation's maximum along d (x part, then y part;
    ``fixed`` variables held) must not exceed ``bound(form, d)`` beyond tol;
    ``keys`` name the two values.  A stalled relaxation leaves the sample
    out; a stalled bound raises."""
    compiled, form, bound, keys, fixed, tol = args
    obj = {nm: float(c) for nm, c in zip((*form.x_names, *form.y_names), d)}
    res = _maximize_named(compiled, obj, fixed)
    relax = math.inf if res.box_active else res.value
    if res.status == "infeasible":
        relax = -math.inf
    bnd = bound(form, d)
    if math.isnan(relax):
        return None
    if bnd == math.inf:
        return 0.0, []  # relaxation cannot exceed an infinite bound
    excess = relax - bnd
    term = excess if math.isfinite(excess) else 0.0
    if not excess > tol * (1.0 + abs(bnd) if math.isfinite(bnd) else 1.0):
        return term, []
    witness = {
        "sample": idx, "direction": _vec_list(d), keys[0]: relax, keys[1]: bnd, "excess": excess
    }
    return term, [((-excess, idx), witness)]


def _relaxation_check(check, form, dirs, bound, keys, tol, seed, jobs, fixed=None):
    args = (compile_relaxation(form), form, bound, keys, fixed, tol)
    return _sampled_check(check, dirs, _relaxation_sample, args, tol, seed, jobs)


def check_sharp(
    form,
    count: int = 500,
    seed: int = DEFAULT_SEED,
    tol: float = sets.SUPPORT_EQ_TOL,
    jobs: int = 1,
) -> AnalysisReport:
    """Projected support equality along sampled x-space directions."""
    dirs = sample_directions(len(form.x_names), count, seed)
    keys = ("relaxation_value", "union_support")
    return _relaxation_check("sharp", form, dirs, _union_support, keys, tol, seed, jobs)


def _ideal_exact(form, tol: float) -> AnalysisReport:
    t0 = time.perf_counter()
    for atom in form.atoms:
        if not isinstance(atom, Linear):
            raise ExactModeUnavailable("exact mode needs a purely linear formulation")
    compiled = compile_relaxation(form)
    G = list(compiled.rows)
    h = list(compiled.rhs)
    for i, nm in enumerate(compiled.names):
        e = np.zeros(len(compiled.names))
        e[i] = 1.0
        if math.isfinite(compiled.ub[i]):
            G.append(e.copy())
            h.append(float(compiled.ub[i]))
        if math.isfinite(compiled.lb[i]):
            G.append(-e)
            h.append(-float(compiled.lb[i]))
    vs = enumerate_vertices(G, h, compiled.eq_rows, compiled.eq_rhs)
    y_idx = [compiled.index[nm] for nm in form.y_names]
    witnesses = []
    margin = 0.0
    for v in vs.vertices:
        frac = max(abs(v[i] - round(v[i])) for i in y_idx) if y_idx else 0.0
        margin = max(margin, frac)
        if frac > tol:
            witnesses.append(
                {
                    "vertex": _vec_list(v),
                    "variables": list(compiled.names),
                    "fractionality": float(frac),
                }
            )
    witnesses.sort(key=lambda w: -w["fractionality"])
    return AnalysisReport(
        check="ideal",
        verdict="fail" if witnesses else "pass",
        tolerance=tol,
        samples=int(vs.vertices.shape[0]),
        margin=float(margin),
        witnesses=tuple(witnesses[:8]),
        notes=("exact vertex enumeration",),
        elapsed_s=time.perf_counter() - t0,
    )


def check_ideal(
    form,
    count: int = 500,
    seed: int = DEFAULT_SEED,
    tol: float = sets.SUPPORT_EQ_TOL,
    mode: str = "auto",
    jobs: int = 1,
) -> AnalysisReport:
    """Joint (x, y) support equality against the embedded union bound.

    Purely linear formulations of modest size are settled exactly through
    vertex integrality; otherwise sampled directions refute or fail to
    refute.  Roughly forty percent of samples keep the y-part at zero, where
    projected gaps surface first.
    """
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("auto", "exact"):
        try:
            return _ideal_exact(form, tol=1e-7 if tol < 1e-7 else tol)
        except ExactModeUnavailable:
            if mode == "exact":
                raise
    n = len(form.x_names)
    dirs = sample_directions(n + len(form.y_names), count, seed)
    for i in range(dirs.shape[0]):
        if i % 5 < 2:
            u = dirs[i, :n]
            nu = float(np.linalg.norm(u))
            if nu > 1e-9:
                dirs[i, n:] = 0.0
                dirs[i, :n] = u / nu
    keys = ("relaxation_value", "embedded_support")
    return _relaxation_check("ideal", form, dirs, _embedded_support, keys, tol, seed, jobs)


def check_minkowski_ideal(
    form,
    count: int = 200,
    seed: int = DEFAULT_SEED,
    tol: float = sets.SUPPORT_EQ_TOL,
    jobs: int = 1,
) -> AnalysisReport:
    """Compare the equal-weights slice of the relaxation against the scaled
    Minkowski average of the disjunct supports."""
    weights = {nm: 1.0 / len(form.y_names) for nm in form.y_names}
    dirs = sample_directions(len(form.x_names), count, seed)
    keys = ("slice_value", "average_support")
    return _relaxation_check(
        "minkowski-slice", form, dirs, _average_support, keys, tol, seed, jobs, weights
    )


# ---------------------------------------------------------------------------
# family cover conditions
# ---------------------------------------------------------------------------


def check_par_conditions(
    disjuncts,
    covers,
    count: int = 360,
    seed: int = DEFAULT_SEED,
    tol: float = sets.SUPPORT_EQ_TOL,
    jobs: int = 1,
) -> AnalysisReport:
    """Cover-family conditions behind the combined homothety formulation.

    Every disjunct must sit inside each of its covering sets, and along every
    sampled direction some cover family must reproduce all disjunct support
    values at once.  A sample whose set oracle stalled is not counted.
    """
    dirs = sample_directions(disjuncts[0].dim, count, seed)
    args = (disjuncts, covers, tol)
    return _sampled_check("cover-conditions", dirs, _cover_sample, args, tol, seed, jobs)


def _cover_sample(args, idx: int, u: np.ndarray):
    """Membership witnesses of sample idx, ordered ahead of every
    support-match witness, and its best cover gap as the margin term."""
    disjuncts, covers, tol = args
    try:
        found = [((0, idx), w) for w in _membership_witnesses(disjuncts, covers, idx, u)]
        gap = _best_cover_gap(disjuncts, covers, u)
    except ArithmeticError:
        return None
    if gap > tol:
        witness = {"condition": "support-match", "sample": idx, "direction": _vec_list(u)}
        witness["best_gap"] = float(gap) if math.isfinite(gap) else "inf"
        found.append(((1, idx), witness))
    return (gap if math.isfinite(gap) else 0.0), found


def _membership_witnesses(disjuncts, covers, idx: int, u: np.ndarray) -> list[dict]:
    """Covering sets that miss a disjunct's exposed point along u."""
    out = []
    for i, C in enumerate(disjuncts):
        try:
            p = sets.exposed_point(C, u)
        except sets.UnboundedDirection:
            continue
        for j, fam in enumerate(covers):
            if not sets.contains(fam[i], p, 1e-6):
                out.append(
                    {
                        "condition": "membership",
                        "sample": idx,
                        "direction": _vec_list(u),
                        "disjunct": i,
                        "family": j,
                        "point": _vec_list(p),
                    }
                )
    return out


def _best_cover_gap(disjuncts, covers, u: np.ndarray) -> float:
    """Smallest, over cover families, of the worst relative support gap."""
    base_sup = [sets.support(C, u) for C in disjuncts]
    best_gap = math.inf
    for fam in covers:
        gap = 0.0
        for i in range(len(disjuncts)):
            s0, s1 = base_sup[i], sets.support(fam[i], u)
            if math.isinf(s0) and math.isinf(s1):
                continue
            if math.isinf(s0) or math.isinf(s1):
                gap = math.inf
                break
            gap = max(gap, abs(s1 - s0) / (1.0 + abs(s0)))
        best_gap = min(best_gap, gap)
    return best_gap


# ---------------------------------------------------------------------------
# shared-basis condition
# ---------------------------------------------------------------------------


def _polyhedron_max(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    n = A.shape[1]
    lb = np.full(n, -BOX_RADIUS)
    ub = np.full(n, BOX_RADIUS)
    res = simplex.solve_lp(c, A, b, None, None, lb, ub)
    if res.status == "infeasible":
        return -math.inf
    if res.status != "optimal":
        raise ArithmeticError("basis condition subproblem stalled")
    at_box = np.any(
        (np.abs(res.x - ub) <= 1e-6 * BOX_RADIUS)
        | (np.abs(res.x - lb) <= 1e-6 * BOX_RADIUS)
    )
    return math.inf if at_box else float(res.value)


def check_bbj_condition(
    A,
    b_list,
    count: int = 100,
    seed: int = DEFAULT_SEED,
    tol: float = sets.SUPPORT_EQ_TOL,
    jobs: int = 1,
) -> AnalysisReport:
    """For sampled objectives, some full-rank row basis must reproduce every
    disjunct's optimum from its own subsystem alone.  A sample whose LP
    stalled is not counted."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    rank = int(np.linalg.matrix_rank(A, tol=1e-9))
    if math.comb(m, rank) > BASIS_CAP:
        raise ValueError(f"basis enumeration capped at {BASIS_CAP} candidates")
    bases = [
        B
        for B in itertools.combinations(range(m), rank)
        if np.linalg.matrix_rank(A[list(B)], tol=1e-9) == rank
    ]
    b_arr = [np.asarray(b, dtype=float).reshape(-1) for b in b_list]
    dirs = sample_directions(n, count, seed, axes_first=True)
    notes = (f"bases considered: {len(bases)}",)
    args = (A, b_arr, bases, tol)
    return _sampled_check("basis-condition", dirs, _basis_sample, args, tol, seed, jobs, notes)


def _basis_sample(args, idx: int, c: np.ndarray):
    """A witness when no basis reproduces every disjunct's optimum along c,
    with the smallest worst relative gap as the margin term."""
    A, b_arr, bases, tol = args
    try:
        matched, best = _basis_match(A, b_arr, bases, c, tol)
    except ArithmeticError:
        return None
    if matched:
        return 0.0, []
    witness = {"sample": idx, "direction": _vec_list(c)}
    witness["best_gap"] = float(best) if math.isfinite(best) else "inf"
    return (best if math.isfinite(best) else 0.0), [(idx, witness)]


def _basis_match(A, b_arr, bases, c, tol) -> tuple[bool, float]:
    """Whether some basis reproduces every disjunct's optimum along c, and
    the smallest worst relative gap over the bases tried."""
    full = [_polyhedron_max(A, b, c) for b in b_arr]
    best = math.inf
    for B in bases:
        rowsB = list(B)
        worst = 0.0
        for i, b in enumerate(b_arr):
            sub = _polyhedron_max(A[rowsB], b[rowsB], c)
            if math.isinf(full[i]) and math.isinf(sub):
                continue
            if math.isinf(full[i]) != math.isinf(sub):
                worst = math.inf
                break
            worst = max(worst, abs(sub - full[i]) / (1.0 + abs(full[i])))
        best = min(best, worst)
        if worst <= tol:
            return True, best
    return False, best
