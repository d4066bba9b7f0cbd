"""Empirical certification of formulation strength.

One cutting-plane loop, maximize_over_atoms, does every optimization: linear
atoms seed one simplex.Master per optimization, nonlinear atoms (cone rows,
perspectives, gauge bounds) append supporting cuts at master optima, and each
round resumes from the last optimal basis, until the worst violation drops
below tolerance, or it stalls: no new cut separates the master optimum.
compile_atoms compiles each nonlinear atom to one block (atom, M, c) whose
rows M z + c are its arguments (gauge.atom_exprs), bound last; separation
works on v = M z + c alone, and its cuts g.v <= off enter the master as rows
(g M) z <= off - g.c.
feasibility_gap runs it with every row relaxed by a uniform slack.  All
optimization happens inside an explicit box (radius 1e3) on variables without
finite bounds; a solution pressed against that box is flagged and read as
"unbounded" by the support-function callers.  The optimizer fallbacks of
sets.py share one compiled template per set, its homogenized epigraph (w in
tau S, tau >= 0), kept in a bounded cache, and each fixes bounds on it:
tau = 1 for supports, w for a gauge with no closed rule (gauge_via_template,
its normal read off the loop's duals), (w, tau) for membership and
recession.  A bounded memo of exact optima by direction makes the support
and exposed point along one direction one cut loop.

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
basis evaluator (bbj) test their conditions, bbj from one table of row
bases and no LP.  An evaluator gives a sample's margin term and witnesses;
the engine alone splits the samples between this process and at most
jobs - 1 forked children (in-process where os.fork is missing; a child that
dies without a result is a DfcError), counts the samples not evaluated,
takes the margin, orders and cuts the witnesses and gives the verdict.
Sampled checks return "not-refuted" rather than "pass"; only exact modes may
say "pass".  A sample whose optimizer stalled is not counted, and leaves the
verdict "inconclusive" unless another fails.
Every report records the seed, direction count, tolerance and reproducible
witnesses, and multi-process runs merge results by sample index so the
output is identical at any job count.  Every seeded direction in the
package, the builder, family and cone-sum probes included, comes from
sample_directions, which draws from a stdlib random.Random.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import pickle
import random
import signal
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

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
BASIS_RANK_TOL = 1e-9  # a row basis's pivot floor, relative to max |A_jk|
BASIS_FEAS_TOL = 1e-9  # a basic solution's row excess, relative to |A||x| + |b|
BASIS_DUAL_TOL = 1e-9  # a multiplier's deficit lam_j |a_j|, relative to |c|
DEFAULT_SEED = 20240
TEMPLATE_CACHE_SIZE = 256  # compiled set templates kept per process


class ExactModeUnavailable(sets.DfcError):
    """The exact ideal check cannot run: the formulation is not purely
    linear, or its vertex enumeration is over the caps."""


class FormulationShapeError(sets.DfcError):
    """A formulation record is malformed: it needs one provenance label per
    atom and unique variable names, and a sampled sharp, ideal or minkowski
    check needs one y variable per set, since its bounds pair y_i with set i."""


# ---------------------------------------------------------------------------
# atom compilation
# ---------------------------------------------------------------------------


def _aff_rows(exprs, index: dict[str, int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine expressions as M z + c, one row of M and entry of c each."""
    M = np.zeros((len(exprs), n))
    for r, e in enumerate(exprs):
        for name, coef in e.terms:
            M[r, index[name]] += coef
    return M, np.array([e.const for e in exprs], dtype=float)


@dataclass
class _Compiled:
    """Rows ``rows`` z <= ``rhs`` and ``eq_rows`` z = ``eq_rhs`` as arrays,
    which masters only read, so one compile serves every direction."""

    names: list[str]
    index: dict[str, int]
    lb: np.ndarray
    ub: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    eq_rows: np.ndarray
    eq_rhs: np.ndarray
    nonlinear: list  # (atom, M, c): the atom's arguments are M z + c, bound last
    trivially_infeasible: bool = False


def _stack(rows: list, n: int) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(len(rows), n)


def compile_atoms(atoms, variables) -> _Compiled:
    """variables: iterable of (name, lb, ub) triples, in a fixed order."""
    names = [v[0] for v in variables]
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    lb = np.array([v[1] for v in variables], dtype=float) if n else np.zeros(0)
    ub = np.array([v[2] for v in variables], dtype=float) if n else np.zeros(0)
    rows, rhs, eq_rows, eq_rhs, nonlinear = [], [], [], [], []
    infeasible = False

    def add_row(vec, const):
        # vec.z + const <= 0
        nonlocal infeasible
        if not np.any(vec):
            if const > 1e-9:
                infeasible = True
            return
        rows.append(vec)
        rhs.append(-const)

    for atom in atoms:
        M, c = _aff_rows(gauge_mod.atom_exprs(atom), index, n)
        if isinstance(atom, Linear):
            if atom.relation != "eq":
                add_row(M[0], c[0])
            elif np.any(M[0]):
                eq_rows.append(M[0])
                eq_rhs.append(-c[0])
            elif abs(c[0]) > 1e-9:
                infeasible = True
            continue
        nonlinear.append((atom, M, c))
        add_row(-M[-1], -c[-1])  # the bound (a perspective's scale) is nonnegative
        if isinstance(atom, Perspective):
            for a, k in atom.fn.persp_valid_rows():
                g = np.append(a, -k)  # a.x <= k t
                add_row(g @ M, g @ c)
    return _Compiled(
        names, index, lb, ub, _stack(rows, n), np.array(rhs, dtype=float),
        _stack(eq_rows, n), np.array(eq_rhs, dtype=float), nonlinear, infeasible,
    )


# ---------------------------------------------------------------------------
# cutting-plane optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptResult:
    # optimal | infeasible | stalled (no cut moves the master, or the round
    # cap) | dominated (LP value at the floor; support_via_optimizer: -inf)
    status: str
    value: float
    point: np.ndarray | None
    box_active: bool
    rounds: int
    duals: np.ndarray | None = None


def _atom_violation_and_cuts(atom, v: np.ndarray, want_cut: bool):
    """Return (violation, cuts) of a nonlinear atom at its argument values
    v = M z + c (compile_atoms), the bound last; each cut is a pair (g, off)
    meaning g.v <= off, valid wherever the atom holds."""
    x, t = v[:-1], float(v[-1])
    if isinstance(atom, SOC):
        nrm = math.sqrt(float(x.dot(x)))  # what np.linalg.norm computes
        viol = nrm - t
        if not want_cut or viol <= 0.0:
            return viol, []
        if nrm == 0.0:  # the bound itself is negative
            return viol, [_bound_cut(len(v))]
        return viol, [(np.append(x / nrm, -1.0), 0.0)]
    if isinstance(atom, Perspective):
        if t < 0.0:
            return -t, [_bound_cut(len(v))] if want_cut else []
        viol = atom.fn.persp_value(x, t)
        if not want_cut or viol <= 0.0:
            return viol, []
        if isinstance(atom.fn, QuadraticPlus):
            return viol, _quadratic_plus_cuts(atom.fn, x, t)
        gx, gt, off = _generic_persp_tangent(atom.fn, x, t)
        return viol, [(np.append(gx, gt), off)]
    if isinstance(atom, GaugePlus):
        D = np.array([d for d, _ in atom.terms], dtype=float).reshape(len(x), atom.set_ref.dim)
        gamma, q = gauge_mod.gauge_and_normal(
            atom.set_ref, (np.maximum(x, 0.0) if atom.positive_part else x) @ D
        )
        viol = gamma - t if math.isfinite(gamma) else math.inf
        if not want_cut or viol <= 0.0:
            return viol, []
        coef = D @ q
        if atom.positive_part:
            slack = 1e-6 * max(float(np.linalg.norm(q)), 1.0) * np.linalg.norm(D, axis=1)
            if np.any(coef < -slack):
                raise gauge_mod.ConditionViolated(
                    "gauge term misaligned with the subgradient; "
                    "positive-part cut would be invalid here"
                )
            # an inactive positive part has derivative 0
            coef = np.where(x > 0.0, np.maximum(coef, 0.0), 0.0)
        kappa = 1.0 if math.isfinite(gamma) else 0.0
        return viol, [(np.append(coef, -kappa), 0.0)]
    raise TypeError(f"not a separable atom: {atom!r}")


def _bound_cut(m: int):
    """-t <= 0 for the last of m arguments, the bound."""
    g = np.zeros(m)
    g[-1] = -1.0
    return g, 0.0


def _quadratic_plus_cuts(fn: QuadraticPlus, x: np.ndarray, t: float):
    # constraint ((a.x + beta t)+)^2 <= t (w.x); tangents q <= (lam t + s/lam)/2
    a, wlin = sets._arr(fn.a), sets._arr(fn.w)
    q0 = float(a @ x + fn.beta * t)
    s0 = float(wlin @ x)
    cuts = []
    if s0 < 0.0:
        cuts.append((np.append(-wlin, 0.0), 0.0))
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
    cuts.append((np.append(a - (0.5 / lam) * wlin, fn.beta - 0.5 * lam), 0.0))
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
    _gap: int | None = None,
    _floor: float = -math.inf,
) -> OptResult:
    """Kelley's cutting-plane loop over the compiled rows, inside the box of
    radius BOX_RADIUS on every variable without a finite bound of its own.
    With ``_gap``, the last column, a uniform slack that the rows subtract,
    atoms are evaluated on the columns before it, violated only beyond slack
    + CUT_TOL, and their cuts subtract it too.  The loop is "optimal" when
    no atom is violated at the master optimum z, and "stalled" when
    Master.add_rows finds that no cut of the round cuts z off (the next
    solve would return z again) or after MAX_CUT_ROUNDS rounds.  A stalled
    result keeps the last master optimum, if any, in ``point``; an optimal
    or infeasible one the master's duals().

    With a ``_floor``, the loop stops as "dominated" at the first master
    optimum whose value is at most the floor and whose point is off the
    artificial box: every cut is valid, so that value bounds the true
    maximum from above, and the caller only needs to know it cannot exceed
    the floor."""
    if compiled.trivially_infeasible:
        return OptResult("infeasible", -math.inf, None, False, 0)
    lb = np.where(np.isinf(compiled.lb), -BOX_RADIUS, compiled.lb)
    ub = np.where(np.isinf(compiled.ub), BOX_RADIUS, compiled.ub)
    master = simplex.Master(
        objective, compiled.rows, compiled.rhs, compiled.eq_rows, compiled.eq_rhs, lb, ub
    )

    for rounds in range(1, MAX_CUT_ROUNDS + 1):
        res = master.solve()
        if res.status == "infeasible":
            return OptResult("infeasible", -math.inf, None, False, rounds, master.duals())
        if res.status != "optimal":
            return OptResult("stalled", math.nan, None, False, rounds)
        z = res.x
        if res.value <= _floor and not _box_contact(z, compiled.lb, compiled.ub):
            return OptResult("dominated", float(res.value), z, False, rounds)
        limit, zs = (CUT_TOL, z) if _gap is None else (z[_gap] + CUT_TOL, z[:_gap])
        violated = False
        new_cuts = []
        for atom, M, c in compiled.nonlinear:
            viol, cuts = _atom_violation_and_cuts(atom, M @ zs + c, want_cut=True)
            if viol > limit:
                violated = True
                new_cuts.extend((g @ M, off - g @ c) for g, off in cuts)
        if not violated:
            break
        G_new = np.array([vec for vec, _ in new_cuts])
        if _gap is not None:
            G_new = np.column_stack([G_new, np.full(len(G_new), -1.0)])
        if not master.add_rows(G_new, np.array([r for _, r in new_cuts])):
            return OptResult("stalled", math.nan, z, False, rounds)
    else:
        return OptResult("stalled", math.nan, z, False, rounds)
    at_box = _box_contact(z, compiled.lb, compiled.ub)
    return OptResult("optimal", float(res.value), z, at_box, rounds, master.duals())


def _box_contact(z, lb, ub) -> bool:
    """Whether z touches the artificial box on a variable whose own bound
    there, in lb, ub (arrays or scalars), is infinite."""
    near = 1e-6 * BOX_RADIUS
    at_box = ((BOX_RADIUS - z <= near) & np.isinf(ub)) | (
        (z + BOX_RADIUS <= near) & np.isinf(lb)
    )
    return bool(at_box.any())


def feasibility_gap(compiled: _Compiled) -> tuple[float, dict[str, float] | None]:
    """Smallest uniform slack s >= 0 making every row and atom of ``compiled``
    hold within its bounds, with a witness env.

    maximize_over_atoms minimizes s, a last column that every row and cut
    subtracts (each equality row as two inequalities); if it stalls, the gap
    is the worst true violation at its last master optimum.  Returns (inf,
    None) when even the linear outer approximation is empty, or when no s
    up to BOX_RADIUS does.
    """
    n = len(compiled.names)
    G = np.vstack([compiled.rows, compiled.eq_rows, -compiled.eq_rows])
    cp = replace(
        compiled,
        lb=np.append(compiled.lb, 0.0),
        ub=np.append(compiled.ub, BOX_RADIUS),
        rows=np.hstack([G, np.full((len(G), 1), -1.0)]),
        rhs=np.concatenate([compiled.rhs, compiled.eq_rhs, -compiled.eq_rhs]),
        eq_rows=np.zeros((0, n + 1)),
        eq_rhs=np.zeros(0),
    )
    obj = np.zeros(n + 1)
    obj[n] = -1.0  # maximize -gap
    res = maximize_over_atoms(cp, obj, _gap=n)
    if res.point is None:
        return math.inf, None
    z = res.point
    env = dict(zip(compiled.names, z[:n].tolist()))
    if res.status == "optimal":
        return float(max(z[n], 0.0)), env
    worst_true = max(
        (
            _atom_violation_and_cuts(atom, M @ z[:n] + c, want_cut=False)[0]
            for atom, M, c in cp.nonlinear
        ),
        default=0.0,
    )
    return float(max(z[n], worst_true, 0.0)), env


# ---------------------------------------------------------------------------
# oracle backends used by sets.py
# ---------------------------------------------------------------------------


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _template(S: SetExpr) -> _Compiled:
    """S's homogenized epigraph {(w, tau, aux) : w in tau S, tau >= 0}, columns
    w, then tau, then the auxiliaries, compiled once per set.  Shared, so
    never mutated: each fallback fixes bounds on a copy (_pinned)."""
    names = [f"w{j}" for j in range(S.dim)] + ["tau"]
    atoms, aux = gauge_mod.lower_epigraph(
        S, tuple(map(Aff.var, names[:-1])), Aff.var("tau"), gauge_mod.NameGen()
    )
    variables = [(nm, 0.0 if nm == "tau" else -math.inf, math.inf) for nm in names + aux]
    return compile_atoms(atoms, variables)


def _held(compiled: _Compiled, cols, values) -> _Compiled:
    """``compiled`` with the columns ``cols`` fixed (lb = ub) at ``values``;
    the row arrays stay shared."""
    lb, ub = compiled.lb.copy(), compiled.ub.copy()
    lb[cols] = ub[cols] = values
    return replace(compiled, lb=lb, ub=ub)


def _pinned(S: SetExpr, w=None, tau: float | None = None) -> _Compiled:
    """S's template with its w columns, its tau column or both held."""
    if w is None:
        return _held(_template(S), S.dim, tau)
    if tau is None:
        return _held(_template(S), slice(0, S.dim), w)
    return _held(_template(S), slice(0, S.dim + 1), [*w, tau])


def _maximize_over_set(S: SetExpr, u, what: str, floor: float = -math.inf) -> OptResult:
    """Maximize u.w over S (its template at tau = 1), with the optimum's w
    part, read-only, as its point; Stalled, naming ``what``, when the cut
    loop stalls.  Only exact optima (no floor) are memoized."""
    key = np.asarray(u, dtype=float).tobytes()
    try:
        if floor == -math.inf:
            return _set_optimum(S, key)
        return _optimize_set(S, key, floor)
    except sets.Stalled:
        raise sets.Stalled(f"{what} stalled") from None


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _set_optimum(S: SetExpr, u: bytes) -> OptResult:
    """The template optimization along u (float64 bytes), kept so that the
    support and exposed-point fallbacks along one direction share one cut
    loop.  A stall raises and is not kept."""
    return _optimize_set(S, u, -math.inf)


def _optimize_set(S: SetExpr, u: bytes, floor: float) -> OptResult:
    """One cut loop over S's template at tau = 1 along u, stopped early at
    ``floor``."""
    compiled = _pinned(S, tau=1.0)
    obj = np.zeros(len(compiled.names))
    obj[: S.dim] = np.frombuffer(u)
    res = maximize_over_atoms(compiled, obj, _floor=floor)
    if res.status == "stalled":
        raise sets.Stalled("stalled")
    if res.point is not None:
        w = res.point[: S.dim].copy()
        w.setflags(write=False)  # shared by every caller along u
        res = replace(res, point=w)
    return res


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


def member_via_feasibility(S: SetExpr, x: np.ndarray, tau: float, tol: float) -> bool:
    """Whether x lies in tau * S (tau = 0: the recession cone of S), by the
    feasibility gap of S's template with (w, tau) pinned to (x, tau)."""
    return feasibility_gap(_pinned(S, x, tau))[0] <= tol


def gauge_via_template(S: SetExpr, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Gauge of S at w, the least tau over S's template with w pinned, and as
    normal the w columns' duals: a subgradient of the outer approximation's
    gauge, which is below S's.  An infeasible loop whose blocking row weighs
    no box bound shows S flat along w: +inf, normal that row's w part.  w is
    scaled to unit max norm, and by 1e-3 more where the box decides (gauges
    up to 1e6); Stalled past that or on a stall."""
    s = float(np.max(np.abs(w), initial=0.0))
    if s == 0.0:
        return 0.0, np.zeros(S.dim)
    for scale in (s, s * BOX_RADIUS):
        cp = _pinned(S, w=w / scale)
        res = maximize_over_atoms(cp, -np.eye(len(cp.names))[S.dim])  # max -tau
        if res.status == "stalled":
            raise sets.Stalled("template gauge stalled")
        d, eps = res.duals, simplex._EPS
        if res.status == "optimal" and not res.box_active:
            return max(0.0, -res.value) * scale, -d[: S.dim]
        if res.status == "infeasible" and d is not None:
            q = d[: S.dim]
            on_box = ((d > eps) & np.isinf(cp.lb)) | ((d < -eps) & np.isinf(cp.ub))
            if q.any() and not on_box.any():
                return math.inf, q / float(np.linalg.norm(q))
    raise sets.Stalled("template gauge reached the artificial box")


# ---------------------------------------------------------------------------
# direction sampling
# ---------------------------------------------------------------------------


def sample_directions(
    dim: int, count: int, seed: int, axes_first: bool = False
) -> np.ndarray:
    """Deterministic unit directions: an angle grid in the plane, a Fibonacci
    sphere in dimension three, normalized Gaussians beyond.  With axes_first
    the signed coordinate axes occupy the first 2*dim slots of the budget.

    The seed, a non-negative integer, drives a stdlib random.Random: one
    uniform draw for the plane's grid offset or the sphere's phase, and
    gauss(0, 1) for each Gaussian coordinate.  Python keeps the stream of
    random() for a given integer seed across versions, and uniform and gauss
    are computed from it in pure Python.  A negative seed raises
    sets.OutOfDomain, because random.Random would seed the same stream as
    its absolute value."""
    seed = operator.index(seed)
    if seed < 0:
        raise sets.OutOfDomain(f"seed must be a non-negative integer, got {seed}")
    rng = random.Random(seed)
    out = []
    if axes_first:
        for j in range(dim):
            for sgn in (1.0, -1.0):
                e = np.zeros(dim)
                e[j] = sgn
                out.append(e)
    remaining = count - len(out)
    if remaining <= 0:
        return np.array(out[: max(count, 0)])  # a count below 1 gives none
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
            v = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
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
    verdict: str  # pass | fail | not-refuted | inconclusive
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
    and cut to 8, and any witness fails the check.  No directions or jobs
    below 1 raise sets.OutOfDomain."""
    if len(dirs) == 0:
        raise sets.OutOfDomain(f"the {check} check needs at least one direction")
    if jobs < 1:
        raise sets.OutOfDomain(f"jobs must be at least 1, got {jobs}")
    t0 = time.perf_counter()
    size = (len(dirs) + jobs - 1) // jobs
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


def _embedded_support(form, d: np.ndarray) -> float:
    """max_i (h_i(u) + v_i) for d = (u, v), with v = 0 when d has no y part
    (the union's support), as a running max: closed-form pieces first, then
    the rest in order, each with the running max as its floor, so a cut loop
    stops as soon as its piece cannot win.  Exact: a piece stopped early
    comes back as -inf and leaves the max as it is."""
    n, pieces = len(form.x_names), form.sets
    u = d[:n]
    v = d[n:] if len(d) > n else np.zeros(len(pieces))
    order = sorted(range(len(pieces)), key=lambda i: not sets.has_closed_form_support(pieces[i]))
    best = -math.inf
    for i in order:
        if best == math.inf:
            break
        floor = sets.shifted_floor(best, float(v[i]))
        best = max(best, sets.support(pieces[i], u, floor) + float(v[i]))
    return float(best)


def _average_support(form, d: np.ndarray) -> float:
    return float(sum(sets.support(S, d) for S in form.sets) / len(form.y_names))


def _relaxation_sample(args, idx, d):
    """The compiled relaxation's maximum along d, whose entries weigh the
    columns ``cols`` (x part, then y part), must not exceed ``bound(form, d)``
    beyond tol; ``keys`` name the two values.  A stalled relaxation leaves
    the sample out; a stalled bound raises."""
    compiled, cols, form, bound, keys, tol = args
    obj = np.zeros(len(compiled.names))
    obj[cols[: len(d)]] += d
    res = maximize_over_atoms(compiled, obj)
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


def _relaxation_check(check, form, dirs, bound, keys, tol, seed, jobs, fixed=None, notes=()):
    """The relaxation evaluator along dirs, with the variables in ``fixed`` held."""
    if len(form.y_names) != len(form.sets):
        raise FormulationShapeError(
            f"the {check} check needs one y variable per set; the formulation has "
            f"{len(form.y_names)} for {len(form.sets)} sets"
        )
    compiled = compile_relaxation(form)
    if fixed:
        compiled = _held(compiled, [compiled.index[nm] for nm in fixed], list(fixed.values()))
    cols = np.array([compiled.index[nm] for nm in (*form.x_names, *form.y_names)])
    args = (compiled, cols, form, bound, keys, tol)
    return _sampled_check(check, dirs, _relaxation_sample, args, tol, seed, jobs, notes)


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
    return _relaxation_check("sharp", form, dirs, _embedded_support, keys, tol, seed, jobs)


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
    refute, with a note naming the cap when a purely linear form is over it.
    Roughly forty percent of samples keep the y-part at zero, where projected
    gaps surface first.
    """
    if mode not in ("auto", "exact", "sampled"):
        raise sets.OutOfDomain(f"unknown mode {mode!r}")
    notes = ()
    if mode in ("auto", "exact"):
        try:
            return _ideal_exact(form, tol=1e-7 if tol < 1e-7 else tol)
        except ExactModeUnavailable as exc:
            if mode == "exact":
                raise
            if all(isinstance(atom, Linear) for atom in form.atoms):
                notes = (f"exact mode unavailable ({exc}); sampled instead",)
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
    return _relaxation_check(
        "ideal", form, dirs, _embedded_support, keys, tol, seed, jobs, notes=notes
    )


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
        base_sup = [sets.support(C, u) for C in disjuncts]
        gap = math.inf  # the best family's worst gap
        for fam in covers:
            pairs = ((s0, sets.support(fam[i], u)) for i, s0 in enumerate(base_sup))
            gap = min(gap, _worst_gap(pairs))
    except sets.Stalled:
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


def _worst_gap(pairs) -> float:
    """The largest relative gap |value - ref| / (1 + |ref|) over (ref, value)
    pairs, read lazily: +inf at the first pair with one side infinite, and
    pairs with both sides infinite are skipped."""
    worst = 0.0
    for ref, value in pairs:
        if math.isinf(ref) or math.isinf(value):
            if math.isinf(ref) != math.isinf(value):
                return math.inf
            continue
        worst = max(worst, abs(value - ref) / (1.0 + abs(ref)))
    return worst


# ---------------------------------------------------------------------------
# shared-basis condition
# ---------------------------------------------------------------------------


def _gauss_jordan(T: np.ndarray, r: int, floor: float) -> np.ndarray:
    """Reduce each T[k] = [M | R], M r x r, to [I | M^-1 R] in place by row
    operations with partial pivoting; whether each M's pivots all exceed
    floor (where one does not, T[k] is left part-reduced)."""
    at, ok = np.arange(len(T)), np.ones(len(T), dtype=bool)
    for j in range(r):
        p = j + np.argmax(np.abs(T[:, j:, j]), axis=1)
        row = T[at, p]
        T[at, p] = T[:, j]
        ok &= np.abs(row[:, j]) > floor
        T[:, j] = row / np.where(ok, row[:, j], 1.0)[:, None]
        f = T[:, :, j].copy()
        f[:, j] = 0.0
        T -= f[:, :, None] * T[:, None, j]
    return ok


def _pivot_columns(A: np.ndarray, floor: float) -> list:
    """rank(A) independent columns of A: where an elimination with partial
    pivoting finds a pivot above floor."""
    R, cols = A.copy(), []
    for j in range(A.shape[1]):
        i = len(cols)
        if i == len(R):
            break
        p = i + int(np.argmax(np.abs(R[i:, j])))
        if abs(R[p, j]) > floor:
            R[[i, p]] = R[[p, i]]
            R[i + 1 :] -= np.outer(R[i + 1 :, j] / R[i, j], R[i])
            cols.append(j)
    return cols


def check_bbj_condition(
    A,
    b_list,
    count: int = 100,
    seed: int = DEFAULT_SEED,
    tol: float = sets.SUPPORT_EQ_TOL,
    jobs: int = 1,
) -> AnalysisReport:
    """For sampled objectives, some full-rank row basis must reproduce every
    disjunct's optimum from its own subsystem alone, read from one table of
    the bases (_basis_table).  A right-hand side without one entry per row
    raises sets.DimensionMismatch, non-finite data or more than BASIS_CAP
    candidate bases sets.OutOfDomain."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    rhs = [np.asarray(b, dtype=float) for b in b_list]
    if any(b.shape != (m,) for b in rhs):
        raise sets.DimensionMismatch("each right-hand side needs one entry per row")
    b_arr = np.reshape(rhs, (len(rhs), m))
    if not (np.isfinite(A).all() and np.isfinite(b_arr).all()):
        raise sets.OutOfDomain("the bbj check needs finite A and b")
    table = _basis_table(A, b_arr)
    dirs = sample_directions(n, count, seed, axes_first=True)
    notes = (f"bases considered: {len(table[2])}",)
    args = (table, tol)
    return _sampled_check("basis-condition", dirs, _basis_sample, args, tol, seed, jobs, notes)


def _basis_table(A: np.ndarray, b_arr: np.ndarray) -> tuple:
    """For the bases B of A, the sets of rank(A) rows of full rank: A, rank(A)
    independent columns J, the rows of each B, the transposed inverse of
    A[B][:, J] and its row norms, the basic solutions x[B, i] (A[B] x =
    b_i[B], zero off J) and which of them satisfy A x <= b_i."""
    (k, m), n = b_arr.shape, A.shape[1]
    floor = BASIS_RANK_TOL * float(np.max(np.abs(A), initial=0.0))
    cols = _pivot_columns(A, floor)
    r = len(cols)
    if math.comb(m, r) > BASIS_CAP:
        raise sets.OutOfDomain(f"basis enumeration capped at {BASIS_CAP} candidates")
    rows = np.array(list(itertools.combinations(range(m), r)), dtype=int)
    rows = rows.reshape(math.comb(m, r), r)
    eye = np.broadcast_to(np.eye(r), (len(rows), r, r))
    T = np.concatenate([A[rows][:, :, cols], eye, b_arr[:, rows].transpose(1, 2, 0)], axis=2)
    ok = _gauss_jordan(T, r, floor)
    rows, T = rows[ok], T[ok]
    x = np.zeros((len(rows), k, n))
    x[:, :, cols] = np.swapaxes(T[:, :, 2 * r :], 1, 2)
    excess = x @ A.T - b_arr
    feasible = (excess <= BASIS_FEAS_TOL * (np.abs(x) @ np.abs(A).T + np.abs(b_arr))).all(axis=2)
    inv_t = np.swapaxes(T[:, :, r : 2 * r], 1, 2)
    return A, cols, rows, inv_t, np.linalg.norm(A, axis=1)[rows], x, feasible


def _basis_values(table: tuple, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max{c.x : A[B] x <= b_i[B]} per basis B and piece i, and max{c.x :
    A x <= b_i} per piece, by LP duality.  A subsystem is finite exactly
    when its multipliers lam = A[B]^-T c are >= 0, then c.x[B, i].  A full
    optimum is -inf without a feasible basic solution, +inf without a
    multiplier-feasible basis, else the largest c.x[B, i] over feasible
    ones.  A c off A's row space is unbounded everywhere."""
    A, cols, rows, inv_t, norms, x, feasible = table
    size = float(np.linalg.norm(c))
    lam = inv_t @ c[cols]
    dual = (lam * norms >= -BASIS_DUAL_TOL * size).all(axis=1)
    if len(cols) < len(c) and len(rows):
        off = float(np.linalg.norm(c - A[rows[0]].T @ lam[0]))
        dual &= off <= BASIS_DUAL_TOL * size
    vals = x @ c
    sub = np.where(dual[:, None], vals, math.inf)
    full = np.max(np.where(feasible, vals, -math.inf), axis=0, initial=-math.inf)
    full[np.isfinite(full) & ~dual.any()] = math.inf
    return sub, full


def _basis_sample(args, idx: int, c: np.ndarray):
    """A witness when no basis reproduces every disjunct's optimum along c,
    with the smallest worst relative gap (as in _worst_gap) as the margin
    term."""
    table, tol = args
    sub, full = _basis_values(table, c)
    inf_s, inf_f = np.isinf(sub), np.isinf(full)
    s, f = np.where(inf_s, 0.0, sub), np.where(inf_f, 0.0, full)
    gaps = np.abs(s - f) / (1.0 + np.abs(f))
    gaps[inf_s | inf_f] = 0.0
    gaps[inf_s != inf_f] = math.inf
    worst = np.max(gaps, axis=1, initial=0.0)
    if (worst <= tol).any():
        return 0.0, []
    best = float(np.min(worst, initial=math.inf))
    witness = {"sample": idx, "direction": _vec_list(c)}
    witness["best_gap"] = best if math.isfinite(best) else "inf"
    return (best if math.isfinite(best) else 0.0), [(idx, witness)]
