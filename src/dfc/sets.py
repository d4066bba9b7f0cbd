"""Closed convex set descriptions and their numeric oracles.

A set is an immutable expression tree built from a small vocabulary of
variants (halfspace intersections, vertex hulls, boxes, balls, conic slices,
sublevel sets of catalog functions, translates, scalings, conic sums,
intersections).  Every variant supports the same oracle surface:

    contains(S, x)             membership at tolerance
    support(S, u, floor)       sup {u.x : x in S}, +inf when unbounded; a
                               cut-loop fallback may return -inf once it
                               shows the value cannot exceed floor
    gauge_value(S, base, x)    gauge of S - base at x - base (gauge.py rules)
    recession_contains(S, d)   membership of d in the recession cone
    exposed_point(S, u)        a maximizer of u.x over S
    find_point(S)              some point of S, None when S is empty
    validate_family(...)       shared-dimension / shared-recession report

Oracles are pure functions of the expression.  dfc starts no threads: the
--jobs workers are forked processes, each with its own copy of the template
memo of the optimizer fallbacks.  Variants without a closed form fall back
to a cutting-plane optimizer over the set's one compiled epigraph template
(see analysis.py), each oracle fixing its own bounds on it; those imports
stay inside function bodies to keep this module importable on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Tolerance ladder.  Membership is looser than feasibility residuals, and
# support equality is looser than both.
MEMBERSHIP_TOL = 1e-7
FEASIBILITY_TOL = 1e-8
SUPPORT_EQ_TOL = 1e-6
FAMILY_PROBES = 64  # directions of the shared-recession probe of validate_family
FAMILY_SEED = 20240


class DfcError(Exception):
    """Root of every exception the dfc package defines."""


class EmptySet(DfcError):
    """The set has no points."""


class DimensionMismatch(DfcError):
    """Operands disagree on ambient dimension."""


class BasePointNotInSet(DfcError):
    """A base point handed to a gauge or builder lies outside its set."""


class UnboundedDirection(DfcError):
    """A support or exposed-point query is unbounded in the given direction."""


class NotPolyhedral(DfcError):
    """The operation needs an H-described polyhedron."""


class Stalled(DfcError, ArithmeticError):
    """A cut loop or LP stalled, or a template optimum stayed on the artificial box."""


class OutOfDomain(DfcError):
    """A value lies outside the domain its operation accepts, such as a
    non-finite operand, a negative seed or scale factor, or an unknown mode
    or cone kind."""


def _operand(v, S: SetExpr, what: str) -> np.ndarray:
    """An oracle's operand as a flat float array of S's dimension, all finite."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape[0] != S.dim:
        raise DimensionMismatch(f"{what} has dim {a.shape[0]}, set has {S.dim}")
    if not np.isfinite(a).all():
        raise OutOfDomain(f"{what} must be finite, got {a.tolist()}")
    return a


def _vec(x) -> tuple[float, ...]:
    return tuple(float(v) for v in np.asarray(x, dtype=float).reshape(-1))


def _mat(rows) -> tuple[tuple[float, ...], ...]:
    """rows as a matrix; ragged rows are refused before numpy reads them."""
    shapes = {np.shape(row) for row in rows}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise DimensionMismatch("expected a 2d array of rows")
    return tuple(tuple(float(v) for v in row) for row in np.asarray(rows, dtype=float))


@lru_cache(maxsize=4096)
def _arr(t) -> np.ndarray:
    a = np.array(t, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# catalog functions (for sublevel-set variants)
# ---------------------------------------------------------------------------


class CatalogFunction:
    """Convex function given by its closed perspective.

    Implementations provide the value and a subgradient of the closed
    perspective t*f(x/t) (with its t -> 0+ limit), plus any linear
    inequalities valid for the homogenized epigraph set
    {(x, t) : t >= 0, persp(x, t) <= 0}.  The function itself is the
    perspective at t = 1: f(x) = persp(x, 1).
    """

    dim: int

    def persp_value(self, x: np.ndarray, t: float) -> float:
        raise NotImplementedError

    def persp_grad(self, x: np.ndarray, t: float) -> tuple[np.ndarray, float]:
        """Subgradient of the perspective at an interior point (t > 0)."""
        raise NotImplementedError

    def persp_valid_rows(self) -> list[tuple[np.ndarray, float]]:
        """Rows (a, c) with a.x <= c*t valid on {persp <= 0, t >= 0}."""
        return []

    def persp_root(self, w: np.ndarray) -> float:
        """Least t > 0 with persp(w, t) <= 0, the gauge of {f <= 0} at w: 0
        when every t > 0 qualifies, +inf when none does.  Exact up to
        rounding and homogeneous in w; f(0) <= 0 is required."""
        raise NotImplementedError


@dataclass(frozen=True)
class AffineFn(CatalogFunction):
    """f(x) = a.x + beta."""

    a: tuple[float, ...]
    beta: float

    @property
    def dim(self) -> int:
        return len(self.a)

    def persp_value(self, x, t):
        return float(_arr(self.a) @ x + self.beta * t)

    def persp_grad(self, x, t):
        return _arr(self.a).copy(), float(self.beta)

    def persp_valid_rows(self):
        return [(_arr(self.a).copy(), -float(self.beta))]

    def persp_root(self, w):
        if self.beta > 0.0:
            raise BasePointNotInSet("gauge needs the origin in the level set")
        c = float(_arr(self.a) @ w)
        if c <= 0.0:
            return 0.0
        return c / -self.beta if self.beta < 0.0 else math.inf


@dataclass(frozen=True)
class QuadraticPlus(CatalogFunction):
    """f(x) = ((a.x + beta)+)^2 - w.x.

    The perspective closure at t = 0 is -w.x on {a.x <= 0} and +inf
    elsewhere, so the homogenized constraint set gains the rows a.x <= 0 and
    w.x >= 0 in the limit.
    """

    a: tuple[float, ...]
    beta: float
    w: tuple[float, ...]

    def __post_init__(self):
        if len(self.w) != len(self.a):
            raise DimensionMismatch(f"w has {len(self.w)} entries, a has {len(self.a)}")

    @property
    def dim(self) -> int:
        return len(self.a)

    def persp_value(self, x, t):
        lin = float(_arr(self.w) @ x)
        q = float(_arr(self.a) @ x + self.beta * t)
        if t <= 0.0:
            return math.inf if q > 0.0 else -lin
        return max(q, 0.0) ** 2 / t - lin

    def persp_grad(self, x, t):
        q = float(_arr(self.a) @ x + self.beta * t)
        gx = -_arr(self.w).copy()
        gt = 0.0
        if q > 0.0:
            gx = gx + (2.0 * q / t) * _arr(self.a)
            gt = self.beta * 2.0 * q / t - (q / t) ** 2
        return gx, gt

    def persp_valid_rows(self):
        return [(-_arr(self.w).copy(), 0.0)]

    def persp_root(self, w):
        # least t with ((c + beta t)+)^2 <= t lin, where c = a.w, lin = w.w
        if self.beta > 0.0:
            raise BasePointNotInSet("gauge needs the origin in the level set")
        c, lin = float(_arr(self.a) @ w), float(_arr(self.w) @ w)
        if lin < 0.0:
            return math.inf
        if c <= 0.0:
            return 0.0
        # the smaller root has c + beta t > 0; this form avoids cancellation
        den = lin - 2.0 * c * self.beta + math.sqrt(lin * (lin - 4.0 * c * self.beta))
        return 2.0 * c * c / den if den > 0.0 else math.inf


@dataclass(frozen=True)
class GeoMeanDeficit(CatalogFunction):
    """f(x) = scale - prod_j (shift - x_j)^(1/n) on {x <= shift}.

    Convex and decreasing in each coordinate inside its domain; +inf outside.
    The perspective is scale*t - prod_j (shift*t - x_j)^(1/n), whose t = 0
    slice is the nonpositive orthant.
    """

    shift: float
    scale: float
    n: int

    @property
    def dim(self) -> int:
        return self.n

    def _geomean(self, factors: np.ndarray) -> float:
        if np.any(factors < 0.0):
            return -math.inf
        f = np.maximum(factors, 0.0)
        if np.any(f == 0.0):
            return 0.0
        return float(np.exp(np.mean(np.log(f))))

    def persp_value(self, x, t):
        factors = self.shift * t - np.asarray(x, dtype=float)
        if np.any(factors < 0.0):
            return math.inf
        return self.scale * t - self._geomean(factors)

    def persp_grad(self, x, t):
        factors = np.maximum(self.shift * t - np.asarray(x, dtype=float), 1e-12)
        p = float(np.exp(np.mean(np.log(factors))))
        gx = (p / self.n) / factors
        gt = self.scale - (self.shift / self.n) * p * float(np.sum(1.0 / factors))
        return gx, gt

    def persp_valid_rows(self):
        rows = []
        for j in range(self.n):
            a = np.zeros(self.n)
            a[j] = 1.0
            rows.append((a, self.shift))
        return rows

    def persp_root(self, w):
        """With u = 1/t and m = max(w) > 0, persp(w, t) <= 0 reads
        q(u) = prod_j (shift - u w_j) / scale^n >= 1, feasible for u in
        [0, 1/root].  The least factor is at most the geometric mean, so 1/root
        lies in [(shift - scale) / m, shift / m].  Newton on q - 1 starts at
        the feasible end; for w >= 0, q is convex and decreasing there, so the
        steps climb to the root.  Where q does not fall (mixed signs can give
        slope 0) or a step leaves the bracket, the chord is taken instead.
        """
        if self.shift <= self.scale:
            raise BasePointNotInSet("gauge needs the origin inside the level set")
        m = float(np.max(w))
        if m <= 0.0:
            return 0.0
        lo, hi, q_lo, q_hi = (self.shift - self.scale) / m, self.shift / m, 0.0, -1.0
        u = lo
        for _ in range(64):
            q, slope = self._persp_excess(w, u)
            if q >= 0.0:
                lo, q_lo = u, q
            else:
                hi, q_hi = u, q
            chord = lo + (hi - lo) * q_lo / (q_lo - q_hi)
            nu = u - q / slope if slope < 0.0 else chord
            if not lo < nu < hi:
                nu = chord
            if abs(nu - u) <= 1e-15 * u:
                return 1.0 / nu
            u = nu
        return 1.0 / lo

    def _persp_excess(self, w: np.ndarray, u: float) -> tuple[float, float]:
        """q(u) - 1 and its slope (see persp_root); -inf where a factor is 0."""
        f = self.shift - u * w
        q = float(np.prod(f)) / self.scale**self.n
        return q - 1.0, -q * float(np.sum(w / f)) if q > 0.0 else -math.inf


@dataclass(frozen=True)
class MaxOf(CatalogFunction):
    """f(x) = max_i parts[i](x)."""

    parts: tuple[CatalogFunction, ...]

    def __post_init__(self):
        if len({p.dim for p in self.parts}) != 1:
            raise DimensionMismatch("max_of needs one or more parts of one dimension")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def persp_value(self, x, t):
        return max(p.persp_value(x, t) for p in self.parts)

    def persp_grad(self, x, t):
        best = max(self.parts, key=lambda p: p.persp_value(x, t))
        return best.persp_grad(x, t)

    def persp_valid_rows(self):
        rows = []
        for p in self.parts:
            rows.extend(p.persp_valid_rows())
        return rows

    def persp_root(self, w):
        # {max_i f_i <= 0} is the intersection of the parts' level sets
        return max(p.persp_root(w) for p in self.parts)


# ---------------------------------------------------------------------------
# set expression variants
# ---------------------------------------------------------------------------


class SetExpr:
    """Base class for immutable set expressions."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class HPolyhedron(SetExpr):
    """{x : A x <= b}."""

    A: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.A[0])


@dataclass(frozen=True)
class VPolytope(SetExpr):
    """conv(vertices)."""

    vertices: tuple[tuple[float, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


@dataclass(frozen=True)
class Box(SetExpr):
    """{x : lower <= x <= upper}, with +-inf entries allowed."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class Ball(SetExpr):
    """Euclidean ball of given center and radius."""

    center: tuple[float, ...]
    radius: float

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class ConeSlice:
    """One block of a product cone: 'nonneg', 'zero' or 'soc'.

    A 'soc' block of size m reads (w_0, w_1..w_{m-1}) with
    ||(w_1..w_{m-1})|| <= w_0.
    """

    kind: str
    size: int


@dataclass(frozen=True)
class ConicRep(SetExpr):
    """{x : exists z, A x + B z + c in K} for a product cone K.

    B may be an empty tuple (no auxiliary variables), in which case
    membership is a direct slice evaluation.
    """

    A: tuple[tuple[float, ...], ...]
    B: tuple[tuple[float, ...], ...]
    c: tuple[float, ...]
    cones: tuple[ConeSlice, ...]

    @property
    def dim(self) -> int:
        return len(self.A[0])

    @property
    def aux_dim(self) -> int:
        return len(self.B[0]) if self.B else 0


@dataclass(frozen=True)
class LevelSet(SetExpr):
    """{x : fn(x) <= 0} for a catalog function."""

    fn: CatalogFunction

    @property
    def dim(self) -> int:
        return self.fn.dim


@dataclass(frozen=True)
class Translate(SetExpr):
    """child + offset."""

    child: SetExpr
    offset: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.offset)


@dataclass(frozen=True)
class Scale(SetExpr):
    """factor * child for factor > 0; factor = 0 means the recession cone."""

    child: SetExpr
    factor: float

    @property
    def dim(self) -> int:
        return self.child.dim


@dataclass(frozen=True)
class SumCone(SetExpr):
    """child + cone(rays)."""

    child: SetExpr
    rays: tuple[tuple[float, ...], ...]

    @property
    def dim(self) -> int:
        return self.child.dim


@dataclass(frozen=True)
class Intersect(SetExpr):
    """Intersection of the children."""

    children: tuple[SetExpr, ...]

    @property
    def dim(self) -> int:
        return self.children[0].dim


# constructor helpers: coerce array-likes and do light dimension checks


def _finite(x: tuple, what: str) -> tuple:
    """x, a _vec or _mat tuple, after OutOfDomain if an entry is NaN or
    infinite."""
    flat = [v for row in x for v in row] if x and isinstance(x[0], tuple) else x
    if not all(map(math.isfinite, flat)):
        raise OutOfDomain(f"{what} must be finite, got {list(x)}")
    return x


def box(lower, upper) -> Box:
    lo, up = _vec(lower), _vec(upper)
    if len(lo) != len(up):
        raise DimensionMismatch("box bound lengths differ")
    if any(map(math.isnan, lo + up)):
        raise OutOfDomain(f"box bounds must be numbers or +-inf, got {lo} and {up}")
    return Box(lo, up)


def hpoly(A, b) -> HPolyhedron:
    Am, bv = _finite(_mat(A), "polyhedron rows"), _finite(_vec(b), "polyhedron bounds")
    if len(Am) != len(bv):
        raise DimensionMismatch("row count mismatch between A and b")
    return HPolyhedron(Am, bv)


def vpoly(vertices) -> VPolytope:
    return VPolytope(_finite(_mat(vertices), "vertices"))


def ball(center, radius) -> Ball:
    r = float(radius)
    if not 0.0 <= r < math.inf:
        raise OutOfDomain(f"ball radius must be finite and nonnegative, got {r}")
    return Ball(_finite(_vec(center), "ball center"), r)


def conic(A, B, c, cones) -> ConicRep:
    Am = _finite(_mat(A), "conic A")
    Bm = _finite(_mat(B), "conic B") if B is not None and len(B) > 0 else ()
    cv = _finite(_vec(c), "conic c")
    slices = tuple(ConeSlice(k, int(m)) for k, m in cones)
    total = sum(s.size for s in slices)
    if total != len(Am) or total != len(cv):
        raise DimensionMismatch("cone sizes do not cover the rows")
    if Bm and len(Bm) != len(Am):
        raise DimensionMismatch("B row count differs from A")
    for s in slices:
        if s.kind not in ("nonneg", "zero", "soc"):
            raise OutOfDomain(f"unknown cone kind {s.kind!r}")
        if s.size < 1:
            raise OutOfDomain(f"a {s.kind} cone block needs size 1 or more, got {s.size}")
    return ConicRep(Am, Bm, cv, slices)


def level_set(fn: CatalogFunction) -> LevelSet:
    return LevelSet(fn)


def translate(child: SetExpr, offset) -> Translate:
    off = _finite(_vec(offset), "offset")
    if len(off) != child.dim:
        raise DimensionMismatch("offset dimension differs from the set")
    return Translate(child, off)


def scale(child: SetExpr, factor: float) -> Scale:
    if not 0.0 <= factor < math.inf:
        raise OutOfDomain(f"scale factor must be finite and nonnegative, got {factor}")
    return Scale(child, float(factor))


def sum_cone(child: SetExpr, rays) -> SumCone:
    R = _finite(_mat(rays), "rays") if len(rays) > 0 else ()
    if R and len(R[0]) != child.dim:
        raise DimensionMismatch("ray dimension differs from the set")
    return SumCone(child, R)


def intersect(*children: SetExpr) -> Intersect:
    dims = {c.dim for c in children}
    if len(dims) != 1:
        raise DimensionMismatch("intersection children disagree on dimension")
    return Intersect(tuple(children))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def contains(S: SetExpr, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership of x in S at absolute tolerance tol."""
    return _contains(S, _operand(x, S, "point"), tol)


def _contains(S: SetExpr, x: np.ndarray, tol: float) -> bool:
    if isinstance(S, Box):
        lo, up = _arr(S.lower), _arr(S.upper)
        return bool(np.all(x >= lo - tol) and np.all(x <= up + tol))
    if isinstance(S, Ball):
        return float(np.linalg.norm(x - _arr(S.center))) <= S.radius + tol
    if isinstance(S, HPolyhedron):
        return bool(np.all(_arr(S.A) @ x <= _arr(S.b) + tol))
    if isinstance(S, VPolytope):
        return _vpoly_contains(S, x, tol)
    if isinstance(S, ConicRep) and not S.B:
        w = _arr(S.A) @ x + _arr(S.c)
        return _cone_residual(w, S.cones) <= tol
    if isinstance(S, LevelSet):
        return S.fn.persp_value(x, 1.0) <= tol
    if isinstance(S, Translate):
        return _contains(S.child, x - _arr(S.offset), tol)
    if isinstance(S, Scale):
        if S.factor == 0.0:
            return recession_contains(S.child, x, tol)
        return _contains(S.child, x / S.factor, tol)
    if isinstance(S, Intersect):
        return all(_contains(c, x, tol) for c in S.children)
    # ConicRep with auxiliaries and SumCone need a feasibility solve.
    from . import analysis

    return analysis.member_via_feasibility(S, x, 1.0, tol)


def _cone_residual(w: np.ndarray, cones: tuple[ConeSlice, ...]) -> float:
    """Largest violation of w against the product cone (0 when inside)."""
    worst = 0.0
    at = 0
    for sl in cones:
        seg = w[at : at + sl.size]
        if sl.kind == "nonneg":
            worst = max(worst, float(np.max(-seg, initial=0.0)))
        elif sl.kind == "zero":
            worst = max(worst, float(np.max(np.abs(seg), initial=0.0)))
        else:
            worst = max(worst, float(np.linalg.norm(seg[1:]) - seg[0]))
        at += sl.size
    return worst


def _vpoly_contains(S: VPolytope, x: np.ndarray, tol: float) -> bool:
    from . import simplex

    V = _arr(S.vertices)
    m = V.shape[0]
    eq = np.vstack([V.T, np.ones((1, m))])
    rhs = np.concatenate([x, [1.0]])
    res = simplex.solve_lp(
        np.zeros(m), None, None, eq, rhs, np.zeros(m), np.ones(m)
    )
    bound = tol * (1.0 + float(np.linalg.norm(rhs)))
    if res.status == "optimal":  # the simplex tolerates rows off by 1e-7 of scale
        return float(np.sum(np.abs(eq @ res.x - rhs))) <= bound
    return res.status == "infeasible" and res.residual <= bound


# ---------------------------------------------------------------------------
# support function and exposed points
# ---------------------------------------------------------------------------


def support(S: SetExpr, u, floor: float = -math.inf) -> float:
    """sup {u.x : x in S}; +inf when unbounded, EmptySet when S is empty.

    With a finite ``floor`` the caller only needs the support if it exceeds
    the floor, as in a running max over pieces: a cut-loop fallback that
    shows the support is at most the floor stops early and returns -inf.
    Closed forms ignore the floor.  Nothing is cached here; the fallback
    memoizes its exact optima (no floor) per set and direction.
    """
    return _support(S, _operand(u, S, "direction"), floor)


def _support(S: SetExpr, uv: np.ndarray, floor: float) -> float:
    if isinstance(S, Box):
        lo, up = _arr(S.lower), _arr(S.upper)
        total = 0.0
        for j in range(uv.shape[0]):
            if uv[j] > 0.0:
                if math.isinf(up[j]):
                    return math.inf
                total += uv[j] * up[j]
            elif uv[j] < 0.0:
                if math.isinf(lo[j]):
                    return math.inf
                total += uv[j] * lo[j]
        return total
    if isinstance(S, Ball):
        return float(_arr(S.center) @ uv) + S.radius * float(np.linalg.norm(uv))
    if isinstance(S, VPolytope):
        return float(np.max(_arr(S.vertices) @ uv))
    if isinstance(S, Translate):
        shift = float(_arr(S.offset) @ uv)
        return _support(S.child, uv, shifted_floor(floor, shift)) + shift
    if isinstance(S, Scale) and S.factor > 0.0:
        return S.factor * _support(S.child, uv, _scaled_floor(floor, S.factor))
    if isinstance(S, SumCone):
        if S.rays and float(np.max(_arr(S.rays) @ uv)) > FEASIBILITY_TOL:
            return math.inf
        return _support(S.child, uv, floor)
    from . import analysis

    return analysis.support_via_optimizer(S, uv, floor)


# A floor handed down through a shift or a scaling is lowered by this much
# relative to its operands, far above their rounding, so a piece found
# dominated below it is dominated after the shift or scaling too.
_FLOOR_GUARD = 1e-12


def shifted_floor(floor: float, shift: float) -> float:
    """The floor for h when h + shift is compared with ``floor``."""
    if math.isinf(floor):
        return floor
    return floor - shift - _FLOOR_GUARD * (abs(floor) + abs(shift))


def _scaled_floor(floor: float, factor: float) -> float:
    """The floor for h when factor * h (factor > 0) is compared with ``floor``."""
    if math.isinf(floor):
        return floor
    scaled = floor / factor
    return scaled - _FLOOR_GUARD * abs(scaled)


def has_closed_form_support(S: SetExpr) -> bool:
    """Whether support(S, .) never runs the cut-loop fallback."""
    while isinstance(S, (Translate, SumCone)) or (isinstance(S, Scale) and S.factor > 0.0):
        S = S.child
    return isinstance(S, (Box, Ball, VPolytope))


def exposed_point(S: SetExpr, u) -> np.ndarray:
    """A maximizer of u.x over S; UnboundedDirection when none exists."""
    uv = _operand(u, S, "direction")
    if isinstance(S, Box):
        lo, up = _arr(S.lower), _arr(S.upper)
        out = np.zeros(uv.shape[0])
        for j in range(uv.shape[0]):
            if uv[j] > 0.0:
                out[j] = up[j]
            elif uv[j] < 0.0:
                out[j] = lo[j]
            else:
                out[j] = min(max(0.0, lo[j]), up[j])
            if math.isinf(abs(out[j])):
                raise UnboundedDirection(f"box is unbounded along coordinate {j}")
        return out
    if isinstance(S, Ball):
        n = float(np.linalg.norm(uv))
        c = _arr(S.center).copy()
        return c if n == 0.0 else c + S.radius * uv / n
    if isinstance(S, VPolytope):
        V = _arr(S.vertices)
        return V[int(np.argmax(V @ uv))].copy()
    if isinstance(S, Translate):
        return exposed_point(S.child, uv) + _arr(S.offset)
    if isinstance(S, Scale) and S.factor > 0.0:
        return S.factor * exposed_point(S.child, uv)
    from . import analysis

    return analysis.exposed_point_via_optimizer(S, uv)


# ---------------------------------------------------------------------------
# recession cone and gauge
# ---------------------------------------------------------------------------


def recession_contains(S: SetExpr, d, tol: float = 1e-9) -> bool:
    """Membership of d in the recession cone of S."""
    dv = _operand(d, S, "direction")
    if isinstance(S, Box):
        lo, up = _arr(S.lower), _arr(S.upper)
        scalecap = tol * (1.0 + float(np.max(np.abs(dv), initial=0.0)))
        for j in range(dv.shape[0]):
            if dv[j] > scalecap and not math.isinf(up[j]):
                return False
            if dv[j] < -scalecap and not math.isinf(lo[j]):
                return False
        return True
    if isinstance(S, (Ball, VPolytope)):
        return float(np.linalg.norm(dv)) <= tol
    if isinstance(S, HPolyhedron):  # rec S = {d : A d <= 0}
        return bool(np.all(_arr(S.A) @ dv <= tol))
    if isinstance(S, ConicRep) and not S.B:  # rec S = {d : A d in K}
        return _cone_residual(_arr(S.A) @ dv, S.cones) <= tol
    if isinstance(S, LevelSet):  # rec S = {d : persp(d, 0) <= 0}
        return S.fn.persp_value(dv, 0.0) <= tol
    if isinstance(S, (Translate, Scale)):
        return recession_contains(S.child, dv, tol)
    if isinstance(S, Intersect):
        return all(recession_contains(c, dv, tol) for c in S.children)
    from . import analysis

    return analysis.member_via_feasibility(S, dv, 0.0, tol)


def gauge_value(S: SetExpr, base, x) -> float:
    """Gauge of S - base at x - base (base in S) by gauge.gauge_and_normal,
    whose template cut loop, for sets without a closed rule, may raise
    Stalled."""
    from . import gauge

    bv, xv = _operand(base, S, "gauge base point"), _operand(x, S, "gauge argument")
    if not _contains(S, bv, 1e-6):
        raise BasePointNotInSet("gauge base point is outside the set")
    shifted = Translate(S, _vec(-bv)) if np.any(bv) else S
    return float(gauge.gauge_and_normal(shifted, xv - bv)[0])


# ---------------------------------------------------------------------------
# family validation and point finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of validate_family: verdict with an optional witness."""

    verdict: str
    witness: tuple[float, ...] | None = None
    detail: str = ""


def validate_family(sets: "list[SetExpr] | tuple[SetExpr, ...]") -> FamilyReport:
    """Check shared dimension, nonemptiness and shared recession.

    Dimension disagreement raises DimensionMismatch and an empty member raises
    EmptySet; the sampled recession comparison produces a fail verdict with a
    witness instead, since it is a data issue a caller may want to report
    rather than crash on.  Base points are not its concern: the builders
    check each against its disjunct before they call this.
    """
    members = list(sets)
    if not members:
        raise EmptySet("family has no members")
    dims = {S.dim for S in members}
    if len(dims) != 1:
        raise DimensionMismatch(f"family mixes dimensions {sorted(dims)}")
    n = members[0].dim
    for idx, S in enumerate(members):
        if find_point(S) is None:
            raise EmptySet(f"family member {idx} is empty")
    from . import analysis

    for d in analysis.sample_directions(n, FAMILY_PROBES, FAMILY_SEED, axes_first=True):
        flags = [recession_contains(S, d) for S in members]
        if any(flags) and not all(flags):
            return FamilyReport(
                "fail",
                tuple(float(v) for v in d),
                "recession cones disagree on the witness direction",
            )
    return FamilyReport("pass")


def find_point(S: SetExpr):
    """Some point of S, or None when S is empty.  Not cached: a set without
    a closed form takes one fixed-direction optimum, which the fallback
    memoizes."""
    if isinstance(S, Box):
        lo, up = _arr(S.lower), _arr(S.upper)
        pt = np.zeros(S.dim)
        for j in range(S.dim):
            a, b = lo[j], up[j]
            if a > b:
                return None
            if a <= 0.0 <= b:
                pt[j] = 0.0
            elif math.isinf(abs(a)):
                pt[j] = b
            elif math.isinf(abs(b)):
                pt[j] = a
            else:
                pt[j] = 0.5 * (a + b)
        return pt
    if isinstance(S, Ball):
        return _arr(S.center).copy()
    if isinstance(S, VPolytope):
        return _arr(S.vertices).mean(axis=0)
    if isinstance(S, Translate):
        inner = find_point(S.child)
        return None if inner is None else inner + _arr(S.offset)
    if isinstance(S, Scale):
        inner = find_point(S.child)
        return None if inner is None else inner * S.factor
    if isinstance(S, SumCone):
        return find_point(S.child)
    from . import analysis

    return analysis.find_point_via_optimizer(S)


def collect_rows(S: SetExpr) -> tuple[np.ndarray, np.ndarray]:
    """Flatten an H-form expression tree into rows A x <= b."""
    if isinstance(S, HPolyhedron):
        return _arr(S.A).copy(), _arr(S.b).copy()
    if isinstance(S, Box):
        rows, rhs = [], []
        lo, up = _arr(S.lower), _arr(S.upper)
        n = S.dim
        for j in range(n):
            if not math.isinf(up[j]):
                e = np.zeros(n)
                e[j] = 1.0
                rows.append(e)
                rhs.append(up[j])
            if not math.isinf(lo[j]):
                e = np.zeros(n)
                e[j] = -1.0
                rows.append(e)
                rhs.append(-lo[j])
        if not rows:
            return np.zeros((0, n)), np.zeros(0)
        return np.array(rows), np.array(rhs)
    if isinstance(S, Translate):
        A, b = collect_rows(S.child)
        return A, b + A @ _arr(S.offset)
    if isinstance(S, Scale) and S.factor > 0.0:
        A, b = collect_rows(S.child)
        return A, b * S.factor
    if isinstance(S, Intersect):
        parts = [collect_rows(c) for c in S.children]
        return np.vstack([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    raise NotPolyhedral(f"{type(S).__name__} has no halfspace description here")
