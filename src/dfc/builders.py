"""Mixed-integer formulations for disjunctions of convex sets.

Every builder takes a ProblemSpec holding the disjuncts (and, when the
construction needs them, base points and method parameters) and returns a
Formulation: a flat list of constraint atoms over named variables, each
labelled with the paper's name for the construction, one binary indicator
per disjunct, and the unit-sum row that ties them together.  The same record
is what model.py lifts, emits and parses back, and what every check reads.
Fixing the indicator vector to a unit vector and projecting onto the shared
x variables recovers the corresponding disjunct.

Constructions:

    build_extended          per-disjunct variable copies, hull-exact
    build_bigm              gauge bounds on the shared x, activation matrix M
    build_homothetic        one gauge block for translated/scaled copies
    build_piecewise         conjunction of homothetic blocks, deduplicated
    build_orthogonal        signed-frame gauge with positive parts and
                            per-direction sign rows (or plain coordinate
                            projection when no frame flip is given)
    build_bbj               shared-matrix polyhedra, purely linear
    build_isotone_general   positive-part gauge over a signed frame plus
                            per-direction bound rows

All numeric constants that the constructions call for (activation
coefficients, per-direction bounds) are computed from the support and gauge
oracles, never supplied as magic numbers; when only a sampled bound is
available the formulation is stamped "constants-approximate".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, sets
from . import gauge as gauge_mod
from .gauge import Aff, GaugePlus, Linear, NameGen, Perspective, SOC, combo
from .sets import DfcError, SetExpr, SignedBasis

# the paper's name for each construction, written as every constraint's paper_ref
LABELS = {
    "extended": "extendedformulation",
    "bigm": "bigMformulation",
    "homothetic": "projectedgauge",
    "piecewise": "complexform",
    "orthogonal": "orthogonalplusprojcone",
    "bbj": "blairform",
    "isotone": "isotonegeneralform",
}

DEDUP_TOL = 1e-9
BIGM_DIRS = 64  # sampled directions when a disjunct's extreme points are not enumerable
BIGM_PROBE_DIRS = 8  # directions of the level-set probe of a given activation matrix
HOMOTHETY_PROBES = 32  # directions of the support probe of a declared homothety


class FamilyInvalid(DfcError, ValueError):
    """The disjunct family fails a structural requirement."""


class MMatrixInvalid(DfcError, ValueError):
    """Activation matrix has a bad diagonal or misses a disjunct."""


class UnboundedM(DfcError, ValueError):
    """No finite activation coefficient exists for the pair."""


class HomothetyMismatch(DfcError, ValueError):
    """A disjunct is not the declared translate/scale of the template."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class EmptyPiece(DfcError, ValueError):
    """A polyhedral disjunct is empty."""


class OracleUnbounded(DfcError, ValueError):
    """A support-function constant came back infinite."""


# ---------------------------------------------------------------------------
# problem description and output containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # continuous | binary
    lb: float = -math.inf
    ub: float = math.inf


@dataclass(frozen=True)
class HomothetyData:
    """One gauge template: disjunct i is radii[i] * template + base[i] plus
    the template's recession cone."""

    template: SetExpr
    base: tuple
    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(tuple(map(float, b)) for b in self.base))
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.base) != len(self.radii):
            raise sets.DimensionMismatch("one base point per radius entry")
        if any(r < 0 for r in self.radii) or not any(self.radii):
            raise FamilyInvalid("radii must be nonnegative and not all zero")

    def cover_sets(self) -> tuple:
        """The covering sets the data describes, one per disjunct."""
        return tuple(
            sets.translate(sets.scale(self.template, r), b)
            for r, b in zip(self.radii, self.base)
        )


@dataclass(frozen=True)
class PiecewiseData:
    families: tuple

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        if not self.families:
            raise FamilyInvalid("piecewise data needs at least one family")


@dataclass(frozen=True)
class BigMData:
    M: tuple | None = None

    def __post_init__(self):
        if self.M is not None:
            object.__setattr__(
                self, "M", tuple(tuple(map(float, row)) for row in self.M)
            )


@dataclass(frozen=True)
class OrthogonalData:
    """Signed-frame data: pieces[i] is the untranslated body, basis rows an
    orthonormal frame, coord_sets a disjoint cover of frame indices, signs
    the per-piece ray signs, flip the global frame orientation (None selects
    the plain projection construction, which uses no flip and no sign rows).
    """

    pieces: tuple
    basis: tuple
    coord_sets: tuple
    signs: tuple
    base: tuple
    flip: tuple | None = None
    check: bool = True

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "basis", tuple(tuple(map(float, r)) for r in self.basis))
        object.__setattr__(self, "coord_sets", tuple(tuple(map(int, J)) for J in self.coord_sets))
        object.__setattr__(self, "signs", tuple(tuple(map(int, s)) for s in self.signs))
        object.__setattr__(self, "base", tuple(tuple(map(float, b)) for b in self.base))
        if self.flip is not None:
            object.__setattr__(self, "flip", tuple(int(t) for t in self.flip))


@dataclass(frozen=True)
class BBJData:
    lhs: tuple
    rhs: tuple

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(tuple(map(float, r)) for r in self.lhs))
        object.__setattr__(self, "rhs", tuple(tuple(map(float, b)) for b in self.rhs))
        m = len(self.lhs)
        if any(len(b) != m for b in self.rhs):
            raise sets.DimensionMismatch("each right-hand side needs one entry per row")


@dataclass(frozen=True)
class IsotoneData:
    """Signed-frame data for the positive-part gauge construction.  hulls,
    when given, declares per piece either None (keep the piece's own gauge),
    "free" (the piece is exactly the intersection of its per-direction
    half-spaces), or a set whose intersection with those half-spaces equals
    the piece.  positive_part=False builds the weakened single-gauge variant
    without the positive-part recombination."""

    pieces: tuple
    basis: tuple
    signs: tuple
    base: tuple
    hulls: tuple | None = None
    positive_part: bool = True
    check: bool = True

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "basis", tuple(tuple(map(float, r)) for r in self.basis))
        object.__setattr__(self, "signs", tuple(tuple(map(int, s)) for s in self.signs))
        object.__setattr__(self, "base", tuple(tuple(map(float, b)) for b in self.base))
        if self.hulls is not None:
            object.__setattr__(self, "hulls", tuple(self.hulls))


@dataclass(frozen=True)
class ProblemSpec:
    sets: tuple
    base_points: tuple | None = None
    method: str = "extended"
    params: object = None

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise FamilyInvalid("at least one disjunct is required")
        n = self.sets[0].dim
        if any(S.dim != n for S in self.sets):
            raise sets.DimensionMismatch("disjuncts live in different dimensions")
        if self.base_points is not None:
            bp = tuple(tuple(map(float, b)) for b in self.base_points)
            object.__setattr__(self, "base_points", bp)
            if len(bp) != len(self.sets) or any(len(b) != n for b in bp):
                raise sets.DimensionMismatch("one n-vector base point per disjunct")

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    @property
    def k(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class Formulation:
    name: str
    variables: tuple
    atoms: tuple
    provenance: tuple  # one label, the atom's paper_ref, per atom
    sets: tuple
    x_names: tuple
    y_names: tuple
    notes: tuple = ()
    dedup_removed: int = 0
    mode: str = "plus"  # or "lifted": positive parts as auxiliary rows
    objective: tuple | None = None  # ((name, coeff), ...)

    def __post_init__(self):
        if len(self.atoms) != len(self.provenance):
            raise ValueError("one provenance label per atom")
        if len({v.name for v in self.variables}) != len(self.variables):
            raise ValueError("variable names must be unique")

    def constraint_ids(self) -> tuple:
        return tuple(f"c{i}" for i in range(len(self.atoms)))


def _xy_names(spec: ProblemSpec):
    return (
        tuple(f"x{j}" for j in range(spec.dim)),
        tuple(f"y{i}" for i in range(spec.k)),
    )


def _formulation(
    method: str, spec: ProblemSpec, atoms, aux=(), notes=(), dedup: bool = False
) -> Formulation:
    """Finish a construction: the shared x, the binary y and the auxiliary
    continuous variables, in that order, the unit-sum row after the given
    atoms, later duplicate atoms dropped when asked, and the method's label
    on each atom."""
    x_names, y_names = _xy_names(spec)
    variables = (
        *(Variable(nm, "continuous") for nm in x_names),
        *(Variable(nm, "binary", 0.0, 1.0) for nm in y_names),
        *(Variable(nm, "continuous") for nm in aux),
    )
    atoms = (*atoms, Linear(combo(y_names, [1.0] * len(y_names), -1.0), "eq"))
    removed = 0
    if dedup:
        atoms, removed = dedup_atoms(atoms)
    return Formulation(
        method,
        variables,
        atoms,
        (LABELS[method],) * len(atoms),
        spec.sets,
        x_names,
        y_names,
        notes=notes,
        dedup_removed=removed,
    )


def _shifted(S: SetExpr, b) -> SetExpr:
    """S moved so that base point b sits at the origin."""
    return sets.translate(S, tuple(-v for v in b)) if any(b) else S


def _require_bases(spec: ProblemSpec):
    if spec.base_points is None:
        raise FamilyInvalid("this construction needs one base point per disjunct")
    report = sets.validate_family(spec.sets, spec.base_points)
    if report.verdict == "fail":
        raise FamilyInvalid(f"family validation failed: {report.detail}")


# ---------------------------------------------------------------------------
# atom deduplication
# ---------------------------------------------------------------------------


def _round_key(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return int(round(v / DEDUP_TOL))


def _aff_key(e: Aff, scale: float = 1.0):
    return (
        tuple((nm, _round_key(c / scale)) for nm, c in e.terms),
        _round_key(e.const / scale),
    )


def _aff_lead(e: Aff) -> float:
    for _, c in e.terms:
        if c != 0.0:
            return abs(c)
    return abs(e.const) if e.const else 1.0


def _aff_sign_canon(e: Aff) -> Aff:
    for _, c in e.terms:
        if c != 0.0:
            return e if c > 0 else e.scaled(-1.0)
    return e if e.const >= 0 else e.scaled(-1.0)


def atom_key(atom):
    """Canonical hashable identity for duplicate elimination.

    Linear atoms are scaled by their leading coefficient (sign-normalized
    for equations, where both orientations mean the same row); cone atoms
    are scaled jointly and their norm arguments sign-normalized and sorted;
    gauge and perspective atoms compare structurally.
    """
    if isinstance(atom, Linear):
        e = atom.expr
        if atom.relation == "eq":
            e = _aff_sign_canon(e)
        return ("lin", atom.relation, _aff_key(e, _aff_lead(e)))
    if isinstance(atom, SOC):
        scale = _aff_lead(atom.bound)
        if scale == 0.0:
            scale = max((_aff_lead(a) for a in atom.arg), default=1.0)
        args = sorted(_aff_key(_aff_sign_canon(a), scale) for a in atom.arg)
        return ("soc", tuple(args), _aff_key(atom.bound, scale))
    if isinstance(atom, Perspective):
        return (
            "persp",
            atom.fn,
            tuple(_aff_key(a) for a in atom.arg),
            _aff_key(atom.scale),
        )
    if isinstance(atom, GaugePlus):
        terms = tuple(
            (tuple(_round_key(c) for c in d), _aff_key(e)) for d, e in atom.terms
        )
        return (
            "gauge",
            atom.set_ref,
            tuple(sorted(terms)),
            _aff_key(atom.rhs),
            atom.positive_part,
        )
    raise TypeError(f"unknown atom {atom!r}")


def dedup_atoms(atoms):
    """Drop later duplicates, keeping first-occurrence order.  Returns the
    reduced atom tuple and the number removed."""
    seen = set()
    out = []
    for atom in atoms:
        key = atom_key(atom)
        if key in seen:
            continue
        seen.add(key)
        out.append(atom)
    return tuple(out), len(atoms) - len(out)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_extended(spec: ProblemSpec) -> Formulation:
    """One homogenized copy of x per disjunct, tied by a linking row.

    Copy i must lie in y_i times the disjunct itself, the closed perspective
    of S_i at (x_i, y_i); the copies sum to the shared x and the indicators
    sum to one.  The base points are checked but do not enter the model.
    """
    _require_bases(spec)
    n, k = spec.dim, spec.k
    gen = NameGen()
    atoms, aux = [], []
    copy_names = []
    for i, S in enumerate(spec.sets):
        names = tuple(f"x{i}_{j}" for j in range(n))
        copy_names.append(names)
        w = tuple(Aff.var(nm) for nm in names)
        block, block_aux = gauge_mod.lower_epigraph(S, w, Aff.var(f"y{i}"), gen)
        aux += [*names, *block_aux]
        atoms.extend(block)
    for j in range(n):
        names = [cp[j] for cp in copy_names] + [f"x{j}"]
        coeffs = [1.0] * k + [-1.0]
        atoms.append(Linear(combo(names, coeffs), "eq"))
    return _formulation("extended", spec, atoms, aux)


@dataclass(frozen=True)
class BigMEntry:
    value: float
    exact: bool

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class BigMTable:
    values: tuple
    exact: tuple
    coordinate_values: tuple  # per row: gauge values times the box half-width


def _gauge_sup_candidates(S: SetExpr):
    """Candidate maximizers of a convex function over S, plus an exactness
    flag (extreme-point enumeration when S is a polytope or finite box)."""
    if isinstance(S, sets.VPolytope):
        return [np.asarray(v, dtype=float) for v in S.vertices], True
    if isinstance(S, sets.Box):
        lo = np.asarray(S.lower, dtype=float)
        hi = np.asarray(S.upper, dtype=float)
        n = lo.shape[0]
        if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and n <= 10:
            pts = []
            for mask in range(1 << n):
                pts.append(
                    np.array([hi[j] if mask >> j & 1 else lo[j] for j in range(n)])
                )
            return pts, True
    n = S.dim
    out = []
    for u in analysis.sample_directions(n, BIGM_DIRS, analysis.DEFAULT_SEED, axes_first=True):
        try:
            out.append(sets.exposed_point(S, u))
        except sets.UnboundedDirection:
            continue
    return out, False


def minimal_bigm(spec: ProblemSpec, i: int, j: int) -> BigMEntry:
    """Smallest activation coefficient for pair (i, j): the largest gauge
    value of disjunct i's unit (base-shifted) body over disjunct j.  Exact
    when disjunct j's extreme points are enumerable, otherwise a sampled
    lower bound."""
    if i == j:
        raise ValueError("activation coefficients are defined for distinct pairs")
    _require_bases(spec)
    return _pair_bigm(spec, i, j)


def _pair_bigm(spec: ProblemSpec, i: int, j: int) -> BigMEntry:
    """minimal_bigm for a family already validated."""
    Ci, Cj = spec.sets[i], spec.sets[j]
    bi = np.asarray(spec.base_points[i], dtype=float)
    cands, exact = _gauge_sup_candidates(Cj)
    best = 0.0
    for p in cands:
        g = sets.gauge_value(Ci, bi, p)
        if math.isinf(g):
            raise UnboundedM(f"no finite activation bound for pair ({i}, {j})")
        best = max(best, g)
    return BigMEntry(best, exact)


def _uniform_box_halfwidth(S: SetExpr, base) -> float | None:
    if not isinstance(S, sets.Box):
        return None
    lo = np.asarray(S.lower, dtype=float)
    hi = np.asarray(S.upper, dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        return None
    b = np.asarray(base, dtype=float)
    half = hi - b
    if np.allclose(b - lo, half, atol=1e-12) and np.allclose(half, half[0], atol=1e-12):
        return float(half[0])
    return None


def bigm_table(spec: ProblemSpec) -> BigMTable:
    """Full activation matrix with exactness flags and, for rows whose unit
    body is a uniform box, the equivalent coordinate-unit values."""
    _require_bases(spec)
    k = spec.k
    values, exact, coord = [], [], []
    for i in range(k):
        vr, er, cr = [], [], []
        half = _uniform_box_halfwidth(spec.sets[i], spec.base_points[i])
        for j in range(k):
            if i == j:
                entry = BigMEntry(1.0, True)
            else:
                entry = _pair_bigm(spec, i, j)
            vr.append(entry.value)
            er.append(entry.exact)
            cr.append(entry.value * half if half is not None else None)
        values.append(tuple(vr))
        exact.append(tuple(er))
        coord.append(tuple(cr))
    return BigMTable(tuple(values), tuple(exact), tuple(coord))


def build_bigm(spec: ProblemSpec) -> Formulation:
    """Gauge bound per disjunct on the shared x, activated through M."""
    n, k = spec.dim, spec.k
    data = spec.params if isinstance(spec.params, BigMData) else BigMData()
    notes = ()
    if data.M is not None:
        _require_bases(spec)
        M = [list(row) for row in data.M]
        if len(M) != k or any(len(r) != k for r in M):
            raise MMatrixInvalid("activation matrix must be k by k")
    else:
        table = bigm_table(spec)  # validates the family
        M = [list(row) for row in table.values]
        if not all(all(r) for r in table.exact):
            notes = ("constants-approximate",)
    for i in range(k):
        if abs(M[i][i] - 1.0) > 1e-9:
            raise MMatrixInvalid(f"diagonal entry {i} must be one")
    bases = [np.asarray(b, dtype=float) for b in spec.base_points]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for u in analysis.sample_directions(n, BIGM_PROBE_DIRS, analysis.DEFAULT_SEED):
                try:
                    p = sets.exposed_point(spec.sets[j], u)
                except sets.UnboundedDirection:
                    continue
                g = sets.gauge_value(spec.sets[i], bases[i], p)
                if g > M[i][j] + 1e-6:
                    raise MMatrixInvalid(
                        f"disjunct {j} escapes the level set of pair ({i}, {j})"
                    )
    _, y_names = _xy_names(spec)
    gen = NameGen()
    atoms, aux = [], []
    for i, (S, b) in enumerate(zip(spec.sets, spec.base_points)):
        w = tuple(
            Aff.var(f"x{j}") + Aff.const_of(-b[j]) if b[j] else Aff.var(f"x{j}")
            for j in range(n)
        )
        tau = combo(y_names, M[i])
        block, block_aux = gauge_mod.lower_epigraph(_shifted(S, b), w, tau, gen)
        aux.extend(block_aux)
        atoms.extend(block)
    return _formulation("bigm", spec, atoms, aux, notes)


def _probe_homothety(disjuncts, fam: HomothetyData):
    """Sampled support-equality probe of the declared translate/scale map."""
    n = fam.template.dim
    for u in analysis.sample_directions(n, HOMOTHETY_PROBES, analysis.DEFAULT_SEED):
        s0 = sets.support(fam.template, u)
        for i, (S, b, r) in enumerate(zip(disjuncts, fam.base, fam.radii)):
            si = sets.support(S, u)
            if math.isinf(s0):
                if r > 0 and not math.isinf(si):
                    raise HomothetyMismatch(
                        f"disjunct {i} is bounded where the template is not",
                        tuple(float(v) for v in u),
                    )
                continue
            want = r * s0 + float(np.dot(b, u))
            if math.isinf(si) or abs(si - want) > 1e-6 * (1.0 + abs(want)):
                raise HomothetyMismatch(
                    f"disjunct {i} support differs from the declared map",
                    tuple(float(v) for v in u),
                )


def _homothetic_block(fam: HomothetyData, x_names, y_names, gen: NameGen):
    n = len(x_names)
    w = []
    for j in range(n):
        e = Aff.var(x_names[j])
        for i, b in enumerate(fam.base):
            if b[j]:
                e = e + Aff.var(y_names[i]).scaled(-b[j])
        w.append(e)
    tau = combo(y_names, fam.radii)
    return gauge_mod.lower_epigraph(fam.template, tuple(w), tau, gen)


def build_homothetic(spec: ProblemSpec) -> Formulation:
    """Single gauge block: x minus the indicator-weighted base points lies in
    the indicator-weighted multiple of the template."""
    fam = spec.params
    if not isinstance(fam, HomothetyData):
        raise FamilyInvalid("homothetic construction needs HomothetyData")
    if len(fam.radii) != spec.k:
        raise sets.DimensionMismatch("one radius per disjunct")
    _probe_homothety(spec.sets, fam)
    block, aux = _homothetic_block(fam, *_xy_names(spec), NameGen())
    return _formulation("homothetic", spec, block, aux)


def build_piecewise(spec: ProblemSpec) -> Formulation:
    """Conjunction of per-family homothetic blocks with duplicate atoms
    removed across families."""
    data = spec.params
    if not isinstance(data, PiecewiseData):
        raise FamilyInvalid("piecewise construction needs PiecewiseData")
    gen = NameGen()
    atoms, aux = [], []
    for fam in data.families:
        if len(fam.radii) != spec.k:
            raise sets.DimensionMismatch("one radius per disjunct in each family")
        block, block_aux = _homothetic_block(fam, *_xy_names(spec), gen)
        aux.extend(block_aux)
        atoms.extend(block)
    return _formulation("piecewise", spec, atoms, aux, dedup=True)


def _frame_cone(basis: np.ndarray, signs) -> SetExpr:
    """The cone spanned by the signed frame rays (zero signs pin the
    component to zero)."""
    n = basis.shape[1]
    rays = [signs[j] * basis[j] for j in range(basis.shape[0]) if signs[j]]
    origin = sets.vpoly([tuple(0.0 for _ in range(n))])
    if not rays:
        return origin
    return sets.sum_cone(origin, [tuple(map(float, r)) for r in rays])


def _support_const(S: SetExpr, d: np.ndarray, what: str) -> float:
    val = sets.support(S, d)
    if math.isinf(val):
        raise OracleUnbounded(f"{what} is unbounded along the frame")
    return val


def _activation(x_names, y_names, u: np.ndarray, i: int, base, pieces, what: str) -> Aff:
    """u.x - sum_l c_l y_l, with c_i = u.base the constant of piece i itself
    and c_l the support of piece l along u for the others."""
    expr = combo(x_names, u)
    for l, S in enumerate(pieces):
        c = float(u @ base) if l == i else _support_const(S, u, f"piece {l} {what}")
        if c:
            expr = expr + Aff.var(y_names[l]).scaled(-c)
    return expr


def _signed_frames(basis, signs, dim: int, flip=None) -> list[SignedBasis]:
    """One validated signed frame per piece (t = flip, or all ones); a frame
    needs dim directions of length dim and dim signs."""
    frames = []
    for i, s in enumerate(signs):
        if len(basis) != dim or len(s) != dim or any(len(v) != dim for v in basis):
            raise sets.DimensionMismatch(
                f"piece {i}: the frame has {len(basis)} directions and {len(s)} signs, "
                f"the dimension is {dim}"
            )
        frame = SignedBasis(basis, s, flip if flip is not None else (1,) * len(s))
        frame.validate()
        frames.append(frame)
    return frames


def _check_cone_sum(pieces, frames) -> None:
    """The cone-sum condition of each piece over its frame, naming the piece
    in the error."""
    for i, (piece, frame) in enumerate(zip(pieces, frames)):
        try:
            gauge_mod._probe_cone_sum_condition(
                piece, frame, probes=200, seed=analysis.DEFAULT_SEED
            )
        except gauge_mod.ConditionViolated as exc:
            raise gauge_mod.ConditionViolated(f"piece {i}: {exc}", exc.witness) from None


def build_orthogonal(spec: ProblemSpec) -> Formulation:
    """Signed-frame gauge construction.

    With a flip vector: one positive-part gauge atom per piece over its
    untranslated body plus one sign row per frame direction, all constants
    from support oracles.  Without a flip vector: the plain projection form,
    one gauge atom per disjunct over the frame coordinates it owns, no sign
    rows and no positive parts.
    """
    data = spec.params
    if not isinstance(data, OrthogonalData):
        raise FamilyInvalid("orthogonal construction needs OrthogonalData")
    n, k = spec.dim, spec.k
    V = np.asarray(data.basis, dtype=float)
    frames = _signed_frames(data.basis, data.signs, n, data.flip)
    x_names, y_names = _xy_names(spec)
    atoms = []

    if data.flip is None:
        if spec.base_points is None:
            raise FamilyInvalid("projection form needs base points")
        for i in range(k):
            b = np.asarray(spec.base_points[i], dtype=float)
            terms = []
            for j in data.coord_sets[i]:
                vj = V[j]
                expr = combo(x_names, vj) + Aff.var(y_names[i]).scaled(-float(vj @ b))
                terms.append((tuple(map(float, vj)), expr))
            shifted = _shifted(spec.sets[i], b)
            atoms.append(
                GaugePlus(shifted, tuple(terms), Aff.var(y_names[i]), positive_part=False)
            )
    else:
        t = np.asarray(data.flip, dtype=float)
        if data.check:
            _check_cone_sum(data.pieces, frames)
        domains = []
        for i in range(k):
            body = sets.intersect(data.pieces[i], _frame_cone(V, data.signs[i]))
            domains.append(sets.translate(body, data.base[i]))
        for i in range(k):
            s = data.signs[i]
            terms = []
            for j in data.coord_sets[i]:
                if s[j] == 0 or s[j] * data.flip[j] != -1:
                    continue
                u = s[j] * V[j]
                expr = _activation(x_names, y_names, u, i, data.base[i], domains, "bound")
                terms.append((tuple(map(float, u)), expr))
            if terms:
                atoms.append(
                    GaugePlus(
                        data.pieces[i], tuple(terms), Aff.var(y_names[i]), positive_part=True
                    )
                )
        for j in range(n):
            d = t[j] * V[j]
            expr = combo(x_names, d).scaled(-1.0)
            for l in range(k):
                lo = -_support_const(domains[l], -d, f"piece {l} sign row")
                if lo:
                    expr = expr + Aff.var(y_names[l]).scaled(lo)
            atoms.append(Linear(expr))
    return _formulation("orthogonal", spec, atoms)


def build_bbj(spec: ProblemSpec) -> Formulation:
    """Shared-matrix rows with indicator-averaged right-hand sides."""
    data = spec.params
    if not isinstance(data, BBJData):
        raise FamilyInvalid("shared-matrix construction needs BBJData")
    n, k = spec.dim, spec.k
    A = np.asarray(data.lhs, dtype=float)
    if A.shape[1] != n:
        raise sets.DimensionMismatch("matrix width differs from the dimension")
    if len(data.rhs) != k:
        raise sets.DimensionMismatch("one right-hand side per disjunct")
    for i, b in enumerate(data.rhs):
        if sets.find_point(sets.hpoly(A, b)) is None:
            raise EmptyPiece(f"disjunct {i} is empty")
    x_names, y_names = _xy_names(spec)
    atoms = []
    for r in range(A.shape[0]):
        names, coeffs = [], []
        for c in range(n):
            if A[r, c]:
                names.append(x_names[c])
                coeffs.append(float(A[r, c]))
        for i in range(k):
            if data.rhs[i][r]:
                names.append(y_names[i])
                coeffs.append(-float(data.rhs[i][r]))
        atoms.append(Linear(combo(names, coeffs)))
    return _formulation("bbj", spec, atoms)


def build_isotone_general(spec: ProblemSpec) -> Formulation:
    """Positive-part gauge over a signed frame plus per-direction bounds.

    Per piece: the gauge of the frame recombination of the positive parts of
    the frame coordinates, shifted by oracle-computed activation constants.
    Per frame direction: lower and upper bound rows mixing the disjuncts'
    extreme coordinate values.  A declared hull replaces a piece's gauge by
    the hull's gauge intersected with the per-direction half-spaces.
    """
    data = spec.params
    if not isinstance(data, IsotoneData):
        raise FamilyInvalid("isotone construction needs IsotoneData")
    n, k = spec.dim, spec.k
    V = np.asarray(data.basis, dtype=float)
    disjuncts = spec.sets
    frames = _signed_frames(data.basis, data.signs, n)
    if data.check:
        _check_cone_sum([_shifted(S, b) for S, b in zip(disjuncts, data.base)], frames)
    x_names, y_names = _xy_names(spec)
    atoms = []
    for i in range(k):
        s = data.signs[i]
        bi = np.asarray(data.base[i], dtype=float)
        terms = []
        levels = []
        for j in range(n):
            u = s[j] * V[j]
            expr = _activation(x_names, y_names, u, i, bi, disjuncts, "activation")
            terms.append((tuple(map(float, u)), expr))
            levels.append(
                _support_const(disjuncts[i], u, f"piece {i} level") - float(u @ bi)
            )
        hull = data.hulls[i] if data.hulls is not None else None
        if hull is None:
            set_ref = data.pieces[i]
        else:
            rows = sets.hpoly([s[j] * V[j] for j in range(n)], levels)
            set_ref = rows if hull == "free" else sets.intersect(hull, rows)
        atoms.append(
            GaugePlus(set_ref, tuple(terms), Aff.var(y_names[i]), data.positive_part)
        )
    for j in range(n):
        lows, ups = [], []
        for i in range(k):
            ups.append(_support_const(disjuncts[i], V[j], f"piece {i} upper bound"))
            lows.append(-_support_const(disjuncts[i], -V[j], f"piece {i} lower bound"))
        ve = combo(x_names, V[j])
        atoms.append(Linear(combo(y_names, lows) - ve))
        atoms.append(Linear(ve - combo(y_names, ups)))
    return _formulation("isotone", spec, atoms, dedup=True)


BUILDERS = {
    "extended": build_extended,
    "bigm": build_bigm,
    "homothetic": build_homothetic,
    "piecewise": build_piecewise,
    "orthogonal": build_orthogonal,
    "bbj": build_bbj,
    "isotone": build_isotone_general,
}


def build(spec: ProblemSpec) -> Formulation:
    """Dispatch on spec.method."""
    try:
        fn = BUILDERS[spec.method]
    except KeyError:
        raise FamilyInvalid(f"unknown method {spec.method!r}") from None
    return fn(spec)
