"""Oracles and example helpers shared by the test modules.

gauge_bisect only asks the membership predicate, so tests can hold
gauge.gauge_and_normal and sets.gauge_value against it without comparing
either with itself.  The example helpers give closed forms and cover sets of
the bundled examples that only the tests read.  The spec helpers give the
builder forms that no bundled example reaches: the homothetic block, both
orthogonal forms and big-M with activation constants computed by
`builders.bigm_table`.
"""

import math

import numpy as np

from dfc import analysis, builders, fixtures, sets

EYE2 = ((1.0, 0.0), (0.0, 1.0))


def gauge_bisect(
    S, x, hi: float = 8.0, steps: int = 200, tol: float = 1e-9, cap: float = 1e6
) -> float:
    """Gauge of x (S must contain the origin) by bisection on scaled
    membership at tolerance tol, for at most ``steps`` halvings.  hi is
    doubled until x / hi is a member; past cap the gauge is taken to be
    +inf."""
    x = np.asarray(x, dtype=float)
    while not sets.contains(S, x / hi, tol):
        hi *= 2.0
        if hi > cap:
            return math.inf
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is down to adjacent floats
        if sets.contains(S, x / mid, tol):
            hi = mid
        else:
            lo = mid
    return hi


def unit_disk_conic():
    """{x in R^2 : ||x|| <= 1} as a single second-order-cone block."""
    return sets.conic(
        A=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        B=None,
        c=[1.0, 0.0, 0.0],
        cones=[("soc", 3)],
    )


def maximize_over_relaxation(form, objective: dict):
    """Maximize a linear objective, given by variable name, over a
    formulation's relaxation (binaries in [0, 1])."""
    compiled = analysis.compile_relaxation(form)
    obj = np.zeros(len(compiled.names))
    for nm, c in objective.items():
        obj[compiled.index[nm]] += c
    return analysis.maximize_over_atoms(compiled, obj)


def ex1_outside_point(t: float) -> tuple:
    """Curve of points feasible for the big-M relaxation of ex1 at
    y = (t, 1-t) but outside the convex hull of the union, for t in (0, 1)."""
    x1 = (5.0 + t) / 4.0
    x2 = 1.25 * (5.0 - t) * (t - 1.0) / (3.0 * t - 5.0)
    return (x1, x2)


def ex5_covers(spec) -> list:
    """Cover sets per family of an ex5 spec, for the pairwise-condition check."""
    return [fam.cover_sets() for fam in spec.params.families]


def ex6_closed_form_member(point, tol: float = 1e-7) -> bool:
    """The closed-form membership test of ex6's relaxation:
    +-x1 - y1 <= sqrt(x2 y2), 0 <= x2 <= y2, -1 <= x1 <= 1, y simplex."""
    x1, x2, y1, y2 = (float(v) for v in point)
    if y1 < -tol or y2 < -tol or abs(y1 + y2 - 1.0) > tol:
        return False
    if x2 < -tol or x2 > y2 + tol or abs(x1) > 1.0 + tol:
        return False
    root = math.sqrt(max(x2, 0.0) * max(y2, 0.0))
    return x1 - y1 <= root + tol and -x1 - y1 <= root + tol


def homothetic_spec() -> builders.ProblemSpec:
    """Two unit boxes three apart as one homothety family."""
    template = sets.box((-1.0, -1.0), (1.0, 1.0))
    disjuncts = (template, sets.box((2.0, -1.0), (4.0, 1.0)))
    fam = builders.HomothetyData(template, ((0.0, 0.0), (3.0, 0.0)), (1.0, 1.0))
    return builders.ProblemSpec(disjuncts, None, "homothetic", fam)


def orthogonal_projection_spec() -> builders.ProblemSpec:
    """Two diagonal unit boxes, each owning one frame coordinate (no flip)."""
    disjuncts = (sets.box((0.0, 0.0), (1.0, 1.0)), sets.box((2.0, 2.0), (3.0, 3.0)))
    bases = ((0.0, 0.0), (2.0, 2.0))
    data = builders.OrthogonalData(
        pieces=disjuncts,
        basis=EYE2,
        coord_sets=((0,), (1,)),
        signs=((1, 1), (1, 1)),
        base=bases,
        flip=None,
    )
    return builders.ProblemSpec(disjuncts, bases, "orthogonal", data)


def orthogonal_flip_spec() -> builders.ProblemSpec:
    """The positive and negative unit quadrant boxes under flip (1, 1)."""
    pieces = (sets.box((0.0, 0.0), (1.0, 1.0)), sets.box((-1.0, -1.0), (0.0, 0.0)))
    data = builders.OrthogonalData(
        pieces=pieces,
        basis=EYE2,
        coord_sets=((0, 1), (0, 1)),
        signs=((1, 1), (-1, -1)),
        base=((0.0, 0.0), (0.0, 0.0)),
        flip=(1, 1),
    )
    return builders.ProblemSpec(pieces, None, "orthogonal", data)


def bigm_computed_spec() -> builders.ProblemSpec:
    """ex1's pieces and base points with no activation matrix, so the
    builder computes it (one entry is a sampled bound)."""
    spec = fixtures.ex1("bigm")
    return builders.ProblemSpec(spec.sets, spec.base_points, "bigm", builders.BigMData())
