"""Bundled example instances for the test suite and the CLI.

Each exN function returns a ready ProblemSpec; the registry maps example
names to their variants.  Numeric constants that come from oracle
computations (activation coefficients, box radii, witness points) are
written in closed form where one exists and frozen otherwise.
"""

from __future__ import annotations

import math

from . import sets
from .builders import (
    BigMData,
    HomothetyData,
    IsotoneData,
    PiecewiseData,
    ProblemSpec,
)

SQRT2 = math.sqrt(2.0)

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# ex1 / ex3: planar hyperbola-bounded body and a box
# ---------------------------------------------------------------------------


def _hyperbola_all_signs() -> sets.ConicRep:
    """Planar body cut out by one norm row per sign pattern:
    ||(2, s1 x1 - s2 x2)|| <= 4 - s1 x1 - s2 x2 for all four (s1, s2)."""
    A, c, cones = [], [], []
    for s1, s2 in SIGN_PAIRS:
        A.extend([[-s1, -s2], [0.0, 0.0], [s1, -s2]])
        c.extend([4.0, 2.0, 0.0])
        cones.append(("soc", 3))
    return sets.conic(A, (), c, cones)


def _hyperbola_one_sign(s1: int, s2: int) -> sets.SetExpr:
    """Single-branch variant with its two guard rows s_j x_j <= 3/2."""
    soc = sets.conic(
        [[-s1, -s2], [0.0, 0.0], [s1, -s2]], (), [4.0, 2.0, 0.0], [("soc", 3)]
    )
    guard = sets.hpoly([[float(s1), 0.0], [0.0, float(s2)]], [1.5, 1.5])
    return sets.intersect(soc, guard)


def ex1_sets() -> tuple:
    return (_hyperbola_all_signs(), sets.box((-1.25, -1.25), (1.25, 1.25)))


def ex1(variant: str = "extended") -> ProblemSpec:
    """Two-piece planar disjunction; variants select the construction.

    The pinned activation matrix entries are the minimal ones: 5/4 is the
    gauge of the curved body at the box corner scaled out, and 6/5 is the
    box gauge of the curved body's extreme axis point (3/2, 0)."""
    pieces = ex1_sets()
    base = ((0.0, 0.0), (0.0, 0.0))
    if variant == "extended":
        return ProblemSpec(pieces, base, "extended", None)
    if variant == "bigm":
        return ProblemSpec(
            pieces, base, "bigm", BigMData(M=((1.0, 1.25), (1.2, 1.0)))
        )
    raise KeyError(f"ex1 has no variant {variant!r}")


def ex3() -> ProblemSpec:
    """Same disjunction as ex1, built from four single-branch covers."""
    fams = []
    for s1, s2 in SIGN_PAIRS:
        fams.append(
            HomothetyData(
                _hyperbola_one_sign(s1, s2),
                base=((0.0, 0.0), (1.25 * s1, 1.25 * s2)),
                radii=(1.0, 0.0),
            )
        )
    return ProblemSpec(
        ex1_sets(), ((0.0, 0.0), (0.0, 0.0)), "piecewise", PiecewiseData(tuple(fams))
    )


# ---------------------------------------------------------------------------
# ex4: two shared-matrix polyhedra
# ---------------------------------------------------------------------------

EX4_LHS = ((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.0, -1.0, 1.0))
EX4_RHS = ((1.0, 1.0, 2.0, 2.0), (2.0, 2.0, 1.0, 1.0))

# fractional extreme point of the original relaxation: (x, y)
EX4_FRACTIONAL_POINT = (0.0, 0.0, 1.5, 0.5, 0.5)


def ex4(variant: str = "original") -> ProblemSpec:
    if variant == "original":
        lhs, rhs = EX4_LHS, EX4_RHS
    elif variant == "augmented":
        # one extra shared row caps x3 at each piece's own maximum (both 1)
        lhs = EX4_LHS + ((0.0, 0.0, 1.0),)
        rhs = tuple(b + (1.0,) for b in EX4_RHS)
    else:
        raise KeyError(f"ex4 has no variant {variant!r}")
    pieces = tuple(sets.hpoly(lhs, b) for b in rhs)
    return ProblemSpec(pieces, None, "bbj")


# ---------------------------------------------------------------------------
# ex5: two norm-capped cones over (x0, x1)
# ---------------------------------------------------------------------------


def _ex5_body(sign_norm: int, sign_cap: int) -> sets.ConicRep:
    """{(x0, x1): ||(x1, 1)|| <= sqrt(2) + sign_norm x0,
                  |x1| <= 1 + sign_cap x0}."""
    return sets.conic(
        [
            [float(sign_norm), 0.0],
            [0.0, 1.0],
            [0.0, 0.0],
            [float(sign_cap), 0.0],
            [0.0, 1.0],
        ],
        (),
        [SQRT2, 0.0, 1.0, 1.0, 0.0],
        [("soc", 3), ("soc", 2)],
    )


def _ex5_double_cap() -> sets.ConicRep:
    """{(x0, x1): |x1| <= 1 + x0, |x1| <= 1 - x0}."""
    return sets.conic(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 1.0]],
        (),
        [1.0, 0.0, 1.0, 0.0],
        [("soc", 2), ("soc", 2)],
    )


def ex5_sets() -> tuple:
    return (_ex5_body(-1, 1), _ex5_body(1, -1))


def ex5(variant: str = "pair") -> ProblemSpec:
    """Two-cover family (variant "pair") plus a redundant third cover whose
    atoms all collapse into the first two ("triple")."""
    fams = [
        HomothetyData(_ex5_body(-1, -1), base=((0.0, 0.0), (1.0, 0.0)), radii=(1.0, 0.0)),
        HomothetyData(_ex5_body(1, 1), base=((-1.0, 0.0), (0.0, 0.0)), radii=(0.0, 1.0)),
    ]
    if variant == "triple":
        fams.append(
            HomothetyData(
                _ex5_double_cap(), base=((0.0, 0.0), (0.0, 0.0)), radii=(1.0, 1.0)
            )
        )
    elif variant != "pair":
        raise KeyError(f"ex5 has no variant {variant!r}")
    return ProblemSpec(ex5_sets(), None, "piecewise", PiecewiseData(tuple(fams)))


# ---------------------------------------------------------------------------
# ex6: segment and parabolic slab
# ---------------------------------------------------------------------------


def _parab_template(side: int) -> sets.SetExpr:
    """{x: ((side * x1)^+)^2 <= x2 <= 1}."""
    q = sets.level_set(sets.QuadraticPlus((float(side), 0.0), 0.0, (0.0, 1.0)))
    cap = sets.hpoly([[0.0, 1.0]], [1.0])
    return sets.intersect(q, cap)


def ex6_sets() -> tuple:
    seg = sets.box((-1.0, 0.0), (1.0, 0.0))
    slab = sets.intersect(
        sets.level_set(sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0))),
        sets.level_set(sets.QuadraticPlus((-1.0, 0.0), 0.0, (0.0, 1.0))),
        sets.box((-1.0, 0.0), (1.0, 1.0)),
    )
    return (seg, slab)


def ex6() -> ProblemSpec:
    fams = (
        HomothetyData(_parab_template(-1), ((-1.0, 0.0), (0.0, 0.0)), (0.0, 1.0)),
        HomothetyData(_parab_template(1), ((1.0, 0.0), (0.0, 0.0)), (0.0, 1.0)),
    )
    return ProblemSpec(ex6_sets(), None, "piecewise", PiecewiseData(fams))


# ---------------------------------------------------------------------------
# ex7: geometric-mean body and shifted negative orthant
# ---------------------------------------------------------------------------

# box radius that puts the corner of [0, r]^3 on the curved boundary
EX7_R_TIGHT = 2.0 - 2.0 ** (-1.0 / 3.0)
EX7_R_WIDE = 2.0

# with r = 2: feasible for the no-positive-part relaxation at y = (1/2, 1/2)
# but cut off by the positive-part gauge atom (margin about 5e-2)
EX7_WITNESS_X = (0.711319, 0.711319, -0.5)
EX7_WITNESS_Y = (0.5, 0.5)


def _geo_body() -> sets.SetExpr:
    """{x: prod(2 - x_j) >= 1, x_j <= 2}."""
    return sets.level_set(sets.GeoMeanDeficit(2.0, 1.0, 3))


def _shifted_orthant() -> sets.SetExpr:
    return sets.box((-2.0, -2.0, -2.0), (math.inf, math.inf, math.inf))


def ex7_sets(r: float) -> tuple:
    c1 = sets.intersect(_geo_body(), sets.box((0.0, 0.0, 0.0), (r, r, r)))
    c2 = sets.box((-2.0, -2.0, -2.0), (0.0, 0.0, 0.0))
    return (c1, c2)


def ex7(variant: str = "plus") -> ProblemSpec:
    """Variants: "plus" and "single" use the tight box radius with and
    without the positive-part recombination; "wide" and "wide_single" use
    r = 2, where dropping the positive part admits the frozen witness."""
    if variant in ("plus", "single"):
        r = EX7_R_TIGHT
    elif variant in ("wide", "wide_single"):
        r = EX7_R_WIDE
    else:
        raise KeyError(f"ex7 has no variant {variant!r}")
    data = IsotoneData(
        pieces=(_geo_body(), _shifted_orthant()),
        basis=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        signs=((1, 1, 1), (-1, -1, -1)),
        base=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        hulls=(None, "free"),
        positive_part=variant in ("plus", "wide"),
    )
    return ProblemSpec(ex7_sets(r), None, "isotone", data)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY = {
    "ex1": ("extended", "bigm"),
    "ex3": ("default",),
    "ex4": ("original", "augmented"),
    "ex5": ("pair", "triple"),
    "ex6": ("default",),
    "ex7": ("plus", "single", "wide", "wide_single"),
}

# verdicts fixed by the examples' geometry; regenerated reports must agree
EXPECTED = {
    ("ex1", "extended"): {
        "sharp": "not-refuted",
        "ideal": "not-refuted",
        "minkowski": "not-refuted",
    },
    ("ex1", "bigm"): {"sharp": "fail", "ideal": "fail"},
    ("ex3", "default"): {"ideal": "not-refuted", "par": "not-refuted"},
    ("ex4", "original"): {"ideal": "fail", "bbj": "fail"},
    ("ex4", "augmented"): {"ideal": "pass", "bbj": "not-refuted"},
    ("ex5", "pair"): {"ideal": "not-refuted", "par": "fail"},
    ("ex5", "triple"): {"ideal": "not-refuted"},
    ("ex6", "default"): {"ideal": "not-refuted", "par": "not-refuted"},
    ("ex7", "single"): {"ideal": "not-refuted"},
}


def load(name: str, variant: str | None = None) -> ProblemSpec:
    if name not in REGISTRY:
        raise KeyError(f"unknown example {name!r}")
    variants = REGISTRY[name]
    v = variant or variants[0]
    if v not in variants:
        raise KeyError(f"{name} has no variant {v!r}")
    if name == "ex1":
        return ex1(v)
    if name == "ex3":
        return ex3()
    if name == "ex4":
        return ex4(v)
    if name == "ex5":
        return ex5(v)
    if name == "ex6":
        return ex6()
    return ex7(v)
