"""Formulation builders over the bundled example catalog.

Frozen structural counts come from the catalog's geometry (each builder's
atom inventory is derivable by hand from the construction described in its
docstring).  Activation constants are checked against the closed-form gauge
ratios of the example bodies.
"""

import dataclasses
import math

import numpy as np
import pytest

from dfc import analysis, builders, fixtures, model, sets
from dfc.gauge import Aff, ConditionViolated, GaugePlus, Linear, SOC
from oracles import (
    EYE2,
    bigm_computed_spec,
    homothetic_spec,
    orthogonal_flip_spec,
    orthogonal_projection_spec,
)

SEED = 20240
INF = math.inf

# name, variant, atom count, kind histogram, variable count, dedup removals
STRUCTURE = [
    ("ex1", "extended", 11, {"Linear": 7, "SOC": 4}, 8, 0),
    ("ex1", "bigm", 9, {"Linear": 5, "SOC": 4}, 4, 0),
    ("ex3", "default", 9, {"Linear": 5, "SOC": 4}, 4, 4),
    ("ex4", "original", 5, {"Linear": 5}, 5, 0),
    ("ex4", "augmented", 6, {"Linear": 6}, 5, 0),
    ("ex5", "pair", 5, {"Linear": 1, "SOC": 4}, 4, 0),
    ("ex5", "triple", 5, {"Linear": 1, "SOC": 4}, 4, 2),
    ("ex6", "default", 4, {"Linear": 2, "Perspective": 2}, 4, 1),
    ("ex7", "plus", 9, {"GaugePlus": 2, "Linear": 7}, 5, 0),
    ("ex7", "single", 9, {"GaugePlus": 2, "Linear": 7}, 5, 0),
    ("ex7", "wide", 9, {"GaugePlus": 2, "Linear": 7}, 5, 0),
    ("ex7", "wide_single", 9, {"GaugePlus": 2, "Linear": 7}, 5, 0),
]

LABELS = {
    "ex1": {"extended": "extendedformulation", "bigm": "bigMformulation"},
    "ex3": {"default": "complexform"},
    "ex4": {"original": "blairform", "augmented": "blairform"},
    "ex5": {"pair": "complexform", "triple": "complexform"},
    "ex6": {"default": "complexform"},
    "ex7": {v: "isotonegeneralform" for v in fixtures.REGISTRY["ex7"]},
}


def kind_histogram(form):
    out = {}
    for a in form.atoms:
        out[type(a).__name__] = out.get(type(a).__name__, 0) + 1
    return out


def test_catalog_structure_frozen():
    for name, variant, n_atoms, kinds, n_vars, removed in STRUCTURE:
        form = builders.build(fixtures.load(name, variant))
        where = f"{name}/{variant}"
        assert len(form.atoms) == n_atoms, where
        assert kind_histogram(form) == kinds, where
        assert len(form.variables) == n_vars, where
        assert form.dedup_removed == removed, where
        assert set(form.provenance) == {LABELS[name][variant]}, where


def simplex_row_present(form):
    for atom in form.atoms:
        if not isinstance(atom, Linear) or atom.relation != "eq":
            continue
        terms = dict(atom.expr.terms)
        if set(terms) == set(form.y_names) and atom.expr.const == -1.0:
            if all(c == 1.0 for c in terms.values()):
                return True
    return False


def test_variable_naming_and_simplex_row():
    for name, variant, *_ in STRUCTURE:
        form = builders.build(fixtures.load(name, variant))
        n, k = len(form.x_names), len(form.y_names)
        assert form.x_names == tuple(f"x{j}" for j in range(n))
        assert form.y_names == tuple(f"y{i}" for i in range(k))
        for v in form.variables:
            if v.name in form.y_names:
                assert v.kind == "binary"
                assert (v.lb, v.ub) == (0.0, 1.0)
        assert simplex_row_present(form), f"{name}/{variant}"


@pytest.mark.parametrize("mode", ["plus", "lifted"])
def test_extended_model_does_not_depend_on_base_points(mode):
    """Each copy is the perspective of its piece itself, so the base points
    (checked, and inside the pieces) leave the model bytes as they are."""
    pieces = fixtures.ex1_sets()
    blobs = set()
    for base in (((0.0, 0.0), (0.0, 0.0)), ((0.1, 0.2), (0.3, -0.1)), ((-0.5, 0.25), (1.0, 1.0))):
        form = builders.build(builders.ProblemSpec(pieces, base, "extended", None))
        blobs.add(model.emit_json(model.lower_model(form, mode)))
    assert len(blobs) == 1


def test_ex7_variants_differ_only_in_positive_part_and_radius():
    plus = builders.build(fixtures.load("ex7", "plus"))
    single = builders.build(fixtures.load("ex7", "single"))
    for form, want in ((plus, True), (single, False)):
        flags = [a.positive_part for a in form.atoms if isinstance(a, GaugePlus)]
        assert flags == [want, want]
    gp = [a for a in plus.atoms if isinstance(a, GaugePlus)]
    # piece 0 keeps its own body, piece 1's "free" hull is half-space rows
    assert isinstance(gp[0].set_ref, sets.LevelSet)
    assert isinstance(gp[1].set_ref, sets.HPolyhedron)


# ---------------------------------------------------------------------------
# activation constants
# ---------------------------------------------------------------------------


def test_minimal_bigm_frozen_values():
    spec = fixtures.ex1("bigm")
    e01 = builders.minimal_bigm(spec, 0, 1)
    assert e01.value == pytest.approx(1.25, abs=1e-8)
    assert e01.exact
    e10 = builders.minimal_bigm(spec, 1, 0)
    assert e10.value == pytest.approx(1.2, abs=1e-8)
    assert not e10.exact
    assert float(e10) == e10.value
    with pytest.raises(ValueError):
        builders.minimal_bigm(spec, 1, 1)


def test_bigm_table_shape_and_coordinate_values():
    spec = fixtures.ex1("bigm")
    tab = builders.bigm_table(spec)
    assert tab.values[0][0] == 1.0 and tab.values[1][1] == 1.0
    assert tab.exact[0][0] and tab.exact[1][1]
    assert tab.values[0][1] == pytest.approx(1.25, abs=1e-8)
    assert tab.values[1][0] == pytest.approx(1.2, abs=1e-8)
    # second row's unit body is the uniform box of half-width 1.25
    assert tab.coordinate_values[1][0] == pytest.approx(1.5, abs=1e-8)
    assert tab.coordinate_values[0][1] is None


def test_bigm_builder_notes_approximate_constants():
    pinned = builders.build(fixtures.ex1("bigm"))
    assert pinned.notes == ()
    spec = fixtures.ex1("bigm")
    auto = builders.build(
        builders.ProblemSpec(spec.sets, spec.base_points, "bigm", None)
    )
    assert auto.notes == ("constants-approximate",)


def test_bigm_entry_points_validate_the_family_once(monkeypatch):
    calls = []
    validate = sets.validate_family
    monkeypatch.setattr(sets, "validate_family", lambda *a: calls.append(a) or validate(*a))
    spec = bigm_computed_spec()
    builders.build_bigm(spec)
    assert len(calls) == 1
    builders.bigm_table(spec)
    assert len(calls) == 2
    builders.minimal_bigm(spec, 0, 1)
    assert len(calls) == 3


def test_bigm_matrix_validation():
    spec = fixtures.ex1("bigm")
    bad_diag = builders.ProblemSpec(
        spec.sets, spec.base_points, "bigm", builders.BigMData(((0.9, 1.25), (1.2, 1.0)))
    )
    with pytest.raises(builders.MMatrixInvalid):
        builders.build(bad_diag)
    too_small = builders.ProblemSpec(
        spec.sets, spec.base_points, "bigm", builders.BigMData(((1.0, 1.25), (0.5, 1.0)))
    )
    with pytest.raises(builders.MMatrixInvalid):
        builders.build(too_small)
    bad_shape = builders.ProblemSpec(
        spec.sets, spec.base_points, "bigm", builders.BigMData(((1.0, 1.25),))
    )
    with pytest.raises(builders.MMatrixInvalid):
        builders.build(bad_shape)


def test_minimal_bigm_unbounded_gauge():
    spec = builders.ProblemSpec(
        (sets.box((0.0, 0.0), (0.0, 1.0)), sets.box((1.0, 1.0), (1.0, 1.0))),
        ((0.0, 0.0), (1.0, 1.0)),
        "bigm",
    )
    with pytest.raises(builders.UnboundedM):
        builders.minimal_bigm(spec, 0, 1)


def test_base_points_required():
    spec = fixtures.ex1("bigm")
    without = builders.ProblemSpec(spec.sets, None, "bigm")
    with pytest.raises(builders.FamilyInvalid):
        builders.build(without)


# ---------------------------------------------------------------------------
# homothetic and piecewise families
# ---------------------------------------------------------------------------


def test_homothety_probe_rejects_wrong_radius():
    template = sets.box((-1.0, -1.0), (1.0, 1.0))
    disjuncts = (template, sets.box((2.0, -1.0), (4.0, 1.0)))
    fam = builders.HomothetyData(template, ((0.0, 0.0), (3.0, 0.0)), (1.0, 0.5))
    spec = builders.ProblemSpec(disjuncts, None, "homothetic", fam)
    with pytest.raises(builders.HomothetyMismatch) as err:
        builders.build(spec)
    assert len(err.value.witness) == 2


def test_homothety_data_validation():
    template = sets.box((-1.0,), (1.0,))
    with pytest.raises(builders.FamilyInvalid):
        builders.HomothetyData(template, ((0.0,), (1.0,)), (0.0, 0.0))
    with pytest.raises(sets.DimensionMismatch):
        builders.HomothetyData(template, ((0.0,),), (1.0, 0.0))


def test_homothetic_matches_piecewise_single_family():
    spec = homothetic_spec()
    single = builders.build(spec)
    wrapped = builders.build(
        builders.ProblemSpec(
            spec.sets, None, "piecewise", builders.PiecewiseData((spec.params,))
        )
    )
    assert len(single.atoms) == len(wrapped.atoms)
    assert single.x_names == wrapped.x_names
    assert {type(a).__name__ for a in single.atoms} == {
        type(a).__name__ for a in wrapped.atoms
    }


def test_piecewise_needs_a_family():
    with pytest.raises(builders.FamilyInvalid):
        builders.PiecewiseData(())


def test_unknown_method_rejected():
    spec = fixtures.ex1("bigm")
    bad = builders.ProblemSpec(spec.sets, spec.base_points, "fancy")
    with pytest.raises(builders.FamilyInvalid):
        builders.build(bad)


def test_wrong_params_type_rejected():
    spec = fixtures.ex4("original")
    for method in ("homothetic", "piecewise", "orthogonal", "isotone"):
        bad = builders.ProblemSpec(spec.sets, None, method, None)
        with pytest.raises(builders.FamilyInvalid):
            builders.build(bad)


# ---------------------------------------------------------------------------
# shared-matrix builder
# ---------------------------------------------------------------------------


def test_bbj_rows_mix_rhs_through_indicators():
    form = builders.build(fixtures.ex4("original"))
    # row r reads a_r . x - sum_i b_i[r] y_i <= 0
    lhs = fixtures.EX4_LHS
    rhs = fixtures.EX4_RHS
    rows = [a for a in form.atoms if isinstance(a, Linear) and a.relation == "le"]
    assert len(rows) == len(lhs)
    for r, row in enumerate(rows):
        terms = dict(row.expr.terms)
        for j in range(3):
            assert terms.get(f"x{j}", 0.0) == lhs[r][j]
        for i in range(2):
            assert terms.get(f"y{i}", 0.0) == -rhs[i][r]
        assert row.expr.const == 0.0


def test_bbj_empty_piece_rejected():
    lhs = ((1.0,), (-1.0,))
    rhs = ((0.0, -1.0), (1.0, 0.0))  # first piece: x <= 0 and x >= 1
    pieces = tuple(sets.hpoly(lhs, b) for b in rhs)
    spec = builders.ProblemSpec(pieces, None, "bbj", builders.BBJData(lhs, rhs))
    with pytest.raises(builders.EmptyPiece):
        builders.build(spec)


def test_bbj_data_validation():
    with pytest.raises(sets.DimensionMismatch):
        builders.BBJData(((1.0,), (-1.0,)), ((0.0,),))


# ---------------------------------------------------------------------------
# signed-frame builders
# ---------------------------------------------------------------------------


def test_orthogonal_projection_form():
    form = builders.build(orthogonal_projection_spec())
    gp = [a for a in form.atoms if isinstance(a, GaugePlus)]
    assert len(gp) == 2
    assert all(not a.positive_part for a in gp)
    assert len(gp[0].terms) == 1 and len(gp[1].terms) == 1
    assert set(form.provenance) == {"orthogonalplusprojcone"}
    assert simplex_row_present(form)


def test_orthogonal_flip_form_structure_and_validity():
    form = builders.build(orthogonal_flip_spec())
    gp = [a for a in form.atoms if isinstance(a, GaugePlus)]
    # only the piece anti-aligned with the flip carries gauge terms
    assert len(gp) == 1
    assert gp[0].positive_part
    assert len(gp[0].terms) == 2
    sign_rows = [
        a for a in form.atoms if isinstance(a, Linear) and a.relation == "le"
    ]
    assert len(sign_rows) == 2
    # every indicator-weighted mixture of disjunct points stays feasible
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        p = rng.uniform(0.0, 1.0, size=2)
        q = rng.uniform(-1.0, 1.0, size=2) * 0.5 - 0.5
        w = float(rng.uniform(0.0, 1.0))
        x = w * p + (1.0 - w) * q
        env = {"x0": x[0], "x1": x[1], "y0": w, "y1": 1.0 - w}
        assert analysis.relaxation_max_violation(form, env) <= 1e-7


def test_orthogonal_flip_probe_rejects_escaping_piece():
    pieces = (sets.box((0.5, 0.0), (1.0, 1.0)), sets.box((-1.0, -1.0), (0.0, 0.0)))
    data = builders.OrthogonalData(
        pieces=pieces,
        basis=EYE2,
        coord_sets=((0, 1), (0, 1)),
        signs=((1, 1), (-1, -1)),
        base=((0.0, 0.0), (0.0, 0.0)),
        flip=(1, 1),
    )
    spec = builders.ProblemSpec(pieces, None, "orthogonal", data)
    with pytest.raises(ConditionViolated):
        builders.build(spec)


def test_isotone_probe_and_oracle_errors():
    bad = builders.IsotoneData(
        pieces=(sets.box((0.5, 0.0), (1.0, 1.0)),),
        basis=EYE2,
        signs=((1, 1),),
        base=((0.0, 0.0),),
    )
    spec = builders.ProblemSpec((sets.box((0.5, 0.0), (1.0, 1.0)),), None, "isotone", bad)
    with pytest.raises(ConditionViolated):
        builders.build(spec)

    unbounded = builders.ProblemSpec(
        (sets.box((0.0, 0.0), (INF, 1.0)), sets.box((-1.0, -1.0), (0.0, 0.0))),
        None,
        "isotone",
        builders.IsotoneData(
            pieces=(sets.box((0.0, 0.0), (1.0, 1.0)), sets.box((-1.0, -1.0), (0.0, 0.0))),
            basis=EYE2,
            signs=((1, 1), (-1, -1)),
            base=((0.0, 0.0), (0.0, 0.0)),
            check=False,
        ),
    )
    with pytest.raises(builders.OracleUnbounded):
        builders.build(unbounded)


SKEWED = ((1.0, 0.0), (1.0, 1.0))  # not orthonormal


@pytest.mark.parametrize("check", [False, True])
def test_isotone_rejects_a_skewed_frame(check):
    piece = sets.box((0.0, 0.0), (1.0, 1.0))
    data = builders.IsotoneData(
        pieces=(piece,), basis=SKEWED, signs=((1, 1),), base=((0.0, 0.0),), check=check
    )
    with pytest.raises(ValueError, match="orthonormal"):
        builders.build(builders.ProblemSpec((piece,), None, "isotone", data))


@pytest.mark.parametrize("flip", [None, (1, 1)])
def test_orthogonal_rejects_a_skewed_frame(flip):
    pieces = (sets.box((0.0, 0.0), (1.0, 1.0)), sets.box((-1.0, -1.0), (0.0, 0.0)))
    data = builders.OrthogonalData(
        pieces=pieces,
        basis=SKEWED,
        coord_sets=((0, 1), (0, 1)),
        signs=((1, 1), (-1, -1)),
        base=((0.0, 0.0), (0.0, 0.0)),
        flip=flip,
        check=False,
    )
    with pytest.raises(ValueError, match="orthonormal"):
        builders.build(builders.ProblemSpec(pieces, ((0.0, 0.0),) * 2, "orthogonal", data))


SHORT = ((1.0, 0.0),)  # one direction in two dimensions
HALVES = (sets.box((-1.0, -1.0), (0.0, 0.0)), sets.box((0.0, 0.0), (1.0, 1.0)))


def short_frame_isotone_spec() -> builders.ProblemSpec:
    data = builders.IsotoneData(
        pieces=HALVES, basis=SHORT, signs=((-1,), (1,)), base=((0.0, 0.0),) * 2
    )
    return builders.ProblemSpec(HALVES, None, "isotone", data)


def test_isotone_rejects_a_short_frame():
    with pytest.raises(sets.DimensionMismatch, match="piece 0: the frame has 1 directions"):
        builders.build(short_frame_isotone_spec())


@pytest.mark.parametrize("flip", [None, (1,)])
def test_orthogonal_rejects_a_short_frame(flip):
    data = builders.OrthogonalData(
        pieces=HALVES,
        basis=SHORT,
        coord_sets=((0,), (0,)),
        signs=((-1,), (1,)),
        base=((0.0, 0.0),) * 2,
        flip=flip,
    )
    spec = builders.ProblemSpec(HALVES, ((-0.5, -0.5), (0.5, 0.5)), "orthogonal", data)
    with pytest.raises(sets.DimensionMismatch, match="piece 0: the frame has 1 directions"):
        builders.build(spec)


def test_isotone_rejects_a_piece_with_short_signs():
    data = builders.IsotoneData(
        pieces=HALVES, basis=EYE2, signs=((-1, -1), (1,)), base=((0.0, 0.0),) * 2
    )
    with pytest.raises(sets.DimensionMismatch, match="piece 1: .* 1 signs"):
        builders.build(builders.ProblemSpec(HALVES, None, "isotone", data))


def thin_isotone_spec(eps: float = 0.01) -> builders.ProblemSpec:
    """Two isotone pieces; the second, [0,1]^2 cut by x1 - eps x0 <= 0.5, is
    not down-closed: zeroing x0 of (1, 0.5 + eps) leaves it."""
    thin = sets.intersect(sets.box((0.0, 0.0), (1.0, 1.0)), sets.hpoly([[-eps, 1.0]], [0.5]))
    low = sets.box((-1.0, -1.0), (0.0, 0.0))
    data = builders.IsotoneData(
        pieces=(low, thin),
        basis=EYE2,
        signs=((-1, -1), (1, 1)),
        base=((0.0, 0.0), (0.0, 0.0)),
    )
    return builders.ProblemSpec((low, thin), None, "isotone", data)


def test_cone_sum_error_names_piece_direction_and_witness():
    with pytest.raises(ConditionViolated) as err:
        builders.build(thin_isotone_spec())
    assert np.allclose(err.value.witness, (0.0, 0.51), atol=1e-9)
    assert str(err.value).startswith("piece 1: ")
    assert "frame direction 0" in str(err.value)
    assert "(0, 0.51)" in str(err.value)


@pytest.mark.parametrize("variant", fixtures.REGISTRY["ex7"])
def test_ex7_condition_holds_without_sampled_fallback(variant, monkeypatch):
    """The box rows of the ex7 pieces are decided by support values and the
    curved body by its recession cone, so no exposed point is asked for."""
    def refuse(S, u):
        raise AssertionError("sampled fallback used")

    monkeypatch.setattr(sets, "exposed_point", refuse)
    builders.build(fixtures.ex7(variant))
    for j in range(3):
        assert sets.recession_contains(fixtures._geo_body(), -np.eye(3)[j])


def test_translated_ex7_condition_holds_without_sampled_fallback(monkeypatch):
    """With base points the condition is tested on translate(piece, -base);
    the translates move onto the intersected parts, so the box rows are still
    decided by support values and the curved body by its recession cone."""
    def refuse(S, u):
        raise AssertionError("sampled fallback used")

    spec = fixtures.ex7("plus")
    b = (0.5, -0.25, 1.0)
    moved = tuple(sets.translate(S, b) for S in spec.sets)
    data = dataclasses.replace(spec.params, base=(b, b))
    monkeypatch.setattr(sets, "exposed_point", refuse)
    builders.build(builders.ProblemSpec(moved, None, "isotone", data))


@pytest.mark.parametrize("variant", fixtures.REGISTRY["ex7"])
def test_ex7_build_runs_at_most_18_cut_loops(variant, monkeypatch):
    """6 axis supports of each piece's C cap K for compactness and 6 frame
    supports of the curved disjunct for the constants; the condition's row
    tests reuse the axis supports."""
    loops = []
    maximize = analysis.maximize_over_atoms

    def counted(*args, **kwargs):
        loops.append(1)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(analysis, "maximize_over_atoms", counted)
    builders.build(fixtures.ex7(variant))
    assert len(loops) <= 18


# ---------------------------------------------------------------------------
# atom deduplication
# ---------------------------------------------------------------------------


def test_dedup_collapses_scaled_and_sign_flipped_rows():
    a1 = Linear(Aff.of({"x0": 1.0}, -1.0))
    a2 = Linear(Aff.of({"x0": 2.0}, -2.0))
    a3 = Linear(Aff.of({"x0": -1.0}, 1.0), "eq")
    a4 = Linear(Aff.of({"x0": 1.0}, -1.0), "eq")
    atoms, removed = builders.dedup_atoms([a1, a2, a3, a4, a1])
    assert atoms == (a1, a3)
    assert removed == 3


def test_dedup_keeps_distinct_nonlinear_atoms():
    s1 = SOC((Aff.var("x0"),), Aff.const_of(1.0))
    s2 = SOC((Aff.var("x0"),), Aff.const_of(2.0))
    atoms, removed = builders.dedup_atoms([s1, s2, s1])
    assert atoms == (s1, s2)
    assert removed == 1


def test_extended_copies_sum_to_x():
    form = builders.build(fixtures.ex1("extended"))
    eq_rows = [a for a in form.atoms if isinstance(a, Linear) and a.relation == "eq"]
    # n recombination rows plus the indicator simplex
    recomb = [r for r in eq_rows if set(dict(r.expr.terms)) != set(form.y_names)]
    assert len(recomb) == 2
    for j, row in enumerate(recomb):
        terms = dict(row.expr.terms)
        assert terms.get(f"x{j}") == -1.0
        copies = [nm for nm in terms if nm != f"x{j}"]
        assert len(copies) == 2
        assert all(terms[nm] == 1.0 for nm in copies)
        assert row.expr.const == 0.0
