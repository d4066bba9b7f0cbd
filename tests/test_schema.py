"""Document schema: every set, function, atom and params class round-trips.

Each of those classes has exactly one entry in the schema table of
`dfc.model`.  A hand-built object of each class goes through its public
document (an instance for sets and params, a model for atoms) and must come
back equal, with identical bytes on a second write.  Malformed documents
must fail with a SchemaError at the offending path.
"""

import json
import math

import pytest

from dfc import builders, gauge, model, sets
from dfc.gauge import Aff, GaugePlus, Linear, Perspective, SOC

EYE2 = ((1.0, 0.0), (0.0, 1.0))
SQUARE = sets.box((-1.0, -1.0), (1.0, 1.0))
DISK = sets.ball((0.0, 0.0), 2.0)
TRI = sets.vpoly([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
AFFINE = sets.AffineFn((1.0, -2.0), -1.0)
QUAD = sets.QuadraticPlus((1.0, 0.5), 0.25, (0.0, -1.0))
GEOMEAN = sets.GeoMeanDeficit(1.0, 0.5, 2)
NESTED_MAX = sets.MaxOf((AFFINE, sets.MaxOf((QUAD, GEOMEAN))))

SETS = {
    "hpoly": sets.hpoly([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.5]),
    "vpoly": TRI,
    "box": sets.box((-1.0, -math.inf), (2.5, 1.0)),
    "ball": DISK,
    "conic": sets.conic([[-1.0, -1.0], [0.0, 0.0], [1.0, -1.0]], (), [4.0, 2.0, 0.0], [("soc", 3)]),
    "conic_with_B": sets.conic(
        [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        [[0.0], [0.0], [1.0]],
        [0.0, 0.0, 1.0],
        [("nonneg", 2), ("zero", 1)],
    ),
    "level_affine": sets.level_set(AFFINE),
    "level_quadratic": sets.level_set(QUAD),
    "level_geomean": sets.level_set(GEOMEAN),
    "level_nested_max": sets.level_set(NESTED_MAX),
    "translate": sets.translate(DISK, (0.5, -0.5)),
    "scale": sets.scale(SQUARE, 3.0),
    "scale_zero": sets.scale(SQUARE, 0.0),
    "sumcone": sets.sum_cone(SQUARE, [[1.0, 0.0], [1.0, 1.0]]),
    "sumcone_no_rays": sets.sum_cone(SQUARE, []),
    "intersect": sets.intersect(SQUARE, DISK, sets.translate(TRI, (-0.5, -0.5))),
}

HOMOTHETY = builders.HomothetyData(SQUARE, ((0.0, 0.0), (3.0, 0.0)), (1.0, 0.5))
PARAMS = {
    "bigm_free": ("bigm", builders.BigMData()),
    "bigm_given": ("bigm", builders.BigMData(((1.0, 1.25), (1.2, 1.0)))),
    "homothetic": ("homothetic", HOMOTHETY),
    "piecewise": ("piecewise", builders.PiecewiseData((HOMOTHETY, HOMOTHETY))),
    "orthogonal_plain": (
        "orthogonal",
        builders.OrthogonalData(
            (SQUARE, DISK), EYE2, ((0,), (1,)), ((1, 1), (1, -1)), ((0.0, 0.0), (3.0, 0.0))
        ),
    ),
    "orthogonal_flip": (
        "orthogonal",
        builders.OrthogonalData(
            (SQUARE, DISK),
            EYE2,
            ((0, 1), (0, 1)),
            ((1, 1), (-1, -1)),
            ((0.0, 0.0), (0.0, 0.0)),
            (1, -1),
            False,
        ),
    ),
    "bbj": ("bbj", builders.BBJData(((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0), (2.0, 0.5)))),
    "isotone_default": (
        "isotone",
        builders.IsotoneData((SQUARE, DISK), EYE2, ((1, 1), (-1, -1)), ((0.0, 0.0), (0.0, 0.0))),
    ),
    "isotone_hulls": (
        "isotone",
        builders.IsotoneData(
            (SQUARE, DISK),
            EYE2,
            ((1, 1), (-1, -1)),
            ((0.0, 0.0), (0.0, 0.0)),
            (None, "free", SQUARE),
            False,
            False,
        ),
    ),
}

X = Aff.of({"x0": 1.0, "x1": -2.5}, 0.5)
Y = Aff.of({"y0": 1.0}, -1.0)
ATOMS = {
    "lin_le": Linear(X),
    "lin_eq": Linear(Y, "eq"),
    "soc": SOC((X, Aff.const_of(2.0)), Y),
    "persp": Perspective(QUAD, (X, Aff.var("x1")), Aff.var("y0")),
    "gaugeplus_plus": GaugePlus(
        SETS["intersect"], (((1.0, 0.0), X), ((0.0, 1.0), Y)), Aff.var("y1"), True
    ),
    "gaugeplus_plain": GaugePlus(
        SETS["level_nested_max"], (((1.0, -1.0), X),), Aff.of({}, 0.0), False
    ),
}


def concrete(base) -> set:
    found = set()
    for sub in base.__subclasses__():
        found |= concrete(sub) | {sub}
    return found


def test_one_table_entry_per_class():
    tables = {
        "sets": (model._SETS.by_tag.values(), concrete(sets.SetExpr)),
        "functions": (model._FNS.by_tag.values(), concrete(sets.CatalogFunction)),
        "atoms": (
            model._ATOMS.by_tag.values(),
            {getattr(gauge, name) for name in gauge.Atom.split(" | ")},
        ),
        "params": (
            [rec for rec in model._PARAMS.values() if rec is not None],
            {
                obj
                for name, obj in vars(builders).items()
                if name.endswith("Data") and isinstance(obj, type)
            },
        ),
    }
    for name, (records, classes) in tables.items():
        declared = [rec.cls for rec in records]
        assert len(declared) == len(set(declared)), name
        assert set(declared) == classes, name


def spec_of(S, method="extended", params=None):
    return builders.ProblemSpec((S,), None, method, params)


def instance_round_trip(spec):
    blob = model.canonical_bytes(model.spec_doc(spec))
    back = model.parse_instance(blob)
    assert back == spec
    assert model.canonical_bytes(model.spec_doc(back)) == blob


def ir_of(*atoms):
    names = ("x0", "x1", "y0", "y1")
    return builders.Formulation(
        "atoms",
        tuple(builders.Variable(nm, "binary" if nm[0] == "y" else "continuous") for nm in names),
        atoms,
        tuple(f"ref{i}" for i in range(len(atoms))),
        (SQUARE, DISK),
        ("x0", "x1"),
        ("y0", "y1"),
        notes=("note",),
    )


@pytest.mark.parametrize("key", sorted(SETS))
def test_set_round_trip(key):
    instance_round_trip(spec_of(SETS[key]))


@pytest.mark.parametrize("key", sorted(PARAMS))
def test_params_round_trip(key):
    method, params = PARAMS[key]
    base = ((0.0, 0.0), (3.0, 0.0))
    instance_round_trip(builders.ProblemSpec((SQUARE, DISK), base, method, params))


@pytest.mark.parametrize("key", sorted(ATOMS))
def test_atom_round_trip(key):
    ir = ir_of(ATOMS[key])
    blob = model.emit_json(ir)
    back = model.parse_model(blob)
    assert back == ir
    assert model.emit_json(back) == blob


def test_all_atoms_in_one_model_round_trip():
    ir = ir_of(*(ATOMS[k] for k in sorted(ATOMS)))
    assert model.parse_model(model.emit_json(ir)) == ir


# ---------------------------------------------------------------------------
# malformed documents: missing, unknown and wrongly typed fields
# ---------------------------------------------------------------------------


def instance_doc(spec):
    return json.loads(model.canonical_bytes(model.spec_doc(spec)))


def instance_error(doc) -> model.SchemaError:
    with pytest.raises(model.SchemaError) as err:
        model.parse_instance(json.dumps(doc))
    return err.value


def model_error(doc) -> model.SchemaError:
    with pytest.raises(model.SchemaError) as err:
        model.parse_model(json.dumps(doc))
    return err.value


SET_CASES = [
    # (set key, mutation of the set document, expected path below $.sets[0])
    ("hpoly", lambda d: d.pop("b"), ""),
    ("hpoly", lambda d: d.update(c=[]), ""),
    ("hpoly", lambda d: d.update(b="x"), ".b"),
    ("hpoly", lambda d: d["A"][1].__setitem__(0, True), ".A[1][0]"),
    ("hpoly", lambda d: d.update(b=[1.0]), ""),
    ("ball", lambda d: d.update(radius="wide"), ".radius"),
    ("ball", lambda d: d.update(radius={"dec": "1", "bin": "1"}), ".radius"),
    ("ball", lambda d: d.update(radius={"dec": "1", "hex": 5}), ".radius"),
    ("ball", lambda d: d.update(radius={"dec": "1e-5", "hex": "1e-5"}), ".radius"),
    ("ball", lambda d: d.update(radius={"hex": "zz"}), ".radius"),
    ("box", lambda d: d.update(set="cube"), ".set"),
    ("box", lambda d: d.pop("set"), ""),
    ("conic", lambda d: d.update(cones=[["soc", "3"]]), ".cones"),
    ("conic", lambda d: d.update(cones=[["cube", 3]]), ""),
    ("conic_with_B", lambda d: d.pop("B"), ""),
    ("level_affine", lambda d: d["fn"].update(fn="cubic"), ".fn.fn"),
    ("level_affine", lambda d: d["fn"].pop("beta"), ".fn"),
    ("level_affine", lambda d: d["fn"].update(n=2), ".fn"),
    ("level_affine", lambda d: d["fn"].update(fn="cubic", zz=1), ".fn"),
    ("level_affine", lambda d: d["fn"].update(fn=["affine"]), ".fn.fn"),
    ("box", lambda d: d.update(set="cube", zz=1), ".set"),
    ("box", lambda d: d.update(set=["box"]), ".set"),
    ("level_geomean", lambda d: d["fn"].update(n=2.5), ".fn.n"),
    ("level_nested_max", lambda d: d["fn"].update(parts={}), ".fn.parts"),
    (
        "level_nested_max",
        lambda d: d["fn"]["parts"][1]["parts"][0].update(a=1),
        ".fn.parts[1].parts[0].a",
    ),
    ("translate", lambda d: d.update(offset=[1.0]), ""),
    ("translate", lambda d: d["child"].pop("radius"), ".child"),
    ("scale", lambda d: d.update(factor=-1.0), ""),
    ("sumcone", lambda d: d.update(rays=[[1.0]]), ""),
    ("intersect", lambda d: d.update(children=[]), ".children"),
    (
        "intersect",
        lambda d: d["children"][2]["child"].update(vertices=5),
        ".children[2].child.vertices",
    ),
]


@pytest.mark.parametrize("key,mutate,suffix", SET_CASES)
def test_set_errors_name_the_path(key, mutate, suffix):
    doc = instance_doc(spec_of(SETS[key]))
    mutate(doc["sets"][0])
    assert instance_error(doc).path == "$.sets[0]" + suffix


PARAM_CASES = [
    ("orthogonal_flip", lambda p: p.pop("basis"), "$.params"),
    ("orthogonal_flip", lambda p: p.update(rotate=True), "$.params"),
    ("orthogonal_flip", lambda p: p.update(check="yes"), "$.params.check"),
    ("orthogonal_flip", lambda p: p.update(signs=[[1, 1.5], [1, 1]]), "$.params.signs[0]"),
    ("orthogonal_flip", lambda p: p.update(coord_sets={}), "$.params.coord_sets"),
    ("orthogonal_flip", lambda p: p["pieces"][1].update(set="disk"), "$.params.pieces[1].set"),
    ("isotone_hulls", lambda p: p.update(hulls="free"), "$.params.hulls"),
    ("isotone_hulls", lambda p: p["hulls"].__setitem__(1, "Free"), "$.params.hulls[1]"),
    ("isotone_hulls", lambda p: p.update(positive_part=None), "$.params.positive_part"),
    ("isotone_default", lambda p: p.pop("base"), "$.params"),
    ("bigm_given", lambda p: p.update(M=[[1.0, "x"]]), "$.params.M[0][1]"),
    ("bigm_given", lambda p: p.update(N=1), "$.params"),
    ("homothetic", lambda p: p.pop("radii"), "$.params"),
    ("homothetic", lambda p: p.update(template=[]), "$.params.template"),
    ("piecewise", lambda p: p.update(families=[]), "$.params.families"),
    ("piecewise", lambda p: p["families"][1].update(base="x"), "$.params.families[1].base"),
    ("bbj", lambda p: p.update(lhs=[1.0]), "$.params.lhs[0]"),
    ("orthogonal_flip", lambda p: p.update(pieces="ab"), "$.params.pieces"),
    ("orthogonal_flip", lambda p: p.update(flip=5), "$.params.flip"),
    ("orthogonal_flip", lambda p: p.update(flip=[1.5, -1]), "$.params.flip"),
    ("orthogonal_flip", lambda p: p.update(flip=[1, "-1"]), "$.params.flip"),
]


@pytest.mark.parametrize("key,mutate,path", PARAM_CASES)
def test_params_errors_name_the_path(key, mutate, path):
    method, params = PARAMS[key]
    doc = instance_doc(builders.ProblemSpec((SQUARE, DISK), None, method, params))
    mutate(doc["params"])
    assert instance_error(doc).path == path


FLIP_SPEC = builders.ProblemSpec((SQUARE, DISK), None, *PARAMS["orthogonal_flip"])
BOOL_CASES = {
    # integer kind: (spec, mutation of the instance document, expected path)
    "dim": (spec_of(SQUARE), lambda d: d.update(dim=True), "$.dim"),
    "geomean_n": (
        spec_of(SETS["level_geomean"]),
        lambda d: d["sets"][0]["fn"].update(n=True),
        "$.sets[0].fn.n",
    ),
    "cone_size": (
        spec_of(SETS["conic_with_B"]),
        lambda d: d["sets"][0]["cones"][1].__setitem__(1, True),
        "$.sets[0].cones",
    ),
    "flip": (FLIP_SPEC, lambda d: d["params"].update(flip=[True, -1]), "$.params.flip"),
    "coord_sets": (
        FLIP_SPEC,
        lambda d: d["params"]["coord_sets"][0].__setitem__(0, False),
        "$.params.coord_sets[0]",
    ),
    "signs": (
        FLIP_SPEC,
        lambda d: d["params"]["signs"][0].__setitem__(0, True),
        "$.params.signs[0]",
    ),
}


@pytest.mark.parametrize("kind", sorted(BOOL_CASES))
def test_json_booleans_are_not_integers(kind):
    """bool subclasses int in Python, so each integer field must turn away
    true and false itself; read as 1 or 0, every case here got past it."""
    spec, mutate, path = BOOL_CASES[kind]
    doc = instance_doc(spec)
    mutate(doc)
    assert instance_error(doc).path == path


def test_params_presence_follows_the_method():
    doc = instance_doc(spec_of(SQUARE))
    doc["params"] = {}
    assert instance_error(doc).path == "$.params"
    doc["method"] = "homothetic"
    del doc["params"]
    assert instance_error(doc).path == "$.params"
    doc["method"] = "bigm"
    assert model.parse_instance(json.dumps(doc)).params == builders.BigMData()


ATOM_CASES = [
    ("lin_le", lambda c: c.pop("rel"), "$.cons[0]"),
    ("lin_le", lambda c: c.pop("id"), "$.cons[0]"),
    ("lin_le", lambda c: c.update(rel="ge"), "$.cons[0].rel"),
    ("lin_le", lambda c: c.update(bound=c["expr"]), "$.cons[0]"),
    ("lin_le", lambda c: c.update(color="red"), "$.cons[0]"),
    ("lin_le", lambda c: c["expr"].update(terms=[["x0", 1, 2]]), "$.cons[0].expr.terms[0]"),
    ("lin_le", lambda c: c["expr"]["terms"][0].__setitem__(0, 3), "$.cons[0].expr.terms[0]"),
    ("lin_le", lambda c: c["expr"].update(terms={}), "$.cons[0].expr.terms"),
    ("lin_le", lambda c: c["expr"].pop("const"), "$.cons[0].expr"),
    ("soc", lambda c: c["arg"][1].update(const="two"), "$.cons[0].arg[1].const"),
    ("soc", lambda c: c.update(bound=1.0), "$.cons[0].bound"),
    ("persp", lambda c: c["fn"].update(fn="exp"), "$.cons[0].fn.fn"),
    ("persp", lambda c: c.update(scale=None), "$.cons[0].scale"),
    ("gaugeplus_plus", lambda c: c.update(plus=1), "$.cons[0].plus"),
    ("gaugeplus_plus", lambda c: c["terms"].__setitem__(1, [[0.0, 1.0]]), "$.cons[0].terms[1]"),
    (
        "gaugeplus_plus",
        lambda c: c["terms"][1].__setitem__(0, [0.0, "?"]),
        "$.cons[0].terms[1][0][1]",
    ),
    ("gaugeplus_plain", lambda c: c["of"].update(set="blob"), "$.cons[0].of.set"),
    ("gaugeplus_plain", lambda c: c.update(type="cone"), "$.cons[0].type"),
    ("gaugeplus_plain", lambda c: c.update(type="cone", zz=1), "$.cons[0]"),
]


@pytest.mark.parametrize("key,mutate,path", ATOM_CASES)
def test_atom_errors_name_the_path(key, mutate, path):
    doc = json.loads(model.emit_json(ir_of(ATOMS[key])))
    mutate(doc["cons"][0])
    assert model_error(doc).path == path


def test_model_top_level_errors_name_the_path():
    good = json.loads(model.emit_json(ir_of(ATOMS["lin_le"])))
    for mutate, path in (
        (lambda d: d.pop("cons"), "$"),
        (lambda d: d.update(mode="both"), "$.mode"),
        (lambda d: d.update(x=["x0", 1]), "$.x"),
        (lambda d: d["vars"][2].update(kind="integer"), "$.vars[2].kind"),
        (lambda d: d["vars"][1].update(lb="low"), "$.vars[1].lb"),
        (lambda d: d["vars"][0].pop("ub"), "$.vars[0]"),
        (lambda d: d["sets"][1].pop("radius"), "$.sets[1]"),
        (lambda d: d["vars"].append(dict(d["vars"][1])), "$.vars[4].name"),
        (lambda d: d["vars"][0].update(name=0), "$.vars[0].name"),
        (lambda d: d.update(x=["x0", "q"]), "$.x[1]"),
        (lambda d: d.update(y=["q", "y1"]), "$.y[0]"),
        (lambda d: d.update(objective=[["x1", 1.0], ["q", 2.0]]), "$.objective[1]"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        assert model_error(doc).path == path


@pytest.mark.parametrize("key", sorted(ATOMS))
def test_every_name_an_atom_reads_must_be_declared(key):
    """Leaving one variable out of vars is refused at the atom when the atom
    reads it anywhere, else at its place in x or y."""
    good = json.loads(model.emit_json(ir_of(ATOMS[key])))
    atom_text = json.dumps(good["cons"][0])
    for i, nm in enumerate(("x0", "x1", "y0", "y1")):
        doc = json.loads(json.dumps(good))
        del doc["vars"][i]
        where = "$.cons[0]" if f'"{nm}"' in atom_text else f"$.{nm[0]}[{nm[1]}]"
        assert model_error(doc).path == where, nm


def test_sum_cone_takes_an_empty_ray_list():
    assert sets.sum_cone(SQUARE, []) == sets.SumCone(SQUARE, ())
    doc = instance_doc(spec_of(SETS["sumcone_no_rays"]))
    assert doc["sets"][0]["rays"] == []


def test_flip_left_out_or_null_reads_as_none():
    method, params = PARAMS["orthogonal_flip"]
    doc = instance_doc(builders.ProblemSpec((SQUARE, DISK), None, method, params))
    assert model.parse_instance(json.dumps(doc)).params.flip == (1, -1)
    doc["params"]["flip"] = None
    assert model.parse_instance(json.dumps(doc)).params.flip is None
    del doc["params"]["flip"]
    assert model.parse_instance(json.dumps(doc)).params.flip is None


# ---------------------------------------------------------------------------
# the options block
# ---------------------------------------------------------------------------


def options_doc(options):
    doc = instance_doc(spec_of(SQUARE))
    doc["options"] = options
    return doc


@pytest.mark.parametrize(
    "options,expected",
    [
        ({"directions": 40, "seed": 3, "tol": 1e-7}, {"directions": 40, "seed": 3, "tol": 1e-7}),
        ({"tol": {"dec": "0.5"}}, {"tol": 0.5}),
        ({"tol": 0}, {"tol": 0.0}),
        ({"directions": None, "seed": 0}, {"seed": 0}),
        ({}, {}),
        (None, {}),
    ],
)
def test_options_block_is_read_with_the_instance(options, expected):
    blob = json.dumps(options_doc(options))
    spec, opts = model.load_instance(blob)
    assert spec == spec_of(SQUARE)
    assert opts == expected


@pytest.mark.parametrize(
    "options,path",
    [
        ({"directions": "many"}, "$.options.directions"),
        ({"directions": 0}, "$.options.directions"),
        ({"directions": 2.5}, "$.options.directions"),
        ({"seed": 1.5}, "$.options.seed"),
        ({"seed": "7"}, "$.options.seed"),
        ({"tol": "x"}, "$.options.tol"),
        ({"tol": [1e-7]}, "$.options.tol"),
        ({"box_radius": 10.0}, "$.options"),
        ({"jobs": 2}, "$.options"),
        ({"mode": "lifted"}, "$.options"),
        ({"check": "ideal"}, "$.options"),
        ({"verbosity": 3}, "$.options"),
        (5, "$.options"),
        ({"seed": -3}, "$.options.seed"),
        ({"seed": True}, "$.options.seed"),
        ({"seed": False}, "$.options.seed"),
        ({"directions": True}, "$.options.directions"),
    ],
)
def test_options_block_errors_name_the_path(options, path):
    doc = options_doc(options)
    assert instance_error(doc).path == path
    with pytest.raises(model.SchemaError) as err:
        model.load_instance(json.dumps(doc))
    assert err.value.path == path
