"""Model serialization: canonical JSON, LP text, lifting, instance files.

The round-trip oracle is byte equality: emit, parse, emit again and compare
bytes.  The lift oracle is optimization equality over random objectives.
"""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dfc import analysis, builders, fixtures, model, sets
from dfc.gauge import Aff, GaugePlus, Linear
from oracles import maximize_over_relaxation

SEED = 20240

CATALOG = [(n, v) for n, vs in fixtures.REGISTRY.items() for v in vs]


def build_ir(name, variant, mode="plus"):
    return model.lower_model(builders.build(fixtures.load(name, variant)), mode)


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_model_round_trip_byte_identical():
    for name, variant in CATALOG:
        ir = build_ir(name, variant)
        blob = model.emit_json(ir)
        again = model.emit_json(model.parse_model(blob))
        assert blob == again, f"{name}/{variant}"
        assert blob.endswith(b"\n")
        assert b" " not in blob.split(b'"notes"')[0].split(b",")[0]


def test_lifted_round_trip_byte_identical():
    ir = build_ir("ex7", "wide", "lifted")
    blob = model.emit_json(ir)
    assert model.emit_json(model.parse_model(blob)) == blob


def test_model_doc_shape_and_float_leaves():
    ir = build_ir("ex4", "original")
    doc = model.model_doc(ir)
    assert doc["schema"] == "dfc-model/1"
    assert doc["mode"] == "plus"
    assert doc["simplex_row"] == "c4"
    assert [c["id"] for c in doc["cons"]] == [f"c{i}" for i in range(5)]
    assert {c["paper_ref"] for c in doc["cons"]} == {"blairform"}
    one = doc["cons"][0]["expr"]["terms"][0][1]
    assert one == {"dec": "1", "hex": "0x1.0000000000000p+0"}
    assert doc["vars"][0]["lb"] == {"dec": "-inf", "hex": "-inf"}
    assert doc["cons"][4]["paper_ref"] == "blairform"


def test_canonical_bytes_sorted_and_compact():
    blob = model.canonical_bytes({"b": 1, "a": [1.5, {"z": 2, "y": 3}]})
    assert blob == b'{"a":[1.5,{"y":3,"z":2}],"b":1}\n'


def mutate(ir, fn):
    doc = json.loads(model.emit_json(ir))
    fn(doc)
    return json.dumps(doc)


def test_parse_model_schema_errors_name_the_path():
    ir = build_ir("ex4", "original")
    with pytest.raises(model.SchemaError) as err:
        model.parse_model(mutate(ir, lambda d: d.__setitem__("schema", "nope/9")))
    assert err.value.path == "$.schema"
    with pytest.raises(model.SchemaError) as err:
        model.parse_model(mutate(ir, lambda d: d.__setitem__("extra", 1)))
    assert err.value.path == "$"
    with pytest.raises(model.SchemaError) as err:
        model.parse_model(
            mutate(ir, lambda d: d["cons"][0].__setitem__("type", "cubic"))
        )
    assert err.value.path.startswith("$.cons[0]")
    with pytest.raises(model.SchemaError) as err:
        model.parse_model(
            mutate(ir, lambda d: d["vars"][0].__setitem__("kind", "integer"))
        )
    assert err.value.path.startswith("$.vars[0]")
    with pytest.raises(model.SchemaError):
        model.parse_model(b"{not json")
    # an undeclared name is refused before any check indexes its column
    with pytest.raises(model.SchemaError) as err:
        model.parse_model(
            mutate(ir, lambda d: d["cons"][0]["expr"]["terms"][0].__setitem__(0, "zz"))
        )
    assert (err.value.path, "'zz'" in str(err.value)) == ("$.cons[0]", True)
    with pytest.raises(model.SchemaError) as err:
        model.parse_model(mutate(ir, lambda d: d.__setitem__("y", ["y0", "q"])))
    assert err.value.path == "$.y[1]"


# ---------------------------------------------------------------------------
# LP text
# ---------------------------------------------------------------------------

EX4_LP = """Minimize
 obj: 0
Subject To
 c0: 1 x0 + 1 x2 - 1 y0 - 2 y1 <= 0
 c1: - 1 x0 + 1 x2 - 1 y0 - 2 y1 <= 0
 c2: 1 x1 + 1 x2 - 2 y0 - 1 y1 <= 0
 c3: - 1 x1 + 1 x2 - 2 y0 - 1 y1 <= 0
 c4: 1 y0 + 1 y1 = 1
Bounds
 x0 free
 x1 free
 x2 free
Binary
 y0 y1
End
"""


def test_lp_text_frozen():
    ir = build_ir("ex4", "original")
    assert model.emit_lp(ir).decode() == EX4_LP


def test_lp_text_writes_the_model_objective():
    """The objective parse_model reads is written under Minimize; a model
    without one keeps the constant objective 0."""
    ir = build_ir("ex4", "original")
    objective = (("x0", 1.0), ("y1", -2.0))
    doc = json.loads(model.emit_json(ir))
    doc["objective"] = [[nm, c] for nm, c in objective]
    parsed = model.parse_model(json.dumps(doc))
    assert parsed.objective == objective
    text = model.emit_lp(parsed).decode()
    assert text == EX4_LP.replace(" obj: 0\n", " obj: 1 x0 - 2 y1\n")
    assert model.emit_lp(ir).decode() == EX4_LP


def _negative_zero_form():
    return builders.Formulation(
        "z",
        (builders.Variable("x0", "continuous"),),
        (Linear(Aff.of({"x0": 1.0}, -0.0)),),
        ("test",),
        (sets.box((0.0,), (-0.0,)),),
        ("x0",),
        (),
    )


def test_lp_text_never_prints_negative_zero():
    text = model.emit_lp(_negative_zero_form()).decode()
    assert "-0" not in text
    assert " <= 0\n" in text


def test_json_never_writes_negative_zero():
    """A -0.0 is written 0 in both the dec and the hex field, as the LP text
    writes it; it used to read {"dec": "-0", "hex": "-0x0.0p+0"}."""
    data = model.emit_json(_negative_zero_form())
    assert b"-0" not in data
    assert b'{"dec":"0","hex":"0x0.0p+0"}' in data
    assert model.emit_json(model.parse_model(data)) == data
    report = SimpleNamespace(to_json_dict=lambda: {"margin": -0.0, "values": [-0.0, 1.5]})
    assert model.report_doc(report) == {
        "margin": "0", "values": ["0", "1.5"], "schema": model.REPORT_SCHEMA
    }


def test_lp_rejects_nonlinear_atoms():
    ir = build_ir("ex1", "extended")
    with pytest.raises(model.NonlinearAtomPresent):
        model.emit_lp(ir)


# ---------------------------------------------------------------------------
# positive-part lifting
# ---------------------------------------------------------------------------


def test_lift_rewrites_positive_parts():
    plus = build_ir("ex7", "wide", "plus")
    lifted = build_ir("ex7", "wide", "lifted")
    assert len(plus.atoms) == 9 and len(lifted.atoms) == 21
    assert len(plus.variables) == 5 and len(lifted.variables) == 11
    fresh = [v.name for v in lifted.variables[5:]]
    assert fresh == [f"p{i}" for i in range(6)]
    gp = [a for a in lifted.atoms if isinstance(a, GaugePlus)]
    assert len(gp) == 2
    assert all(not a.positive_part for a in gp)
    for atom in gp:
        for _, expr in atom.terms:
            assert [nm for nm, _ in expr.terms][0].startswith("p")


def test_lift_leaves_plain_formulations_alone():
    plain = build_ir("ex7", "wide_single", "plus")
    lifted = build_ir("ex7", "wide_single", "lifted")
    assert plain.atoms == lifted.atoms
    assert plain.variables == lifted.variables


def test_lift_preserves_relaxation_optima():
    plus = build_ir("ex7", "wide", "plus")
    lifted = build_ir("ex7", "wide", "lifted")
    rng = np.random.default_rng(SEED)
    names = [v.name for v in plus.variables]
    for _ in range(20):
        u = rng.normal(size=len(names))
        obj = {nm: float(c) for nm, c in zip(names, u)}
        a = maximize_over_relaxation(plus, obj)
        b = maximize_over_relaxation(lifted, obj)
        assert a.status == "optimal" and b.status == "optimal"
        assert b.value == pytest.approx(a.value, abs=1e-6 * (1 + abs(a.value)))


def test_lower_model_mode_validation():
    form = builders.build(fixtures.ex4("original"))
    with pytest.raises(sets.OutOfDomain):
        model.lower_model(form, "fancy")
    with pytest.raises(sets.OutOfDomain):
        model.lower_model(model.lower_model(form, "lifted"), "plus")


def test_builders_return_the_model_record():
    """A built formulation is the plus-mode model itself, and parse_model
    reads a document back into the same record."""
    form = builders.build(fixtures.load("ex7", "wide"))
    assert model.lower_model(form, "plus") is form
    lifted = model.lower_model(form, "lifted")
    assert model.lower_model(lifted, "lifted") is lifted
    parsed = model.parse_model(model.emit_json(form))
    assert isinstance(parsed, builders.Formulation)
    assert parsed == dataclasses.replace(form, dedup_removed=0)


def test_lift_keeps_each_rows_label():
    """A parsed model whose atoms carry different labels lifts each positive
    part into rows that keep the label of the atom they came from."""
    form = builders.build(fixtures.load("ex7", "wide"))
    doc = json.loads(model.emit_json(form))
    for i, con in enumerate(doc["cons"]):
        con["paper_ref"] = f"ref{i}"
    parsed = model.parse_model(json.dumps(doc))
    lifted = model.lower_model(parsed, "lifted")
    want = []
    for i, atom in enumerate(form.atoms):
        rows = 2 * len(atom.terms) + 1 if isinstance(atom, GaugePlus) and atom.positive_part else 1
        want += [f"ref{i}"] * rows
    assert lifted.provenance == tuple(want)
    assert len(set(want)) == len(form.atoms) < len(want)
    assert lifted.atoms == model.lower_model(form, "lifted").atoms
    blob = model.emit_json(lifted)
    assert model.emit_json(model.parse_model(blob)) == blob


@pytest.mark.parametrize(
    "name, variant, check, kw",
    [
        ("ex4", "original", analysis.check_ideal, {}),
        ("ex1", "bigm", analysis.check_sharp, {"count": 16}),
    ],
)
def test_checks_read_a_parsed_model_as_the_built_one(name, variant, check, kw):
    form = builders.build(fixtures.load(name, variant))
    parsed = model.parse_model(model.emit_json(model.lower_model(form)))

    def doc(f):
        out = model.report_doc(check(f, seed=SEED, **kw))
        out.pop("elapsed_s")
        return out

    assert doc(parsed) == doc(form)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def test_instance_round_trip_byte_identical():
    for name, variant in CATALOG:
        spec = fixtures.load(name, variant)
        blob = model.canonical_bytes(model.spec_doc(spec))
        again = model.canonical_bytes(model.spec_doc(model.parse_instance(blob)))
        assert blob == again, f"{name}/{variant}"


def test_instance_rebuilds_identical_models():
    for name, variant in CATALOG:
        spec = fixtures.load(name, variant)
        parsed = model.parse_instance(model.canonical_bytes(model.spec_doc(spec)))
        a = model.emit_json(model.lower_model(builders.build(spec)))
        b = model.emit_json(model.lower_model(builders.build(parsed)))
        assert a == b, f"{name}/{variant}"


def test_instance_schema_errors():
    spec = fixtures.ex4("original")
    good = json.loads(model.canonical_bytes(model.spec_doc(spec)))

    bad = dict(good)
    bad["method"] = "fancy"
    with pytest.raises(model.SchemaError) as err:
        model.parse_instance(json.dumps(bad))
    assert err.value.path == "$.method"

    bad = dict(good)
    bad["dim"] = 0
    with pytest.raises(model.SchemaError) as err:
        model.parse_instance(json.dumps(bad))
    assert err.value.path == "$.dim"

    bad = dict(good)
    bad["dim"] = 2
    with pytest.raises(model.SchemaError) as err:
        model.parse_instance(json.dumps(bad))
    assert err.value.path == "$.sets[0]"

    bad = dict(good)
    bad["base_points"] = [[0, 0, 0]]
    with pytest.raises(model.SchemaError) as err:
        model.parse_instance(json.dumps(bad))
    assert err.value.path == "$.base_points"

    bad = dict(good)
    bad["surprise"] = True
    with pytest.raises(model.SchemaError) as err:
        model.parse_instance(json.dumps(bad))
    assert err.value.path == "$"


def test_instance_options_block():
    spec = fixtures.ex4("original")
    blob = model.canonical_bytes(
        model.spec_doc(spec, {"seed": 7, "directions": 40})
    )
    opts = model.load_instance(blob)[1]
    assert opts == {"seed": 7, "directions": 40}
    assert model.load_instance(model.canonical_bytes(model.spec_doc(spec)))[1] == {}
    bad = json.loads(blob)
    bad["options"]["verbosity"] = 3
    with pytest.raises(model.SchemaError):
        model.load_instance(json.dumps(bad))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_doc_stringifies_floats():
    form = builders.build(fixtures.ex4("original"))
    rep = analysis.check_ideal(form, seed=SEED)
    doc = model.report_doc(rep)
    assert doc["schema"] == "dfc-report/1"
    assert doc["check"] == "ideal"
    assert doc["verdict"] == "fail"
    assert doc["margin"] == "0.5"
    assert isinstance(doc["elapsed_s"], str)
    w = doc["witnesses"][0]
    assert w["fractionality"] == "0.5"
    assert all(isinstance(v, str) for v in w["vertex"])
    blob = model.canonical_bytes(doc)
    assert json.loads(blob)["margin"] == "0.5"
