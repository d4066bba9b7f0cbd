"""Model intermediate representation, JSON/LP serialization, instance parsing.

The IR is a flat constraint list over named variables, produced from a
Formulation either verbatim (mode "plus") or with every positive-part gauge
atom lifted: one auxiliary variable per term with rows z >= expr and z >= 0,
and the gauge argument rewritten over z.  Both modes have identical
continuous-relaxation optima for objectives in the original variables.

Serialization is canonical: sorted keys, no whitespace, every float written
as a decimal string (%.17g, which round-trips binary64) next to a parallel
hex field, so emitted bytes are platform-stable and parse exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import builders, sets
from .builders import Formulation, ProblemSpec, Variable
from .gauge import Aff, GaugePlus, Linear, Perspective, SOC

MODEL_SCHEMA = "dfc-model/1"
REPORT_SCHEMA = "dfc-report/1"


class SchemaError(sets.DfcError, ValueError):
    """Document rejected; path names the offending JSON location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class NonlinearAtomPresent(sets.DfcError, ValueError):
    """LP text covers linear rows only."""


@dataclass(frozen=True)
class ModelIR:
    name: str
    mode: str  # plus | lifted
    variables: tuple
    atoms: tuple
    provenance: tuple
    x_names: tuple
    y_names: tuple
    sets: tuple
    notes: tuple = ()
    objective: tuple | None = None  # ((name, coeff), ...)

    def __post_init__(self):
        if len(self.atoms) != len(self.provenance):
            raise ValueError("one provenance label per atom")

    def constraint_ids(self):
        return tuple(f"c{i}" for i in range(len(self.atoms)))

    def provenance_map(self) -> dict:
        return dict(zip(self.constraint_ids(), self.provenance))


def lower_model(form: Formulation, mode: str = "plus") -> ModelIR:
    """Flatten a formulation into an IR, lifting positive parts if asked."""
    if mode not in ("plus", "lifted"):
        raise ValueError("mode must be 'plus' or 'lifted'")
    variables = list(form.variables)
    atoms, prov = [], []
    if mode == "plus":
        atoms, prov = list(form.atoms), list(form.provenance)
    else:
        taken = {v.name for v in variables}
        counter = 0

        def fresh() -> str:
            nonlocal counter
            while True:
                nm = f"p{counter}"
                counter += 1
                if nm not in taken:
                    taken.add(nm)
                    return nm

        for atom, label in zip(form.atoms, form.provenance):
            if not (isinstance(atom, GaugePlus) and atom.positive_part):
                atoms.append(atom)
                prov.append(label)
                continue
            new_terms = []
            for d, expr in atom.terms:
                z = fresh()
                variables.append(Variable(z, "continuous"))
                atoms.append(Linear(expr - Aff.var(z)))
                prov.append(label)
                atoms.append(Linear(Aff.var(z).scaled(-1.0)))
                prov.append(label)
                new_terms.append((d, Aff.var(z)))
            atoms.append(
                GaugePlus(atom.set_ref, tuple(new_terms), atom.rhs, positive_part=False)
            )
            prov.append(label)
    return ModelIR(
        form.name,
        mode,
        tuple(variables),
        tuple(atoms),
        tuple(prov),
        form.x_names,
        form.y_names,
        form.sets,
        notes=form.notes,
    )


# ---------------------------------------------------------------------------
# numeric leaves
# ---------------------------------------------------------------------------


def _num(v: float) -> dict:
    f = float(v)
    return {"dec": "%.17g" % f, "hex": f.hex() if math.isfinite(f) else "%.17g" % f}


def _read_num(node, path: str) -> float:
    if isinstance(node, bool):
        raise SchemaError(path, "expected a number")
    if isinstance(node, (int, float)):
        return float(node)
    if isinstance(node, str):
        try:
            return float(node)
        except ValueError:
            raise SchemaError(path, f"bad numeric string {node!r}") from None
    if isinstance(node, dict):
        keys = set(node)
        if not keys <= {"dec", "hex"} or not keys:
            raise SchemaError(path, "numeric object takes only dec/hex")
        if "hex" in node:
            try:
                return float.fromhex(node["hex"])
            except ValueError:
                try:
                    return float(node["hex"])
                except ValueError:
                    raise SchemaError(path, "bad hex float") from None
        return _read_num(node["dec"], path + ".dec")
    raise SchemaError(path, "expected a number")


def _read_vec(node, path: str) -> tuple:
    if not isinstance(node, list):
        raise SchemaError(path, "expected an array")
    return tuple(_read_num(v, f"{path}[{i}]") for i, v in enumerate(node))


def _read_mat(node, path: str) -> tuple:
    if not isinstance(node, list):
        raise SchemaError(path, "expected an array of arrays")
    return tuple(_read_vec(row, f"{path}[{i}]") for i, row in enumerate(node))


def _require(node: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(node, dict):
        raise SchemaError(path, "expected an object")
    for key in required:
        if key not in node:
            raise SchemaError(path, f"missing field {key!r}")
    extra = set(node) - set(required) - set(optional)
    if extra:
        raise SchemaError(path, f"unknown field {sorted(extra)[0]!r}")


# ---------------------------------------------------------------------------
# catalog functions and set expressions
# ---------------------------------------------------------------------------


def _fn_doc(fn) -> dict:
    if isinstance(fn, sets.AffineFn):
        return {"fn": "affine", "a": [_num(v) for v in fn.a], "beta": _num(fn.beta)}
    if isinstance(fn, sets.QuadraticPlus):
        return {
            "fn": "quadratic_plus",
            "a": [_num(v) for v in fn.a],
            "beta": _num(fn.beta),
            "w": [_num(v) for v in fn.w],
        }
    if isinstance(fn, sets.GeoMeanDeficit):
        return {
            "fn": "geomean_deficit",
            "shift": _num(fn.shift),
            "scale": _num(fn.scale),
            "n": fn.n,
        }
    if isinstance(fn, sets.MaxOf):
        return {"fn": "max_of", "parts": [_fn_doc(p) for p in fn.parts]}
    raise TypeError(f"unknown catalog function {fn!r}")


def _read_fn(node, path: str):
    _require(node, path, ("fn",), ("a", "beta", "w", "shift", "scale", "n", "parts"))
    tag = node["fn"]
    if tag == "affine":
        _require(node, path, ("fn", "a", "beta"))
        return sets.AffineFn(_read_vec(node["a"], path + ".a"), _read_num(node["beta"], path + ".beta"))
    if tag == "quadratic_plus":
        _require(node, path, ("fn", "a", "beta", "w"))
        return sets.QuadraticPlus(
            _read_vec(node["a"], path + ".a"),
            _read_num(node["beta"], path + ".beta"),
            _read_vec(node["w"], path + ".w"),
        )
    if tag == "geomean_deficit":
        _require(node, path, ("fn", "shift", "scale", "n"))
        if not isinstance(node["n"], int):
            raise SchemaError(path + ".n", "expected an integer")
        return sets.GeoMeanDeficit(
            _read_num(node["shift"], path + ".shift"),
            _read_num(node["scale"], path + ".scale"),
            node["n"],
        )
    if tag == "max_of":
        _require(node, path, ("fn", "parts"))
        if not isinstance(node["parts"], list):
            raise SchemaError(path + ".parts", "expected an array")
        return sets.MaxOf(
            tuple(_read_fn(p, f"{path}.parts[{i}]") for i, p in enumerate(node["parts"]))
        )
    raise SchemaError(path + ".fn", f"unknown function tag {tag!r}")


def _set_doc(S) -> dict:
    if isinstance(S, sets.HPolyhedron):
        return {
            "set": "hpoly",
            "A": [[_num(v) for v in row] for row in S.A],
            "b": [_num(v) for v in S.b],
        }
    if isinstance(S, sets.VPolytope):
        return {"set": "vpoly", "vertices": [[_num(v) for v in p] for p in S.vertices]}
    if isinstance(S, sets.Box):
        return {
            "set": "box",
            "lower": [_num(v) for v in S.lower],
            "upper": [_num(v) for v in S.upper],
        }
    if isinstance(S, sets.Ball):
        return {"set": "ball", "center": [_num(v) for v in S.center], "radius": _num(S.radius)}
    if isinstance(S, sets.ConicRep):
        return {
            "set": "conic",
            "A": [[_num(v) for v in row] for row in S.A],
            "B": [[_num(v) for v in row] for row in S.B],
            "c": [_num(v) for v in S.c],
            "cones": [[cs.kind, cs.size] for cs in S.cones],
        }
    if isinstance(S, sets.LevelSet):
        return {"set": "level", "fn": _fn_doc(S.fn)}
    if isinstance(S, sets.Translate):
        return {
            "set": "translate",
            "child": _set_doc(S.child),
            "offset": [_num(v) for v in S.offset],
        }
    if isinstance(S, sets.Scale):
        return {"set": "scale", "child": _set_doc(S.child), "factor": _num(S.factor)}
    if isinstance(S, sets.SumCone):
        return {
            "set": "sumcone",
            "child": _set_doc(S.child),
            "rays": [[_num(v) for v in r] for r in S.rays],
        }
    if isinstance(S, sets.Intersect):
        return {"set": "intersect", "children": [_set_doc(c) for c in S.children]}
    raise TypeError(f"unknown set expression {S!r}")


_SET_FIELDS = {
    "hpoly": ("A", "b"),
    "vpoly": ("vertices",),
    "box": ("lower", "upper"),
    "ball": ("center", "radius"),
    "conic": ("A", "B", "c", "cones"),
    "level": ("fn",),
    "translate": ("child", "offset"),
    "scale": ("child", "factor"),
    "sumcone": ("child", "rays"),
    "intersect": ("children",),
}


def read_set(node, path: str):
    if not isinstance(node, dict) or "set" not in node:
        raise SchemaError(path, "expected a set object with a 'set' tag")
    tag = node["set"]
    if tag not in _SET_FIELDS:
        raise SchemaError(path + ".set", f"unknown set tag {tag!r}")
    _require(node, path, ("set",) + _SET_FIELDS[tag])
    try:
        if tag == "hpoly":
            return sets.hpoly(_read_mat(node["A"], path + ".A"), _read_vec(node["b"], path + ".b"))
        if tag == "vpoly":
            return sets.vpoly(_read_mat(node["vertices"], path + ".vertices"))
        if tag == "box":
            return sets.box(
                _read_vec(node["lower"], path + ".lower"),
                _read_vec(node["upper"], path + ".upper"),
            )
        if tag == "ball":
            return sets.ball(
                _read_vec(node["center"], path + ".center"),
                _read_num(node["radius"], path + ".radius"),
            )
        if tag == "conic":
            cones = node["cones"]
            if not isinstance(cones, list) or not all(
                isinstance(c, list) and len(c) == 2 and isinstance(c[0], str) and isinstance(c[1], int)
                for c in cones
            ):
                raise SchemaError(path + ".cones", "expected [kind, size] pairs")
            return sets.conic(
                _read_mat(node["A"], path + ".A"),
                _read_mat(node["B"], path + ".B"),
                _read_vec(node["c"], path + ".c"),
                [(c[0], c[1]) for c in cones],
            )
        if tag == "level":
            return sets.level_set(_read_fn(node["fn"], path + ".fn"))
        if tag == "translate":
            return sets.translate(
                read_set(node["child"], path + ".child"),
                _read_vec(node["offset"], path + ".offset"),
            )
        if tag == "scale":
            return sets.scale(
                read_set(node["child"], path + ".child"),
                _read_num(node["factor"], path + ".factor"),
            )
        if tag == "sumcone":
            return sets.sum_cone(
                read_set(node["child"], path + ".child"),
                _read_mat(node["rays"], path + ".rays"),
            )
        children = node["children"]
        if not isinstance(children, list) or not children:
            raise SchemaError(path + ".children", "expected a nonempty array")
        return sets.intersect(
            *(read_set(c, f"{path}.children[{i}]") for i, c in enumerate(children))
        )
    except (sets.DimensionMismatch, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def _aff_doc(e: Aff) -> dict:
    return {
        "terms": [[nm, _num(c)] for nm, c in e.terms],
        "const": _num(e.const),
    }


def _read_aff(node, path: str) -> Aff:
    _require(node, path, ("terms", "const"))
    if not isinstance(node["terms"], list):
        raise SchemaError(path + ".terms", "expected an array")
    terms = []
    for i, pair in enumerate(node["terms"]):
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
            raise SchemaError(f"{path}.terms[{i}]", "expected [name, coeff]")
        terms.append((pair[0], _read_num(pair[1], f"{path}.terms[{i}][1]")))
    return Aff(tuple(terms), _read_num(node["const"], path + ".const"))


def _atom_doc(atom, label: str, cid: str) -> dict:
    if isinstance(atom, Linear):
        return {
            "id": cid,
            "type": "lin",
            "rel": atom.relation,
            "expr": _aff_doc(atom.expr),
            "paper_ref": label,
        }
    if isinstance(atom, SOC):
        return {
            "id": cid,
            "type": "soc",
            "arg": [_aff_doc(a) for a in atom.arg],
            "bound": _aff_doc(atom.bound),
            "paper_ref": label,
        }
    if isinstance(atom, Perspective):
        return {
            "id": cid,
            "type": "persp",
            "fn": _fn_doc(atom.fn),
            "arg": [_aff_doc(a) for a in atom.arg],
            "scale": _aff_doc(atom.scale),
            "paper_ref": label,
        }
    if isinstance(atom, GaugePlus):
        return {
            "id": cid,
            "type": "gaugeplus",
            "of": _set_doc(atom.set_ref),
            "terms": [[[_num(v) for v in d], _aff_doc(e)] for d, e in atom.terms],
            "rhs": _aff_doc(atom.rhs),
            "plus": atom.positive_part,
            "paper_ref": label,
        }
    raise TypeError(f"unknown atom {atom!r}")


def _read_atom(node, path: str):
    _require(
        node,
        path,
        ("id", "type", "paper_ref"),
        ("rel", "expr", "arg", "bound", "fn", "scale", "of", "terms", "rhs", "plus"),
    )
    tag = node["type"]
    if tag == "lin":
        _require(node, path, ("id", "type", "rel", "expr", "paper_ref"))
        if node["rel"] not in ("le", "eq"):
            raise SchemaError(path + ".rel", "expected 'le' or 'eq'")
        return Linear(_read_aff(node["expr"], path + ".expr"), node["rel"]), node["paper_ref"]
    if tag == "soc":
        _require(node, path, ("id", "type", "arg", "bound", "paper_ref"))
        args = tuple(_read_aff(a, f"{path}.arg[{i}]") for i, a in enumerate(node["arg"]))
        return SOC(args, _read_aff(node["bound"], path + ".bound")), node["paper_ref"]
    if tag == "persp":
        _require(node, path, ("id", "type", "fn", "arg", "scale", "paper_ref"))
        args = tuple(_read_aff(a, f"{path}.arg[{i}]") for i, a in enumerate(node["arg"]))
        return (
            Perspective(_read_fn(node["fn"], path + ".fn"), args, _read_aff(node["scale"], path + ".scale")),
            node["paper_ref"],
        )
    if tag == "gaugeplus":
        _require(node, path, ("id", "type", "of", "terms", "rhs", "plus", "paper_ref"))
        if not isinstance(node["plus"], bool):
            raise SchemaError(path + ".plus", "expected a boolean")
        terms = []
        for i, pair in enumerate(node["terms"]):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{path}.terms[{i}]", "expected [direction, expr]")
            terms.append(
                (
                    _read_vec(pair[0], f"{path}.terms[{i}][0]"),
                    _read_aff(pair[1], f"{path}.terms[{i}][1]"),
                )
            )
        return (
            GaugePlus(
                read_set(node["of"], path + ".of"),
                tuple(terms),
                _read_aff(node["rhs"], path + ".rhs"),
                node["plus"],
            ),
            node["paper_ref"],
        )
    raise SchemaError(path + ".type", f"unknown atom type {tag!r}")


# ---------------------------------------------------------------------------
# model JSON
# ---------------------------------------------------------------------------


def _find_simplex_row(ir: ModelIR) -> str | None:
    want = set(ir.y_names)
    for cid, atom in zip(ir.constraint_ids(), ir.atoms):
        if not (isinstance(atom, Linear) and atom.relation == "eq"):
            continue
        names = {nm for nm, _ in atom.expr.terms}
        if names != want:
            continue
        if all(abs(c - 1.0) < 1e-12 for _, c in atom.expr.terms) and abs(atom.expr.const + 1.0) < 1e-12:
            return cid
    return None


def model_doc(ir: ModelIR) -> dict:
    cids = ir.constraint_ids()
    return {
        "schema": MODEL_SCHEMA,
        "name": ir.name,
        "mode": ir.mode,
        "vars": [
            {"name": v.name, "kind": v.kind, "lb": _num(v.lb), "ub": _num(v.ub)}
            for v in ir.variables
        ],
        "cons": [
            _atom_doc(atom, label, cid)
            for atom, label, cid in zip(ir.atoms, ir.provenance, cids)
        ],
        "x": list(ir.x_names),
        "y": list(ir.y_names),
        "sets": [_set_doc(S) for S in ir.sets],
        "notes": list(ir.notes),
        "objective": (
            None
            if ir.objective is None
            else [[nm, _num(c)] for nm, c in ir.objective]
        ),
        "simplex_row": _find_simplex_row(ir),
    }


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def emit_json(ir: ModelIR) -> bytes:
    return canonical_bytes(model_doc(ir))


def parse_model(data) -> ModelIR:
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    _require(
        doc,
        "$",
        ("schema", "name", "mode", "vars", "cons", "x", "y", "sets"),
        ("notes", "objective", "simplex_row"),
    )
    if doc["schema"] != MODEL_SCHEMA:
        raise SchemaError("$.schema", f"expected {MODEL_SCHEMA!r}")
    if doc["mode"] not in ("plus", "lifted"):
        raise SchemaError("$.mode", "expected 'plus' or 'lifted'")
    variables = []
    for i, v in enumerate(doc["vars"]):
        _require(v, f"$.vars[{i}]", ("name", "kind", "lb", "ub"))
        if v["kind"] not in ("continuous", "binary"):
            raise SchemaError(f"$.vars[{i}].kind", "expected continuous or binary")
        variables.append(
            Variable(
                v["name"],
                v["kind"],
                _read_num(v["lb"], f"$.vars[{i}].lb"),
                _read_num(v["ub"], f"$.vars[{i}].ub"),
            )
        )
    atoms, prov = [], []
    for i, c in enumerate(doc["cons"]):
        atom, label = _read_atom(c, f"$.cons[{i}]")
        atoms.append(atom)
        prov.append(label)
    for field, key in (("x", "x"), ("y", "y")):
        if not isinstance(doc[key], list) or not all(isinstance(s, str) for s in doc[key]):
            raise SchemaError(f"$.{key}", "expected an array of names")
    set_list = [read_set(s, f"$.sets[{i}]") for i, s in enumerate(doc["sets"])]
    objective = doc.get("objective")
    obj = None
    if objective is not None:
        obj = tuple(
            (pair[0], _read_num(pair[1], f"$.objective[{i}][1]"))
            for i, pair in enumerate(objective)
        )
    return ModelIR(
        doc["name"],
        doc["mode"],
        tuple(variables),
        tuple(atoms),
        tuple(prov),
        tuple(doc["x"]),
        tuple(doc["y"]),
        tuple(set_list),
        notes=tuple(doc.get("notes", ())),
        objective=obj,
    )


# ---------------------------------------------------------------------------
# LP text
# ---------------------------------------------------------------------------


def _lp_num(v: float) -> str:
    return "%.17g" % (v + 0.0 if v else 0.0)


def _lp_row(expr: Aff) -> str:
    parts = []
    for nm, c in expr.terms:
        if not parts:
            parts.append(f"{_lp_num(c)} {nm}" if c >= 0 else f"- {_lp_num(-c)} {nm}")
        elif c >= 0:
            parts.append(f"+ {_lp_num(c)} {nm}")
        else:
            parts.append(f"- {_lp_num(-c)} {nm}")
    if not parts:
        parts.append("0 " + "x0")
    return " ".join(parts)


def emit_lp(ir: ModelIR) -> bytes:
    """LP text for purely linear models: constant objective, one row per
    Linear atom, explicit bounds, binaries in their own section."""
    lines = ["Minimize", " obj: 0", "Subject To"]
    for cid, atom in zip(ir.constraint_ids(), ir.atoms):
        if not isinstance(atom, Linear):
            raise NonlinearAtomPresent(f"{cid} is a {type(atom).__name__} atom")
        rel = "=" if atom.relation == "eq" else "<="
        rhs = -atom.expr.const
        body = _lp_row(Aff(atom.expr.terms, 0.0))
        lines.append(f" {cid}: {body} {rel} {_lp_num(rhs)}")
    lines.append("Bounds")
    for v in ir.variables:
        if v.kind == "binary":
            continue
        lo, hi = v.lb, v.ub
        if math.isinf(lo) and math.isinf(hi):
            lines.append(f" {v.name} free")
        elif math.isinf(hi):
            lines.append(f" {v.name} >= {_lp_num(lo)}")
        elif math.isinf(lo):
            lines.append(f" {v.name} <= {_lp_num(hi)}")
        else:
            lines.append(f" {_lp_num(lo)} <= {v.name} <= {_lp_num(hi)}")
    binaries = [v.name for v in ir.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def _read_points(node, path: str, dim: int) -> tuple:
    pts = _read_mat(node, path)
    for i, p in enumerate(pts):
        if len(p) != dim:
            raise SchemaError(f"{path}[{i}]", f"expected {dim} coordinates")
    return pts


def _read_homothety(node, path: str) -> builders.HomothetyData:
    _require(node, path, ("template", "base", "radii"))
    return builders.HomothetyData(
        read_set(node["template"], path + ".template"),
        _read_mat(node["base"], path + ".base"),
        _read_vec(node["radii"], path + ".radii"),
    )


def _read_int_mat(node, path: str) -> tuple:
    if not isinstance(node, list):
        raise SchemaError(path, "expected an array of arrays")
    out = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or not all(isinstance(v, int) for v in row):
            raise SchemaError(f"{path}[{i}]", "expected an array of integers")
        out.append(tuple(row))
    return tuple(out)


def _read_params(method: str, node, path: str, k: int):
    if method == "extended":
        if node is not None:
            raise SchemaError(path, "extended method takes no params")
        return None
    if method == "bigm":
        if node is None:
            return builders.BigMData()
        _require(node, path, (), ("M",))
        M = node.get("M")
        return builders.BigMData(_read_mat(M, path + ".M") if M is not None else None)
    if method == "homothetic":
        return _read_homothety(node, path)
    if method == "piecewise":
        _require(node, path, ("families",))
        fams = node["families"]
        if not isinstance(fams, list) or not fams:
            raise SchemaError(path + ".families", "expected a nonempty array")
        return builders.PiecewiseData(
            tuple(_read_homothety(f, f"{path}.families[{i}]") for i, f in enumerate(fams))
        )
    if method == "orthogonal":
        _require(
            node,
            path,
            ("pieces", "basis", "coord_sets", "signs", "base"),
            ("flip", "check"),
        )
        flip = node.get("flip")
        check = node.get("check", True)
        if not isinstance(check, bool):
            raise SchemaError(path + ".check", "expected a boolean")
        return builders.OrthogonalData(
            tuple(read_set(p, f"{path}.pieces[{i}]") for i, p in enumerate(node["pieces"])),
            _read_mat(node["basis"], path + ".basis"),
            _read_int_mat(node["coord_sets"], path + ".coord_sets"),
            _read_int_mat(node["signs"], path + ".signs"),
            _read_mat(node["base"], path + ".base"),
            tuple(flip) if flip is not None else None,
            check,
        )
    if method == "bbj":
        _require(node, path, ("lhs", "rhs"))
        return builders.BBJData(
            _read_mat(node["lhs"], path + ".lhs"), _read_mat(node["rhs"], path + ".rhs")
        )
    if method == "isotone":
        _require(
            node,
            path,
            ("pieces", "basis", "signs", "base"),
            ("hulls", "positive_part", "check"),
        )
        hulls = node.get("hulls")
        parsed_hulls = None
        if hulls is not None:
            if not isinstance(hulls, list):
                raise SchemaError(path + ".hulls", "expected an array")
            parsed = []
            for i, h in enumerate(hulls):
                if h is None or h == "free":
                    parsed.append(h)
                else:
                    parsed.append(read_set(h, f"{path}.hulls[{i}]"))
            parsed_hulls = tuple(parsed)
        pp = node.get("positive_part", True)
        check = node.get("check", True)
        if not isinstance(pp, bool):
            raise SchemaError(path + ".positive_part", "expected a boolean")
        if not isinstance(check, bool):
            raise SchemaError(path + ".check", "expected a boolean")
        return builders.IsotoneData(
            tuple(read_set(p, f"{path}.pieces[{i}]") for i, p in enumerate(node["pieces"])),
            _read_mat(node["basis"], path + ".basis"),
            _read_int_mat(node["signs"], path + ".signs"),
            _read_mat(node["base"], path + ".base"),
            parsed_hulls,
            pp,
            check,
        )
    raise SchemaError(path, f"unknown method {method!r}")


_METHODS = ("extended", "bigm", "homothetic", "orthogonal", "piecewise", "bbj", "isotone")


def parse_instance(data) -> ProblemSpec:
    """Instance JSON to a ProblemSpec, rejecting unknown fields."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    _require(doc, "$", ("dim", "sets", "method"), ("base_points", "params", "options"))
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("$.dim", "expected a positive integer")
    if doc["method"] not in _METHODS:
        raise SchemaError("$.method", f"expected one of {', '.join(_METHODS)}")
    if not isinstance(doc["sets"], list) or not doc["sets"]:
        raise SchemaError("$.sets", "expected a nonempty array")
    set_list = tuple(read_set(s, f"$.sets[{i}]") for i, s in enumerate(doc["sets"]))
    for i, S in enumerate(set_list):
        if S.dim != dim:
            raise SchemaError(f"$.sets[{i}]", f"set has dim {S.dim}, expected {dim}")
    base = doc.get("base_points")
    base_points = _read_points(base, "$.base_points", dim) if base is not None else None
    if base_points is not None and len(base_points) != len(set_list):
        raise SchemaError("$.base_points", "expected one base point per set")
    params = _read_params(doc["method"], doc.get("params"), "$.params", len(set_list))
    try:
        return ProblemSpec(set_list, base_points, doc["method"], params)
    except (builders.FamilyInvalid, sets.DimensionMismatch) as exc:
        raise SchemaError("$", str(exc)) from None


def parse_instance_options(data) -> dict:
    """The optional analysis-options block of an instance file."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    doc = json.loads(data)
    opts = doc.get("options") or {}
    _require(
        opts,
        "$.options",
        (),
        ("directions", "seed", "tol", "box_radius", "jobs", "mode", "check"),
    )
    return dict(opts)


def spec_doc(spec: ProblemSpec, options: dict | None = None) -> dict:
    """Instance JSON document for a ProblemSpec (inverse of parse_instance)."""
    doc = {
        "dim": spec.dim,
        "sets": [_set_doc(S) for S in spec.sets],
        "method": spec.method,
    }
    if spec.base_points is not None:
        doc["base_points"] = [[_num(v) for v in b] for b in spec.base_points]
    p = spec.params
    if isinstance(p, builders.BigMData):
        doc["params"] = {
            "M": None if p.M is None else [[_num(v) for v in row] for row in p.M]
        }
    elif isinstance(p, builders.HomothetyData):
        doc["params"] = _homothety_doc(p)
    elif isinstance(p, builders.PiecewiseData):
        doc["params"] = {"families": [_homothety_doc(f) for f in p.families]}
    elif isinstance(p, builders.OrthogonalData):
        doc["params"] = {
            "pieces": [_set_doc(g) for g in p.pieces],
            "basis": [[_num(v) for v in row] for row in p.basis],
            "coord_sets": [list(J) for J in p.coord_sets],
            "signs": [list(s) for s in p.signs],
            "base": [[_num(v) for v in b] for b in p.base],
            "flip": list(p.flip) if p.flip is not None else None,
            "check": p.check,
        }
    elif isinstance(p, builders.BBJData):
        doc["params"] = {
            "lhs": [[_num(v) for v in row] for row in p.lhs],
            "rhs": [[_num(v) for v in b] for b in p.rhs],
        }
    elif isinstance(p, builders.IsotoneData):
        hulls = None
        if p.hulls is not None:
            hulls = [h if h is None or h == "free" else _set_doc(h) for h in p.hulls]
        doc["params"] = {
            "pieces": [_set_doc(g) for g in p.pieces],
            "basis": [[_num(v) for v in row] for row in p.basis],
            "signs": [list(s) for s in p.signs],
            "base": [[_num(v) for v in b] for b in p.base],
            "hulls": hulls,
            "positive_part": p.positive_part,
            "check": p.check,
        }
    if options:
        doc["options"] = options
    return doc


def _homothety_doc(f: builders.HomothetyData) -> dict:
    return {
        "template": _set_doc(f.template),
        "base": [[_num(v) for v in b] for b in f.base],
        "radii": [_num(r) for r in f.radii],
    }


def report_doc(report) -> dict:
    """Canonical report document with all float leaves stringified."""

    def conv(node):
        if isinstance(node, bool):
            return node
        if isinstance(node, float):
            return "%.17g" % node
        if isinstance(node, (list, tuple)):
            return [conv(v) for v in node]
        if isinstance(node, dict):
            return {k: conv(v) for k, v in node.items()}
        return node

    doc = conv(report.to_json_dict())
    doc["schema"] = REPORT_SCHEMA
    return doc
