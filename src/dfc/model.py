"""Model documents: JSON/LP serialization, positive-part lifting, instance parsing.

A model is a builders.Formulation, a flat constraint list over named
variables.  It is written verbatim (mode "plus") or with every
positive-part gauge atom lifted: one auxiliary variable per term with rows
z >= expr and z >= 0, and the gauge argument rewritten over z.  Both modes
have identical continuous-relaxation optima for objectives in the original
variables.  parse_model reads a document back into the same record.

Serialization is canonical: sorted keys, no whitespace, every float written
as a decimal string (%.17g, which round-trips binary64) next to a parallel
hex field, so emitted bytes are platform-stable and parse exactly.

Every field of the instance and model documents is declared once, in the
schema table below: one record per set expression (tagged by "set"), catalog
function ("fn"), constraint atom ("type") and builder params (chosen by the
instance's method), plus the instance's options block.  A record lists its
fields as (JSON key, attribute, kind[, default]) and names the validating
constructor; one encoder and one decoder walk the table, and a malformed
document raises SchemaError at the offending JSON path.  The options block
takes directions (a positive integer), seed (a non-negative integer) and tol
(a finite nonnegative number), each optional; any other key is rejected.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from dataclasses import replace

from . import builders, sets
from .builders import Formulation, ProblemSpec, Variable
from .gauge import Aff, GaugePlus, Linear, Perspective, SOC, atom_exprs, dot

MODEL_SCHEMA = "dfc-model/1"
REPORT_SCHEMA = "dfc-report/1"


class SchemaError(sets.DfcError):
    """Document rejected; path names the offending JSON location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class NonlinearAtomPresent(sets.DfcError):
    """LP text covers linear rows only."""


def lower_model(form: Formulation, mode: str = "plus") -> Formulation:
    """form in the asked mode: form itself when it is already in that mode,
    else with its positive parts lifted, each new row keeping the label of
    the atom it came from."""
    if mode not in ("plus", "lifted"):
        raise sets.OutOfDomain("mode must be 'plus' or 'lifted'")
    if mode == form.mode:
        return form
    if mode == "plus":
        raise sets.OutOfDomain("a lifted model has no plus form")
    variables = list(form.variables)
    atoms, provenance = [], []
    taken = {v.name for v in variables}
    fresh = (nm for nm in map("p{}".format, itertools.count()) if nm not in taken)
    for atom, label in zip(form.atoms, form.provenance):
        rows = [atom]
        if isinstance(atom, GaugePlus) and atom.positive_part:
            rows, terms = [], []
            for d, expr in atom.terms:
                z = next(fresh)
                variables.append(Variable(z, "continuous"))
                rows += [Linear(dot((1.0, -1.0), (expr, Aff.var(z)))), Linear(Aff.var(z, -1.0))]
                terms.append((d, Aff.var(z)))
            rows.append(GaugePlus(atom.set_ref, tuple(terms), atom.rhs, positive_part=False))
        atoms += rows
        provenance += [label] * len(rows)
    return replace(
        form,
        mode="lifted",
        variables=tuple(variables),
        atoms=tuple(atoms),
        provenance=tuple(provenance),
    )


# ---------------------------------------------------------------------------
# field kinds: how one JSON value is written and read back
# ---------------------------------------------------------------------------


# enc: value -> JSON node; dec: (JSON node, path) -> value, or SchemaError at path
_Kind = namedtuple("_Kind", "enc dec")


def _same(v):
    return v


def _num(v: float) -> dict:
    f = float(v) + 0.0  # -0.0 is written 0
    return {"dec": "%.17g" % f, "hex": f.hex() if math.isfinite(f) else "%.17g" % f}


def _read_num(node, path: str, finite: bool = True) -> float:
    value = _read_float(node, path, finite)
    if math.isnan(value):
        raise SchemaError(path, "expected a number, got NaN")
    if finite and math.isinf(value):
        raise SchemaError(path, f"expected a finite number, got {value}")
    return value


def _read_bound(node, path: str) -> float:
    """A number, or +-inf where it leaves that side unbounded."""
    return _read_num(node, path, finite=False)


def _read_float(node, path: str, finite: bool) -> float:
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
            except (TypeError, ValueError):
                raise SchemaError(path, "bad hex float") from None
        return _read_num(node["dec"], path + ".dec", finite)
    raise SchemaError(path, "expected a number")


def _check(ok, message: str, enc=_same, dec=_same) -> _Kind:
    """A value accepted or rejected as a whole."""

    def read(node, path):
        if not ok(node):
            raise SchemaError(path, message)
        return dec(node)

    return _Kind(enc, read)


def _choice(values: tuple, message: str) -> _Kind:
    return _check(lambda node: node in values, message)


def _array_of(ok, message: str, enc=_same) -> _Kind:
    """An array rejected as a whole, at its own path, if any item fails ok."""
    return _check(
        lambda node: isinstance(node, list) and all(map(ok, node)),
        message,
        lambda v: list(map(enc, v)),
        tuple,
    )


def _list(kind, message: str = "expected an array", nonempty: bool = False) -> _Kind:
    """An array of kind, each item read at its own path."""
    enc, dec = kind.enc, kind.dec

    def read(node, path):
        if not isinstance(node, list) or (nonempty and not node):
            raise SchemaError(path, message)
        return tuple([dec(v, f"{path}[{i}]") for i, v in enumerate(node)])

    return _Kind(lambda v: list(map(enc, v)), read)


def _or(kind, *literals) -> _Kind:
    """kind, or one of the literals, which pass through as they are."""
    enc, dec = kind.enc, kind.dec
    return _Kind(
        lambda v: v if v in literals else enc(v),
        lambda node, path: node if node in literals else dec(node, path),
    )


def _pair(first, second, message: str) -> _Kind:
    """A [first, second] array."""
    (enc0, dec0), (enc1, dec1) = (first.enc, first.dec), (second.enc, second.dec)

    def read(node, path):
        if not (isinstance(node, list) and len(node) == 2):
            raise SchemaError(path, message)
        return (dec0(node[0], path + "[0]"), dec1(node[1], path + "[1]"))

    return _Kind(lambda v: [enc0(v[0]), enc1(v[1])], read)


def _read_term(node, path: str) -> tuple:
    if not (isinstance(node, list) and len(node) == 2 and isinstance(node[0], str)):
        raise SchemaError(path, "expected [name, coeff]")
    return (node[0], _read_num(node[1], path + "[1]"))


def _read_tol(node, path: str) -> float:
    tol = _read_bound(node, path)
    if not 0.0 <= tol < math.inf:
        raise SchemaError(path, "expected a finite nonnegative number")
    return tol


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no integer


_NUM = _Kind(_num, _read_num)
_VEC = _list(_NUM)
_BOUND = _Kind(_num, _read_bound)
_BOUNDS = _list(_BOUND)
_MAT = _list(_VEC, "expected an array of arrays")
_BOOL = _check(lambda v: isinstance(v, bool), "expected a boolean")
_INT = _check(_is_int, "expected an integer")
_POSINT = _check(lambda v: _is_int(v) and v >= 1, "expected a positive integer")
_NATINT = _check(lambda v: _is_int(v) and v >= 0, "expected a non-negative integer")
_INTS = _array_of(_is_int, "expected an array of integers")
_INT_MAT = _list(_INTS, "expected an array of arrays")
_NAME = _check(lambda v: isinstance(v, str), "expected a name")
_TERM = _Kind(lambda t: [t[0], _num(t[1])], _read_term)  # [name, coeff]
_NAMES = _array_of(lambda v: isinstance(v, str), "expected an array of names")
_OBJECTIVE = _or(_list(_TERM), None)  # ((name, coeff), ...) or None
_CONES = _array_of(
    lambda c: isinstance(c, list) and len(c) == 2 and isinstance(c[0], str) and _is_int(c[1]),
    "expected [kind, size] pairs",
    lambda cs: [cs.kind, cs.size],
)


# ---------------------------------------------------------------------------
# records and tagged families
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _require(node, path: str, required: tuple, allowed: frozenset):
    if not isinstance(node, dict):
        raise SchemaError(path, "expected an object")
    for key in required:
        if key not in node:
            raise SchemaError(path, f"missing field {key!r}")
    if not allowed.issuperset(node):
        raise SchemaError(path, f"unknown field {sorted(node.keys() - allowed)[0]!r}")


class _Record:
    """A JSON object written from a cls instance and read back through build
    (default cls), which takes the attributes as keywords.  Each field is
    (JSON key, attribute, kind) or, when the key may be left out, (JSON key,
    attribute, kind, default); fields are read in the order given."""

    def __init__(self, cls, *fields, build=None):
        self.cls = cls
        self.build = build or cls
        fields = tuple(f if len(f) == 4 else f + (_REQUIRED,) for f in fields)
        self.required = tuple(key for key, _, _, d in fields if d is _REQUIRED)
        self.allowed = frozenset(key for key, *_ in fields)
        self._enc = tuple((key, attr, kind.enc) for key, attr, kind, _ in fields)
        self._dec = tuple((key, "." + key, attr, kind.dec, d) for key, attr, kind, d in fields)

    def enc(self, obj) -> dict:
        return {key: enc(getattr(obj, attr)) for key, attr, enc in self._enc}

    def dec(self, node, path: str):
        _require(node, path, self.required, self.allowed)
        return self.build(
            **{
                attr: dec(node[key], path + suffix) if key in node else default
                for key, suffix, attr, dec, default in self._dec
            }
        )


class _Family:
    """Records told apart by the value of a tag field.  A loose family checks
    its head fields, and every key against all its records, before it reads
    the tag; a strict one reads the tag first.  errors raised by a record's
    constructor are reported at the object's path."""

    def __init__(self, tag, noun, unknown, head=None, loose=False, errors=()):
        self.tag, self.noun, self.unknown = tag, noun, unknown
        self.head = head or (tag,)
        self.loose, self.errors = loose, errors

    def define(self, **records):
        for rec in records.values():
            rec.required = self.head + rec.required
            rec.allowed |= frozenset(self.head)
        self.by_tag = records
        self.by_type = {rec.cls: (tag, rec) for tag, rec in records.items()}
        self.allowed = frozenset().union(*(rec.allowed for rec in records.values()))

    def enc(self, obj) -> dict:
        entry = self.by_type.get(type(obj))
        if entry is None:
            raise TypeError(f"unknown {self.noun} {obj!r}")
        doc = entry[1].enc(obj)
        doc[self.tag] = entry[0]
        return doc

    def dec(self, node, path: str):
        if self.loose:
            _require(node, path, self.head, self.allowed)
        elif not isinstance(node, dict) or self.tag not in node:
            raise SchemaError(path, f"expected a {self.noun} object with a {self.tag!r} tag")
        tag = node[self.tag]
        rec = self.by_tag.get(tag) if isinstance(tag, str) else None
        if rec is None:
            raise SchemaError(f"{path}.{self.tag}", f"{self.unknown} {tag!r}")
        try:
            return rec.dec(node, path)
        except SchemaError:
            raise
        except self.errors as exc:
            raise SchemaError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# the schema: every document field is declared here, once
# ---------------------------------------------------------------------------

_FNS = _Family("fn", "catalog function", "unknown function tag", loose=True)
_FNS.define(
    affine=_Record(sets.AffineFn, ("a", "a", _VEC), ("beta", "beta", _NUM)),
    quadratic_plus=_Record(
        sets.QuadraticPlus, ("a", "a", _VEC), ("beta", "beta", _NUM), ("w", "w", _VEC)
    ),
    geomean_deficit=_Record(
        sets.GeoMeanDeficit, ("n", "n", _INT), ("shift", "shift", _NUM), ("scale", "scale", _NUM)
    ),
    max_of=_Record(sets.MaxOf, ("parts", "parts", _list(_FNS))),
)

_SETS = _Family("set", "set", "unknown set tag", errors=sets.DfcError)
_SET_LIST = _list(_SETS)
_NONEMPTY_SETS = _list(_SETS, "expected a nonempty array", nonempty=True)
_SETS.define(
    hpoly=_Record(sets.HPolyhedron, ("A", "A", _MAT), ("b", "b", _VEC), build=sets.hpoly),
    vpoly=_Record(sets.VPolytope, ("vertices", "vertices", _MAT), build=sets.vpoly),
    box=_Record(
        sets.Box, ("lower", "lower", _BOUNDS), ("upper", "upper", _BOUNDS), build=sets.box
    ),
    ball=_Record(
        sets.Ball, ("center", "center", _VEC), ("radius", "radius", _NUM), build=sets.ball
    ),
    conic=_Record(
        sets.ConicRep,
        ("cones", "cones", _CONES),
        ("A", "A", _MAT),
        ("B", "B", _MAT),
        ("c", "c", _VEC),
        build=sets.conic,
    ),
    level=_Record(sets.LevelSet, ("fn", "fn", _FNS), build=sets.level_set),
    translate=_Record(
        sets.Translate, ("child", "child", _SETS), ("offset", "offset", _VEC), build=sets.translate
    ),
    scale=_Record(
        sets.Scale, ("child", "child", _SETS), ("factor", "factor", _NUM), build=sets.scale
    ),
    sumcone=_Record(
        sets.SumCone, ("child", "child", _SETS), ("rays", "rays", _MAT), build=sets.sum_cone
    ),
    intersect=_Record(
        sets.Intersect,
        ("children", "children", _NONEMPTY_SETS),
        build=lambda children: sets.intersect(*children),
    ),
)

_AFF = _Record(
    Aff,
    ("terms", "terms", _list(_TERM)),
    ("const", "const", _NUM),
)
_AFFS = _list(_AFF)
_ATOMS = _Family(
    "type", "atom", "unknown atom type", head=("id", "type", "paper_ref"), loose=True
)
_ATOMS.define(
    lin=_Record(
        Linear,
        ("rel", "relation", _choice(("le", "eq"), "expected 'le' or 'eq'")),
        ("expr", "expr", _AFF),
    ),
    soc=_Record(SOC, ("arg", "arg", _AFFS), ("bound", "bound", _AFF)),
    persp=_Record(Perspective, ("arg", "arg", _AFFS), ("fn", "fn", _FNS), ("scale", "scale", _AFF)),
    gaugeplus=_Record(
        GaugePlus,
        ("plus", "positive_part", _BOOL),
        ("terms", "terms", _list(_pair(_VEC, _AFF, "expected [direction, expr]"))),
        ("of", "set_ref", _SETS),
        ("rhs", "rhs", _AFF),
    ),
)
_ATOM_LIST = _list(_ATOMS)

_VARIABLES = _list(
    _Record(
        Variable,
        ("name", "name", _NAME),
        ("kind", "kind", _choice(("continuous", "binary"), "expected continuous or binary")),
        ("lb", "lb", _BOUND),
        ("ub", "ub", _BOUND),
    )
)

_HOMOTHETY = _Record(
    builders.HomothetyData,
    ("template", "template", _SETS),
    ("base", "base", _MAT),
    ("radii", "radii", _VEC),
)
# params by method; None takes no params block
_PARAMS = {
    "extended": None,
    "bigm": _Record(builders.BigMData, ("M", "M", _or(_MAT, None), None)),
    "homothetic": _HOMOTHETY,
    "orthogonal": _Record(
        builders.OrthogonalData,
        ("pieces", "pieces", _SET_LIST),
        ("basis", "basis", _MAT),
        ("coord_sets", "coord_sets", _INT_MAT),
        ("signs", "signs", _INT_MAT),
        ("flip", "flip", _or(_INTS, None), None),
    ),
    "piecewise": _Record(
        builders.PiecewiseData,
        ("families", "families", _list(_HOMOTHETY, "expected a nonempty array", nonempty=True)),
    ),
    "bbj": None,
    "isotone": _Record(
        builders.IsotoneData,
        ("hulls", "hulls", _or(_list(_or(_SETS, None, "free")), None), None),
        ("positive_part", "positive_part", _BOOL, True),
        ("pieces", "pieces", _SET_LIST),
        ("basis", "basis", _MAT),
        ("signs", "signs", _INT_MAT),
    ),
}
_PARAMS_BY_TYPE = {rec.cls: rec for rec in _PARAMS.values() if rec is not None}
_METHODS = tuple(_PARAMS)

# analysis options of an instance; a null value counts as left out
_OPTIONS = _Record(
    dict,
    ("directions", "directions", _or(_POSINT, None), None),
    ("seed", "seed", _or(_NATINT, None), None),
    ("tol", "tol", _or(_Kind(_num, _read_tol), None), None),
    build=lambda **opts: {k: v for k, v in opts.items() if v is not None},
)


def _load_json(data):
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# model JSON
# ---------------------------------------------------------------------------


def _find_simplex_row(form: Formulation) -> str | None:
    want = set(form.y_names)
    for cid, atom in zip(form.constraint_ids(), form.atoms):
        if not (isinstance(atom, Linear) and atom.relation == "eq"):
            continue
        names = {nm for nm, _ in atom.expr.terms}
        if names != want:
            continue
        if all(abs(c - 1.0) < 1e-12 for _, c in atom.expr.terms) and abs(atom.expr.const + 1.0) < 1e-12:
            return cid
    return None


def model_doc(form: Formulation) -> dict:
    cids = form.constraint_ids()
    return {
        "schema": MODEL_SCHEMA,
        "name": form.name,
        "mode": form.mode,
        "vars": _VARIABLES.enc(form.variables),
        "cons": [
            {**_ATOMS.enc(atom), "id": cid, "paper_ref": label}
            for atom, label, cid in zip(form.atoms, form.provenance, cids)
        ],
        "x": list(form.x_names),
        "y": list(form.y_names),
        "sets": _SET_LIST.enc(form.sets),
        "notes": list(form.notes),
        "objective": _OBJECTIVE.enc(form.objective),
        "simplex_row": _find_simplex_row(form),
    }


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def emit_json(form: Formulation) -> bytes:
    return canonical_bytes(model_doc(form))


_MODEL_REQUIRED = ("schema", "name", "mode", "vars", "cons", "x", "y", "sets")
_MODEL_KEYS = frozenset(_MODEL_REQUIRED + ("notes", "objective", "simplex_row"))
_MODE = _choice(("plus", "lifted"), "expected 'plus' or 'lifted'")


def parse_model(data) -> Formulation:
    doc = _load_json(data)
    _require(doc, "$", _MODEL_REQUIRED, _MODEL_KEYS)
    if doc["schema"] != MODEL_SCHEMA:
        raise SchemaError("$.schema", f"expected {MODEL_SCHEMA!r}")
    name = _NAME.dec(doc["name"], "$.name")
    mode = _MODE.dec(doc["mode"], "$.mode")
    variables = _VARIABLES.dec(doc["vars"], "$.vars")
    atoms = _ATOM_LIST.dec(doc["cons"], "$.cons")
    labels = []
    for i, con in enumerate(doc["cons"]):
        if con["id"] != f"c{i}":
            raise SchemaError(f"$.cons[{i}].id", f"expected 'c{i}'")
        labels.append(_NAME.dec(con["paper_ref"], f"$.cons[{i}].paper_ref"))
    x_names = _NAMES.dec(doc["x"], "$.x")
    y_names = _NAMES.dec(doc["y"], "$.y")
    set_list = _SET_LIST.dec(doc["sets"], "$.sets")
    objective = _OBJECTIVE.dec(doc.get("objective"), "$.objective")
    notes = _NAMES.dec(doc["notes"], "$.notes") if "notes" in doc else ()
    declared = set()
    for i, v in enumerate(variables):
        if v.name in declared:
            raise SchemaError(f"$.vars[{i}].name", f"variable {v.name!r} declared twice")
        declared.add(v.name)
    for i, atom in enumerate(atoms):
        undeclared = _atom_names(atom) - declared
        if undeclared:
            raise SchemaError(f"$.cons[{i}]", f"undeclared variable {min(undeclared)!r}")
    objective_names = [nm for nm, _ in objective or ()]
    for key, names in (("x", x_names), ("y", y_names), ("objective", objective_names)):
        for i, nm in enumerate(names):
            if nm not in declared:
                raise SchemaError(f"$.{key}[{i}]", f"undeclared variable {nm!r}")
    form = Formulation(
        name,
        variables,
        atoms,
        tuple(labels),
        set_list,
        x_names,
        y_names,
        notes=notes,
        mode=mode,
        objective=objective,
    )
    simplex_row = _find_simplex_row(form)
    if doc.get("simplex_row", simplex_row) != simplex_row:
        raise SchemaError("$.simplex_row", f"expected {simplex_row!r}, the unit-sum row")
    return form


def _atom_names(atom) -> set:
    """The variable names an atom's affine expressions read."""
    return {nm for e in atom_exprs(atom) for nm, _ in e.terms}


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


def emit_lp(form: Formulation) -> bytes:
    """LP text for purely linear models: the model's objective (0 when it has
    none), one row per Linear atom, explicit bounds, binaries in their own
    section."""
    objective = form.objective or ()
    obj = dot([c for _, c in objective], [Aff.var(nm) for nm, _ in objective])
    lines = ["Minimize", f" obj: {_lp_row(obj) if obj.terms else 0}", "Subject To"]
    for cid, atom in zip(form.constraint_ids(), form.atoms):
        if not isinstance(atom, Linear):
            raise NonlinearAtomPresent(f"{cid} is a {type(atom).__name__} atom")
        rel = "=" if atom.relation == "eq" else "<="
        rhs = -atom.expr.const
        body = _lp_row(Aff(atom.expr.terms, 0.0))
        lines.append(f" {cid}: {body} {rel} {_lp_num(rhs)}")
    lines.append("Bounds")
    for v in form.variables:
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
    binaries = [v.name for v in form.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

_INSTANCE_REQUIRED = ("dim", "sets", "method")
_INSTANCE_KEYS = frozenset(_INSTANCE_REQUIRED + ("base_points", "params", "options"))
_METHOD = _choice(_METHODS, f"expected one of {', '.join(_METHODS)}")


def load_instance(data) -> tuple:
    """Instance JSON to (ProblemSpec, analysis options), rejecting unknown fields."""
    doc = _load_json(data)
    _require(doc, "$", _INSTANCE_REQUIRED, _INSTANCE_KEYS)
    dim = _POSINT.dec(doc["dim"], "$.dim")
    method = _METHOD.dec(doc["method"], "$.method")
    set_list = _NONEMPTY_SETS.dec(doc["sets"], "$.sets")
    for i, S in enumerate(set_list):
        if S.dim != dim:
            raise SchemaError(f"$.sets[{i}]", f"set has dim {S.dim}, expected {dim}")
    base_points = doc.get("base_points")
    if base_points is not None:
        base_points = _MAT.dec(base_points, "$.base_points")
        for i, p in enumerate(base_points):
            if len(p) != dim:
                raise SchemaError(f"$.base_points[{i}]", f"expected {dim} coordinates")
        if len(base_points) != len(set_list):
            raise SchemaError("$.base_points", "expected one base point per set")
    rec, params = _PARAMS[method], doc.get("params")
    if rec is None and params is not None:
        raise SchemaError("$.params", f"{method} method takes no params")
    if rec is not None:
        params = rec.dec({} if params is None and not rec.required else params, "$.params")
    options = _OPTIONS.dec(doc.get("options") or {}, "$.options")
    return ProblemSpec(set_list, base_points, method, params), options


def parse_instance(data) -> ProblemSpec:
    """Instance JSON to a ProblemSpec, rejecting unknown fields."""
    return load_instance(data)[0]


def spec_doc(spec: ProblemSpec, options: dict | None = None) -> dict:
    """Instance JSON document for a ProblemSpec (inverse of load_instance);
    options hold plain JSON scalars and are written as given."""
    doc = {"dim": spec.dim, "sets": _SET_LIST.enc(spec.sets), "method": spec.method}
    if spec.base_points is not None:
        doc["base_points"] = _MAT.enc(spec.base_points)
    if spec.params is not None:
        doc["params"] = _PARAMS_BY_TYPE[type(spec.params)].enc(spec.params)
    if options:
        doc["options"] = dict(options)
    return doc


def report_doc(report) -> dict:
    """Canonical report document with all float leaves stringified."""

    def conv(node):
        if isinstance(node, bool):
            return node
        if isinstance(node, float):
            return "%.17g" % (node + 0.0)
        if isinstance(node, (list, tuple)):
            return [conv(v) for v in node]
        if isinstance(node, dict):
            return {k: conv(v) for k, v in node.items()}
        return node

    doc = conv(report.to_json_dict())
    doc["schema"] = REPORT_SCHEMA
    return doc
