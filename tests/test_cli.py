"""Command-line front end: exit codes, byte-stable outputs, seed handling.

Runs main() in process and checks the declared `dfc` entry point end to end
in a separate process.
"""

import ast
import importlib
import functools
import json
import math
import operator
import os
import pkgutil
import shutil
import subprocess
import sys
import time
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest

import dfc
from dfc import analysis, builders, cli, fixtures, model, sets
from dfc.cli import main

SEED = 20240
EYE2 = ((1.0, 0.0), (0.0, 1.0))


def write_instance(tmp_path, name, variant):
    spec = fixtures.load(name, variant)
    path = tmp_path / f"{name}_{variant}.json"
    path.write_bytes(model.canonical_bytes(model.spec_doc(spec)))
    return path


def drop_elapsed(blob: bytes) -> dict:
    doc = json.loads(blob)
    doc.pop("elapsed_s")
    return doc


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_writes_model_and_lp_for_linear(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex4", "original")
    out = tmp_path / "m.json"
    assert main(["build", "--instance", str(inst), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert str(out) in printed and str(out.with_suffix(".lp")) in printed
    ir = model.parse_model(out.read_bytes())
    assert len(ir.atoms) == 5
    assert out.with_suffix(".lp").read_bytes().startswith(b"Minimize")


def test_build_skips_lp_for_nonlinear(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex1", "extended")
    out = tmp_path / "m.json"
    assert main(["build", "--instance", str(inst), "--out", str(out)]) == 0
    assert not out.with_suffix(".lp").exists()
    capsys.readouterr()


def test_build_bytes_stable_across_runs(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex7", "wide")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--instance", str(inst), "--out", str(a)]) == 0
    assert main(["build", "--instance", str(inst), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_build_lifted_mode(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex7", "wide")
    out = tmp_path / "m.json"
    rc = main(
        ["build", "--instance", str(inst), "--mode", "lifted", "--out", str(out)]
    )
    assert rc == 0
    ir = model.parse_model(out.read_bytes())
    assert ir.mode == "lifted"
    assert len(ir.atoms) == 21
    capsys.readouterr()


def test_build_method_override(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex1", "bigm")
    out = tmp_path / "m.json"
    rc = main(
        ["build", "--instance", str(inst), "--method", "extended", "--out", str(out)]
    )
    assert rc == 0
    ir = model.parse_model(out.read_bytes())
    assert len(ir.atoms) == 11
    capsys.readouterr()


def test_build_reports_where_the_cone_sum_condition_fails(tmp_path, capsys):
    """An isotone piece that is not down-closed in its frame is an error
    (exit 1) naming the piece, the frame direction and the witness point."""
    thin = sets.intersect(sets.box((0.0, 0.0), (1.0, 1.0)), sets.hpoly([[-0.01, 1.0]], [0.5]))
    low = sets.box((-1.0, -1.0), (0.0, 0.0))
    data = builders.IsotoneData(
        pieces=(low, thin),
        basis=((1.0, 0.0), (0.0, 1.0)),
        signs=((-1, -1), (1, 1)),
    )
    spec = builders.ProblemSpec((low, thin), ((0.0, 0.0), (0.0, 0.0)), "isotone", data)
    inst = tmp_path / "thin.json"
    inst.write_bytes(model.canonical_bytes(model.spec_doc(spec)))
    out = tmp_path / "m.json"
    assert main(["build", "--instance", str(inst), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: piece 1: " in err
    assert "frame direction 0" in err
    assert "(0, 0.51)" in err
    assert not out.exists()


def test_build_rejects_a_short_frame_without_traceback(tmp_path, capsys):
    """A frame with fewer directions than the dimension is an error (exit 1)
    naming the piece, not an escaped IndexError."""
    halves = (sets.box((-1.0, -1.0), (0.0, 0.0)), sets.box((0.0, 0.0), (1.0, 1.0)))
    data = builders.IsotoneData(pieces=halves, basis=EYE2, signs=((-1, -1), (1, 1)))
    doc = model.spec_doc(builders.ProblemSpec(halves, ((0.0, 0.0),) * 2, "isotone", data))
    doc["params"].update(basis=[[1.0, 0.0]], signs=[[-1], [1]])  # ProblemSpec refuses this frame
    inst = tmp_path / "short.json"
    inst.write_bytes(model.canonical_bytes(doc))
    out = tmp_path / "m.json"
    assert main(["build", "--instance", str(inst), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: piece 0: the frame has 1 directions" in err
    assert "Traceback" not in err
    assert not out.exists()


BAD_DOCUMENTS = {
    # name: (example variant, mutation of its instance document, error text)
    "soc-block-of-size-0": (
        ("ex1", "extended"),
        lambda d: d["sets"].__setitem__(
            0,
            {"set": "conic", "cones": [["nonneg", 2], ["soc", 0]], "A": [[1, 0], [0, 1]],
             "B": [], "c": [0, 0]},
        ),
        "error: $.sets[0]: a soc cone block needs size 1 or more, got 0",
    ),
    "negative-ball-radius": (
        ("ex1", "extended"),
        lambda d: d["sets"].__setitem__(1, {"set": "ball", "center": [0, 0], "radius": -1}),
        "error: $.sets[1]: ball radius must be finite and nonnegative, got -1.0",
    ),
    "skewed-frame": (
        ("ex7", "single"),
        lambda d: d["params"].update(basis=[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "error: directions are not orthonormal at 1e-10",
    ),
    "base-point-outside-its-disjunct": (
        ("ex7", "single"),
        lambda d: d["base_points"].__setitem__(0, [1.5, 1.5, 1.5]),
        "error: base point 0 (1.5, 1.5, 1.5) lies outside disjunct 0",
    ),
    "base-points-outside-both-disjuncts": (
        ("ex7", "single"),
        lambda d: d.update(base_points=[[9, 9, 9], [9, 9, 9]]),
        "error: base point 0 (9, 9, 9) lies outside disjunct 0",
    ),
    "extended-base-point-outside-its-disjunct": (
        ("ex1", "extended"),
        lambda d: d["base_points"].__setitem__(1, [9, 9]),
        "error: base point 1 (9, 9) lies outside disjunct 1",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_build_refuses_out_of_domain_data_with_one_error_line(tmp_path, capsys, name):
    """Data outside its domain exits 1 with one error line.  A soc block of
    size 0 used to escape as an IndexError from the lowering, and a ball of
    negative radius to load and fail later with a misleading message.  ex7
    read its base points from a params copy: base points outside its pieces
    built, and a params copy outside them failed without naming the point."""
    (example, variant), mutate, text = BAD_DOCUMENTS[name]
    doc = json.loads(write_instance(tmp_path, example, variant).read_bytes())
    mutate(doc)
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    assert main(["build", "--instance", str(inst), "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [text]


def _list_paths(node, path=()):
    """The path of every nonempty list in a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        if node:
            yield path
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _list_paths(child, path + (key,))


@pytest.mark.parametrize(
    "name,variant", [(name, v) for name, vs in fixtures.REGISTRY.items() for v in vs]
)
def test_an_instance_with_a_list_one_short_or_long_exits_with_a_code(
    tmp_path, capsys, name, variant
):
    """Every list of a bundled instance, with its last entry dropped or
    repeated: build, and the par or bbj check where the method has one,
    each return an exit code, and an error (exit 1) is one "error:" line.
    Ragged matrices, short base points and one sign row or hull too few
    used to escape as numpy's ValueError or an IndexError."""
    doc = model.spec_doc(fixtures.load(name, variant))
    check = {"piecewise": "par", "bbj": "bbj"}.get(doc["method"])
    inst, out = tmp_path / "i.json", tmp_path / "m.json"
    for path in _list_paths(doc):
        for grow in (False, True):
            mutant = json.loads(json.dumps(doc))
            items = functools.reduce(operator.getitem, path, mutant)
            if grow:
                items.append(items[-1])
            else:
                items.pop()
            inst.write_text(json.dumps(mutant))
            runs = [["build", "--instance", str(inst), "--out", str(out)]]
            if check:
                runs.append(
                    ["analyze", "--instance", str(inst), "--check", check, "--directions", "8"]
                )
            for argv in runs:
                how = "repeated" if grow else "dropped"
                what = f"{argv[0]} with the last entry of {list(path)} {how}"
                try:
                    code = main(argv)
                except Exception as exc:
                    pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), what
                if code == 1:
                    assert len(err.splitlines()) == 1 and err.startswith("error: "), (what, err)


def test_build_exits_1_when_a_template_gauge_reaches_the_box(tmp_path, capsys):
    """The big-M constants of cone sums along a short ray (1e-8, 0) need
    ray multipliers past the artificial box; the gauge fallback raises and
    the build is an error (exit 1) instead of a box-limited constant."""
    ray = [[1e-8, 0.0]]
    pieces = (
        sets.sum_cone(sets.box([-1.0, -1.0], [1.0, 1.0]), ray),
        sets.sum_cone(sets.box([2.0, -0.1], [3.0, 0.1]), ray),
    )
    spec = builders.ProblemSpec(pieces, ((0.0, 0.0), (2.5, 0.0)), "bigm", builders.BigMData())
    inst = tmp_path / "ray.json"
    inst.write_bytes(model.canonical_bytes(model.spec_doc(spec)))
    out = tmp_path / "m.json"
    assert main(["build", "--instance", str(inst), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: template gauge reached the artificial box" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_exit_codes_for_ideal(tmp_path, capsys):
    original = write_instance(tmp_path, "ex4", "original")
    augmented = write_instance(tmp_path, "ex4", "augmented")
    rc = main(["analyze", "--instance", str(original), "--check", "ideal"])
    assert rc == 2
    assert "ideal: fail" in capsys.readouterr().out
    rc = main(["analyze", "--instance", str(augmented), "--check", "ideal"])
    assert rc == 0
    assert "ideal: pass" in capsys.readouterr().out


def test_analyze_bbj_and_par(tmp_path, capsys):
    ex4 = write_instance(tmp_path, "ex4", "original")
    rc = main(["analyze", "--instance", str(ex4), "--check", "bbj"])
    assert rc == 2
    ex6 = write_instance(tmp_path, "ex6", "default")
    rc = main(
        ["analyze", "--instance", str(ex6), "--check", "par", "--directions", "60"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "par: not-refuted" in out
    rc = main(["analyze", "--instance", str(ex4), "--check", "par"])
    assert rc == 1
    capsys.readouterr()


def test_analyze_report_stable_for_fixed_seed(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex1", "bigm")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["analyze", "--instance", str(inst), "--check", "sharp",
            "--directions", "60", "--seed", "7"]
    assert main(base + ["--out", str(r1)]) == 2
    assert main(base + ["--out", str(r2)]) == 2
    assert drop_elapsed(r1.read_bytes()) == drop_elapsed(r2.read_bytes())
    doc = json.loads(r1.read_bytes())
    assert doc["schema"] == "dfc-report/1"
    assert doc["seed"] == 7
    assert "seed 7" in capsys.readouterr().out


def test_analyze_seed_sources(tmp_path, capsys, monkeypatch):
    inst = write_instance(tmp_path, "ex4", "augmented")
    args = ["analyze", "--instance", str(inst), "--check", "bbj"]
    monkeypatch.setenv("DFC_SEED", "99")
    assert main(args) == 0
    assert "seed 99" in capsys.readouterr().out
    assert main(args + ["--seed", "5"]) == 0
    assert "seed 5" in capsys.readouterr().out
    monkeypatch.delenv("DFC_SEED")
    assert main(args) == 0
    assert f"seed {SEED}" in capsys.readouterr().out
    for bad in ("ten", "-1"):
        monkeypatch.setenv("DFC_SEED", bad)
        assert main(args) == 64
        err = capsys.readouterr().err
        assert err == f"usage error: DFC_SEED: expected an integer >= 0, got {bad!r}\n"


def test_analyze_instance_options_supply_defaults(tmp_path, capsys):
    spec = fixtures.load("ex4", "augmented")
    path = tmp_path / "inst.json"
    path.write_bytes(
        model.canonical_bytes(model.spec_doc(spec, {"seed": 11, "directions": 8}))
    )
    rc = main(["analyze", "--instance", str(path), "--check", "bbj"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(8 samples, seed 11)" in out


def assert_rhs_refused(tmp_path, capsys, value, word):
    """An ex4/original instance with value as its first piece's first
    right-hand side exits 1 on build, bbj and ideal, naming that number's
    path."""
    doc = model.spec_doc(fixtures.load("ex4", "original"))
    doc["sets"][0]["b"][0] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    runs = [
        ["build", "--instance", str(path), "--out", str(tmp_path / "m.json")],
        ["analyze", "--instance", str(path), "--check", "bbj"],
        ["analyze", "--instance", str(path), "--check", "ideal"],
    ]
    for argv in runs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $.sets[0].b[0]") and word in err


@pytest.mark.parametrize("variant", ["original", "augmented"])
def test_bbj_reads_its_rows_from_the_pieces_only(tmp_path, capsys, variant):
    """ex4 once stated its rows twice, in the pieces and in a params block
    that build and the bbj check read alone: augmented with the params'
    first right-hand side lowered by 0.5 built with no note.  Such a block
    is now refused at $.params, and the bbj check of ex4's pieces under
    another method writes the bbj instance's report bytes."""
    spec = fixtures.load("ex4", variant)
    A, rhs = builders.shared_rows(spec.sets)
    doc = model.spec_doc(spec)
    doc["params"] = {"lhs": A.tolist(), "rhs": rhs.tolist()}
    doc["params"]["rhs"][0][0] -= 0.5
    restated = tmp_path / "restated.json"
    restated.write_text(json.dumps(doc))
    assert main(["build", "--instance", str(restated), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: $.params: ") and err.count("\n") == 1
    del doc["params"]
    reports = []
    for method in ("bbj", "extended"):
        doc["method"] = method
        inst, out = tmp_path / f"{method}.json", tmp_path / f"{method}_report.json"
        inst.write_text(json.dumps(doc))
        rc = main(["analyze", "--instance", str(inst), "--check", "bbj", "--out", str(out)])
        assert rc == (0 if variant == "augmented" else 2)
        reports.append(drop_elapsed(out.read_bytes()))
    capsys.readouterr()
    assert reports[0] == reports[1]


@pytest.mark.parametrize("value", ["nan", float("nan"), {"dec": "nan"}, {"hex": "nan"}])
def test_a_nan_instance_number_exits_1_naming_its_path(tmp_path, capsys, value):
    """NaN data would leave the simplex blocked on the same variable over
    and over; the instance is refused before any LP runs."""
    assert_rhs_refused(tmp_path, capsys, value, "NaN")


@pytest.mark.parametrize("value", ["inf", "-inf", {"dec": "inf"}, {"hex": "-inf"}])
def test_an_infinite_instance_number_exits_1_naming_its_path(tmp_path, capsys, value):
    """Only box bounds and variable bounds may be infinite; an infinite
    right-hand side would stall every LP of bbj and the feasibility probe
    of ideal."""
    assert_rhs_refused(tmp_path, capsys, value, "expected a finite number, got ")


@pytest.mark.parametrize(
    "options,where",
    [
        ({"directions": "many"}, "$.options.directions"),
        ({"tol": "x"}, "$.options.tol"),
        ({"seed": 1.5}, "$.options.seed"),
        ({"jobs": 2}, "$.options"),
        ({"tol": "nan"}, "$.options.tol"),
        ({"tol": "inf"}, "$.options.tol"),
        ({"tol": -1.0}, "$.options.tol"),
        ({"seed": -1}, "$.options.seed"),
        ({"seed": True}, "$.options.seed"),
        ({"seed": False}, "$.options.seed"),
        ({"directions": True}, "$.options.directions"),
    ],
)
def test_malformed_instance_options_exit_1(tmp_path, capsys, options, where):
    spec = fixtures.load("ex4", "augmented")
    path = tmp_path / "inst.json"
    path.write_bytes(model.canonical_bytes(model.spec_doc(spec, options)))
    assert main(["analyze", "--instance", str(path), "--check", "bbj"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}: ")
    assert main(["build", "--instance", str(path), "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


def test_build_rejects_a_malformed_flip(tmp_path, capsys):
    pieces = (sets.box((0.0, 0.0), (1.0, 1.0)), sets.box((-1.0, -1.0), (0.0, 0.0)))
    data = builders.OrthogonalData(
        pieces,
        ((1.0, 0.0), (0.0, 1.0)),
        ((0, 1), (0, 1)),
        ((1, 1), (-1, -1)),
        (1, 1),
    )
    spec = builders.ProblemSpec(pieces, ((0.0, 0.0), (0.0, 0.0)), "orthogonal", data)
    doc = json.loads(model.canonical_bytes(model.spec_doc(spec)))
    inst, out = tmp_path / "inst.json", tmp_path / "m.json"
    for flip in (5, [1.5, -1]):
        doc["params"]["flip"] = flip
        inst.write_text(json.dumps(doc))
        assert main(["build", "--instance", str(inst), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: $.params.flip: expected an array of integers\n"
    doc["params"]["flip"] = [1, 1]
    inst.write_text(json.dumps(doc))
    assert main(["build", "--instance", str(inst), "--out", str(out)]) == 0


def test_analyze_usage_and_error_paths(tmp_path, capsys):
    assert main([]) == 64
    assert main(["analyze", "--instance", "x.json"]) == 64
    inst = write_instance(tmp_path, "ex4", "original")
    rc = main(
        ["analyze", "--instance", str(inst), "--check", "ideal", "--directions", "-4"]
    )
    assert rc == 64
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dim\": 2}")
    assert main(["analyze", "--instance", str(bad), "--check", "ideal"]) == 1
    assert main(["analyze", "--instance", str(tmp_path / "no.json"),
                 "--check", "ideal"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,err",
    [
        ([], "a subcommand is required"),
        (["bogus"], "argument command: invalid choice: 'bogus' "
         "(choose from 'build', 'analyze', 'emit', 'examples')"),
        (["build", "--m", "bigm"], "ambiguous option: --m could match --method, --mode"),
        (["build", "--m=bigm"], "ambiguous option: --m=bigm could match --method, --mode"),
        (["build", "--instance", "a.json", "--out"], "argument --out: expected one argument"),
        (["build", "--instance", "--out", "m.json"], "argument --instance: expected one argument"),
        (["build", "--instance", "-a.json", "--out", "m.json"],
         "argument --instance: expected one argument"),
        (["build", "--instance", "a.json", "--out", "m.json", "--bogus", "1"],
         "unrecognized arguments: --bogus 1"),
        (["build", "--out", "m.json"], "the following arguments are required: --instance"),
        (["analyze", "--instance", "a.json", "--check", "foo"],
         "argument --check: invalid choice: 'foo' "
         "(choose from 'ideal', 'sharp', 'par', 'bbj', 'minkowski')"),
        (["analyze", "--instance", "a.json", "--check=sharp", "--dir=0"],
         "argument --directions: expected an integer >= 1, got '0'"),
        (["examples", "--name", "ex9", "--out", "o"],
         "argument --name: invalid choice: 'ex9' "
         "(choose from 'ex1', 'ex3', 'ex4', 'ex5', 'ex6', 'ex7')"),
        (["build", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_usage_errors_print_one_line_and_exit_64(capsys, argv, err):
    assert main(argv) == 64
    assert capsys.readouterr().err == f"usage error: {err}\n"


def test_flags_take_inline_values_prefixes_and_negative_numbers(tmp_path, capsys):
    """--flag=value and any unique prefix read as the full flag, the last
    repeat wins, and a value may be a negative number or a bare "-"."""
    inst = write_instance(tmp_path, "ex4", "augmented")
    argv = ["analyze", f"--inst={inst}", "--check=bbj", "--dir", "9", "--dir", "8", "--s=5"]
    assert main(argv) == 0
    assert "bbj: not-refuted (8 samples, seed 5)" in capsys.readouterr().out
    assert main(["analyze", "--instance", str(inst), "--check", "bbj", "--seed", "-3"]) == 64
    assert "got '-3'" in capsys.readouterr().err
    assert main(["emit", "--model", str(tmp_path / "no.json"), "--format", "lp", "--o", "-"]) == 1
    assert "no.json" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["build", "--he"], ["analyze", "-h"]])
def test_help_prints_the_docstring_and_the_flags_and_exits_0(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(cli.__doc__)
    if len(argv) == 2:
        assert "  --instance INSTANCE  (required)" in out
    if argv[0] == "analyze":
        assert "  --check {ideal,sharp,par,bbj,minkowski}  (required)" in out


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--directions", "0"),
        ("--jobs", "0"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--seed", "-1"),
    ],
)
def test_analyze_rejects_bad_counts_and_tolerances(tmp_path, capsys, flag, value):
    """A count below 1 is not read as "left out", a negative seed would seed
    the stream of its absolute value, and a negative or non-finite tolerance
    would turn verdicts around: each is a usage error."""
    inst = write_instance(tmp_path, "ex1", "extended")
    assert main(["analyze", "--instance", str(inst), "--check", "sharp", flag, value]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}: ")
    assert err.count("\n") == 1


def test_analyze_accepts_the_smallest_counts_and_tolerance(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex4", "augmented")
    args = ["--directions", "1", "--jobs", "1", "--tol", "0", "--seed", "0"]
    assert main(["analyze", "--instance", str(inst), "--check", "bbj", *args]) == 0
    assert "bbj: not-refuted (1 samples, seed 0)" in capsys.readouterr().out


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork gives the parent, in order."""
    pids, real = [], os.fork

    def counting_fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_analyze_passes_jobs_to_every_sampled_check(tmp_path, capsys, forks):
    """--jobs reaches the engine for par and bbj too: at --jobs 2 each
    forks one child for the second half of its directions."""
    counts = []
    for name, variant, check in (("ex4", "original", "bbj"), ("ex5", "pair", "par")):
        inst = write_instance(tmp_path, name, variant)
        before = len(forks)
        main(["analyze", "--instance", str(inst), "--check", check,
              "--directions", "8", "--jobs", "2"])
        counts.append(len(forks) - before)
    capsys.readouterr()
    assert counts == [1, 1]
    assert_no_child_left()


@pytest.mark.parametrize("directions,jobs,children", [(8, 3, 2), (3, 5, 2), (8, 1, 0)])
def test_analyze_forks_one_child_per_chunk_after_the_first(
    tmp_path, capsys, forks, directions, jobs, children
):
    """Chunks hold ceil(directions / jobs) samples; this process takes the
    first, and the report is the one --jobs 1 writes."""
    inst = write_instance(tmp_path, "ex4", "original")
    docs = []
    for j in (1, jobs):
        out = tmp_path / f"jobs{j}.json"
        main(["analyze", "--instance", str(inst), "--check", "bbj", "--directions",
              str(directions), "--jobs", str(j), "--out", str(out)])
        docs.append(drop_elapsed(out.read_bytes()))
    capsys.readouterr()
    assert len(forks) == children
    assert docs[0] == docs[1]
    assert_no_child_left()


def test_analyze_without_fork_runs_the_chunks_in_process(tmp_path, capsys, monkeypatch):
    inst = write_instance(tmp_path, "ex4", "original")

    def report(jobs):
        out = tmp_path / f"jobs{jobs}.json"
        main(["analyze", "--instance", str(inst), "--check", "bbj",
              "--directions", "8", "--jobs", jobs, "--out", str(out)])
        return drop_elapsed(out.read_bytes())

    serial = report("1")
    monkeypatch.delattr(os, "fork")
    assert report("2") == serial
    capsys.readouterr()


def _basis_sample_from(first, action):
    """analysis._basis_sample, but running action(idx) from sample first on."""
    real = analysis._basis_sample

    def sample(args, idx, c):
        if idx >= first:
            action(idx)
        return real(args, idx, c)

    return sample


def _stall(idx):
    raise sets.Stalled(f"basis condition subproblem stalled at sample {idx}")


def test_analyze_stall_in_a_worker_exits_with_error(tmp_path, capsys, monkeypatch):
    """Samples 4-7 of 8 at --jobs 2 run in the forked child only."""
    monkeypatch.setattr(analysis, "_basis_sample", _basis_sample_from(4, _stall))
    inst = write_instance(tmp_path, "ex4", "original")
    rc = main(["analyze", "--instance", str(inst), "--check", "bbj",
               "--directions", "8", "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: basis condition subproblem stalled at sample 4\n"
    )
    assert_no_child_left()


def test_analyze_dead_worker_exits_with_error_naming_its_chunk(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "_basis_sample", _basis_sample_from(4, lambda idx: os._exit(7)))
    inst = write_instance(tmp_path, "ex4", "original")
    rc = main(["analyze", "--instance", str(inst), "--check", "bbj",
               "--directions", "8", "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: the worker of chunk 1 (samples 4-7) ended without a result (exit status 7)\n"
    )
    assert_no_child_left()


def test_analyze_failure_of_its_own_chunk_kills_the_workers(tmp_path, capsys, monkeypatch):
    """The workers of samples 3-7 would sleep for a minute: the error of
    sample 0 must not wait for them."""
    def sample(args, idx, c):
        if idx == 0:
            _stall(idx)
        time.sleep(60)

    monkeypatch.setattr(analysis, "_basis_sample", sample)
    inst = write_instance(tmp_path, "ex4", "original")
    t0 = time.monotonic()
    rc = main(["analyze", "--instance", str(inst), "--check", "bbj",
               "--directions", "8", "--jobs", "3"])
    assert time.monotonic() - t0 < 30
    assert rc == 1
    assert "error: basis condition subproblem stalled at sample 0" in capsys.readouterr().err
    assert_no_child_left()


def test_sampled_commands_never_import_numpy_random(tmp_path):
    """Sampled directions come from the stdlib random.Random, so no sampled
    analyze and no probing build loads numpy.random, an import that would
    cost each such command about 12 ms.  The test process has numpy.random
    loaded already, so a fresh interpreter runs the commands."""
    ex1 = str(write_instance(tmp_path, "ex1", "bigm"))
    ex3 = str(write_instance(tmp_path, "ex3", "default"))
    ex4 = str(write_instance(tmp_path, "ex4", "augmented"))
    runs = [
        ["analyze", "--instance", inst, "--check", check, "--directions", "8", "--seed", "7"]
        for inst, check in ((ex1, "sharp"), (ex1, "ideal"), (ex3, "par"), (ex4, "bbj"))
    ] + [["build", "--instance", ex1, "--out", str(tmp_path / "ex1_bigm.model.json")]]
    package_root = str(Path(dfc.__file__).resolve().parents[1])
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    code = (
        "import json, sys\n"
        "from dfc.cli import main\n"
        "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" (8 samples, seed 7") == 4
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert set(codes) <= {0, 2} and codes[-1] == 0
    assert not loaded


def test_importing_the_cli_loads_no_process_pool():
    package_root = str(Path(dfc.__file__).resolve().parents[1])
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    code = (
        "import sys, dfc.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_command_never_imports_argparse(tmp_path):
    """The command line is read from one flag table; building an argparse
    parser cost each command about 2 ms."""
    package_root = str(Path(dfc.__file__).resolve().parents[1])
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    code = (
        "import sys, dfc.cli\n"
        "rc = dfc.cli.main(['examples', '--name', 'ex4', '--out', sys.argv[1]])\n"
        "print(rc, 'argparse' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def _package_exceptions():
    """Every exception class a dfc module defines."""
    return [
        cls
        for info in pkgutil.iter_modules(dfc.__path__)
        for cls in vars(importlib.import_module(f"dfc.{info.name}")).values()
        if isinstance(cls, type)
        and issubclass(cls, BaseException)
        and cls.__module__ == f"dfc.{info.name}"
    ]


def test_every_dfc_exception_is_a_dfc_error():
    """One root: the CLI catches DfcError, so every exception class a dfc
    module defines derives from it, the CLI's own UsageError included."""
    defined = _package_exceptions()
    assert dfc.cli.UsageError in defined and sets.EmptySet in defined
    assert [cls.__qualname__ for cls in defined if not issubclass(cls, sets.DfcError)] == []


def test_no_value_error_is_raised_or_inherited_and_only_number_parses_catch_one():
    """One root: no dfc module raises ValueError or derives a class from it,
    so a ValueError out of numpy or Python is a defect that cli.main lets
    through.  The only clauses that catch one wrap Python's own int, float
    and float.fromhex parses of a flag or a numeric string."""

    def names(node) -> set:
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        return {getattr(n, "id", None) for n in nodes}

    found = set()
    for path in sorted(Path(dfc.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if "ValueError" in names(exc):
                        found.add(("raise", *where))
                elif isinstance(node, ast.ClassDef) and "ValueError" in set().union(
                    *map(names, node.bases)
                ):
                    found.add(("base", *where, node.name))
                elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                    if "ValueError" in names(node.type):
                        found.add(("except", *where))
    assert found == {("except", "cli", "_flag"), ("except", "model", "_read_float")}


def test_every_package_exception_derives_from_dfc_error():
    """The package re-exports the one root and keeps the one extra base
    callers catch on.  A stall is the one typed signal sets.Stalled, never a
    bare ArithmeticError, so an arithmetic bug is not read as a stall."""
    assert dfc.DfcError is sets.DfcError
    assert all(issubclass(cls, dfc.DfcError) for cls in _package_exceptions())
    assert issubclass(sets.Stalled, sets.DfcError)
    assert issubclass(sets.Stalled, ArithmeticError)
    bare = []
    for path in sorted(Path(dfc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ArithmeticError":
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


@pytest.mark.parametrize(
    "name,variant,check,target",
    [
        ("ex3", "default", "par", "_atom_violation_and_cuts"),
        ("ex4", "original", "bbj", "_basis_values"),
    ],
)
def test_an_arithmetic_bug_is_not_read_as_a_stall(
    tmp_path, monkeypatch, name, variant, check, target
):
    """Only sets.Stalled leaves a sample out: a ZeroDivisionError in the cut
    loop's separation or in a basis subproblem propagates, instead of making
    the check inconclusive."""
    def broken(*args, **kwargs):
        raise ZeroDivisionError(f"injected into {target}")

    monkeypatch.setattr(analysis, target, broken)
    inst = write_instance(tmp_path, name, variant)
    with pytest.raises(ZeroDivisionError, match=f"injected into {target}"):
        main(["analyze", "--instance", str(inst), "--check", check, "--directions", "8"])


def test_analyze_stalled_oracle_exits_with_error(tmp_path, capsys, monkeypatch):
    """A stalled optimizer fallback is a documented error (exit 1), not a
    traceback."""
    inst = write_instance(tmp_path, "ex1", "extended")

    def stalled(S, u, floor=-math.inf):
        raise sets.Stalled("support optimization stalled")

    monkeypatch.setattr(analysis, "support_via_optimizer", stalled)
    rc = main(["analyze", "--instance", str(inst), "--check", "sharp", "--directions", "4"])
    assert rc == 1
    assert "error: support optimization stalled" in capsys.readouterr().err


def test_analyze_ignores_a_stall_of_a_dominated_piece(tmp_path, capsys, monkeypatch):
    """A stall in the cut loop of a piece that cannot win the union's max,
    after the round at which the loop can tell, does not end the check.

    ex1/extended: along the 16 directions near the diagonals the box
    [-1.25, 1.25]^2 beats the curved piece, whose cut loop shows it by round
    4 but needs 16 or 17 rounds to converge; along the other 8 the curved
    piece wins in 7 rounds.  The curved piece's support loops read as
    stalled when they need more than 8 rounds; the builder's feasibility
    probe along -(1, 1)/sqrt(2) is not capped."""
    inst = write_instance(tmp_path, "ex1", "extended")
    conic = fixtures.ex1_sets()[0]
    probe = np.full(2, -1.0 / math.sqrt(2.0))
    maximize = analysis.maximize_over_atoms
    floors = {"on": True}

    def stall_after_8(compiled, objective, *args, **kwargs):
        on_conic = compiled.rows is analysis._template(conic).rows
        capped = on_conic and not np.array_equal(objective[:2], probe)
        if capped and not floors["on"]:
            kwargs.pop("_floor", None)
        res = maximize(compiled, objective, *args, **kwargs)
        if capped and res.rounds > 8:
            return analysis.OptResult("stalled", math.nan, None, False, 8)
        return res

    monkeypatch.setattr(analysis, "maximize_over_atoms", stall_after_8)
    argv = ["analyze", "--instance", str(inst), "--check", "sharp", "--directions", "24"]
    assert main(argv) == 0
    assert "sharp: not-refuted (24 samples" in capsys.readouterr().out

    floors["on"] = False  # each dominated loop now runs on and stalls
    analysis._set_optimum.cache_clear()
    assert main(argv) == 1
    assert "error: support optimization stalled" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------


def test_emit_round_trip_and_lp(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex4", "original")
    mpath = tmp_path / "m.json"
    main(["build", "--instance", str(inst), "--out", str(mpath)])
    capsys.readouterr()
    out = tmp_path / "again.json"
    assert main(["emit", "--model", str(mpath), "--format", "json",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == mpath.read_bytes()
    lp = tmp_path / "m2.lp"
    assert main(["emit", "--model", str(mpath), "--format", "lp",
                 "--out", str(lp)]) == 0
    assert lp.read_bytes() == mpath.with_suffix(".lp").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "key,value,where",
    [
        ("notes", 5, "$.notes"),
        ("notes", [5], "$.notes"),
        ("objective", [5], "$.objective[0]"),
        ("objective", 3, "$.objective"),
    ],
)
def test_emit_rejects_malformed_notes_and_objective(tmp_path, capsys, key, value, where):
    inst = write_instance(tmp_path, "ex4", "original")
    mpath = tmp_path / "m.json"
    main(["build", "--instance", str(inst), "--out", str(mpath)])
    capsys.readouterr()
    doc = json.loads(mpath.read_bytes())
    doc[key] = value
    mpath.write_text(json.dumps(doc))
    assert main(["emit", "--model", str(mpath), "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ")
    assert err.count("\n") == 1


def test_emit_lp_rejects_nonlinear_model(tmp_path, capsys):
    inst = write_instance(tmp_path, "ex1", "extended")
    mpath = tmp_path / "m.json"
    main(["build", "--instance", str(inst), "--out", str(mpath)])
    capsys.readouterr()
    assert main(["emit", "--model", str(mpath), "--format", "lp"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def test_examples_write_instances_and_expectations(tmp_path, capsys):
    rc = main(["examples", "--name", "ex4", "--out", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()
    for variant in fixtures.REGISTRY["ex4"]:
        inst = tmp_path / "out" / f"ex4_{variant}.json"
        spec = model.parse_instance(inst.read_bytes())
        assert spec.method == "bbj"
        exp = json.loads((tmp_path / "out" / f"ex4_{variant}.expected.json").read_bytes())
        assert exp["expected"] == fixtures.EXPECTED[("ex4", variant)]


def test_examples_single_variant_and_bad_variant(tmp_path, capsys):
    rc = main(["examples", "--name", "ex1", "--variant", "bigm",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "o" / "ex1_bigm.json").exists()
    assert not (tmp_path / "o" / "ex1_extended.json").exists()
    rc = main(["examples", "--name", "ex1", "--variant", "huge",
               "--out", str(tmp_path / "o")])
    assert rc == 64
    capsys.readouterr()


def test_examples_round_trip_through_build(tmp_path, capsys):
    rc = main(["examples", "--name", "ex6", "--out", str(tmp_path / "o")])
    assert rc == 0
    capsys.readouterr()
    inst = tmp_path / "o" / "ex6_default.json"
    out = tmp_path / "m.json"
    assert main(["build", "--instance", str(inst), "--out", str(out)]) == 0
    ir = model.parse_model(out.read_bytes())
    assert len(ir.atoms) == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# declared entry point
# ---------------------------------------------------------------------------


def declared_script() -> str:
    """The `dfc` target, `module:attr`, from the project's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["dfc"]


def test_console_script_smoke(tmp_path):
    target = declared_script()
    inst = write_instance(tmp_path, "ex4", "augmented")
    args = ["analyze", "--instance", str(inst), "--check", "ideal"]
    exe = shutil.which("dfc")
    env = None
    if exe is not None:
        # An installed script must come from this project, not from an
        # unrelated `dfc` that happens to be on PATH.
        installed = {ep.value for ep in entry_points(group="console_scripts", name="dfc")}
        assert installed == {target}, exe
        cmd = [exe, *args]
    else:
        # From a source checkout: run the target as pip's generated wrapper
        # would, importing the same `dfc` package this test imported.
        module, attr = target.split(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        cmd = [sys.executable, "-c", code, *args]
        package_root = str(Path(dfc.__file__).resolve().parents[1])
        pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "ideal: pass" in proc.stdout
