"""Command-line front end: exit codes, byte-stable outputs, seed handling.

Runs main() in process and checks the declared `dfc` entry point end to end
in a separate process.
"""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import pytest

import dfc
from dfc import analysis, fixtures, model, sets
from dfc.cli import main

SEED = 20240


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
    monkeypatch.setenv("DFC_SEED", "ten")
    assert main(args) == 64
    capsys.readouterr()


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


def test_analyze_stalled_oracle_exits_with_error(tmp_path, capsys, monkeypatch):
    """A stalled optimizer fallback is a documented error (exit 1), not a
    traceback."""
    inst = write_instance(tmp_path, "ex1", "extended")

    def stalled(S, u):
        raise ArithmeticError("support optimization stalled")

    monkeypatch.setattr(analysis, "support_via_optimizer", stalled)
    sets._support_cached.cache_clear()  # no support value may come from the cache
    rc = main(["analyze", "--instance", str(inst), "--check", "sharp", "--directions", "4"])
    assert rc == 1
    assert "error: support optimization stalled" in capsys.readouterr().err


def test_every_package_exception_derives_from_dfc_error():
    """One root: the CLI catches DfcError, so every exception class a dfc
    module defines must derive from it (the CLI's own UsageError aside)."""
    import importlib
    import inspect
    import pkgutil

    defined = [
        obj
        for info in pkgutil.iter_modules(dfc.__path__)
        for obj in vars(importlib.import_module(f"dfc.{info.name}")).values()
        if inspect.isclass(obj)
        and issubclass(obj, Exception)
        and obj.__module__ == f"dfc.{info.name}"
    ]
    assert dfc.cli.UsageError in defined and sets.EmptySet in defined
    assert dfc.DfcError is sets.DfcError
    strays = [
        c.__qualname__
        for c in defined
        if c is not dfc.cli.UsageError and not issubclass(c, dfc.DfcError)
    ]
    assert strays == []
    # the extra bases callers may catch on are kept
    assert issubclass(dfc.SchemaError, ValueError)
    assert issubclass(dfc.builders.FamilyInvalid, ValueError)


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
