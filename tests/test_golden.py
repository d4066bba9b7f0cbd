"""Golden outputs: report bytes of every expected check and model digests of
every build, pinned so that refactors keep them identical.

Reports come from `dfc analyze --out` on every (example, variant, check) of
`fixtures.EXPECTED` at seed 20240, with the direction counts of the benchmark
(`perfbench/run.py`).  The stored document is the canonical report without
`elapsed_s`.  Every check must give the same document at `--jobs 1` and
`--jobs 2`.  Models are the sha256 of every file `dfc build` writes, for
every example variant in both lowering modes, and of the builder forms no
example reaches (`FORMS`, specs from `oracles`).
Instances are the sha256 of `canonical_bytes(spec_doc(...))` for every
example variant, without and with an options block.

Regenerate the data (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import oracles
from dfc import builders, fixtures, model
from dfc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 20240
DIRECTIONS = {"sharp": 24, "ideal": 64, "minkowski": 24, "par": 24, "bbj": 100}
MODES = ("plus", "lifted")

REPORT_CASES = [
    (name, variant, check)
    for (name, variant), checks in sorted(fixtures.EXPECTED.items())
    for check in sorted(checks)
]
REPORT_RUNS = [
    (name, variant, check, jobs)
    for name, variant, check in REPORT_CASES
    for jobs in (1, 2)
]
INSTANCE_CASES = [
    (name, variant) for name in sorted(fixtures.REGISTRY) for variant in fixtures.REGISTRY[name]
]
INSTANCE_OPTIONS = {"directions": 40, "seed": 7, "tol": 1e-7}
FORMS = {
    "homothetic": oracles.homothetic_spec,
    "orthogonal_projection": oracles.orthogonal_projection_spec,
    "orthogonal_flip": oracles.orthogonal_flip_spec,
    "bigm_computed": oracles.bigm_computed_spec,
}
MODEL_CASES = [
    (name, variant, mode)
    for name, variant in INSTANCE_CASES + [("forms", form) for form in FORMS]
    for mode in MODES
]


def _spec(name: str, variant: str) -> builders.ProblemSpec:
    return FORMS[variant]() if name == "forms" else fixtures.load(name, variant)


def _instance(out_dir: Path, name: str, variant: str) -> Path:
    path = out_dir / f"{name}_{variant}.json"
    if not path.exists():
        path.write_bytes(model.canonical_bytes(model.spec_doc(_spec(name, variant))))
    return path


def report_doc(out_dir: Path, name: str, variant: str, check: str, jobs: int) -> dict:
    inst = _instance(out_dir, name, variant)
    out = out_dir / f"{name}_{variant}_{check}_jobs{jobs}.report.json"
    main([
        "analyze", "--instance", str(inst), "--check", check,
        "--directions", str(DIRECTIONS[check]), "--seed", str(SEED),
        "--jobs", str(jobs), "--out", str(out),
    ])
    doc = json.loads(out.read_bytes())
    doc.pop("elapsed_s")
    return doc


def model_digests(out_dir: Path, name: str, variant: str, mode: str) -> dict:
    inst = _instance(out_dir, name, variant)
    out = out_dir / f"{name}_{variant}.{mode}.json"
    assert main(["build", "--instance", str(inst), "--mode", mode, "--out", str(out)]) == 0
    written = [out, out.with_suffix(".lp")]
    return {
        p.suffix[1:]: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in written
        if p.exists()
    }


def instance_digests(name: str, variant: str) -> dict:
    spec = fixtures.load(name, variant)
    return {
        label: hashlib.sha256(model.canonical_bytes(model.spec_doc(spec, opts))).hexdigest()
        for label, opts in (("plain", None), ("options", INSTANCE_OPTIONS))
    }


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_bytes())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name,variant,check,jobs", REPORT_RUNS)
def test_report_bytes(work, capsys, name, variant, check, jobs):
    expected = _load("reports.json")[f"{name}/{variant}/{check}"]
    got = report_doc(work, name, variant, check, jobs)
    capsys.readouterr()
    assert got == expected


@pytest.mark.parametrize("name,variant,mode", MODEL_CASES)
def test_model_digests(work, capsys, name, variant, mode):
    expected = _load("models.json")[f"{name}/{variant}/{mode}"]
    got = model_digests(work, name, variant, mode)
    capsys.readouterr()
    assert got == expected


def test_every_builder_has_a_golden_model():
    methods = {_spec(name, variant).method for name, variant, _ in MODEL_CASES}
    assert methods >= set(builders.BUILDERS)


@pytest.mark.parametrize("name,variant", INSTANCE_CASES)
def test_instance_digests(name, variant):
    expected = _load("instances.json")[f"{name}/{variant}"]
    assert instance_digests(name, variant) == expected


@pytest.mark.parametrize(
    "fname,cases",
    [
        ("reports.json", REPORT_CASES),
        ("models.json", MODEL_CASES),
        ("instances.json", INSTANCE_CASES),
    ],
)
def test_golden_files_hold_exactly_the_cases_read(fname, cases):
    """An entry whose case is gone from the fixtures, or a case with no
    entry, shows here rather than passing unnoticed."""
    assert sorted(_load(fname)) == sorted("/".join(case) for case in cases)


def _regenerate(out_dir: Path) -> None:
    reports = {
        f"{n}/{v}/{c}": report_doc(out_dir, n, v, c, 1) for n, v, c in REPORT_CASES
    }
    models = {f"{n}/{v}/{m}": model_digests(out_dir, n, v, m) for n, v, m in MODEL_CASES}
    instances = {f"{n}/{v}": instance_digests(n, v) for n, v in INSTANCE_CASES}
    GOLDEN.mkdir(exist_ok=True)
    for fname, doc in (
        ("reports.json", reports),
        ("models.json", models),
        ("instances.json", instances),
    ):
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        (GOLDEN / fname).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp))
    sys.exit(0)
