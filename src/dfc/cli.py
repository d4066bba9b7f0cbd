"""Command-line front end.

Subcommands: build (instance file to model JSON, plus LP text when the
model is linear), analyze (run a strength check and print a one-line
verdict), emit (re-serialize a model file), examples (materialize the
bundled instances with their expected verdicts).

Exit codes: 0 pass or not-refuted, 2 fail with witness, 3 inconclusive (no
failure found, but some samples were not evaluated because the optimizer
stalled), 1 error, 64 usage.
Outputs are byte-stable for fixed inputs and seeds; DFC_SEED overrides the
default seed when --seed is not given.  --jobs N splits the directions of
every sampled check between this process and at most N - 1 forked children
(in-process where os.fork is missing), with the same report bytes at any job
count; a child that dies without a result is an error (exit 1).
--directions and --jobs must be at least 1, --tol finite and at least 0.
Each check's default direction count is its function's default.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import analysis, builders, fixtures, gauge, model, sets

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class UsageError(sets.DfcError):
    """Bad command line; main reports it with exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="dfc", description=__doc__, add_help=True)
    sub = p.add_subparsers(dest="command", metavar="command")

    b = sub.add_parser("build", help="build a model from an instance file")
    b.add_argument("--instance", required=True)
    b.add_argument("--method", default=None)
    b.add_argument("--mode", choices=("plus", "lifted"), default="plus")
    b.add_argument("--out", required=True)

    count = _flag(int, lambda v: v >= 1, "an integer >= 1")
    tol = _flag(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
    a = sub.add_parser("analyze", help="run a strength check on an instance")
    a.add_argument("--instance", required=True)
    a.add_argument("--method", default=None)
    a.add_argument("--check", required=True, choices=tuple(_CHECKS))
    a.add_argument("--directions", type=count, default=None)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--tol", type=tol, default=None)
    a.add_argument("--jobs", type=count, default=1)
    a.add_argument("--out", default=None, help="report JSON path")

    e = sub.add_parser("emit", help="re-serialize a model file")
    e.add_argument("--model", required=True)
    e.add_argument("--format", required=True, choices=("json", "lp"))
    e.add_argument("--out", default=None)

    x = sub.add_parser("examples", help="write bundled example instances")
    x.add_argument("--name", required=True, choices=sorted(fixtures.REGISTRY))
    x.add_argument("--variant", default=None)
    x.add_argument("--out", required=True, help="output directory")
    return p


def _flag(convert, ok, expected: str):
    """An argparse type: the converted text, if ok accepts it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DFC_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"DFC_SEED must be an integer, got {env!r}") from None
    return analysis.DEFAULT_SEED


def _respec(spec: builders.ProblemSpec, method: str | None) -> builders.ProblemSpec:
    if method is None or method == spec.method:
        return spec
    return builders.ProblemSpec(spec.sets, spec.base_points, method, spec.params)


def _cmd_build(args) -> int:
    spec = model.parse_instance(Path(args.instance).read_bytes())
    spec = _respec(spec, args.method)
    form = builders.build(spec)
    ir = model.lower_model(form, args.mode)
    out = Path(args.out)
    out.write_bytes(model.emit_json(ir))
    wrote = [str(out)]
    if all(isinstance(a, gauge.Linear) for a in ir.atoms):
        lp_path = out.with_suffix(".lp")
        lp_path.write_bytes(model.emit_lp(ir))
        wrote.append(str(lp_path))
    print("wrote " + " and ".join(wrote))
    return EXIT_OK


def _cover_operands(spec: builders.ProblemSpec) -> tuple:
    if not isinstance(spec.params, builders.PiecewiseData):
        raise builders.FamilyInvalid("the par check needs piecewise families")
    return spec.sets, [f.cover_sets() for f in spec.params.families]


def _basis_operands(spec: builders.ProblemSpec) -> tuple:
    if not isinstance(spec.params, builders.BBJData):
        raise builders.FamilyInvalid("the bbj check needs shared-matrix data")
    return spec.params.lhs, spec.params.rhs


def _form_operands(spec: builders.ProblemSpec) -> tuple:
    return (builders.build(spec),)


# check name -> (check function, its operands from the problem spec)
_CHECKS = {
    "ideal": (analysis.check_ideal, _form_operands),
    "sharp": (analysis.check_sharp, _form_operands),
    "par": (analysis.check_par_conditions, _cover_operands),
    "bbj": (analysis.check_bbj_condition, _basis_operands),
    "minkowski": (analysis.check_minkowski_ideal, _form_operands),
}


def _cmd_analyze(args) -> int:
    spec, opts = model.load_instance(Path(args.instance).read_bytes())
    spec = _respec(spec, args.method)
    check = args.check
    count = args.directions if args.directions is not None else opts.get("directions")
    seed = args.seed if args.seed is not None else opts.get("seed")
    seed = seed if seed is not None else _seed(args)
    tol = args.tol if args.tol is not None else opts.get("tol")
    kw = {key: v for key, v in (("count", count), ("tol", tol)) if v is not None}
    fn, operands = _CHECKS[check]
    report = fn(*operands(spec), seed=seed, jobs=args.jobs, **kw)

    doc = model.report_doc(report)
    if args.out:
        Path(args.out).write_bytes(model.canonical_bytes(doc))
    margin = f" margin {report.margin:.3g}" if report.margin else ""
    print(f"{check}: {report.verdict} ({report.samples} samples, seed {seed}{margin})")
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if report.verdict == "inconclusive" else EXIT_OK


def _cmd_emit(args) -> int:
    ir = model.parse_model(Path(args.model).read_bytes())
    data = model.emit_json(ir) if args.format == "json" else model.emit_lp(ir)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK


def _cmd_examples(args) -> int:
    variants = fixtures.REGISTRY[args.name]
    if args.variant is not None:
        if args.variant not in variants:
            raise UsageError(f"{args.name} has no variant {args.variant!r}")
        variants = (args.variant,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for v in variants:
        spec = fixtures.load(args.name, v)
        stem = f"{args.name}_{v}"
        (out_dir / f"{stem}.json").write_bytes(
            model.canonical_bytes(model.spec_doc(spec))
        )
        expected = fixtures.EXPECTED.get((args.name, v))
        if expected:
            doc = {"name": args.name, "variant": v, "expected": expected}
            (out_dir / f"{stem}.expected.json").write_bytes(model.canonical_bytes(doc))
        print(f"wrote {out_dir / (stem + '.json')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "emit":
            return _cmd_emit(args)
        return _cmd_examples(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (sets.DfcError, ArithmeticError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
