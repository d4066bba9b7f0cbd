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
--directions and --jobs must be at least 1, --seed (and DFC_SEED) at least
0, --tol finite and at least 0.
Each check's default direction count is its function's default.
--out is the model path of build, the report JSON path of analyze and the
output directory of examples.
Flags take their value as --flag value or --flag=value, may be shortened to
any unique prefix, and the last of a repeated flag wins; a value may start
with "-" only if it is a negative number or a bare "-".  -h/--help prints
this text and the command's flags.
"""

from __future__ import annotations

import math
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import analysis, builders, fixtures, gauge, model, sets

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class UsageError(sets.DfcError):
    """Bad command line; main reports it with exit 64."""


def _flag(convert, ok, expected: str):
    """A flag reader: the converted text, if ok accepts it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise UsageError(f"expected {expected}, got {text!r}")
        return value

    return parse


_count = _flag(int, lambda v: v >= 1, "an integer >= 1")
_seed_value = _flag(int, lambda v: v >= 0, "an integer >= 0")
_tol = _flag(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")


def _seed() -> int:
    """The seed of DFC_SEED, else the default."""
    env = os.environ.get("DFC_SEED")
    if env:
        try:
            return _seed_value(env)
        except UsageError as exc:
            raise UsageError(f"DFC_SEED: {exc}") from None
    return analysis.DEFAULT_SEED


def _respec(spec: builders.ProblemSpec, method: str | None) -> builders.ProblemSpec:
    if method is None or method == spec.method:
        return spec
    return builders.ProblemSpec(spec.sets, spec.base_points, method, spec.params)


def _cmd_build(args) -> int:
    spec = model.parse_instance(Path(args.instance).read_bytes())
    spec = _respec(spec, args.method)
    form = model.lower_model(builders.build(spec), args.mode)
    out = Path(args.out)
    out.write_bytes(model.emit_json(form))
    wrote = [str(out)]
    if all(isinstance(a, gauge.Linear) for a in form.atoms):
        lp_path = out.with_suffix(".lp")
        lp_path.write_bytes(model.emit_lp(form))
        wrote.append(str(lp_path))
    print("wrote " + " and ".join(wrote))
    return EXIT_OK


def _cover_operands(spec: builders.ProblemSpec) -> tuple:
    if not isinstance(spec.params, builders.PiecewiseData):
        raise builders.FamilyInvalid("the par check needs piecewise families")
    return spec.sets, [f.cover_sets() for f in spec.params.families]


def _basis_operands(spec: builders.ProblemSpec) -> tuple:
    return builders.shared_rows(spec.sets)


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
    seed = seed if seed is not None else _seed()
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
    form = model.parse_model(Path(args.model).read_bytes())
    data = model.emit_json(form) if args.format == "json" else model.emit_lp(form)
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


_REQUIRED = object()

# command -> flag -> (reader, default); a reader is a function of the flag's
# text or the tuple of texts the flag accepts, and a _REQUIRED flag must be
# given.  args.<flag name> is the read value, else the default.
_COMMANDS = {
    "build": {
        "--instance": (str, _REQUIRED),
        "--method": (str, None),
        "--mode": (("plus", "lifted"), "plus"),
        "--out": (str, _REQUIRED),
    },
    "analyze": {
        "--instance": (str, _REQUIRED),
        "--method": (str, None),
        "--check": (tuple(_CHECKS), _REQUIRED),
        "--directions": (_count, None),
        "--seed": (_seed_value, None),
        "--tol": (_tol, None),
        "--jobs": (_count, 1),
        "--out": (str, None),
    },
    "emit": {
        "--model": (str, _REQUIRED),
        "--format": (("json", "lp"), _REQUIRED),
        "--out": (str, None),
    },
    "examples": {
        "--name": (tuple(sorted(fixtures.REGISTRY)), _REQUIRED),
        "--variant": (str, None),
        "--out": (str, _REQUIRED),
    },
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read(name: str, reader, text: str):
    """text as the value of argument name: reader(text), or text itself when
    reader is a tuple that holds it."""
    try:
        if not isinstance(reader, tuple):
            return reader(text)
        if text not in reader:
            shown = ", ".join(map(repr, reader))
            raise UsageError(f"invalid choice: {text!r} (choose from {shown})")
        return text
    except UsageError as exc:
        raise UsageError(f"argument {name}: {exc}") from None


def _option(token: str, flags: tuple):
    """What token names among flags: None for a value, else (flag, the value
    after "=" or None), with flag "" for an unknown one and for "--".  A
    token of "-h" and more letters gives them as its value, and a long token
    names every flag it is a prefix of, an error unless it is one."""
    if not token.startswith("-") or token == "-":
        return None
    if token == "--":
        return "", None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        hits = [(flag, value if eq else None) for flag in flags if flag.startswith(name)]
    else:
        hits = [(flag, token[2:]) for flag in flags if flag == token[:2]]
    if len(hits) > 1:
        shown = ", ".join(flag for flag, _ in hits)
        raise UsageError(f"ambiguous option: {token} could match {shown}")
    if hits:
        return hits[0]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return "", None


def _parse(argv: list):
    """argv's command and flag values as attributes; None once -h/--help
    has printed the help."""
    extras, args = [], None
    for i, token in enumerate(argv):
        # a "--" with tokens after it is read as the command
        hit = None if token == "--" and argv[i + 1 :] else _option(token, _HELP)
        if hit is None:
            command = _read("command", tuple(_COMMANDS), token)
            args = _read_flags(command, argv[i + 1 :], extras)
            if args is None:
                return None
            break
        if hit[0]:
            return _help(None, *hit)
        extras.append(token)
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    if args is None:
        raise UsageError("a subcommand is required")
    return args


def _read_flags(command: str, tokens: list, extras: list):
    """The command's flag values as attributes, with the tokens that no
    flag takes appended to extras; None once -h/--help has printed the help."""
    table = _COMMANDS[command]
    # every token after the first "--" is a value
    end = tokens.index("--") + 1 if "--" in tokens else len(tokens)
    hits = [_option(t, _HELP + tuple(table)) for t in tokens[:end]]
    hits += [None] * (len(tokens) - end)
    args = {"command": command, **{flag[2:]: default for flag, (_, default) in table.items()}}
    given, i = set(), 0
    while i < len(tokens):
        flag, value = hits[i] or ("", None)
        i += 1
        if flag in _HELP:
            return _help(command, flag, value)
        if not flag:
            extras.append(tokens[i - 1])
            continue
        if value is None:
            if i == len(tokens) or hits[i] is not None:
                raise UsageError(f"argument {flag}: expected one argument")
            value, i = tokens[i], i + 1
        args[flag[2:]] = _read(flag, table[flag][0], value)
        given.add(flag)
    missing = [flag for flag, (_, d) in table.items() if d is _REQUIRED and flag not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**args)


def _help(command, flag: str, value) -> None:
    """Print this module's docstring and the command's flags (the command
    names when command is None).  "-hh" is -h given twice."""
    if value is not None:
        rest = value if flag == "--help" else value.lstrip("h")
        if rest or not value:
            raise UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
    lines = [__doc__ or ""]  # None under python -OO
    if command is None:
        lines.append(f"commands: {', '.join(_COMMANDS)}; dfc COMMAND --help lists its flags")
    else:
        lines.append(f"dfc {command} flags:")
        for name, (reader, default) in _COMMANDS[command].items():
            shown = "{" + ",".join(reader) + "}" if isinstance(reader, tuple) else name[2:].upper()
            note = {_REQUIRED: "required", None: "optional"}.get(default, f"default {default}")
            lines.append(f"  {name} {shown}  ({note})")
    print("\n".join(lines))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return EXIT_OK
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
    except (sets.DfcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
