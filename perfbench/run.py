#!/usr/bin/env python3
"""Benchmark for dfc: time to a verdict, to a model and to a re-emitted model.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory and nowhere else.  The benchmark drives dfc only
through its command line, ``dfc.cli.main``, with the arguments a user would
type.  One operation ("op") is one ``cli.main`` call: ``analyze``, ``build``
or ``emit``.  Every op runs in a child forked from a process that has
imported dfc but run nothing, so each op starts with the empty process-wide
caches (``sets._support_cached``, ``sets.find_point``) that a fresh ``dfc``
invocation starts with.  Ops run one at a time, round robin over the
workload's op list: two full passes, so that every op's repetitions can be
compared with each other, then on until ``--seconds`` have gone by.

Every op's output is checked (verdict against the example's expected
verdict, exit code, byte-stable models, emit round trip).  A failed check
counts the op as failed and makes the command exit 1 after printing its
result.  Stdout carries one JSON row per op, one summary row, and as its last
line the result object ``{"correct", "attempted", "failed", "metrics"}``.

Op times vary with the speed of a shared host by up to 2x within a minute.
Each op child therefore times a fixed numpy loop that uses no dfc code
(``_calibrate``) just before and just after its op.  Each repetition's wall
time is scaled by the loop's nominal time over the mean of those two loop
times; ``op_s.geomean`` is the geometric mean over ops of each op's median
scaled time.  Rows and summary also keep raw times.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` every op child wraps the package's public functions
(``tracer.py``) and the metrics are the per-layer ones; spans are collected
in memory and written to ``perfbench/.work/<workload>/spans.jsonl`` when the
run ends.  Spans inside ``--jobs 2`` worker processes are not collected.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import math
import os
import re
import resource
import select
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing  # perfbench/tracer.py, beside this file

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

WORKLOADS = ("sampled-checks", "linear-checks", "build-emit", "sampled-jobs2")

# Fixed direction counts per check, the same in every run, kept small so a
# run holds several passes.  In two dimensions the checks sample an evenly
# spaced angle grid and in three a Fibonacci sphere, so 24 directions hit
# every expected failure region there.  ideal samples joint (x, y) space,
# which has four or more dimensions for every sampled ideal op, with random
# directions: about 16% of them refute ex1/bigm, so 64 directions miss its
# expected "fail" with probability about 1e-5 for any seed.
DIRECTIONS = {"sharp": 24, "ideal": 64, "minkowski": 24, "par": 24, "bbj": 100}
# The purely linear example: exact vertex enumeration and pure-LP bbj checks,
# and the only example whose builds also write an LP file.
LINEAR_EXAMPLES = ("ex4",)
# Checks that take --jobs; par and bbj always run in one process.
POOLED_CHECKS = ("sharp", "ideal", "minkowski")
# Sampled checks left out of every workload, as (example, variant, check).
# On ex1/extended, the cut loop of analysis.maximize_over_atoms does not
# converge for some joint (x, y) directions: it adds one cut a round, each LP
# a row larger, for up to MAX_CUT_ROUNDS (5000) rounds.  At 64 directions
# about one workload seed in thirteen draws such a direction, and the op then
# never finishes (NOTES.md, "Known defect").  A benchmark op must not fail, so
# the check stays out until the cut loop is fixed; it is the program's defect.
EXCLUDED_CHECKS = {("ex1", "extended", "ideal")}
MODES = ("plus", "lifted")

MIN_PASSES = 2
SETUP_TRIALS = 6  # forked set-ups timed besides the run's own
# Nominal time of _calibrate() on the reference host (2-core x86-64 VM,
# Python 3.11, numpy 2.4); op times are reported scaled to that speed.
CALIBRATION_STEPS = 1000
CALIBRATION_S = 0.0125
# Ops take at most about 4 s on the reference host.  An op still running
# after OP_TIMEOUT_S has failed, and the run stops, so that a cut loop that
# does not converge (see EXCLUDED_CHECKS) cannot hang the run.  With RUN_CAP_S
# a run always ends within 180 s.
OP_TIMEOUT_S = 30.0
RUN_CAP_S = 120.0  # no op starts later than this, whatever --seconds says

_VERDICT_LINE = re.compile(r"^(\S+): (\S+) \((\d+) samples")


class BenchError(Exception):
    """The benchmark cannot run here (no dfc sources, bad arguments)."""


@dataclass
class Op:
    """One cli.main call with what its output must be."""

    key: str
    kind: str  # analyze | build | emit
    argv: list
    expect: str | None = None  # analyze: expected verdict
    sampled: bool = False  # analyze: directions are sampled
    outputs: tuple = ()  # build: files written
    reference: Path | None = None  # emit: bytes the output must equal
    out: Path | None = None  # emit: file written


@dataclass
class OpStats:
    walls: list = field(default_factory=list)
    scaled: list = field(default_factory=list)  # walls at reference host speed
    samples: int = 0
    digests: dict | None = None  # build: sha256 of each output, first pass
    counts: dict | None = None  # traced: per-layer counts, first pass
    layers: list = field(default_factory=list)  # traced: per-pass aggregates
    errors: list = field(default_factory=list)


def _op_seed(seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{seed}/{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _tail(values):
    """(percentile, value) for the highest whole percentile with at least ten
    samples beyond it, or None when there are too few samples for one above
    the median."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def _calibrate() -> float:
    """Time a fixed loop of small-array numpy and dict work, the same kind of
    work dfc does, that uses no dfc code.  The op child runs it just before
    and just after its op, on the same processor, so it measures how fast the
    host was while the op ran."""
    import numpy as np  # already loaded with dfc; kept out of set-up time

    a = np.arange(240.0).reshape(12, 20) / 7.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        b = a.copy()
        r = i % 12
        b[r] /= b[r, r % 20] + 3.0
        b -= np.outer(b[:, 0], b[r])
        _ = {j: 2 * j for j in range(10)}
    return time.perf_counter() - t0


def _adopt_orphans() -> None:
    """Make this process the subreaper of its descendants (Linux), so that
    --jobs 2 workers of a killed op child are reparented here and reaped."""
    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_child_subreaper = 36
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _kill_group(pgid: int) -> None:
    """Kill an op child's process group and reap every member."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)  # fails once every member is reaped
        except ProcessLookupError:
            return
        with contextlib.suppress(ChildProcessError):
            os.waitpid(-pgid, os.WNOHANG)
        time.sleep(0.01)


def _import_dfc():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dfc
    import dfc.cli

    if Path(dfc.__file__).resolve().parent != (SRC / "dfc").resolve():
        raise BenchError(f"dfc was imported from {dfc.__file__}, not from {SRC}")
    return dfc


def _write_examples(dfc, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(dfc.fixtures.REGISTRY):
            if dfc.cli.main(["examples", "--name", name, "--out", str(out)]) != 0:
                raise BenchError(f"dfc examples --name {name} failed")


def _setup_trial(out: Path) -> float:
    """Time import plus instance files in a child that has not imported dfc."""
    r, w = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(r)
            t0 = time.perf_counter()
            _write_examples(_import_dfc(), out)
            os.write(w, repr(time.perf_counter() - t0).encode())
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise BenchError("set-up trial failed")
    return float(data)


class Bench:
    """One workload at one seed: set up, then measure."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        if workload not in WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / workload
        self.inst = self.work / "instances"
        self.dfc = None
        self.setup_times: list = []
        # (example, variant) -> {check: verdict}, from `dfc examples`
        self.expected: dict = {}
        self.ops: list = []

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        if not (SRC / "dfc" / "__init__.py").is_file():
            raise BenchError(f"no dfc sources under {SRC}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for i in range(SETUP_TRIALS):
            self.setup_times.append(_setup_trial(self.work / f"setup{i}"))
            shutil.rmtree(self.work / f"setup{i}")
        t0 = time.perf_counter()
        self.dfc = _import_dfc()
        _write_examples(self.dfc, self.inst)
        self.setup_times.append(time.perf_counter() - t0)
        for path in sorted(self.inst.glob("*.expected.json")):
            doc = json.loads(path.read_bytes())
            self.expected[(doc["name"], doc["variant"])] = doc["expected"]
        self.ops = self._ops()

    def _ops(self) -> list:
        if self.workload == "build-emit":
            return self._build_emit_ops()
        ops = []
        jobs = 2 if self.workload == "sampled-jobs2" else 1
        linear = self.workload == "linear-checks"
        for (name, variant), checks in sorted(self.expected.items()):
            if (name in LINEAR_EXAMPLES) != linear:
                continue
            for check in sorted(checks):
                if jobs > 1 and check not in POOLED_CHECKS:
                    continue
                if (name, variant, check) in EXCLUDED_CHECKS:
                    continue
                # the same check gets the same seed at --jobs 1 and 2, so the
                # two workloads sample the same directions and do equal work
                check_seed = _op_seed(self.seed, f"{name}/{variant}/{check}")
                key = f"analyze/{name}/{variant}/{check}/jobs{jobs}"
                argv = [
                    "analyze",
                    "--instance", str(self.inst / f"{name}_{variant}.json"),
                    "--check", check,
                    "--directions", str(DIRECTIONS[check]),
                    "--seed", str(check_seed),
                    "--jobs", str(jobs),
                ]
                # ideal on a linear model is settled by vertex enumeration
                sampled = not (linear and check == "ideal")
                ops.append(Op(key, "analyze", argv, expect=checks[check], sampled=sampled))
        return ops

    def _build_emit_ops(self) -> list:
        models = self.work / "models"
        models.mkdir()
        builds, emits = [], []
        for name in sorted(self.dfc.fixtures.REGISTRY):
            for variant in self.dfc.fixtures.REGISTRY[name]:
                stem = f"{name}_{variant}"
                for mode in MODES:
                    model = models / f"{stem}.{mode}.json"
                    outputs = (model,)
                    if name in LINEAR_EXAMPLES:
                        outputs += (model.with_suffix(".lp"),)
                    argv = [
                        "build",
                        "--instance", str(self.inst / f"{stem}.json"),
                        "--mode", mode,
                        "--out", str(model),
                    ]
                    builds.append(Op(f"build/{stem}/{mode}", "build", argv, outputs=outputs))
                    for ref in outputs:
                        fmt = ref.suffix[1:]
                        out = models / f"{stem}.{mode}.emitted.{fmt}"
                        argv = ["emit", "--model", str(model), "--format", fmt, "--out", str(out)]
                        emits.append(
                            Op(f"emit/{stem}/{mode}/{fmt}", "emit", argv, reference=ref, out=out)
                        )
        return builds + emits

    # -- running ops --------------------------------------------------------

    def _run_child(self, op: Op) -> dict:
        """Fork, run op.argv through cli.main, and return what the child saw."""
        r, w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # child: never returns
            try:
                os.close(r)
                os.setpgid(0, 0)
                os.write(w, json.dumps(self._child(op)).encode())
            finally:
                os._exit(0)
        os.close(w)
        with contextlib.suppress(OSError):
            os.setpgid(pid, pid)
        chunks, deadline, timed_out = [], time.monotonic() + OP_TIMEOUT_S, False
        with os.fdopen(r, "rb", buffering=0) as fh:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([fh], [], [], left)[0]:
                    timed_out = True
                    break
                chunk = fh.read(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        if timed_out:
            _kill_group(pid)
            return {"error": f"no result within {OP_TIMEOUT_S} s", "timed_out": True}
        os.waitpid(pid, 0)
        try:
            return json.loads(b"".join(chunks))
        except ValueError:
            return {"error": "op process ended without a result"}

    def _child(self, op: Op) -> dict:
        tracer = tracing.Tracer() if self.trace else None
        if tracer is not None:
            tracer.install(self.dfc)
        out, err = io.StringIO(), io.StringIO()
        calib = _calibrate()
        msg = {}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                msg["rc"] = self.dfc.cli.main(op.argv)
        except Exception:
            msg["error"] = traceback.format_exc()
        msg["wall"] = time.perf_counter() - t0
        msg["calib_s"] = 0.5 * (calib + _calibrate())
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        msg["rss_mb"] = rss_kb / 1024.0
        msg["stdout"] = out.getvalue()
        msg["stderr"] = err.getvalue()[-2000:]
        if tracer is not None:
            msg["spans"] = tracer.spans
        return msg

    def _check(self, op: Op, msg: dict, st: OpStats) -> str | None:
        """Why the op's output is wrong, or None when it is right."""
        if "error" in msg:
            return msg["error"]
        rc = msg["rc"]
        if op.kind == "analyze":
            m = _VERDICT_LINE.match(msg["stdout"])
            if m is None:
                return f"exit {rc}, no verdict line: {msg['stdout']!r} {msg['stderr']!r}"
            verdict = m.group(2)
            st.samples = int(m.group(3))
            if verdict != op.expect:
                return f"verdict {verdict}, expected {op.expect}"
            if rc != (2 if verdict == "fail" else 0):
                return f"exit {rc} does not match verdict {verdict}"
            return None
        if rc != 0:
            return f"exit {rc}: {msg['stderr']!r}"
        if op.kind == "build":
            lp = op.outputs[0].with_suffix(".lp")
            if lp.exists() != (lp in op.outputs):
                return "LP file written for a nonlinear model, or missing for a linear one"
            if not op.outputs[0].exists():
                return "no model written"
            digests = {p.name: _sha(p.read_bytes()) for p in op.outputs}
            if st.digests is None:
                st.digests = digests
            elif digests != st.digests:
                return "model bytes differ from the first repetition"
            return None
        if not op.out.exists():
            return "emit wrote nothing"
        if op.out.read_bytes() != op.reference.read_bytes():
            return f"emitted bytes differ from {op.reference.name}"
        return None

    def _clear_outputs(self, op: Op) -> None:
        """Delete what the op writes, so its check sees this repetition's files."""
        if op.kind == "build":
            paths = (op.outputs[0], op.outputs[0].with_suffix(".lp"))
        else:
            paths = (op.out,) if op.out is not None else ()
        for p in paths:
            with contextlib.suppress(FileNotFoundError):
                p.unlink()

    def measure(self) -> dict:
        """Run the ops round robin: two full passes, then on until --seconds
        have gone by, stopping between two ops."""
        stats = {op.key: OpStats() for op in self.ops}
        spans_out = []
        calibs = []
        rss = 0.0
        failed = 0
        _adopt_orphans()
        t_start = time.perf_counter()
        for attempted in itertools.count():
            pass_no, index = divmod(attempted, len(self.ops))
            elapsed = time.perf_counter() - t_start
            if elapsed > RUN_CAP_S or (pass_no >= MIN_PASSES and elapsed >= self.seconds):
                break
            op = self.ops[index]
            st = stats[op.key]
            self._clear_outputs(op)
            msg = self._run_child(op)
            problem = self._check(op, msg, st)
            if "spans" in msg:
                layer = tracing.aggregate(msg["spans"])
                counts = tracing.counts(layer)
                if st.counts is None:
                    st.counts = counts
                elif counts != st.counts and problem is None:
                    problem = "per-layer counts differ between repetitions"
                st.layers.append(layer)
                spans_out.append({"op": op.key, "pass": pass_no, "spans": msg["spans"]})
            if problem is not None:
                failed += 1
                st.errors.append(problem)
                if msg.get("timed_out"):
                    attempted += 1
                    break
                continue
            st.walls.append(msg["wall"])
            st.scaled.append(msg["wall"] * CALIBRATION_S / msg["calib_s"])
            calibs.append(msg["calib_s"])
            rss = max(rss, msg["rss_mb"])
        passes = attempted // len(self.ops)  # complete passes
        if spans_out:
            with open(self.work / "spans.jsonl", "w") as fh:
                for rec in spans_out:
                    fh.write(json.dumps(rec) + "\n")
        return self._report(stats, attempted, failed, passes, rss, calibs)

    # -- reporting ----------------------------------------------------------

    def _report(self, stats, attempted, failed, passes, rss, calibs) -> dict:
        rows, medians, scaled = [], {}, {}
        for op in self.ops:
            st = stats[op.key]
            row = {"op": op.key, "argv": op.argv, "n": len(st.walls)}
            if st.walls:
                medians[op.key] = statistics.median(st.walls)
                scaled[op.key] = statistics.median(st.scaled)
                row["median_s"] = medians[op.key]
                row["scaled_median_s"] = scaled[op.key]
                tail = _tail(st.walls)
                if tail is not None:
                    row[f"p{tail[0]}_s"] = tail[1]
            if op.kind == "analyze":
                row["expect"] = op.expect
                row["samples"] = st.samples
            if st.digests:
                row["sha256"] = st.digests
            if st.counts is not None:
                row["counts"] = st.counts
            if st.errors:
                row["errors"] = st.errors[:3]
            rows.append(row)

        ok = failed == 0 and len(medians) == len(self.ops) > 0
        # host speed of this run relative to the reference host, for review;
        # the op_s metrics scale each repetition by its own calibration
        host = statistics.median(calibs) / CALIBRATION_S if calibs else 1.0
        summary = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "passes": passes,
            "ops": len(self.ops),
            "failed_share": failed / attempted if attempted else 1.0,
            "setup_trials_s": self.setup_times,
            "host_factor": host,
        }
        for kind, name in (("analyze", "verdict"), ("build", "build"), ("emit", "emit")):
            kind_medians = [medians[o.key] for o in self.ops if o.kind == kind and o.key in medians]
            if kind_medians:
                summary[f"raw.{name}_s.geomean"] = _geomean(kind_medians)
        sampled = [o for o in self.ops if o.sampled and o.key in medians]
        if sampled:
            summary["raw.samples_per_s"] = sum(stats[o.key].samples for o in sampled) / sum(
                medians[o.key] for o in sampled
            )
        if ok and self.workload == "build-emit":
            atoms = nbytes = 0
            for op in self.ops:
                if op.kind != "build":
                    continue
                atoms += len(json.loads(op.outputs[0].read_bytes())["cons"])
                nbytes += sum(p.stat().st_size for p in op.outputs)
            summary["model_atoms"] = atoms
            summary["model_bytes"] = nbytes

        metrics = {}
        if ok:
            summary["raw.op_s.geomean"] = _geomean(medians.values())
            op_s = _geomean(scaled.values())
        if ok and not self.trace:
            metrics = {
                "op_s.geomean": {"value": op_s, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
                "setup_s": {"value": statistics.median(self.setup_times), "unit": "s"},
            }
        elif ok:
            metrics = tracing.per_layer_metrics(
                [stats[op.key].layers for op in self.ops], passes
            )
            metrics["trace.op_s.geomean"] = {"value": op_s, "unit": "s"}
            summary["counts_sha256"] = _sha(
                json.dumps({op.key: stats[op.key].counts for op in self.ops}, sort_keys=True).encode()
            )
        return {
            "rows": rows,
            "summary": summary,
            "result": {
                "correct": ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
        }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.setup()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = bench.measure()
    for row in report["rows"]:
        print(json.dumps(row, sort_keys=True))
    print(json.dumps(report["summary"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
