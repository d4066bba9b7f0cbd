"""The names the benchmark tracer wraps exist in the package.

perfbench/tracer.py replaces module attributes of dfc by name, so a renamed
or deleted function breaks only traced benchmark runs.  Its source is read
and executed here, with no import and no bytecode written next to it.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np

from dfc import analysis

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer() -> dict:
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_is_a_callable_of_dfc():
    traced = _tracer()["TRACED"]
    assert traced
    for module, attr, *_ in traced:
        target = getattr(importlib.import_module(f"dfc.{module}"), attr, None)
        assert callable(target), f"dfc.{module}.{attr}"


def test_opt_result_has_the_fields_the_tracer_reads():
    fields = {f.name for f in dataclasses.fields(analysis.OptResult)}
    assert {"status", "rounds", "box_active"} <= fields
    res = analysis.OptResult("stalled", 1.0, np.zeros(2), True, 7)
    assert _tracer()["_opt_attrs"]((), {}, res) == [7, True, True]
