"""The names the benchmark's traced mode wraps and reports still exist.

``perfbench/tracer.py`` wraps the functions in its ``TARGETS`` from outside
the package, and ``BENCHMARK.json`` lists a per-layer metric for each.  A
renamed or moved function is skipped by the tracer, and the traced run
then fails on the metric it no longer produces; these tests catch that
here.  Both files are only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from gswf import theorems

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
SPAN_STATS = ("calls", "busy_s", "self_s")


def test_every_target_is_a_module_level_callable():
    # ``Class.method`` targets, such as ``BooleanFunction.from_packed``, are
    # wrapped only while they are classmethods.
    for short, attrs in TARGETS.items():
        space = vars(importlib.import_module(f"gswf.{short}"))
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert isinstance(vars(space[cls_name])[meth], classmethod), f"{short}.{attr}"
            else:
                assert callable(space.get(attr)), f"{short}.{attr}"


def test_every_span_metric_names_a_target_or_a_check():
    spans = 0
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        module, _, attr = span.partition(".")
        if stat not in SPAN_STATS or module not in TARGETS:
            continue
        spans += 1
        if module == "theorems" and attr not in TARGETS[module]:
            assert attr in theorems.CHECKS, name
        else:
            assert attr in TARGETS[module], name
    assert spans > 0
