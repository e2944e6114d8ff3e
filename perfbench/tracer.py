"""Out-of-process-code tracing: spans and work counts around gswf's public functions.

Nothing inside the package is edited.  ``Tracer.install`` replaces each
target function by a wrapper in every namespace that holds it (the package
re-exports, ``from x import y`` bindings, module-level registries such as
``search.PREDICATES``, and the ``theorems.CHECKS`` entries), and
``Tracer.uninstall`` puts every original object back.

A span is (name, start, end, parent, run id) with monotonic nanosecond
times; spans are appended to flat arrays in memory and only written out
by ``Tracer.save`` after the measured pass.  gswf is single-threaded and
has no queues, so spans nest strictly and there is no waiting time to
record: busy time and self time are the whole story.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

#: Public functions wrapped per module (``Class.method`` for classmethods).
TARGETS = {
    "cli": ("main",),
    "theorems": ("run_all",),
    "search": ("extremal_w", "random_search"),
    "rationality": ("w_formula", "w_oracle", "w_monte_carlo", "biased_inner_product"),
    "catalog": ("preset_gswf", "make", "parse_function_spec"),
    "dist": ("as_triple_distribution",),
    "bfn": ("walsh_transform", "is_monotone", "is_balanced", "BooleanFunction.from_packed"),
}

MODULES = tuple(TARGETS)

SPAN_FIELDS = ("name_id", "start_ns", "end_ns", "parent", "run_id")


def _walsh_work(res):
    size = 1 << res.n
    # Each of the n butterfly stages reads and writes the whole float64
    # array: 2^n add/sub operations and 16 * 2^n bytes per stage, computed
    # from array sizes (caches ignored).
    return {"coeffs": size, "ops": res.n * size, "bytes_computed": 16 * res.n * size}


#: Work counts derived from a wrapped function's return value.
WORK = {
    "rationality.w_oracle": lambda res: {"profiles": 6**res.n},
    "rationality.w_monte_carlo": lambda res: {"samples": res.samples},
    "bfn.walsh_transform": _walsh_work,
    "search.extremal_w": lambda res: {"triples": res.enumeration_count},
    "search.random_search": lambda res: {"trials": res.trials},
}

#: Every work counter ``WORK`` can produce, so absent ones read 0.
WORK_COUNTERS = (
    "rationality.w_oracle.profiles",
    "rationality.w_monte_carlo.samples",
    "bfn.walsh_transform.coeffs",
    "bfn.walsh_transform.ops",
    "bfn.walsh_transform.bytes_computed",
    "search.extremal_w.triples",
    "search.random_search.trials",
    "search.enumeration_candidates",
)

#: Functions built from packed truth tables; the calls made from
#: ``gswf.search`` are its class-enumeration candidates.
FROM_PACKED = "bfn.BooleanFunction.from_packed"


class Tracer:
    """Span recorder for one process; install, run, uninstall, then summarize."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_outer = array("b")
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._active: list[int] = []
        self._restore: list = []

    # ------------------------------------------------------------------
    # wrapping

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call of ``fn`` under ``name``."""
        nid = self._name_id(name)
        module = name.split(".", 1)[0]
        work = WORK.get(name)
        count_candidates = name == FROM_PACKED
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, outers = self.span_start, self.span_end, self.span_outer
        stack, active, counts = self._stack, self._active, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            outers.append(active[nid] == 0)
            ends.append(0)
            if count_candidates and sys._getframe(1).f_globals.get("__name__") == "gswf.search":
                counts["search.enumeration_candidates"] += 1
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{module}.errors"] += 1
                raise
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if work is not None:
                counts.update({f"{name}.{k}": v for k, v in work(result).items()})
            return result

        return traced

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gswf" or mod_name.startswith("gswf.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self._restore.append((space, key, original))
                    space[key] = wrapper
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._restore.append((value, k, original))
                            value[k] = wrapper

    def install(self, gswf_modules: dict) -> None:
        """Wrap every target present in ``gswf_modules`` (short name -> module)."""
        for short, attrs in TARGETS.items():
            mod = gswf_modules[short]
            for attr in attrs:
                name = f"{short}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = None if cls is None else vars(cls).get(meth)
                    if not isinstance(raw, classmethod):
                        continue
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    continue
                original = getattr(mod, attr, None)
                if callable(original):
                    self._rebind_everywhere(original, self.wrap(name, original))
        checks = getattr(gswf_modules["theorems"], "CHECKS", {})
        for check, fn in list(checks.items()):
            self._restore.append((checks, check, fn))
            checks[check] = self.wrap(f"theorems.{check}", fn)

    def uninstall(self) -> None:
        """Put back every object ``install`` replaced, newest first."""
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # results

    def summary(self) -> dict:
        """Per-span-name calls, busy and self seconds, plus the work counts.

        Busy time counts only the outermost span of a name on any stack,
        so recursion is not double counted; self time is a span's duration
        minus that of its direct children.
        """
        count = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats: dict[str, dict] = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(count):
            s = stats[self.names[self.span_name[i]]]
            s["calls"] += 1
            if self.span_outer[i]:
                s["busy_s"] += dur[i] * 1e-9
            s["self_s"] += (dur[i] - child[i]) * 1e-9
        return {"spans": count, "stats": stats, "counts": dict(self.counts)}

    def count_inside(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` with an ancestor span named ``outer``."""
        if inner not in self._ids or outer not in self._ids:
            return 0
        inner_id, outer_id = self._ids[inner], self._ids[outer]
        total = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != inner_id:
                continue
            p = self.span_parent[i]
            while p >= 0:
                if self.span_name[p] == outer_id:
                    total += 1
                    break
                p = self.span_parent[p]
        return total

    def save(self, path: str) -> None:
        """Write the spans, gzip-compressed: a JSON header naming the span
        names, then one ``name_id start_ns end_ns parent run`` line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "fields": SPAN_FIELDS}) + "\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.span_name[i]} {self.span_start[i]} {self.span_end[i]} "
                    f"{self.span_parent[i]} {self.span_run[i]}\n"
                )
