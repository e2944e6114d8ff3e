"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gswf  # noqa: E402
from gswf import bfn, catalog, cli, rationality, search, theorems  # noqa: E402

import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402


def _modules():
    return {name: sys.modules[f"gswf.{name}"] for name in MODULES}


def test_install_rebinds_every_holder_and_uninstall_restores():
    originals = {
        "w_formula": rationality.w_formula,
        "predicate": search.PREDICATES["balanced"],
        "check": theorems.CHECKS["fkg"],
        "from_packed": vars(bfn.BooleanFunction)["from_packed"],
    }
    tracer = Tracer()
    tracer.install(_modules())
    try:
        for holder in (rationality, theorems, cli, search, gswf):
            assert holder.w_formula is not originals["w_formula"]
        assert theorems.w_formula is cli.w_formula is gswf.w_formula
        assert search.PREDICATES["balanced"] is not originals["predicate"]
        assert theorems.CHECKS["fkg"] is not originals["check"]
        assert vars(bfn.BooleanFunction)["from_packed"] is not originals["from_packed"]
    finally:
        tracer.uninstall()
    for holder in (rationality, theorems, cli, search, gswf):
        assert holder.w_formula is originals["w_formula"]
    assert search.PREDICATES["balanced"] is originals["predicate"]
    assert theorems.CHECKS["fkg"] is originals["check"]
    assert vars(bfn.BooleanFunction)["from_packed"] is originals["from_packed"]


def test_spans_nest_and_counts_follow_results():
    tracer = Tracer()
    tracer.install(_modules())
    try:
        rule = catalog.preset_gswf("condorcet", 11)
        gswf.w_formula(rule, gswf.EvenProductDistribution.uniform())
        gswf.w_oracle(catalog.preset_gswf("condorcet", 3), gswf.EvenProductDistribution.uniform())
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    stats = summary["stats"]
    assert stats["rationality.w_formula"]["calls"] == 1
    # n > 8 is not cached, so each of the three functions is transformed.
    assert tracer.count_inside("bfn.walsh_transform", "rationality.w_formula") == 3
    assert summary["counts"]["bfn.walsh_transform.coeffs"] == 3 * 2**11
    assert summary["counts"]["bfn.walsh_transform.ops"] == 3 * 11 * 2**11
    assert summary["counts"]["rationality.w_oracle.profiles"] == 6**3
    formula = stats["rationality.w_formula"]
    children = stats["bfn.walsh_transform"]["busy_s"] + stats["rationality.biased_inner_product"]["busy_s"]
    assert 0 <= formula["self_s"] <= formula["busy_s"]
    assert formula["self_s"] == pytest.approx(formula["busy_s"] - children, abs=1e-6)
    assert not any(key.endswith(".errors") for key in summary["counts"])


def test_escaping_exceptions_are_counted_per_module():
    tracer = Tracer()
    tracer.install(_modules())
    try:
        with pytest.raises(gswf.ValidationError):
            catalog.preset_gswf("no_such_preset", 3)
    finally:
        tracer.uninstall()
    assert tracer.summary()["counts"]["catalog.errors"] == 1


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    inner = tracer.wrap("bfn.inner", lambda: None)
    middle = tracer.wrap("rationality.middle", lambda: inner())
    outer = tracer.wrap("cli.outer", lambda: (middle(), inner()))
    outer()
    starts, ends = [0, 10, 20, 50], [100, 40, 30, 60]
    for i, (s, e) in enumerate(zip(starts, ends)):
        tracer.span_start[i], tracer.span_end[i] = s, e
    stats = tracer.summary()["stats"]
    assert stats["cli.outer"]["self_s"] == pytest.approx((100 - 30 - 10) * 1e-9)
    assert stats["rationality.middle"]["self_s"] == pytest.approx((30 - 10) * 1e-9)
    assert stats["bfn.inner"]["calls"] == 2
    assert stats["bfn.inner"]["busy_s"] == pytest.approx(20e-9)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_come_from_the_seed_and_respect_ceilings(name):
    make = workloads.WORKLOADS[name]
    assert [c.argv for c in make(5)] == [c.argv for c in make(5)]
    assert [c.argv for c in make(5)] != [c.argv for c in make(6)]
    for cmd in make(5):
        argv = cmd.argv
        if "--n" in argv:
            n = int(argv[argv.index("--n") + 1])
            assert n <= 23
            if "oracle" in argv or "both" in argv:
                assert n <= 9
            if argv[0] == "search" and "random" not in argv:
                assert n <= 4
        assert "GSWF_THREADS" not in " ".join(argv)


def _gate_after(cmd, rc, payload):
    gate = workloads.Gate()
    gate.check(cmd, rc, json.dumps(payload))
    return gate.ops


def _run(cmd):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(cmd.argv)
    return rc, json.loads(buf.getvalue())


def test_gate_rejects_a_broken_formula_identity_or_a_moved_value():
    argv = ["rationality", "--preset", "condorcet", "--n", "5", "--uniform", "--method", "formula"]
    rc, payload = _run(workloads.Command(argv, "formula_sym"))
    cmd = workloads.Command(argv, "formula_sym", meta={"w": payload["results"][0]["w"]})
    assert all(ok for _, ok, _ in _gate_after(cmd, rc, payload))
    broken = json.loads(json.dumps(payload))
    broken["results"][0]["w"] += 1e-9
    assert not any(ok for _, ok, _ in _gate_after(cmd, rc, broken))
    # A wrong cross term that w is built from keeps the identity intact.
    moved = json.loads(json.dumps(payload))
    moved["results"][0]["w"] += 1e-9
    moved["results"][0]["cross_terms"][0] += 1e-9
    assert not any(ok for _, ok, _ in _gate_after(cmd, rc, moved))


def test_seed_independent_commands_carry_recorded_results():
    formula = [c for c in workloads.large_n(1) if c.group.startswith("formula")]
    assert sorted(c.meta["w"] for c in formula if "w" in c.meta) == sorted(
        workloads.REFERENCE_W.values()
    )
    exhaustive = [c for c in workloads.search(1) if c.group == "exhaustive"]
    assert [c.work for c in exhaustive] == [13824, 4741632]
    assert [c.meta["value"] for c in exhaustive] == [0.25, 1.0]


def test_gate_rejects_a_worse_optimum_or_a_wrong_count():
    cmd = workloads.search(1)[0]
    rc, payload = _run(cmd)
    assert all(ok for _, ok, _ in _gate_after(cmd, rc, payload))
    wrong_count = dict(payload, enumeration_count=payload["enumeration_count"] - 1)
    assert not any(ok for _, ok, _ in _gate_after(cmd, rc, wrong_count))
    # A consistent but worse witness: its value re-evaluates, yet it is not
    # the optimum.
    f = gswf.BooleanFunction.from_hex(4, payload["witness"]["f"])
    worse = gswf.Gswf(f, f, f)
    value = gswf.w_formula(worse, gswf.EvenProductDistribution.uniform()).w
    assert value < payload["value"]
    witness = {k: payload["witness"]["f"] for k in "fgh"}
    worse_payload = dict(payload, witness=witness, value=value)
    assert not any(ok for _, ok, _ in _gate_after(cmd, rc, worse_payload))


def test_gate_counts_a_passing_criterion_8_as_a_failure():
    names = ["instability_example", "dual_claim"]
    reports = theorems.run_all(seed=3, names=names)
    payload = {
        "kind": "verify_report",
        "seed": 3,
        "all_passed": False,
        "reports": [r.to_json_dict() for r in reports],
    }
    cmd = workloads.Command(["verify", "--all", "--seed", "3"], "battery")
    ops = {label: ok for label, ok, _ in _gate_after(cmd, 1, payload)}
    # Two of the fifteen reports: the command op fails, each check op stands alone.
    assert ops == {"verify --all --seed 3": False, "check dual_claim": True,
                   "check instability_example": True}
    next(r for r in payload["reports"] if r["name"] == "instability_example")["passed"] = True
    ops = {label: ok for label, ok, _ in _gate_after(cmd, 1, payload)}
    assert ops["check instability_example"] is False


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
