"""The benchmark's workloads: inputs generated from a seed, and the correctness gate.

Every workload is a list of ``gswf`` command lines, run in process through
``gswf.cli.main(argv)``.  The seed is the only source of variation; the
program sees nothing but the generated argv.  All inputs stay inside the
current capacity ceilings: spectra at n <= 23, the oracle at n <= 9, class
enumeration at n <= 4, and no capacity probes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

#: Tolerance of the exact identities the gate checks.
TOL = 1e-12

#: Monte Carlo must land within this many standard errors of the formula.
MC_SIGMAS = 5.0

ORACLE_N = 9
MC_SAMPLES = 1_000_000
RANDOM_TRIALS_N4 = 200_000
RANDOM_TRIALS_N6 = 2_000

#: Registry check whose claim is false as stated; it must report a failure.
INVERTED_BY_DESIGN = "instability_example"

#: Checks in ``verify --all``; a report that cannot be read fails all of them.
BATTERY_CHECKS = 15

#: ``W`` of the seed-independent formula commands at the uniform
#: distribution, recorded when the benchmark was defined.  The gate holds
#: each output to these, since ``w == base + sum(cross_terms)`` alone
#: cannot see a wrong cross term.
REFERENCE_W = {
    "condorcet": 0.08401415997193358,
    "threshold_instability": 0.0009437266294705675,
    "split_dictators": 0.25,
}

#: Exhaustive searches: triples scanned (class sizes cubed; 24 balanced
#: monotone functions and 168 monotone ones, the Dedekind number M(4),
#: at n = 4) and the optimum, recorded when the benchmark was defined.
EXHAUSTIVE_COUNT = {"balanced,monotone": 24**3, "monotone": 168**3}
EXHAUSTIVE_VALUE = {"balanced,monotone": 0.25, "monotone": 1.0}


@dataclass
class Command:
    """One CLI invocation, the group it is timed in, and what the gate needs."""

    argv: list[str]
    group: str
    work: int = 0
    meta: dict = field(default_factory=dict)


def _derived_seed(seed: int, label: str) -> int:
    return random.Random(f"{seed}:{label}").randrange(1 << 31)


def _even_product(rng: random.Random) -> tuple[float, float, float]:
    """A random (alpha, beta, gamma) with alpha + beta + gamma = 1/2 exactly
    as the program recomputes it (gamma = 0.5 - alpha - beta)."""
    alpha = rng.uniform(0.05, 0.3)
    beta = rng.uniform(0.05, 0.45 - alpha)
    return alpha, beta, 0.5 - alpha - beta


_UNIFORM = (1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0)


def _dist_flags(alpha: float, beta: float, gamma: float) -> list[str]:
    if (alpha, beta, gamma) == _UNIFORM:
        return ["--uniform"]
    return ["--alpha", repr(alpha), "--beta", repr(beta), "--gamma", repr(gamma)]


def battery(seed: int) -> list[Command]:
    s = _derived_seed(seed, "battery")
    return [Command(["verify", "--all", "--seed", str(s)], "battery")]


def large_n(seed: int) -> list[Command]:
    rng = random.Random(f"{seed}:large_n")
    tables = [format(rng.getrandbits(1 << 20), "0262144x") for _ in range(3)]
    hex_dist = _even_product(rng)
    oracle_dist = _even_product(rng)
    mc_seed = rng.randrange(1 << 31)
    formula = ["--method", "formula"]
    return [
        Command(
            ["rationality", "--preset", "condorcet", "--n", "23", "--uniform", *formula],
            "formula_sym",
            meta={"w": REFERENCE_W["condorcet"]},
        ),
        Command(
            ["rationality", "--preset", "threshold_instability", "--n", "21", "--q", "0.2",
             "--uniform", *formula],
            "formula_sym",
            meta={"w": REFERENCE_W["threshold_instability"]},
        ),
        Command(
            ["rationality", "--preset", "split_dictators", "--n", "22", "--uniform", *formula],
            "formula_dense",
            meta={"w": REFERENCE_W["split_dictators"]},
        ),
        Command(
            ["rationality", "--f", f"hex:20:{tables[0]}", "--g", f"hex:20:{tables[1]}",
             "--h", f"hex:20:{tables[2]}", *_dist_flags(*hex_dist), *formula],
            "formula_dense",
        ),
        Command(
            ["rationality", "--preset", "condorcet", "--n", str(ORACLE_N),
             *_dist_flags(*oracle_dist), "--method", "oracle"],
            "oracle",
            work=6**ORACLE_N,
            meta={"preset": "condorcet", "n": ORACLE_N, "dist": oracle_dist},
        ),
        Command(
            ["simulate", "--preset", "condorcet", "--n", "15", "--uniform",
             "--samples", str(MC_SAMPLES), "--seed", str(mc_seed)],
            "simulate",
            work=MC_SAMPLES,
            meta={"preset": "condorcet", "n": 15, "dist": _UNIFORM},
        ),
    ]


def _search(n, classes, dist, mode, trials=None, seed=None) -> Command:
    argv = ["search", "--n", str(n), "--class-f", classes, "--class-g", classes,
            "--class-h", classes, "--objective", "max_w", *_dist_flags(*dist)]
    meta = {"n": n, "classes": classes, "dist": dist}
    if mode == "random":
        argv += ["--mode", "random", "--trials", str(trials), "--seed", str(seed)]
        return Command(argv, mode, work=trials, meta=meta)
    meta["value"] = EXHAUSTIVE_VALUE[classes]
    return Command(argv, mode, work=EXHAUSTIVE_COUNT[classes], meta=meta)


def search(seed: int) -> list[Command]:
    rng = random.Random(f"{seed}:search")
    return [
        _search(4, "balanced,monotone", _UNIFORM, "exhaustive"),
        _search(4, "monotone", (0.25, 0.25, 0.0), "exhaustive"),
        _search(4, "balanced", _UNIFORM, "random", RANDOM_TRIALS_N4, rng.randrange(1 << 31)),
        _search(6, "balanced", _UNIFORM, "random", RANDOM_TRIALS_N6, rng.randrange(1 << 31)),
    ]


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {"battery": battery, "large_n": large_n, "search": search}


# ----------------------------------------------------------------------
# correctness gate


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Checks one pass's outputs; every op is recorded as (label, ok, detail).

    Imports gswf when built, so this module stays importable by ``run.py``,
    which never imports the package under test.
    """

    def __init__(self) -> None:
        import gswf
        import jsonschema
        from gswf import cli, theorems

        self.gswf = gswf
        self.theorems = theorems
        self.validator = jsonschema.Draft202012Validator(cli.load_schema())
        self.ops: list[tuple[str, bool, str]] = []

    def _op(self, label: str, ok: bool, detail: str = "") -> None:
        self.ops.append((label, bool(ok), detail))

    def _dist(self, triple):
        return self.gswf.EvenProductDistribution(*triple)

    def check(self, cmd: Command, rc: int, text: str) -> None:
        label = " ".join(a if len(a) < 40 else a[:24] + "..." for a in cmd.argv)
        try:
            payload = json.loads(text)
            errors = [e.message[:200] for e in self.validator.iter_errors(payload)]
        except ValueError as exc:
            errors = [f"unparsable JSON: {exc}"]
        if errors:
            self._op(label, False, f"rc={rc} schema: {errors[:3]}")
            if cmd.group == "battery":
                self.ops += [(f"{label} [check]", False, "no report")] * BATTERY_CHECKS
            return
        getattr(self, f"_check_{cmd.group}")(cmd, rc, payload, label)

    def _check_battery(self, cmd, rc, payload, label):
        theorems = self.theorems
        complete = sorted(r["name"] for r in payload["reports"]) == sorted(theorems.CHECKS)
        self._op(label, rc == 1 and not payload["all_passed"] and complete,
                 f"rc={rc}, {len(payload['reports'])} reports; expected exit 1 "
                 f"and every registry check reported")
        for rep in payload["reports"]:
            name = rep["name"]
            should_pass = name != INVERTED_BY_DESIGN
            report = theorems.BoundReport(**rep)
            recomputed = theorems.reevaluate_witness(report)
            claimed = rep["witness"]["value"]
            slack = max(rep["tolerance"], TOL)
            ok = rep["passed"] == should_pass and abs(recomputed - claimed) <= slack
            self._op(f"check {name}", ok,
                     f"passed={rep['passed']} witness {recomputed!r} vs {claimed!r}")

    def _check_formula(self, cmd, rc, payload, label):
        res = payload["results"][0]
        gap = abs(res["w"] - res["base"] - sum(res["cross_terms"]))
        drift = abs(res["w"] - cmd.meta["w"]) if "w" in cmd.meta else 0.0
        self._op(label, rc == 0 and res["method"] == "formula" and max(gap, drift) <= TOL,
                 f"rc={rc} |w - base - sum(cross)| = {gap!r}, |w - reference| = {drift!r}")

    _check_formula_sym = _check_formula
    _check_formula_dense = _check_formula

    def _reference_w(self, meta) -> float:
        gswf = self.gswf
        rule = gswf.preset_gswf(meta["preset"], meta["n"])
        return gswf.w_formula(rule, self._dist(meta["dist"])).w

    def _check_oracle(self, cmd, rc, payload, label):
        res = payload["results"][0]
        gap = abs(res["w"] - self._reference_w(cmd.meta))
        self._op(label, rc == 0 and res["method"] == "oracle" and gap <= TOL,
                 f"rc={rc} |oracle - formula| = {gap!r}")

    def _check_simulate(self, cmd, rc, payload, label):
        res = payload["results"][0]
        gap = abs(res["w"] - self._reference_w(cmd.meta))
        ok = (rc == 0 and res["samples"] == cmd.work
              and gap <= MC_SIGMAS * res["stderr"])
        self._op(label, ok, f"rc={rc} |mc - formula| = {gap!r}, stderr {res['stderr']!r}")

    def _check_search(self, cmd, rc, payload, label):
        gswf = self.gswf
        meta = cmd.meta
        n = meta["n"]
        fs = [gswf.BooleanFunction.from_hex(n, payload["witness"][k]) for k in "fgh"]
        rule = gswf.Gswf(*fs)
        d = self._dist(meta["dist"])
        value = payload["value"]
        gaps = [abs(gswf.w_formula(rule, d).w - value), abs(gswf.w_oracle(rule, d).w - value)]
        if "value" in meta:
            # Exhaustive: the optimum itself is known.
            gaps.append(abs(value - meta["value"]))
        filt = gswf.ClassFilter.parse(meta["classes"])
        members_ok = all(filt.accepts(f) for f in fs)
        ok = (rc == 0 and max(gaps) <= TOL and members_ok
              and payload["enumeration_count"] == cmd.work)
        self._op(label, ok,
                 f"rc={rc} formula/oracle/optimum gaps {gaps}, members in class {members_ok}, "
                 f"count {payload['enumeration_count']} vs {cmd.work}")

    _check_exhaustive = _check_search
    _check_random = _check_search
