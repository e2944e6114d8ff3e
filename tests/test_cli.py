"""End-to-end CLI behavior: output schemas, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswf import catalog, cli
from gswf.bfn import level_weights, walsh_transform
from gswf.cli import load_schema, main
from gswf.theorems import CHECKS

SCHEMA = load_schema()
# Checked once here; jsonschema.validate would re-check the schema per call.
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
VALIDATOR.check_schema(SCHEMA)


def run_cli(*argv, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gswf", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def validated_json(text):
    payload = json.loads(text)
    VALIDATOR.validate(payload)
    return payload


# A trial count and an n range that would take terabytes if allocated.
_HUGE_COUNTS = [
    ["search", "--n", "4", "--class-f", "balanced", "--class-g", "balanced",
     "--class-h", "balanced", "--objective", "max_w", "--mode", "random",
     "--trials", "1000000000000", "--seed", "1", "--uniform"],
    ["curve", "--check", "majority-stability", "--rho", "0.5", "--n-list", "1:100000000000"],
    # 5000 * 2^16 table entries exceed the random search's work ceiling
    ["search", "--n", "16", "--class-f", "balanced", "--class-g", "balanced",
     "--class-h", "balanced", "--objective", "max_w", "--mode", "random",
     "--trials", "5000", "--seed", "1", "--uniform"],
]


class TestRationalityCommand:
    def test_condorcet_both_methods(self):
        proc = run_cli(
            "rationality", "--preset", "condorcet", "--n", "3", "--uniform",
            "--method", "both",
        )
        assert proc.returncode == 0, proc.stderr
        payload = validated_json(proc.stdout)
        methods = {r["method"]: r for r in payload["results"]}
        assert set(methods) == {"formula", "oracle"}
        for r in methods.values():
            assert r["w"] == pytest.approx(1 / 18, abs=1e-12)

    def test_explicit_functions_and_parameters(self):
        proc = run_cli(
            "rationality", "--f", "dict:3:1", "--g", "dict:3:1", "--h", "dict:3:2",
            "--alpha", "0.5", "--beta", "0", "--gamma", "0", "--method", "formula",
        )
        payload = validated_json(proc.stdout)
        assert payload["results"][0]["w"] == pytest.approx(0.5, abs=1e-12)

    def test_instability_preset_reports_decay_envelope(self):
        proc = run_cli(
            "rationality", "--preset", "and_dual_majority", "--n", "15",
            "--uniform", "--method", "formula",
        )
        payload = validated_json(proc.stdout)
        w = payload["results"][0]["w"]
        assert payload["reference_bound"] == pytest.approx(0.471**15, rel=1e-12)
        assert 0 < w <= payload["reference_bound"]

    def test_general_triples_reject_formula(self):
        proc = run_cli(
            "rationality", "--preset", "condorcet", "--n", "3",
            "--triples", "0.3,0.1,0.1,0.2,0.2,0.1", "--method", "formula",
        )
        assert proc.returncode == 2
        assert "even product" in proc.stderr

    def test_even_triples_take_the_closed_form(self):
        # each triple as likely as its complement: the --alpha form's law
        abc = run_cli(
            "rationality", "--preset", "condorcet", "--n", "5",
            "--alpha", "0.3", "--beta", "0.15", "--gamma", "0.05", "--method", "formula",
        )
        even = run_cli(
            "rationality", "--preset", "condorcet", "--n", "5",
            "--triples", "0.3,0.15,0.05,0.3,0.15,0.05", "--method", "both",
        )
        assert abc.returncode == 0 and even.returncode == 0, even.stderr
        expected = validated_json(abc.stdout)["results"][0]
        formula, oracle = validated_json(even.stdout)["results"]
        assert (formula["method"], oracle["method"]) == ("formula", "oracle")
        assert formula["w"] == expected["w"]
        assert abs(formula["w"] - oracle["w"]) <= 1e-12

    def test_even_triples_search_the_alpha_law(self):
        classes = ["--class-f", "balanced", "--class-g", "monotone", "--class-h", "balanced"]
        argv = ["search", "--n", "3", *classes, "--objective", "max_w"]
        abc = run_cli(*argv, "--alpha", "0.3", "--beta", "0.15", "--gamma", "0.05")
        even = run_cli(*argv, "--triples", "0.3,0.15,0.05,0.3,0.15,0.05")
        assert even.returncode == 0, even.stderr
        assert even.stdout == abc.stdout
        odd = run_cli(*argv, "--triples", "0.3,0.1,0.1,0.2,0.2,0.1")
        assert odd.returncode == 2
        assert odd.stderr == (
            "error: the closed form only applies to even product distributions "
            "(each triple as likely as its complement)\n"
        )

    def test_general_triples_oracle_path(self):
        proc = run_cli(
            "rationality", "--preset", "condorcet", "--n", "3",
            "--triples", "0.3,0.1,0.1,0.2,0.2,0.1", "--method", "oracle",
        )
        assert proc.returncode == 0, proc.stderr
        payload = validated_json(proc.stdout)
        assert payload["results"][0]["method"] == "oracle"

    def test_pretty_output_shows_decomposition(self):
        proc = run_cli(
            "rationality", "--preset", "condorcet", "--n", "3", "--uniform",
            "--method", "formula", "--format", "pretty",
        )
        assert "(f,g)" in proc.stdout and "(g,h)" in proc.stdout and "(h,f)" in proc.stdout
        assert "base" in proc.stdout


class TestSimulateCommand:
    def test_deterministic_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = (
            "simulate", "--preset", "condorcet", "--n", "5", "--uniform",
            "--samples", "20000", "--seed", "11",
        )
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = validated_json(out1.read_text())
        res = payload["results"][0]
        assert res["method"] == "monte_carlo"
        assert res["samples"] == 20000 and res["seed"] == 11

    def test_requires_sampling_parameters(self):
        proc = run_cli("simulate", "--preset", "condorcet", "--n", "3", "--uniform")
        assert proc.returncode == 2


class TestVerifyCommand:
    def test_passing_subset_exits_zero(self):
        proc = run_cli(
            "verify", "--check", "dual_claim", "--check", "arrow_sum_condition",
            "--seed", "7",
        )
        assert proc.returncode == 0, proc.stderr
        payload = validated_json(proc.stdout)
        assert payload["all_passed"] is True
        assert [r["name"] for r in payload["reports"]] == sorted(
            r["name"] for r in payload["reports"]
        )

    def test_known_defective_clause_exits_one(self):
        # the strict-decrease clause of the instability ratio fails by
        # design honesty; the CLI surfaces it with a nonzero exit
        proc = run_cli("verify", "--check", "instability_example", "--seed", "7")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, SCHEMA)
        assert payload["all_passed"] is False

    def test_inverted_demo_does_not_flip_exit(self):
        proc = run_cli("verify", "--check", "w_prime_negative_demo", "--seed", "7")
        assert proc.returncode == 0
        payload = validated_json(proc.stdout)
        assert payload["reports"][0]["inverted"] is True

    def test_requires_selection(self):
        proc = run_cli("verify")
        assert proc.returncode == 2

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        args = ("verify", "--check", "balanced_bound", "--check", "fkg", "--seed", "3")
        run_cli(*args, "--out", str(out1))
        run_cli(*args, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_full_battery_end_to_end(self):
        # every check runs; the one known-defective clause is the only failure
        proc = run_cli("verify", "--all", "--seed", "7")
        assert proc.returncode == 1
        payload = validated_json(proc.stdout)
        assert len(payload["reports"]) == 15
        failing = [r["name"] for r in payload["reports"] if not r["passed"]]
        assert failing == ["instability_example"]


class TestSearchCommand:
    def test_exhaustive_scan_jsonl(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        args = (
            "search", "--n", "3", "--class-f", "balanced,monotone",
            "--class-g", "balanced,monotone", "--class-h", "balanced,monotone",
            "--objective", "max_w", "--uniform", "--out", str(out),
        )
        assert run_cli(*args).returncode == 0
        assert run_cli(*args).returncode == 0  # appends a second line
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        payload = validated_json(lines[0])
        assert payload["value"] == pytest.approx(0.25, abs=1e-12)

    def test_random_mode_needs_seed(self):
        proc = run_cli(
            "search", "--n", "3", "--class-f", "balanced", "--class-g", "balanced",
            "--class-h", "balanced", "--objective", "max_w", "--mode", "random",
            "--uniform",
        )
        assert proc.returncode == 2


class TestOtherCommands:
    def test_spectrum_json(self):
        proc = run_cli("spectrum", "--function", "maj:3")
        payload = validated_json(proc.stdout)
        assert payload["function"]["hex"] == "e8"
        assert payload["predicates"]["balanced"] is True
        assert payload["level_weights"] == pytest.approx(
            [0.25, 0.1875, 0.0, 0.0625], abs=1e-12
        )
        assert len(payload["coefficients"]) == 8

    @pytest.mark.parametrize("spec, bound", [("tribes:24:3", 64 << 20), ("maj:21", 8 << 20)])
    def test_full_coeffs_past_the_ceiling_is_refused_before_the_transform(
        self, spec, bound, capsys
    ):
        # the table is built, but no 2^n float spectrum (128 or 16 MiB)
        tracemalloc.start()
        try:
            assert main(["spectrum", "--function", spec, "--full-coeffs"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --full-coeffs writes at most 2^20")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("n", [7, 13, 20, 24])
    def test_spectrum_level_weights_are_those_of_the_dense_spectrum(self, n, capsys):
        # symmetric, junta, constant and dense tables, bit for bit
        for spec in (f"thr:{n}:{n // 2}", f"dict:{n}:3", f"const:{n}:1", f"tribes:{n}:3"):
            assert main(["spectrum", "--function", spec]) == 0
            got = json.loads(capsys.readouterr().out)["level_weights"]
            ref = level_weights(walsh_transform(catalog.parse_function_spec(spec)))
            assert list(map(repr, got)) == [repr(float(x)) for x in ref], spec

    @pytest.mark.parametrize("spec", ["maj:23", "dict:24:3"])
    def test_spectrum_of_a_structured_function_builds_no_dense_spectrum(self, spec, capsys):
        # a 2^n float spectrum alone would take 64 or 128 MiB
        tracemalloc.start()
        try:
            assert main(["spectrum", "--function", spec]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak
        assert json.loads(capsys.readouterr().out)["coefficients"] is None

    def test_spectrum_hex_input(self):
        proc = run_cli("spectrum", "--function", "hex:3:e8", "--format", "pretty")
        assert proc.returncode == 0
        assert "balanced" in proc.stdout

    def test_catalog_list(self):
        proc = run_cli("catalog", "list")
        payload = validated_json(proc.stdout)
        names = {p["name"] for p in payload["presets"]}
        assert "condorcet" in names and "threshold_instability" in names

    def test_catalog_list_is_pinned(self, capsys):
        assert main(["catalog", "list"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "kind": "catalog_listing",
            "families": [
                {"name": "dictator", "spec": "dict:<n>:<voter>", "parameters": ["n", "voter"]},
                {"name": "majority", "spec": "maj:<n>", "parameters": ["n (odd)"]},
                {"name": "and", "spec": "and:<n>", "parameters": ["n"]},
                {"name": "or", "spec": "or:<n>", "parameters": ["n"]},
                {"name": "threshold", "spec": "thr:<n>:<k>", "parameters": ["n", "k in 0..n+1"]},
                {"name": "parity", "spec": "parity:<n>", "parameters": ["n"]},
                {"name": "tribes", "spec": "tribes:<n>:<size>", "parameters": ["n", "tribe size"]},
                {"name": "constant", "spec": "const:<n>:<bit>", "parameters": ["n", "bit"]},
                {"name": "hex table", "spec": "hex:<n>:<digits>", "parameters": ["n", "packed table"]},
            ],
            "presets": [
                {"name": "condorcet", "parameters": ["n (odd)"]},
                {"name": "dictator_triple", "parameters": ["n", "voter"]},
                {"name": "split_dictators", "parameters": ["n >= 3"]},
                {"name": "and_dual_majority", "parameters": ["n (odd)"]},
                {"name": "threshold_instability", "parameters": ["n (odd)", "q in (0, 1/2)"]},
                {"name": "alpha_half_extremal", "parameters": ["n >= 2"]},
            ],
        }
        assert main(["catalog", "list", "--format", "pretty"]) == 0
        assert capsys.readouterr().out == (
            "families:\n"
            "  dict:<n>:<voter>       params: n, voter\n"
            "  maj:<n>                params: n (odd)\n"
            "  and:<n>                params: n\n"
            "  or:<n>                 params: n\n"
            "  thr:<n>:<k>            params: n, k in 0..n+1\n"
            "  parity:<n>             params: n\n"
            "  tribes:<n>:<size>      params: n, tribe size\n"
            "  const:<n>:<bit>        params: n, bit\n"
            "  hex:<n>:<digits>       params: n, packed table\n"
            "presets:\n"
            "  condorcet              params: n (odd)\n"
            "  dictator_triple        params: n, voter\n"
            "  split_dictators        params: n >= 3\n"
            "  and_dual_majority      params: n (odd)\n"
            "  threshold_instability  params: n (odd), q in (0, 1/2)\n"
            "  alpha_half_extremal    params: n >= 2\n"
        )

    @pytest.mark.parametrize(
        "spec, line",
        [
            ("maj:3:1", "maj spec takes no extra parameter: 'maj:3:1'"),
            ("thr:15", "thr spec needs exactly one parameter: 'thr:15'"),
            ("warp:3", "unknown function spec 'warp:3'"),
            ("hex:3", "malformed function spec 'hex:3'"),
            ("hex:3:zz", "a packed table must be hex digits [0-9a-fA-F] only"),
            ("hex:60:0", "arity limited to 24, got 60"),
            ("hex:3:1ff", "packed value out of range for n=3"),
        ],
    )
    def test_bad_spec_error_lines(self, spec, line, capsys):
        assert main(["spectrum", "--function", spec]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_curve_majority_stability(self, tmp_path):
        out = tmp_path / "curve.csv"
        proc = run_cli(
            "curve", "--check", "majority-stability", "--rho", "0.3333333333333333",
            "--n-list", "3:19:2", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,rho,value,reference,abs_err"
        assert len(lines) == 1 + 9
        errs = [float(line.split(",")[4]) for line in lines[1:]]
        assert errs == sorted(errs, reverse=True)  # converging curve

    def test_curve_instability(self):
        proc = run_cli("curve", "--check", "instability", "--q", "0.2", "--n-list", "5:15:2")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "n,q,w,eta,ratio"
        assert len(lines) == 1 + 6

    @pytest.mark.parametrize("spec, ns", [("1:5:2", [1, 3, 5]), ("5:1:-2", [5, 3, 1])])
    def test_curve_range_includes_stop(self, spec, ns, capsys):
        # stop is included whichever way the range steps
        assert main(["curve", "--check", "instability", "--q", "0.2", "--n-list", spec]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == ns

    def test_curve_instability_reads_the_check_rows(self, capsys):
        # both print the rows of theorems.instability_row, float for float
        assert main(["curve", "--check", "instability", "--q", "0.2", "--n-list", "5:15:2"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert main(["verify", "--check", "instability_example", "--seed", "7"]) == 1
        report = json.loads(capsys.readouterr().out)["reports"][0]
        rows = report["witness"]["extra"]["threshold_rows"]
        assert [line.split(",")[2:] for line in lines] == [
            [repr(row[k]) for k in ("w", "eta", "ratio")] for row in rows
        ]

    def test_curve_empty_list_is_usage_error(self):
        proc = run_cli("curve", "--check", "instability", "--q", "0.2", "--n-list", "")
        assert proc.returncode == 2

    def test_unknown_preset_usage_error(self):
        proc = run_cli("rationality", "--preset", "borda", "--n", "3", "--uniform")
        assert proc.returncode == 2

    def test_capacity_error_is_actionable(self):
        proc = run_cli(
            "rationality", "--preset", "condorcet", "--n", "13", "--uniform",
            "--method", "oracle",
        )
        assert proc.returncode == 2
        assert "monte_carlo" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["rationality", "--preset", "condorcet", "--n", "3", "--triples", "a,b"],
            ["verify", "--all", "--seed", "-1"],
            ["simulate", "--preset", "condorcet", "--n", "3", "--samples", "10", "--seed", "-1"],
            # simulate is the one Monte Carlo command
            ["rationality", "--preset", "condorcet", "--n", "3", "--method", "monte-carlo",
             "--samples", "10", "--seed", "1"],
            ["search", "--n", "3", "--class-f", "balanced", "--class-g", "balanced",
             "--class-h", "balanced", "--objective", "max_w", "--mode", "random",
             "--trials", "5", "--seed", "-1"],
            ["curve", "--check", "instability", "--q", "0.2", "--n-list", "5:x"],
            ["curve", "--check", "instability", "--q", "0.2", "--n-list", "5:15:0"],
            ["rationality", "--preset", "condorcet", "--n", "60", "--uniform"],
            ["rationality", "--preset", "split_dictators", "--n", "60", "--uniform"],
            ["spectrum", "--function", "tribes:60:3"],
            ["catalog", "list", "--out", os.path.join(os.devnull, "x.json")],
            ["rationality", "--n", "abc"],
            ["rationality", "--preset", "condorcet", "--n", "3", "--alpha", "nan",
             "--beta", "0.1", "--gamma", "0.1"],
            ["simulate", "--preset", "condorcet", "--n", "3", "--triples", "nan,0,0,0,0,1",
             "--samples", "10", "--seed", "1"],
            ["simulate", "--preset", "condorcet", "--n", "3", "--uniform", "--seed", "1",
             "--samples", "100000000000000000000000"],
            ["search", "--n", "2", "--class-f", "balanced", "--class-g", "balanced",
             "--class-h", "balanced", "--objective", "max_w", "--alpha", "nan",
             "--beta", "0.1", "--gamma", "0.1"],
            ["curve", "--check", "majority-stability", "--rho", "2", "--n-list", "3"],
            # flags the chosen search mode would silently ignore
            ["search", "--n", "3", "--class-f", "balanced", "--class-g", "balanced",
             "--class-h", "balanced", "--objective", "max_w", "--mode", "random",
             "--trials", "500", "--seed", "1", "--exclude-dictators"],
            ["search", "--n", "3", "--class-f", "balanced", "--class-g", "balanced",
             "--class-h", "balanced", "--objective", "max_w", "--trials", "500"],
            ["search", "--n", "3", "--class-f", "balanced", "--class-g", "balanced",
             "--class-h", "balanced", "--objective", "max_w", "--mode", "exhaustive",
             "--seed", "1"],
            # flags the chosen preset, method, format or curve would silently ignore
            ["rationality", "--preset", "condorcet", "--n", "5", "--q", "0.3"],
            ["rationality", "--preset", "condorcet", "--n", "5", "--voter", "3"],
            ["rationality", "--preset", "condorcet", "--n", "5", "--method", "formula",
             "--samples", "10", "--seed", "1"],
            ["rationality", "--preset", "condorcet", "--n", "5", "--f", "maj:5"],
            ["rationality", "--f", "maj:3", "--g", "maj:3", "--h", "maj:3", "--n", "3"],
            ["rationality", "--f", "maj:3", "--g", "maj:3", "--h", "maj:3", "--q", "0.2"],
            ["spectrum", "--function", "maj:9", "--full-coeffs", "--format", "pretty"],
            ["verify", "--all", "--check", "fkg"],
            # a check named twice would print its report twice
            ["verify", "--check", "fkg", "--check", "fkg"],
            ["curve", "--check", "instability", "--q", "0.2", "--rho", "0.5", "--n-list", "5"],
            ["curve", "--check", "majority-stability", "--rho", "0.5", "--q", "0.2",
             "--n-list", "3"],
            # int(digits, 16) reads each of these as 0x7f
            ["spectrum", "--function", "hex:3:0x7f"],
            ["spectrum", "--function", "hex:3:+7f"],
            ["spectrum", "--function", "hex:3:7_f"],
            ["spectrum", "--function", "hex:3: 7f"],
            *_HUGE_COUNTS,
            ["rationality", "--preset", "condorcet", "--n", "3", "--samples", "10", "--seed", "1"],
        ],
    )
    def test_bad_input_is_one_error_line(self, argv, capsys):
        # exit 2, never a traceback or the "check failed" exit 1; the size
        # ceiling is enforced before any 2^n allocation
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv", _HUGE_COUNTS)
    def test_huge_counts_fail_before_allocating(self, argv, capsys):
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert capsys.readouterr().err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rationality", "--help"])
        assert exc.value.code == 0
        assert "usage: gswf rationality" in capsys.readouterr().out


class TestOutFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--function", "maj:5", "--format", "pretty"],
            ["rationality", "--preset", "condorcet", "--n", "3", "--uniform"],
            ["simulate", "--preset", "condorcet", "--n", "5", "--uniform", "--samples", "500",
             "--seed", "2", "--format", "pretty"],
            ["verify", "--check", "fkg", "--check", "instability_example", "--format", "pretty"],
            ["catalog", "list"],
            ["curve", "--check", "instability", "--q", "0.2", "--n-list", "5:9:2"],
            ["search", "--n", "3", "--class-f", "balanced", "--class-g", "monotone",
             "--class-h", "balanced", "--objective", "min_w", "--mode", "random",
             "--trials", "50", "--seed", "4", "--uniform"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_file_holds_the_stdout_bytes(self, argv, tmp_path, capsys):
        status = main(argv)
        stdout = capsys.readouterr().out
        out = tmp_path / "report"
        assert main([*argv, "--out", str(out)]) == status
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == stdout.encode()
        if argv[0] == "search":  # a second run appends its one line
            assert main([*argv, "--out", str(out)]) == status
            assert out.read_bytes() == 2 * stdout.encode()
            assert stdout.count("\n") == 1



def _plain_json(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestReportWriter:
    """Reports with hex tables, whose tables are joined in unescaped, read
    as the plain ``json.dumps`` of what they hold."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rationality", "--preset", "condorcet", "--n", "5", "--uniform", "--method", "formula"],
            ["rationality", "--f", "tribes:6:2", "--g", "thr:6:3", "--h", "dict:6:4", "--alpha",
             "0.3", "--beta", "0.15", "--gamma", "0.05", "--method", "formula"],
            ["rationality", "--preset", "and_dual_majority", "--n", "3", "--uniform",
             "--method", "oracle"],
            ["rationality", "--preset", "condorcet", "--n", "5", "--triples",
             "0.2,0.1,0.1,0.2,0.3,0.1", "--method", "oracle"],
            ["rationality", "--preset", "split_dictators", "--n", "4", "--uniform",
             "--method", "both"],
            ["rationality", "--preset", "condorcet", "--n", "21", "--uniform", "--method", "formula"],
            ["rationality", "--f", "tribes:20:4", "--g", "dict:20:2", "--h", "thr:20:11",
             "--uniform", "--method", "formula"],
            ["simulate", "--preset", "condorcet", "--n", "7", "--uniform", "--samples", "500",
             "--seed", "2"],
            ["spectrum", "--function", "maj:5"],
            ["spectrum", "--function", "tribes:9:3"],
            ["spectrum", "--function", "maj:21"],
            ["spectrum", "--function", "tribes:8:3", "--full-coeffs"],
        ],
        ids=["formula", "formula-tables", "oracle", "oracle-triples", "both", "formula-n21",
             "formula-n20", "simulate", "spectrum", "spectrum-dense", "spectrum-n21",
             "spectrum-full-coeffs"],
    )
    def test_reports_are_plain_json_on_stdout_and_out(self, argv, tmp_path, capsys):
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout == _plain_json(stdout)
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == stdout and text == _plain_json(text)

    @pytest.mark.parametrize(
        "value",
        ["\x00", '"\x00', '\x00"', ': "\x00"', '": "\\u0000"', "\\u0000", "a\x00b"],
    )
    def test_placeholder_like_strings_are_escaped_as_usual(self, value):
        # as a dict value, a list entry and a key next to the tables; each
        # value sorts before "functions", so its table is written first
        plain = {
            value: "0f",
            "functions": {"f": "e8", "g": value, "h": "96"},
            "other": [value, {value: value}],
        }
        payload = {
            value: cli._TABLE,
            "functions": {"f": cli._TABLE, "g": value, "h": cli._TABLE},
            "other": [value, {value: value}],
        }
        text = cli._json_text(payload, ["0f", "e8", "96"])
        assert text == json.dumps(plain, sort_keys=True, indent=2) + "\n"


# Fast argv pieces: arities up to 9 and small sample and trial counts.  Half
# the argvs are drawn from the good values only, with only the flags that
# act; the rest mix in bad values, flags that the chosen preset or method
# would ignore, and a stray token, so that every exit path is reached.
_GOOD = {
    "n": ["1", "2", "3", "5", "7", "9"],
    "count": ["1", "40", "400"],
    "seed": ["0", "3"],
    "float": ["0", "1e-3", "0.1", "0.2", "0.25", "0.5"],
    "spec": ["maj:3", "dict:3:2", "thr:3:2", "and:3", "or:3", "parity:3", "tribes:3:2",
             "const:3:1", "hex:3:e8", "hex:3:96"],
    "class": ["balanced", "monotone", "self_dual", "cyclic_invariant", "non_constant",
              "balanced,monotone", "expectation:0.2:0.8"],
    "method": ["formula", "oracle", "both"],
    "check": sorted(CHECKS),
}
_BAD = {
    "n": ["-1", "0", "4", "abc", "2.5", ""],
    "count": ["-1", "0", "x"],
    "seed": ["-1", "x"],
    "float": ["-0.2", "1/6", "nan", "inf"],
    "spec": ["maj:4", "dict:3:9", "tribes:5:0", "hex:2:zz", "hex:1:7", "bogus:3", "maj"],
    "class": ["expectation:0.9:0.1", "nope", ""],
    "method": ["exact", "monte-carlo"],
    "check": ["bogus"],
}


@st.composite
def _argv(draw):
    valid = draw(st.booleans())

    def pick(kind):
        return draw(st.sampled_from(_GOOD[kind] + ([] if valid else _BAD[kind])))

    def dist_flags():
        kind = draw(st.sampled_from(["none", "uniform", "abc", "triples", "two"][: 4 + (not valid)]))
        if kind == "uniform":
            return ["--uniform"]
        if kind == "abc":
            abc = [("0.25", "0.125", "0.125"), ("0.5", "0", "0"), ("0.1", "0.2", "0.2")]
            if not valid:
                abc.append(tuple(pick("float") for _ in range(3)))
            a, b, c = draw(st.sampled_from(abc))
            return ["--alpha", a, "--beta", b, "--gamma", c]
        if kind == "triples":
            six = ["0.3,0.1,0.1,0.2,0.2,0.1", "0,0,0,0.5,0.5,0", "1,0,0,0,0,0"]
            if not valid:
                six.append(",".join(pick("float") for _ in range(draw(st.integers(5, 7)))))
            return ["--triples", draw(st.sampled_from(six))]
        if kind == "two":
            return ["--uniform", "--alpha", "0.5"]
        return []

    command = draw(st.sampled_from(
        ["rationality", "simulate", "spectrum", "search", "verify", "catalog"]
    ))
    argv = [command]
    if command in ("rationality", "simulate"):
        if draw(st.booleans()):
            preset = draw(st.sampled_from(catalog.PRESET_NAMES))
            argv += ["--preset", preset, "--n", pick("n")]
            # a preset takes --q or --voter only if its catalog row lists it
            takes = {param.split()[0] for param in catalog.PRESETS[preset]}
            for flag, kind in (("q", "float"), ("voter", "n")):
                if (flag in takes or not valid) and draw(st.booleans()):
                    argv += [f"--{flag}", pick(kind)]
        else:
            argv += ["--f", pick("spec"), "--g", pick("spec"), "--h", pick("spec")]
        argv += dist_flags()
        if command == "rationality":
            argv += ["--method", pick("method")]
        if command == "simulate" or not valid:
            argv += ["--samples", pick("count"), "--seed", pick("seed")]
    elif command == "spectrum":
        argv += ["--function", pick("spec")]
        if draw(st.booleans()):
            argv += ["--full-coeffs"]
            # pretty output prints no coefficients, so the pair is an error
            argv += ["--format", "pretty"] if not valid and draw(st.booleans()) else []
    elif command == "search":
        mode = draw(st.sampled_from(["exhaustive", "random"]))
        argv += ["--n", draw(st.sampled_from(["1", "2", "3"]))]
        for flag in ("--class-f", "--class-g", "--class-h"):
            argv += [flag, pick("class")]
        argv += ["--objective", draw(st.sampled_from(["min_w", "max_w"]))]
        argv += ["--mode", mode]
        # the flags of the other mode are an error, drawn only for bad argvs
        if mode == "random" or not valid:
            argv += ["--trials", pick("count"), "--seed", pick("seed")]
        argv += dist_flags()
        if mode == "exhaustive" or not valid:
            argv += ["--exclude-dictators"] if draw(st.booleans()) else []
    elif command == "verify":
        argv += ["--check", pick("check")] if draw(st.booleans()) or valid else []
        argv += ["--seed", pick("seed")]
    else:
        argv.append("list")
    if not valid and draw(st.booleans()):  # one stray token after the command
        junk = draw(st.sampled_from(["--n", "--bogus", "x", "-1", "--seed", "--uniform"]))
        argv.insert(draw(st.integers(1, len(argv))), junk)
    return argv


class TestArgvProperty:
    @given(_argv())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_every_argv_is_json_or_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc in (0, 1):
            validated_json(out.getvalue())
        else:
            assert rc == 2
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
