"""Command-line interface: compute, verify, search, simulate, export."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from importlib import resources

import numpy as np

from . import bfn, catalog, theorems
from .bfn import walsh_transform
from .dist import TRIPLE_LABELS, EvenProductDistribution, TripleDistribution
from .errors import CapacityError, GswfError, ValidationError
from .rationality import Gswf, cyclic_level_sums, w_formula, w_monte_carlo, w_oracle
from .search import ClassFilter, extremal_w, random_search
from .theorems import AND_ENVELOPE, CHECKS, run_all, suite_passed


def load_schema() -> dict:
    """The JSON schema all CLI JSON reports validate against."""
    text = resources.files("gswf.schemas").joinpath("report.schema.json").read_text()
    return json.loads(text)


#: Marks a hex truth table's place in a report payload; the table itself is
#: handed to :func:`_json_text`.
_TABLE = object()


def _hole(obj):
    if obj is _TABLE:
        return "\x00"  # written as "\u0000", which no hex table holds
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(payload, tables=()) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, with
    ``tables``, in output order, where ``payload`` holds :data:`_TABLE`.

    Hex digits need no escaping, so the tables are joined into the dumped
    skeleton as they are: json never scans or copies them."""
    skeleton = json.dumps(payload, sort_keys=True, indent=2, default=_hole)
    pieces = skeleton.split("\\u0000")
    if len(pieces) != len(tables) + 1:  # some other string wrote \u0000 too
        rest = iter(tables)
        return json.dumps(payload, sort_keys=True, indent=2, default=lambda _: next(rest)) + "\n"
    pieces[-1] += "\n"
    parts = [pieces[0]]
    for table, piece in zip(tables, pieces[1:]):
        parts += (table, piece)
    return "".join(parts)


def _write_output(text: str, out: str | None, append: bool) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "a" if append else "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _add_output_flags(parser: argparse.ArgumentParser, formats: bool = True,
                      out_help: str = "write output to this path instead of stdout") -> None:
    if formats:
        parser.add_argument("--format", choices=("json", "pretty"), default="json")
    parser.add_argument("--out", help=out_help)


def _add_dist_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("distribution")
    group.add_argument("--uniform", action="store_true", help="alpha=beta=gamma=1/6")
    group.add_argument("--alpha", type=float)
    group.add_argument("--beta", type=float)
    group.add_argument("--gamma", type=float)
    group.add_argument(
        "--triples",
        type=str,
        help=f"six probabilities {','.join('p' + t for t in TRIPLE_LABELS)} "
        "(the closed form needs each triple as likely as its complement; "
        "other laws run the oracle or Monte Carlo paths only)",
    )


def _parse_dist(args) -> EvenProductDistribution | TripleDistribution:
    """The distribution the flags choose; uniform by default."""
    chosen = [
        bool(args.uniform),
        args.alpha is not None or args.beta is not None or args.gamma is not None,
        args.triples is not None,
    ]
    if sum(chosen) > 1:
        raise ValidationError("choose one of --uniform, --alpha/--beta/--gamma, --triples")
    if args.triples is not None:
        try:
            parts = [float(x) for x in args.triples.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--triples takes six numbers, got {args.triples!r}") from exc
        if len(parts) != 6:
            raise ValidationError("--triples needs exactly six comma-separated values")
        return TripleDistribution(np.asarray(parts))
    if chosen[1]:
        if None in (args.alpha, args.beta, args.gamma):
            raise ValidationError("--alpha, --beta and --gamma must be given together")
        return EvenProductDistribution(args.alpha, args.beta, args.gamma)
    return EvenProductDistribution.uniform()


def _add_function_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("functions")
    group.add_argument("--preset", choices=catalog.PRESET_NAMES)
    group.add_argument("--n", type=int, help="voter count (required with --preset)")
    group.add_argument("--voter", type=int, help="voter index for dictator_triple (default 1)")
    group.add_argument("--q", type=float, help="threshold fraction for threshold_instability")
    group.add_argument("--f", type=str, help="choice function for the first pair")
    group.add_argument("--g", type=str, help="choice function for the second pair")
    group.add_argument("--h", type=str, help="choice function for the third pair")


def _parse_gswf(args) -> tuple[Gswf, str | None]:
    # --voter and --q reach only the presets whose catalog.PRESETS row lists them.
    given = {k: v for k, v in (("voter", args.voter), ("q", args.q)) if v is not None}
    if args.preset:
        if args.n is None:
            raise ValidationError("--preset requires --n")
        takes = {param.split()[0] for param in catalog.PRESETS[args.preset]}
        stray = [name for name in "fgh" if getattr(args, name) is not None]
        stray += [name for name in given if name not in takes]
        if stray:
            raise ValidationError(f"--{stray[0]} does not apply to preset {args.preset}")
        return catalog.preset_gswf(args.preset, args.n, **given), args.preset
    if not (args.f and args.g and args.h):
        raise ValidationError("give either --preset --n or all of --f, --g, --h")
    stray = [name for name in ("n", *given) if getattr(args, name) is not None]
    if stray:
        raise ValidationError(f"--{stray[0]} applies only with --preset")
    fs = tuple(catalog.parse_function_spec(s) for s in (args.f, args.g, args.h))
    return Gswf(*fs), None


def _pretty_wresult(res) -> str:
    lines = [f"method {res.method}: W = {res.w:.9f}"]
    lines.append(f"  base (independent outcome term) = {res.base:.9f}")
    if res.cross_terms is not None:
        for label, term, delta in zip(
            ("(f,g)", "(g,h)", "(h,f)"), res.cross_terms, res.deltas
        ):
            lines.append(f"  {label} delta={delta:+.6f}: {term:+.9f}")
    if res.method == "monte_carlo":
        lines.append(f"  samples={res.samples} seed={res.seed} stderr={res.stderr:.3e}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_spectrum(args) -> tuple[str, int]:
    if args.full_coeffs and args.format == "pretty":
        raise ValidationError("--full-coeffs applies only to --format json")
    f = catalog.parse_function_spec(args.function)
    if args.full_coeffs and f.n > 20:
        # 2^20 coefficients are about 28 MB of JSON
        raise CapacityError(f"--full-coeffs writes at most 2^20 coefficients, got 2^{f.n}")
    weights = [float(x) for x in cyclic_level_sums([f])[1][0]]
    include = args.full_coeffs or f.n <= 6
    payload = {
        "kind": "spectrum_report",
        "function": {"n": f.n, "hex": _TABLE},
        "expectation": bfn.expectation(f),
        "level_weights": weights + [0.0] * (f.n + 1 - len(weights)),
        "predicates": {
            "balanced": bfn.is_balanced(f),
            "monotone": bfn.is_monotone(f),
            "self_dual": bfn.is_self_dual(f),
            "cyclic_invariant": bfn.is_cyclic_invariant(f),
        },
        "coefficients": [float(x) for x in walsh_transform(f).coeffs] if include else None,
    }
    if args.format == "json":
        return _json_text(payload, (f.hex,)), 0
    text = [f"function n={f.n} hex={f.hex}  E[f]={payload['expectation']:.6f}"]
    text.append(
        "predicates: "
        + ", ".join(k for k, v in payload["predicates"].items() if v)
    )
    text.append("level weights: " + ", ".join(f"{x:.6f}" for x in payload["level_weights"]))
    return "\n".join(text) + "\n", 0


def _cmd_rationality(args) -> tuple[str, int]:
    gswf, preset = _parse_gswf(args)
    dist = _parse_dist(args)
    results = []
    if args.method in ("formula", "both"):
        results.append(w_formula(gswf, dist))
    if args.method in ("oracle", "both"):
        results.append(w_oracle(gswf, dist))
    if args.method == "monte-carlo":  # simulate's, with its required --samples and --seed
        results.append(w_monte_carlo(gswf, dist, args.samples, args.seed))
    payload = {
        "kind": "rationality_report",
        "n": gswf.n,
        "functions": {"f": _TABLE, "g": _TABLE, "h": _TABLE},
        "distribution": dist.as_dict(),
        "preset": preset,
        "reference_bound": AND_ENVELOPE**gswf.n if preset == "and_dual_majority" else None,
        "results": [r.to_json_dict() for r in results],
    }
    if args.format == "json":
        return _json_text(payload, (gswf.f.hex, gswf.g.hex, gswf.h.hex)), 0
    head = [f"n = {gswf.n}  f={gswf.f.hex} g={gswf.g.hex} h={gswf.h.hex}"]
    if preset:
        head.append(f"preset: {preset}")
    if payload["reference_bound"] is not None:
        head.append(f"decay envelope {AND_ENVELOPE}^n = {payload['reference_bound']:.6e}")
    return "\n".join(head + [_pretty_wresult(r) for r in results]) + "\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    if args.all == bool(args.check):
        raise ValidationError("give either --all or at least one --check NAME")
    reports = run_all(seed=args.seed, names=None if args.all else args.check)
    payload = {
        "kind": "verify_report",
        "seed": args.seed,
        "all_passed": suite_passed(reports),
        "reports": [r.to_json_dict() for r in reports],
    }
    status = 0 if payload["all_passed"] else 1
    if args.format == "json":
        return _json_text(payload), status
    lines = []
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        extra = " (inverted)" if r.inverted else ""
        lines.append(
            f"{tag:4} {r.name:<40} margin={r.margin:+.3e} tol={r.tolerance:.0e}{extra}"
        )
    lines.append("all passed" if payload["all_passed"] else "FAILURES present")
    return "\n".join(lines) + "\n", status


def _cmd_search(args) -> tuple[str, int]:
    dist = _parse_dist(args)
    if args.mode == "exhaustive" and (args.trials is not None or args.seed is not None):
        raise ValidationError("--trials and --seed apply only to --mode random")
    if args.mode == "random" and args.exclude_dictators:
        raise ValidationError("--exclude-dictators applies only to --mode exhaustive")
    filters = tuple(
        ClassFilter.parse(text) for text in (args.class_f, args.class_g, args.class_h)
    )
    if args.mode == "exhaustive":
        result = extremal_w(
            args.n,
            *filters,
            dist,
            args.objective,
            exclude_dictator_triples=args.exclude_dictators,
        )
    else:
        if args.trials is None or args.seed is None:
            raise ValidationError("random mode needs --trials and --seed")
        result = random_search(args.n, filters, dist, args.objective, args.trials, args.seed)
    payload = {"kind": "search_result", **result.to_json_dict()}
    return json.dumps(payload, sort_keys=True) + "\n", 0  # JSON lines for scans


def _cmd_catalog(args) -> tuple[str, int]:
    payload = {
        "kind": "catalog_listing",
        "families": [
            {"name": name, "spec": fam.spec, "parameters": list(fam.parameters)}
            for name, fam in catalog.FAMILIES.items()
        ]
        # hex is a table format, not a family
        + [{"name": "hex table", "spec": "hex:<n>:<digits>", "parameters": ["n", "packed table"]}],
        "presets": [
            {"name": name, "parameters": list(params)} for name, params in catalog.PRESETS.items()
        ],
    }
    if args.format == "json":
        return _json_text(payload), 0
    lines = ["families:"]
    lines += [f"  {f['spec']:<22} params: {', '.join(f['parameters'])}" for f in payload["families"]]
    lines.append("presets:")
    lines += [f"  {p['name']:<22} params: {', '.join(p['parameters'])}" for p in payload["presets"]]
    return "\n".join(lines) + "\n", 0


def _parse_n_list(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) > 3:
        raise ValidationError("range syntax is start:stop[:step]")
    try:
        if len(parts) > 1:
            step = int(parts[2]) if len(parts) == 3 else 1
            values = range(int(parts[0]), int(parts[1]) + (1 if step > 0 else -1), step)
        else:
            values = [int(x) for x in text.split(",") if x]
    except ValueError as exc:  # a non-integer, or a zero step
        raise ValidationError(f"malformed n list {text!r}: {exc}") from exc
    if not values:
        raise ValidationError("empty n list")
    # Every curve needs each n in 1..N_MAX.  A range is monotone, so its two
    # ends bound it, and they are checked before it is built.
    bfn.check_arity(values[0])
    bfn.check_arity(values[-1])
    return list(values)


def _cmd_curve(args) -> tuple[str, int]:
    # each curve reads one of --rho and --q
    flag, value = ("--q", args.q) if args.check == "majority-stability" else ("--rho", args.rho)
    if value is not None:
        raise ValidationError(f"{flag} does not apply to --check {args.check}")
    n_list = _parse_n_list(args.n_list)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if args.check == "majority-stability":
        rho = args.rho
        if rho is None:
            raise ValidationError("majority-stability needs --rho")
        writer.writerow(["n", "rho", "value", "reference", "abs_err"])
        for n in n_list:
            value = theorems.majority_self_correlation(n, rho)
            # after the check of rho: asin raises a bare ValueError outside [-1, 1]
            reference = math.asin(rho) / (2.0 * math.pi)
            writer.writerow([n, rho, repr(value), repr(reference), repr(abs(value - reference))])
    else:  # instability
        q = args.q
        if q is None:
            raise ValidationError("instability needs --q")
        writer.writerow(["n", "q", "w", "eta", "ratio"])
        for n in n_list:
            row = theorems.instability_row(n, q)
            writer.writerow([n, q, *(repr(row[k]) for k in ("w", "eta", "ratio"))])
    return buffer.getvalue(), 0


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit status 2."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gswf",
        description="Spectral analysis of three-alternative voting rules: "
        "irrational-outcome probability, bound verification, extremal search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="transform one function and report its structure")
    p.add_argument("--function", required=True, help="function spec, e.g. maj:3 or hex:3:e8")
    p.add_argument("--full-coeffs", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("rationality", help="probability of an irrational outcome")
    _add_function_flags(p)
    _add_dist_flags(p)
    p.add_argument(
        "--method",
        choices=("formula", "oracle", "both"),
        default="both",
        help="both = closed form and exhaustive enumeration",
    )
    _add_output_flags(p)
    p.set_defaults(func=_cmd_rationality)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the irrationality probability")
    _add_function_flags(p)
    _add_dist_flags(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_rationality, method="monte-carlo")

    p = sub.add_parser("verify", help="run the bound-verification battery")
    p.add_argument("--all", action="store_true")
    p.add_argument(
        "--check",
        action="append",
        choices=sorted(CHECKS),
        help="run one named check (repeatable)",
    )
    p.add_argument("--seed", type=int, default=7)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="extremal search over function classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class-f", required=True, help="e.g. balanced,monotone")
    p.add_argument("--class-g", required=True)
    p.add_argument("--class-h", required=True)
    p.add_argument("--objective", choices=("min_w", "max_w"), required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--exclude-dictators", action="store_true",
                   help="skip the always-rational dictator-type triples")
    _add_dist_flags(p)
    _add_output_flags(p, formats=False, out_help="append one JSON line per run to this path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("catalog", help="list families and presets")
    p.add_argument("action", choices=("list",))
    _add_output_flags(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("curve", help="emit CSV curves for the asymptotic claims")
    p.add_argument("--check", choices=("majority-stability", "instability"), required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--n-list", required=True, help="comma list or start:stop[:step], stop included")
    _add_output_flags(p, formats=False)
    p.set_defaults(func=_cmd_curve)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, status = args.func(args)
        _write_output(text, args.out, append=args.command == "search")
        return status
    except GswfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
