"""Command line front end: build codes, run verifications, weigh forms, search.

Exit codes: 0 success, 1 verification mismatch or counterexample, 2 bad or
inadmissible input (a malformed or negative POLAR_BUDGET, a negative
--samples, --seed or --budget, search --samples past the budget, an (n, q)
whose points, lines or code cannot fit in memory) or out of memory, 3 I/O
failure.  Identical configurations (including the seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .code import (
    DEFAULT_BUDGET,
    build_code,
    code_parameters,
    export_code,
    form_from_message,
    min_distance_certified,
)
from .counting import CHECKS, line_count_from_census, run_checks
from .errors import BudgetExceeded, CounterexampleFound, InadmissibleParams, IoError, PolargrassError
from .field import FieldCtx
from .forms import AlternatingForm, standard_space
from .geometry import empirical_census
from .matrix import format_matrix_text, parse_matrix_text


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="field order (odd prime power)")
    p.add_argument("--n", type=int, required=True, help="rank parameter; the ambient dimension is 2n+1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polargrass",
        description="Line polar Grassmann codes of orthogonal type: "
        "construction, verification, weights, and random search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct the code and print 'N K d_claimed'")
    _add_field_args(b)
    b.add_argument("--format", choices=("text", "json"), default="text", help="output file format")
    b.add_argument("-o", "--output", metavar="PATH", help="write the generator matrix here")

    v = sub.add_parser("verify", help="run named verification checks; JSON report")
    _add_field_args(v)
    v.add_argument(
        "--check",
        action="append",
        default=None,
        help=f"check name or 'all' (repeatable); known: {', '.join(sorted(CHECKS))}",
    )
    v.add_argument("--r", type=int, default=None, help="restrict census entries to this radical dimension")
    v.add_argument("--d", type=int, default=None, help="restrict census entries to this defect")
    v.add_argument("--case", type=int, default=None, choices=(1, 2, 3, 4), help="restrict census entries to this case")
    v.add_argument("--samples", type=int, default=100, help="random forms per sampled check (default 100)")
    v.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="exhaustive-scan budget; POLAR_BUDGET overrides")
    v.add_argument("-o", "--output", metavar="PATH", help="write the JSON report here instead of stdout")

    w = sub.add_parser("weight", help="weight of the codeword of a form file")
    w.add_argument("--q", type=int, default=None, help="expected field order; validated against the file")
    w.add_argument("path", help="matrix text file holding the alternating form")

    s = sub.add_parser("search", help="random lower-weight search; JSON report")
    _add_field_args(s)
    s.add_argument("--samples", type=int, default=1000, help="number of random messages (default 1000)")
    s.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    s.add_argument("-o", "--output", metavar="PATH", help="witness file on counterexample (default witness.txt)")
    return parser


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise InadmissibleParams(f"{name} must be >= 0, got {value}")


def _budget(flag: int = DEFAULT_BUDGET) -> int:
    """The work budget: POLAR_BUDGET if it is set, else flag."""
    name = "POLAR_BUDGET" if "POLAR_BUDGET" in os.environ else "budget"
    raw = os.environ.get("POLAR_BUDGET", flag)
    try:
        budget = int(raw)
    except ValueError:
        raise InadmissibleParams(f"POLAR_BUDGET must be an integer, got {raw!r}") from None
    _check_nonnegative(name, budget)
    return budget


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        raise IoError(f"cannot write {path}: {ex}") from ex


def cmd_build(args) -> int:
    code = build_code(standard_space(FieldCtx(args.q), args.n))
    if args.output:
        _emit(export_code(code, args.format), args.output)
    p = code.params
    print(f"{p.N} {p.K} {p.d_claimed}")
    return 0


def _filter_entries(report: dict, args) -> dict:
    entries = report.get("entries")
    if entries is None:
        return report
    kept = entries
    if args.case is not None:  # equation-counts entries are all case 1
        kept = [e for e in kept if e.get("case", 1) == args.case]
    if args.r is not None:
        kept = [e for e in kept if e["r"] == args.r]
    if args.d is not None:
        kept = [e for e in kept if e["d"] == args.d]
    if not kept:
        raise InadmissibleParams("no census entry matches the --case/--r/--d filter")
    report = dict(report)
    report["entries"] = kept
    report["observed"] = f"{len(kept)} shapes checked"
    report["status"] = "ok" if all(e["status"] == "ok" for e in kept) else "mismatch"
    return report


def cmd_verify(args) -> int:
    FieldCtx(args.q)
    _check_nonnegative("samples", args.samples)
    _check_nonnegative("seed", args.seed)
    budget = _budget(args.budget)
    names = args.check if args.check else ["all"]
    if any(x is not None for x in (args.case, args.r, args.d)) and not all(
        n in ("census-all", "equation-counts") for n in names
    ):
        raise InadmissibleParams("--case/--r/--d filters apply to census-all and equation-counts only")
    shared = {
        "n": args.n,
        "q": args.q,
        "samples": args.samples,
        "seed": args.seed,
        "budget": budget,
    }
    reports = [_filter_entries(rep, args) for rep in run_checks(names, shared)]
    text = json.dumps(reports, indent=2) + "\n"
    _emit(text, args.output)
    if args.output:
        for rep in reports:
            print(f"{rep['check']}: {rep['status']}")
    return 0 if all(rep["status"] in ("ok", "skipped") for rep in reports) else 1


def cmd_weight(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise IoError(f"cannot read {args.path}: {ex}") from ex
    ctx = FieldCtx(args.q) if args.q is not None else None
    ctx, m = parse_matrix_text(text, ctx)
    dim = len(m)
    if dim < 5 or dim % 2 == 0:
        raise InadmissibleParams(f"form must act on odd dimension 2n+1 >= 5, got {dim}")
    n = (dim - 1) // 2
    qs = standard_space(ctx, n)
    af = AlternatingForm(ctx, m)
    # the census fixes the isotropic line count f by the reduced identity
    census = empirical_census(qs, af)
    f = line_count_from_census(census, n, ctx.q)
    params = code_parameters(n, ctx.q)
    print(f"weight {params.N - f} r {af.r}")
    print(
        f"census {census.a} {census.n_zero} {census.n_plus} {census.n_minus}"
        f" lines_on_quadric {f} of {params.N}"
    )
    return 0


def cmd_search(args) -> int:
    ctx = FieldCtx(args.q)
    _check_nonnegative("samples", args.samples)
    _check_nonnegative("seed", args.seed)
    budget = _budget()
    if args.samples > budget:
        raise BudgetExceeded(f"{args.samples} samples exceed the budget {budget}", bound=args.samples)
    code = build_code(standard_space(ctx, args.n))
    try:
        rec = min_distance_certified(code, samples=args.samples, seed=args.seed)
    except CounterexampleFound as ex:
        path = args.output or "witness.txt"
        witness = getattr(ex, "witness", None)
        if witness is not None:
            form = form_from_message(ctx, 2 * args.n + 1, list(witness))
            _emit(format_matrix_text(ctx.q, form.s), path)
        print(f"counterexample: {ex}; witness written to {path}", file=sys.stderr)
        return 1
    print(json.dumps(rec, indent=2))
    return 0


_DISPATCH = {
    "build": cmd_build,
    "verify": cmd_verify,
    "weight": cmd_weight,
    "search": cmd_search,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except IoError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    except PolargrassError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller --n, --q or --samples", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
