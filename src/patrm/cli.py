"""Command-line front end: words, tables, pcw, alpha, moments, lsd, freeness.

The JSON reports (words, pcw, alpha, moments, freeness, and the lsd
sidecar) embed the master seed, work budget and package version, and all
but words the method; the tables and lsd CSVs carry no metadata.
Identical command lines with identical seeds produce byte-identical
output; the dense simulations of moments and lsd only on one BLAS thread
count.  Exit codes: 0 success, 1 usage error, 2
numerical/acceptance failure, 3 work budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

# sampler, spectra and freeness load numpy, so only the commands that use them
# import them, when they run: the exact commands start on the standard library
from . import __version__, limits
from .algebra import (
    is_catalan,
    pairing_count_estimate,
    parse_monomial,
    word_from_text,
)
from .linkfns import InputDistribution, LinkKind
from .reference_tables import ALL_ROWS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_BUDGET = 3

TABLE_TOLERANCE = 0.02


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _emit_json(obj) -> str:
    """Deterministic UTF-8 JSON with floats at 17 significant digits.

    JSON has no NaN or infinity, so a non-finite float is a failed
    numerical check, not a value to print.
    """

    def render(o) -> str:
        if isinstance(o, dict):
            inner = ",".join(f"{json.dumps(str(k))}:{render(v)}" for k, v in o.items())
            return "{" + inner + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, float):
            if not math.isfinite(o):
                raise FloatingPointError(f"non-finite value {o!r} in report")
            return _format_float(o)
        if isinstance(o, int):
            return str(o)
        return json.dumps(o)

    return render(obj)


def _run_meta(args, **extra) -> dict:
    return {"seed": args.seed, "budget": args.budget, "version": __version__, **extra}


def _report(args, payload: dict, **extra) -> int:
    """Print one JSON report: the payload, then the run's metadata."""
    print(_emit_json({**payload, **_run_meta(args, **extra)}))
    return EXIT_OK


def _exact_field(value) -> dict:
    """The exact route's rational as an "exact" report field, e.g. "908/15"; none for a float."""
    return {"exact": str(value)} if isinstance(value, Fraction) else {}


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_words(args) -> int:
    q = parse_monomial(args.q)
    words = limits.pair_matched_words(q, args.budget)
    entries = [
        {"word": w.text, "colors": w.color_text, "indices": list(w.indices), "catalan": is_catalan(w)} for w in words
    ]
    return _report(args, {"q": str(q), "words": entries, "count": len(words)})


def cmd_tables(args) -> int:
    rows = []
    failures = []
    for row in ALL_ROWS:
        q = parse_monomial(row.monomial)
        w = word_from_text(row.word, q)
        est = limits.p_limit_cached(w, args.method, samples=args.samples, seed=args.seed, budget=args.budget)
        p_paper = float(row.p_published)
        err = abs(est.value - p_paper)
        if args.method == "exact":
            # an exact volume is the published rational or it is not
            tol, flagged = 0, est.value != row.p_published
        else:
            # at low --samples the fixed tolerance is ~2 standard errors, so noise alone would flag rows
            tol = max(TABLE_TOLERANCE, 4 * est.stderr)
            flagged = err > tol
        if flagged:
            failures.append((row.monomial, row.word, err, tol))
        rows.append(
            [row.monomial, row.word, _format_float(p_paper), _format_float(est.value), _format_float(err)]
        )
    sys.stdout.write(_csv_text(["monomial", "word", "p_paper", "p_computed", "abs_err"], rows))
    if failures:
        for mono, word, err, tol in failures:
            print(f"tables: |err| > {tol:.4g} for ({mono}, {word}): {err:.4f}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_pcw(args) -> int:
    q = parse_monomial(args.q)
    w = word_from_text(args.word, q)
    if not w.is_pair_matched():
        raise ValueError(f"word {args.word!r} is not pair-matched")
    est = limits.p_limit_cached(w, args.method, samples=args.samples, seed=args.seed, budget=args.budget)
    return _report(args, {
        "monomial": str(q),
        "word": w.text,
        "catalan": is_catalan(w),
        "cases": limits.case_count(w) if w.is_color_consistent() else 0,
        "p": float(est.value),
        **_exact_field(est.value),
        "stderr": est.stderr,
        "method": args.method,
    })


def cmd_alpha(args) -> int:
    q = parse_monomial(args.q)
    value, stderr = limits.alpha_estimate(
        q, args.method, samples=args.samples, seed=args.seed, budget=args.budget
    )
    return _report(args, {
        "q": str(q),
        "alpha": float(value),
        **_exact_field(value),
        "stderr": stderr,
        "bound": limits.alpha_bound(q),
        "words": pairing_count_estimate(q),
        "method": args.method,
    })


def _charge_draws(args, factors: int) -> None:
    """Charge the simulation's reps x factors x n^2 entries against --budget, before any draw."""
    # a negative --n fills nothing; the library rejects it as a usage error
    entries = args.reps * factors * max(args.n, 0) ** 2
    if entries > args.budget:
        raise limits.BudgetExceededError(f"simulation fills ~{entries:.2e} matrix entries, budget is {args.budget:.2e}")


def cmd_moments(args) -> int:
    from .sampler import empirical_trace_moment

    q = parse_monomial(args.q)
    _charge_draws(args, len(q))
    dist = InputDistribution(args.dist)
    est = empirical_trace_moment(q, args.n, dist, args.reps, args.seed)
    alpha_limit: Optional[float] = None
    try:
        alpha_limit = float(limits.alpha(q, "exact", budget=args.budget))
    except limits.BudgetExceededError:
        pass
    return _report(args, {
        "q": str(q),
        "n": args.n,
        "mean": est.mean,
        "sd": est.stddev,
        "reps": args.reps,
        "dist": dist.value,
        "alpha_limit": alpha_limit,
    }, method="simulation")


def cmd_lsd(args) -> int:
    from .spectra import sum_lsd_report

    kind_a = LinkKind.from_char(args.a)
    kind_b = LinkKind.from_char(args.b)
    _charge_draws(args, 2)
    dist = InputDistribution(args.dist)
    report = sum_lsd_report(kind_a, kind_b, args.n, dist, args.reps, seed=args.seed)
    hist = report.histogram
    table = _csv_text(
        ["bin_left", "bin_right", "count", "density"],
        (
            [_format_float(left), _format_float(right), count, _format_float(density)]
            for left, right, count, density in zip(hist.edges[:-1], hist.edges[1:], hist.counts, hist.density)
        ),
    )
    # the run's inputs, then its results; "seed" keeps its place when the metadata rewrites it
    sidecar = _emit_json({
        "a": kind_a.char, "b": kind_b.char, "n": args.n, "reps": args.reps, "seed": args.seed,
        "beta": report.beta, "skewness": report.skewness, "symmetric": report.symmetric,
        "odd_moment_max": report.odd_moment_max, "growth": report.growth,
        "growth_nondecreasing": report.growth_nondecreasing, **_run_meta(args, method="simulation"),
    })
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(table)
        with open(args.out + ".json", "w") as fh:
            fh.write(sidecar + "\n")
        print(f"wrote {args.out} and {args.out}.json")
    else:
        sys.stdout.write(table)
        print(sidecar, file=sys.stderr)
    return EXIT_OK


def cmd_freeness(args) -> int:
    from .freeness import freeness_report

    q = parse_monomial(args.q)
    report = freeness_report(q, budget=args.budget)
    alpha, prediction = report.alpha, report.free_prediction
    # each rational as its float, rounded once, then its exact string, e.g. "2/3"
    return _report(args, {
        "q": str(q), "alpha": float(alpha), "alpha_exact": str(alpha),
        "free_prediction": float(prediction), "free_prediction_exact": str(prediction), "free": report.free,
    }, method="exact")


def _option(flag: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one option that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patrm", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="master RNG seed, taken mod 2^64 (negative seeds alias)"
    )
    common.add_argument(
        "--budget", type=_positive_int, default=limits.DEFAULT_BUDGET,
        help=(
            "work cap, exit 3 past it. words, alpha, freeness: pair-matched words; tables, pcw, alpha,"
            " freeness: affine cases and exact integration branches per word; freeness: guide pairings"
            " and each block limit; moments: reps x k x n^2, k letters of --q; lsd: reps x 2 x n^2"
        ),
    )
    q = _option("--q", required=True, help="monomial text, e.g. THTH or 'W1 T1 W2 T1'")
    method = _option(
        "--method", choices=limits.METHODS, default="exact",
        help="exact: rational volumes by integration (default); mc: Monte Carlo estimates",
    )
    samples = _option(
        "--samples", type=_positive_int, default=limits.DEFAULT_MC_SAMPLES,
        help="Monte Carlo samples per distinct case polytope; --method exact does not use it",
    )
    dist = _option("--dist", default="gaussian", choices=[d.value for d in InputDistribution])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    command("words", cmd_words, "list pair-matched words of a monomial", q)
    command("tables", cmd_tables, "reference word-volume tables as CSV", method, samples)
    p = command("pcw", cmd_pcw, "limit volume of one word", q, method, samples)
    p.add_argument("--word", required=True)
    command("alpha", cmd_alpha, "limiting trace moment of a monomial", q, method, samples)

    p = command("moments", cmd_moments, "simulated trace moment of a monomial", q, dist)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)

    p = command("lsd", cmd_lsd, "spectral report for a scaled sum of two ensembles", dist)
    p.add_argument("--a", required=True, help="first ensemble (W,T,H,R,S)")
    p.add_argument("--b", required=True, help="second ensemble (W,T,H,R,S)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--out", help="CSV path; JSON sidecar written next to it")

    command("freeness", cmd_freeness, "freeness verdict for a Wigner-mixing monomial", q)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except limits.BudgetExceededError as exc:
        print(f"patrm: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ArithmeticError as exc:
        print(f"patrm: numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"patrm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
