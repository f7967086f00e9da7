"""Command-line front end: words, tables, pcw, alpha, moments, lsd, freeness.

Every report embeds the master seed, work budget, method and package
version; identical command lines with identical seeds produce
byte-identical output.  Exit codes: 0 success, 1 usage error, 2
numerical/acceptance failure, 3 work budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

from . import __version__, limits
from .algebra import (
    is_catalan,
    pairing_count_estimate,
    parse_monomial,
    word_from_text,
)
from .freeness import freeness_report
from .linkfns import LinkKind
from .reference_tables import ALL_ROWS
from .sampler import InputDistribution, empirical_trace_moment
from .spectra import sum_lsd_report

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
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


class NonFiniteOutputError(ArithmeticError):
    """Raised when a report would carry a NaN or infinite value."""


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
                raise NonFiniteOutputError(f"non-finite value {o!r} in report")
            return _format_float(o)
        if isinstance(o, int):
            return str(o)
        return json.dumps(o)

    return render(obj)


def _run_meta(args, **extra) -> dict:
    meta = {"seed": args.seed, "budget": args.budget, "version": __version__}
    meta.update(extra)
    return meta


def cmd_words(args) -> int:
    q = parse_monomial(args.q)
    words = limits.pair_matched_words(q, args.budget)
    payload = {
        "q": str(q),
        "words": [w.to_json_dict() for w in words],
        "count": len(words),
        **_run_meta(args),
    }
    print(_emit_json(payload))
    return EXIT_OK


def cmd_tables(args) -> int:
    method = args.method
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["monomial", "word", "p_paper", "p_computed", "abs_err"])
    failures = []
    for row in ALL_ROWS:
        q = parse_monomial(row.monomial)
        w = word_from_text(row.word, q)
        est = limits.p_limit_cached(
            w, method, samples=args.samples, seed=args.seed, budget=args.budget
        )
        p_paper = float(row.p_published)
        err = abs(est.value - p_paper)
        # at low --samples the fixed tolerance is ~2 standard errors, so noise alone would flag rows
        tol = max(TABLE_TOLERANCE, 4 * est.stderr)
        if err > tol:
            failures.append((row.monomial, row.word, err, tol))
        writer.writerow(
            [row.monomial, row.word, _format_float(p_paper), _format_float(est.value), _format_float(err)]
        )
    sys.stdout.write(out.getvalue())
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
    est = limits.p_limit(
        w, args.method, samples=args.samples, seed=args.seed, budget=args.budget
    )
    payload = {
        "monomial": str(q),
        "word": w.text,
        "catalan": is_catalan(w),
        "cases": limits.case_count(w) if w.is_color_consistent() else 0,
        "p": est.value,
        "stderr": est.stderr,
        "method": args.method,
        **_run_meta(args),
    }
    print(_emit_json(payload))
    return EXIT_OK


def cmd_alpha(args) -> int:
    q = parse_monomial(args.q)
    value, stderr = limits.alpha_estimate(
        q, args.method, samples=args.samples, seed=args.seed, budget=args.budget
    )
    payload = {
        "q": str(q),
        "alpha": value,
        "stderr": stderr,
        "bound": limits.alpha_bound(q),
        "words": pairing_count_estimate(q),
        "method": args.method,
        **_run_meta(args),
    }
    print(_emit_json(payload))
    return EXIT_OK


def cmd_moments(args) -> int:
    q = parse_monomial(args.q)
    dist = InputDistribution(args.dist)
    est = empirical_trace_moment(q, args.n, dist, args.reps, args.seed)
    alpha_limit: Optional[float] = None
    try:
        alpha_limit = limits.alpha(
            q, "mc", samples=args.samples, seed=args.seed, budget=args.budget
        )
    except limits.BudgetExceededError:
        pass
    payload = {
        "q": str(q),
        "n": args.n,
        "mean": est.mean,
        "sd": est.stddev,
        "reps": args.reps,
        "dist": dist.value,
        "alpha_limit": alpha_limit,
        **_run_meta(args, method="simulation"),
    }
    print(_emit_json(payload))
    return EXIT_OK


def cmd_lsd(args) -> int:
    kind_a = LinkKind.from_char(args.a)
    kind_b = LinkKind.from_char(args.b)
    dist = InputDistribution(args.dist)
    report = sum_lsd_report(
        kind_a, kind_b, args.n, dist, args.reps, kmax=args.kmax, bins=args.bins, seed=args.seed
    )
    rows = report.histogram.to_csv_rows()
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["bin_left", "bin_right", "count", "density"])
    for left, right, count, density in rows:
        writer.writerow([_format_float(left), _format_float(right), count, _format_float(density)])
    sidecar = _emit_json({**report.to_json_dict(), **_run_meta(args, method="simulation")})
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(csv_buf.getvalue())
        with open(args.out + ".json", "w") as fh:
            fh.write(sidecar + "\n")
        print(f"wrote {args.out} and {args.out}.json")
    else:
        sys.stdout.write(csv_buf.getvalue())
        print(sidecar, file=sys.stderr)
    return EXIT_OK


def cmd_freeness(args) -> int:
    q = parse_monomial(args.q)
    dist = InputDistribution(args.dist)
    report = freeness_report(
        q,
        n=args.n,
        dist=dist,
        reps=args.reps,
        tol=args.tol,
        samples=args.samples,
        seed=args.seed,
    )
    payload = {**report.to_json_dict(), "n": args.n, **_run_meta(args, method="mc")}
    print(_emit_json(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patrm", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="master RNG seed, taken mod 2^64 (negative seeds alias)"
    )
    common.add_argument(
        "--budget", type=int, default=limits.DEFAULT_BUDGET, help="max enumeration steps"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("words", help="list pair-matched words of a monomial", parents=[common])
    p.add_argument("--q", required=True, help="monomial text, e.g. THTH or 'W1 T1 W2 T1'")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("tables", parents=[common], help="reference word-volume tables as CSV")
    p.add_argument("--method", choices=limits.METHODS, default="mc")
    p.add_argument("--samples", type=_positive_int, default=limits.DEFAULT_MC_SAMPLES)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("pcw", parents=[common], help="limit volume of one word")
    p.add_argument("--q", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--method", choices=limits.METHODS, default="mc")
    p.add_argument("--samples", type=_positive_int, default=limits.DEFAULT_MC_SAMPLES)
    p.set_defaults(func=cmd_pcw)

    p = sub.add_parser("alpha", parents=[common], help="limiting trace moment of a monomial")
    p.add_argument("--q", required=True)
    p.add_argument("--method", choices=limits.METHODS, default="mc")
    p.add_argument("--samples", type=_positive_int, default=limits.DEFAULT_MC_SAMPLES)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("moments", parents=[common], help="simulated trace moment of a monomial")
    p.add_argument("--q", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--dist", default="gaussian", choices=[d.value for d in InputDistribution])
    p.add_argument("--samples", type=_positive_int, default=limits.DEFAULT_MC_SAMPLES)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("lsd", parents=[common], help="spectral report for a scaled sum of two ensembles")
    p.add_argument("--a", required=True, help="first ensemble (W,T,H,R,S)")
    p.add_argument("--b", required=True, help="second ensemble (W,T,H,R,S)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--dist", default="gaussian", choices=[d.value for d in InputDistribution])
    p.add_argument("--out", help="CSV path; JSON sidecar written next to it")
    p.set_defaults(func=cmd_lsd)

    p = sub.add_parser("freeness", parents=[common], help="freeness verdict for a Wigner-mixing monomial")
    p.add_argument("--q", required=True)
    p.add_argument("--n", type=int, default=0, help="simulate empirical moment at this size")
    p.add_argument("--reps", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.03)
    p.add_argument("--dist", default="gaussian", choices=[d.value for d in InputDistribution])
    p.add_argument("--samples", type=_positive_int, default=limits.DEFAULT_MC_SAMPLES)
    p.set_defaults(func=cmd_freeness)

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
    except ValueError as exc:
        print(f"patrm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
