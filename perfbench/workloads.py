"""The benchmark's workloads: fixed op lists and the check of every op.

A workload is a list of op processes run one after another, each in a
fresh interpreter, so that patrm's module-level word cache and the
allocator start cold as they do for a user.  `sweep-cases` runs its ops
in-process (one process per ensemble pair); the other workloads run one
`patrm` CLI command per process.  The workload seed is appended to every
command as `--seed`.

Each check returns a list of failure messages; an empty list means the
op's output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

from patrm.reference_tables import ALL_ROWS

# C5's freeness tolerance on |alpha - free prediction|
FREENESS_TOL = 0.03
# the tables command's own tolerance, applied here against the verified value
TABLE_TOL = 0.02
# C1's tolerance for the exact route (Richardson extrapolation at finite n)
EXACT_TOL = 0.05
# a simulated moment must lie within this many standard errors of its limit
MOMENT_Z = 6.0
# a Monte Carlo limit must lie within this many standard errors of a closed form
CLOSED_FORM_Z = 6.0


@dataclass(frozen=True)
class ProcResult:
    """What one op process left behind."""

    returncode: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class CliOp:
    """One `patrm` command and the check of its output."""

    argv: tuple[str, ...]
    check: Callable[[ProcResult], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    # ensemble characters of the in-process sweep processes, if any
    sweep_kinds: tuple[str, ...]
    cli_ops: tuple[CliOp, ...]
    # stages (see tracing.STAGES) predicted to dominate the traced wall time
    predicted: tuple[str, ...]
    # nominal seconds of one pass, its set-up starts included, on the 2-CPU
    # machine described in NOTES.md; fixes the number of passes a run makes
    pass_s: float


def _double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2)) if m > 0 else 1


def _json_stdout(r: ProcResult) -> tuple[Optional[dict], list[str]]:
    if r.returncode != 0:
        return None, [f"exit code {r.returncode}: {r.stderr.strip()[-300:]}"]
    try:
        return json.loads(r.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def check_alpha(words: int, exact: Optional[float] = None):
    """alpha finite and <= its bound; word count and closed form, if known."""

    def check(r: ProcResult) -> list[str]:
        d, errs = _json_stdout(r)
        if d is None:
            return errs
        value, stderr, bound = d["alpha"], d["stderr"], d["bound"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            return [f"alpha {value!r} is not finite"]
        if value > bound:
            errs.append(f"alpha {value} exceeds bound {bound}")
        if d["words"] != words:
            errs.append(f"{d['words']} words, expected {words}")
        if exact is not None and abs(value - exact) > CLOSED_FORM_Z * stderr + 1e-9:
            errs.append(f"alpha {value} +- {stderr} is not the closed form {exact}")
        return errs

    return check


def check_tables(r: ProcResult) -> list[str]:
    """Every reference row within TABLE_TOL of p_true.

    The command compares against the published values, so it exits 2 and
    names on stderr exactly the rows whose published value is defective.
    """
    flagged = [row for row in ALL_ROWS if row.p_verified is not None]
    want_rc = 2 if flagged else 0
    errs = []
    if r.returncode != want_rc:
        errs.append(f"exit code {r.returncode}, expected {want_rc}: {r.stderr.strip()[-300:]}")
    rows = list(csv.reader(io.StringIO(r.stdout)))
    if not rows or rows[0] != ["monomial", "word", "p_paper", "p_computed", "abs_err"]:
        return errs + ["missing CSV header"]
    body = rows[1:]
    if len(body) != len(ALL_ROWS):
        return errs + [f"{len(body)} table rows, expected {len(ALL_ROWS)}"]
    for ref, row in zip(ALL_ROWS, body):
        if (row[0], row[1]) != (ref.monomial, ref.word):
            errs.append(f"row {row[:2]} out of order, expected {(ref.monomial, ref.word)}")
            continue
        p = float(row[3])
        if not math.isfinite(p) or abs(p - float(ref.p_true)) > TABLE_TOL:
            errs.append(f"({ref.monomial}, {ref.word}) = {p}, expected {float(ref.p_true)}")
    named = [line for line in r.stderr.splitlines() if line.startswith("tables: |err|")]
    if len(named) != len(flagged) or any(f"({row.monomial}, {row.word})" not in "\n".join(named) for row in flagged):
        errs.append(f"stderr names {named}, expected the rows {[(x.monomial, x.word) for x in flagged]}")
    return errs


def check_pcw(expected: float):
    """The exact route's word volume within EXACT_TOL of its known value."""

    def check(r: ProcResult) -> list[str]:
        d, errs = _json_stdout(r)
        if d is None:
            return errs
        p = d["p"]
        if d["method"] != "exact":
            errs.append(f"method {d['method']}, expected exact")
        if not (isinstance(p, (int, float)) and math.isfinite(p)) or abs(p - expected) > EXACT_TOL:
            errs.append(f"p {p!r}, expected {expected} within {EXACT_TOL}")
        return errs

    return check


def check_moments(r: ProcResult) -> list[str]:
    """Simulated moment within MOMENT_Z standard errors of alpha_limit."""
    d, errs = _json_stdout(r)
    if d is None:
        return errs
    mean, sd, reps, limit = d["mean"], d["sd"], d["reps"], d["alpha_limit"]
    if limit is None or not math.isfinite(mean) or not math.isfinite(sd):
        return [f"mean {mean!r}, sd {sd!r}, limit {limit!r}"]
    se = sd / math.sqrt(reps)
    if abs(mean - limit) > MOMENT_Z * se:
        errs.append(f"mean {mean} is {abs(mean - limit) / se:.1f} standard errors from the limit {limit}")
    return errs


def check_lsd(n: int, reps: int):
    """Histogram density integrates to 1 and counts every eigenvalue."""

    def check(r: ProcResult) -> list[str]:
        if r.returncode != 0:
            return [f"exit code {r.returncode}: {r.stderr.strip()[-300:]}"]
        rows = list(csv.reader(io.StringIO(r.stdout)))
        if not rows or rows[0] != ["bin_left", "bin_right", "count", "density"]:
            return ["missing CSV header"]
        mass = sum((float(b) - float(a)) * float(dens) for a, b, _, dens in rows[1:])
        count = sum(int(c) for _, _, c, _ in rows[1:])
        errs = []
        if not abs(mass - 1.0) <= 1e-9:
            errs.append(f"density integrates to {mass}")
        if count != n * reps:
            errs.append(f"histogram counts {count} eigenvalues, expected {n * reps}")
        try:
            json.loads(r.stderr.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            errs.append("sidecar on stderr is not JSON")
        return errs

    return check


def check_sweep_row(row: list) -> list[str]:
    """alpha finite, within its bound, and equal to the free prediction (C5)."""
    q, value, pred, bound, _ = row
    if not (math.isfinite(value) and math.isfinite(pred)):
        return [f"{q}: alpha {value}, prediction {pred}"]
    errs = []
    if value > bound:
        errs.append(f"{q}: alpha {value} exceeds bound {bound}")
    if abs(value - pred) > FREENESS_TOL:
        errs.append(f"{q}: |alpha - prediction| = {abs(value - pred)} > {FREENESS_TOL}")
    return errs


def _moments(q: str, n: int, reps: int = 10) -> CliOp:
    return CliOp(("moments", "--q", q, "--n", str(n), "--reps", str(reps)), check_moments)


def _lsd(a: str, b: str, n: int, reps: int = 4) -> CliOp:
    return CliOp(("lsd", "--a", a, "--b", b, "--n", str(n), "--reps", str(reps)), check_lsd(n, reps))


# Why each workload is here: see NOTES.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # the symbolic case engine, with repeated words
        Workload("sweep-cases", ("R", "T"), (), ("case_engine",), 11.5),
        # the Monte Carlo volume kernel, no repeated words
        Workload(
            "alpha-volume",
            (),
            (
                CliOp(("alpha", "--q", "TTTTTTTT"), check_alpha(_double_factorial(7))),
                CliOp(("alpha", "--q", "HHHHHHHH"), check_alpha(_double_factorial(7))),
                CliOp(("alpha", "--q", "SSSSSS"), check_alpha(_double_factorial(5), exact=_double_factorial(5))),
                CliOp(("alpha", "--q", "RRRRRR"), check_alpha(_double_factorial(5), exact=math.factorial(3))),
                CliOp(("alpha", "--q", "WWWWWWWW"), check_alpha(_double_factorial(7), exact=math.comb(8, 4) // 5)),
                CliOp(("alpha", "--q", "THTHTHTH"), check_alpha(_double_factorial(3) ** 2)),
                CliOp(("tables", "--method", "mc"), check_tables),
            ),
            ("mc_volume",),
            11.5,
        ),
        # the exact circuit counter, which no other workload runs
        Workload(
            "tables-exact",
            (),
            (
                CliOp(("tables", "--method", "exact"), check_tables),
                # reverse circulant: volume 1 when every letter joins an odd and an even position
                CliOp(("pcw", "--q", "RRRRRRRR", "--word", "abcdbcda", "--method", "exact"), check_pcw(1.0)),
                # a Catalan (non-crossing) word has volume 1 for every kind
                CliOp(("pcw", "--q", "TTTTHHHH", "--word", "abbacddc", "--method", "exact"), check_pcw(1.0)),
            ),
            ("exact_counter",),
            10.0,
        ),
        # matrix fill, contraction, eigensolve and histogram over all five kinds
        Workload(
            "simulate",
            (),
            (
                _moments("W1T1W2T1", 800),
                _moments("THTH", 800),
                _moments("HHHH", 1000),
                _moments("RRSS", 1000),
                _moments("S1S2S1S2", 800),
                _lsd("T", "H", 1000),
                _lsd("R", "S", 800),
                _lsd("W", "S", 800),
            ),
            ("matrix_fill", "contraction", "eigensolve", "histogram"),
            7.5,
        ),
    )
}
