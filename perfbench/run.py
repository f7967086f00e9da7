"""patrm benchmark: one workload, closed loop, one op process at a time.

    python3 perfbench/run.py --workload sweep-cases --seed 1 --seconds 24 --trace 0

Run from the root of a patrm checkout.  The harness starts every op as a
fresh `python` process with PYTHONPATH pointing at the checkout's src/,
exactly as a user runs `python -m patrm.cli`, and checks each op's
output.  A pass runs the workload's whole op list once.  A run makes a
fixed number of passes, --seconds over the workload's nominal pass time,
so that the number does not depend on how fast the code under test is.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics derived from the
traced spans.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# every op process must end by then, so the run exits within 180 s
HARD_LIMIT_S = 165.0
# interpreter starts timed before each pass, so that set-up is sampled
# across the whole run rather than in one burst
SETUP_STARTS_PER_PASS = 5

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s", "op_tail_s": "s"}


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0
    # per sweep process: wall time not spent inside its ops (start-up, import)
    overheads: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    minflt: int = 0
    # per op label
    latencies: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    traces: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


def op_tail(values: list[float]) -> tuple[float, int, int]:
    """(value, rank, count) of the highest percentile with >= 10 ops beyond it.

    Ranks are 1-based in ascending order.  With 10 ops or fewer no
    percentile has ten beyond it, and the slowest op is reported.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - 10 if n > 10 else n
    return xs[rank - 1], rank, n


def fastest(per_pass) -> list[float]:
    """Each label's smallest value over the passes that recorded it."""
    best: dict = {}
    for values in per_pass:
        for label, value in values.items():
            best[label] = min(value, best.get(label, value))
    return list(best.values())


class Runner:
    """Spawns op processes and collects their output and resource use."""

    def __init__(self, work: Path, seed: int, start: float):
        self.work = work
        self.seed = seed
        self.deadline = start + HARD_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self._pid = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._pid is not None:
            try:
                os.kill(self._pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def spawn(self, argv: list[str]):
        """Run one process to completion: (returncode, stdout, stderr, wall_s, rusage)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            self._pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.perf_counter(), 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._pid = None
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_text(), err_path.read_text(), wall, usage

    def setup_times(self, count: int) -> list[float]:
        """Wall times of `count` interpreter starts that each import patrm.cli."""
        times = []
        for _ in range(count):
            rc, _, err, wall, _ = self.spawn([sys.executable, "-c", "import patrm.cli"])
            if rc != 0:
                raise RuntimeError(f"cannot import patrm from {SRC}: {err.strip()}")
            times.append(wall)
        return times

    def run_pass(self, workload, traced: bool, index: int) -> PassResult:
        from workloads import ProcResult, check_sweep_row

        res = PassResult(traced)
        seed = str(self.seed)
        procs = [(f"sweep W{kind}", None, ["--kind", kind, "--seed", seed]) for kind in workload.sweep_kinds]
        procs += [(" ".join(op.argv), op, [*op.argv, "--seed", seed]) for op in workload.cli_ops]
        for op_id, (label, op, args) in enumerate(procs):
            trace_path = self.work / f"spans-{index}-{op_id}.json"
            if op is None:
                argv = [str(CHILD), "sweep", *args] + (["--trace", str(trace_path)] if traced else [])
            elif traced:
                argv = [str(CHILD), "cli", "--trace", str(trace_path), "--op", str(op_id), "--", *args]
            else:
                argv = ["-m", "patrm.cli", *args]
            argv = [sys.executable, *argv]
            rc, out, err, wall, usage = self.spawn(argv)
            res.wall += wall
            res.peak_rss_mb = max(res.peak_rss_mb, usage.ru_maxrss / 1024.0)
            res.minflt += usage.ru_minflt
            if traced and trace_path.exists():
                res.traces.append(json.loads(trace_path.read_text()))
                trace_path.unlink()
            if op is not None:
                res.attempted += 1
                res.latencies[label] = wall
                errs = op.check(ProcResult(rc, out, err))
                res.failures.extend(f"{label}: {e}" for e in errs)
                res.outputs.append((label, rc, out, err))
                continue
            # an in-process sweep: one op per monomial
            try:
                rows = json.loads(out.strip().splitlines()[-1])["ops"] if rc == 0 else None
            except (IndexError, json.JSONDecodeError, KeyError):
                rows = None
            if rows is None:
                res.attempted += 1
                res.failures.append(f"sweep {label}: exit code {rc}: {err.strip()[-300:]}")
                res.overheads[label] = wall
                continue
            res.overheads[label] = wall - sum(row[4] for row in rows)
            for row in rows:
                res.attempted += 1
                res.latencies[row[0]] = row[4]
                res.failures.extend(check_sweep_row(row))
            res.outputs.append((label, rc, json.dumps([r[:4] for r in rows]), err))
        return res


def env_info() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    watched = ("THREAD", "MALLOC_", "GLIBC_TUNABLES", "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "vars": {k: v for k, v in sorted(os.environ.items()) if any(w in k for w in watched)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "patrm" / "__init__.py").is_file():
        print(f"perfbench: no patrm sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# env {json.dumps(env_info(), sort_keys=True)}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), args.seed, start)
        runner.setup_times(1)  # warm-up: byte-compiles the sources on a fresh checkout
        setup: list[list[float]] = []
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        pass_count = max(1, int(args.seconds // (workload.pass_s * (2 if args.trace else 1))))
        longest = 0.0
        for index in range(pass_count):
            if time.perf_counter() - start + longest > HARD_LIMIT_S:
                print(f"# stopped after {index} of {pass_count} passes: one more would overrun {HARD_LIMIT_S:g} s")
                break
            t0 = time.perf_counter()
            if not args.trace:
                setup.append(runner.setup_times(SETUP_STARTS_PER_PASS))
            pair = [runner.run_pass(workload, False, index)]
            if args.trace:
                pair.append(runner.run_pass(workload, True, index))
                traced.append(pair[1])
                if pair[0].outputs != pair[1].outputs:
                    pair[1].failures.append("traced op output differs from untraced op output")
            plain.append(pair[0])
            for p in pair:
                tag = "traced" if p.traced else "untraced"
                print(
                    f"pass {len(plain)} {tag}: {p.wall:.3f} s, {p.attempted} ops, "
                    f"peak rss {p.peak_rss_mb:.1f} MB, failed {len(p.failures)}"
                )
                for msg in p.failures[:5]:
                    print(f"  FAILED {msg}")
            longest = max(longest, time.perf_counter() - t0)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"# {len(plain)} passes in {time.perf_counter() - start:.1f} s (--seconds {args.seconds:g})")

    if not args.trace:
        # The host's speed drifts by tens of percent over seconds, so each op,
        # and each set-up start position, counts with its fastest pass.
        best_overheads = fastest(p.overheads for p in plain)
        best_ops = fastest(p.latencies for p in plain)
        tail, rank, count = op_tail(best_ops)
        metrics = {
            "wall_s": sum(best_overheads) + sum(best_ops),
            "setup_s": statistics.median(min(col) for col in zip(*setup)),
            "peak_rss_mb": max(p.peak_rss_mb for p in plain),
            "op_p50_s": statistics.median(best_ops),
            "op_tail_s": tail,
        }
        print(
            f"wall_s = {metrics['wall_s']:.6g} s (sum over {count} ops and {len(best_overheads)} sweep processes "
            f"of each one's fastest of {len(plain)} passes; median pass {statistics.median(p.wall for p in plain):.4g} s)"
        )
        print(
            f"setup_s = {metrics['setup_s']:.6g} s (median over {SETUP_STARTS_PER_PASS} start positions "
            f"of each one's fastest of {len(setup)} passes)"
        )
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (largest op process)")
        print(f"op_p50_s = {metrics['op_p50_s']:.6g} s (median of {count} ops, each at its fastest pass)")
        print(f"op_tail_s = {tail:.6g} s (p{100 * rank / count:.4g}, rank {rank} of {count} ops)")
        out = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}
    else:
        summaries = [summarize(p.traces, p.wall) for p in traced]
        layer = {name: statistics.median(s[0][name] for s in summaries) for name in summaries[0][0]}
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(p.wall for p in plain)
        layer["trace.proc_minflt"] = statistics.median(p.minflt for p in traced)
        stages = {name: statistics.median(s[1][name] for s in summaries) for name in summaries[0][1]}
        wall = layer["trace.wall_s"]
        for name, value in stages.items():
            print(f"stage {name}: {value:.4f} s ({100 * value / wall:.1f} % of traced wall)")
        predicted = sum(stages[s] for s in workload.predicted)
        others = sum(v for s, v in stages.items() if s not in workload.predicted)
        top = max(stages, key=stages.get)
        verdict = "confirmed" if predicted > others else f"MISMATCH (largest stage is {top})"
        print(
            f"dominant stage: predicted {'+'.join(workload.predicted)} "
            f"{100 * predicted / wall:.1f} % vs other stages {100 * others / wall:.1f} % -> {verdict}"
        )
        for name, value in layer.items():
            print(f"{name} = {value:.6g} {layer_unit(name)}")
        out = {name: {"value": value, "unit": layer_unit(name)} for name, value in layer.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_flops"):
        return "flop"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
