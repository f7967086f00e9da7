"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from patrm import freeness, limits, sampler, spectra  # noqa: E402
from patrm.algebra import parse_monomial, word_from_text  # noqa: E402
from patrm.linkfns import LinkKind  # noqa: E402

import workloads  # noqa: E402
from run import fastest, op_tail  # noqa: E402
from tracing import TRACED, Tracer, summarize  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def traced_metrics(call) -> dict:
    """Per-layer metrics of `call()`, which must look patrm functions up when run."""
    with Tracer() as tracer:
        call()
    return summarize([tracer.dump()], 1.0)[0]


def test_op_tail_is_highest_percentile_with_ten_ops_beyond():
    assert op_tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90, 100)
    assert op_tail([float(x) for x in range(1, 12)]) == (1.0, 1, 11)
    # with ten ops or fewer nothing has ten beyond it: the slowest op
    assert op_tail([3.0, 1.0, 2.0]) == (3.0, 3, 3)


def test_fastest_keys_ops_by_label_across_passes():
    # a pass that lost an op (a failed sweep process) does not shift the others
    passes = [{"a": 3.0, "b": 2.0, "c": 5.0}, {"a": 1.0, "c": 6.0}, {"b": 4.0, "c": 4.0}]
    assert fastest(passes) == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("k", [2, 3])
def test_case_and_word_counts_match_combinatorics(k):
    # every S match has six cases; S^(2k) has (2k-1)!! pair-matched words
    m = traced_metrics(lambda: limits.alpha(parse_monomial("S" * (2 * k)), "mc", samples=100, seed=1))
    words = workloads._double_factorial(2 * k - 1)
    assert m["algebra.words"] == words
    assert m["limits.cases"] == words * 6**k
    assert m["limits.p_limit.calls"] == words
    assert m["limits.word_cache_hit_ratio"] == 0.0


def test_cases_for_ssssss_are_3240():
    m = traced_metrics(lambda: limits.alpha(parse_monomial("SSSSSS"), "mc", samples=100, seed=2))
    assert m["limits.cases"] == 15 * 6**3 == 3240
    assert m["limits.cases_killed_identity"] + m["limits.cases_deduped"] + m["limits.systems_evaluated"] == 3240


def test_exact_cells_equal_exact_count_work():
    w = word_from_text("abab", parse_monomial("THTH"))
    m = traced_metrics(lambda: limits.count_circuits_exact(w, 12))
    assert m["limits.exact_cells"] == limits.exact_count_work(w, 12) > 0
    assert m["linkfns.solve_branch_grid.calls"] > 0


def test_mc_counters_split_sampled_and_short_circuit_calls():
    m = traced_metrics(lambda: limits.alpha(parse_monomial("THTH"), "mc", samples=1000, seed=3))
    sampled = m["limits.systems_evaluated"] - m["limits.mc_short_circuit"]
    assert sampled >= 1
    assert m["limits.mc_samples"] == 1000 * sampled
    assert m["limits.mc_bytes"] > 8 * m["limits.mc_samples"]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_install_reaches_every_namespace_and_uninstall_restores():
    import patrm.cli  # noqa: F401

    originals = [_resolve(mod, attr) for mod, attr in TRACED]
    patrm_modules = [m for name, m in sys.modules.items() if name == "patrm" or name.startswith("patrm.")]
    with Tracer():
        # e.g. limits.solve_branch_grid, spectra.sample_matrix, freeness.sample_matrix
        for module in patrm_modules:
            for value in vars(module).values():
                assert not any(value is fn for fn in originals), f"{module.__name__} keeps an unwrapped callable"
        assert limits.ConstraintSystem.identity_ok is not originals[TRACED.index(("patrm.limits", "ConstraintSystem.identity_ok"))]
        assert spectra.sample_matrix is freeness.sample_matrix is sampler.sample_matrix
    assert [_resolve(mod, attr) for mod, attr in TRACED] == originals
    assert limits.solve_branch_grid is originals[TRACED.index(("patrm.linkfns", "solve_branch_grid"))]


def test_traced_spans_cover_sampler_and_spectra():
    q = parse_monomial("THTH")
    m = traced_metrics(lambda: sampler.empirical_trace_moment(q, 40, sampler.InputDistribution.GAUSSIAN, 3, 5))
    assert m["sampler.sample_matrix.calls"] == 6
    assert m["sampler.entries_filled"] == 6 * 40 * 40
    assert m["sampler.contract_flops"] == 3 * (2 * 2 * 40**3 + 2 * 40**2)
    kind = LinkKind.TOEPLITZ
    m = traced_metrics(lambda: spectra.sum_lsd_report(kind, kind, 30, sampler.InputDistribution.GAUSSIAN, 2))
    assert m["spectra.eigenvalues_symmetric.calls"] == 2
    assert m["spectra.eig_n3"] == 2 * 30**3


CLI_OPS = [
    ("alpha", "--q", "THTH", "--samples", "20000"),
    ("pcw", "--q", "THTH", "--word", "abab", "--method", "exact"),
    ("tables", "--samples", "2000"),
    ("moments", "--q", "W1T1W2T1", "--n", "60", "--reps", "3"),
    ("lsd", "--a", "T", "--b", "H", "--n", "60", "--reps", "2"),
]


@pytest.mark.parametrize("argv", CLI_OPS, ids=lambda a: a[0])
def test_traced_cli_output_is_byte_identical(argv, tmp_path):
    argv = [*argv, "--seed", "7"]
    plain = subprocess.run([sys.executable, "-m", "patrm.cli", *argv], capture_output=True, env=ENV, cwd=ROOT)
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", "--trace", str(spans), "--", *argv],
        capture_output=True, env=ENV, cwd=ROOT,
    )
    assert (traced.returncode, traced.stdout, traced.stderr) == (plain.returncode, plain.stdout, plain.stderr)
    assert json.loads(spans.read_text())["spans"]


def test_traced_sweep_output_is_identical():
    from child import run_sweep

    limits._P_CACHE.clear()
    plain = run_sweep("T", 4, 4)
    limits._P_CACHE.clear()
    with Tracer() as tracer:
        traced = run_sweep("T", 4, 4, tracer)
    assert [r[:4] for r in plain] == [r[:4] for r in traced]
    assert len(plain) == 2 + 6 + 14
    assert not any(err for row in plain for err in workloads.check_sweep_row(row))


def test_checks_reject_wrong_output():
    bad_rc = workloads.ProcResult(0, "monomial,word,p_paper,p_computed,abs_err\n", "")
    assert workloads.check_tables(bad_rc)
    lsd = workloads.check_lsd(2, 1)
    half = "bin_left,bin_right,count,density\n0,1,1,0.25\n1,2,1,0.25\n"
    assert lsd(workloads.ProcResult(0, half, "{}\n"))
    whole = "bin_left,bin_right,count,density\n0,1,1,0.5\n1,2,1,0.5\n"
    assert not lsd(workloads.ProcResult(0, whole, "{}\n"))
    far = json.dumps({"mean": 1.5, "sd": 0.1, "reps": 4, "alpha_limit": 1.0})
    assert workloads.check_moments(workloads.ProcResult(0, far, ""))
    over = json.dumps({"alpha": 16.0, "stderr": 0.0, "bound": 15.0, "words": 15})
    assert workloads.check_alpha(15, exact=6)(workloads.ProcResult(0, over, ""))
    assert workloads.check_sweep_row(["WWTT", 1.0, 1.1, 3.0, 0.0])


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
