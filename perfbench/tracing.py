"""Span tracing of the patrm package from outside its source tree.

`Tracer.install()` replaces every callable in TRACED with a wrapper that
records one span per call: [name id, start, end, parent span, op id,
extra].  The wrapper is put into every patrm namespace that holds the
original object, so a call made through a `from .x import f` copy, or
through a method lookup on the class, is traced as well.  Spans stay in
memory until `write()` dumps them as JSON; `summarize()` turns the spans
of one pass over a workload's op list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

import numpy as np

# (module, attribute path) of every traced callable.  The span name is the
# module's last dotted component plus the attribute path; the layer is the
# module.
TRACED = (
    ("patrm.cli", "main"),
    ("patrm.algebra", "enumerate_pair_matched_words"),
    ("patrm.limits", "alpha"),
    ("patrm.limits", "alpha_estimate"),
    ("patrm.limits", "p_limit_cached"),
    ("patrm.limits", "p_limit"),
    ("patrm.limits", "build_cases"),
    ("patrm.limits", "resolve_affine"),
    ("patrm.limits", "ConstraintSystem.identity_ok"),
    ("patrm.limits", "ConstraintSystem.canonical_key"),
    ("patrm.limits", "case_volume_mc"),
    ("patrm.limits", "count_circuits_exact"),
    ("patrm.linkfns", "solve_branch_grid"),
    ("patrm.linkfns", "lvalue_key_grid"),
    ("patrm.sampler", "sample_matrix"),
    ("patrm.sampler", "trace_moment_samples"),
    ("patrm.sampler", "empirical_trace_moment"),
    ("patrm.spectra", "eigenvalues_symmetric"),
    ("patrm.spectra", "esd"),
    ("patrm.spectra", "sum_lsd_report"),
    ("patrm.freeness", "free_moment_prediction"),
    ("patrm.freeness", "sigma_gamma_cycles"),
    ("patrm.freeness", "freeness_report"),
)

LAYERS = ("cli", "algebra", "linkfns", "limits", "sampler", "spectra", "freeness")

# Disjoint stages of the pipeline: (span name, "busy" or "self" time).
# identity_ok counts toward the case engine only where p_limit filters
# cases with it; inside case_volume_mc it re-checks a survivor.
STAGES = {
    "words": (("algebra.enumerate_pair_matched_words", "busy"),),
    "case_engine": (
        ("limits.build_cases", "busy"),
        ("limits.resolve_affine", "busy"),
        ("limits.ConstraintSystem.identity_ok", "busy"),
        ("limits.ConstraintSystem.canonical_key", "busy"),
    ),
    "mc_volume": (("limits.case_volume_mc", "busy"),),
    "exact_counter": (("limits.count_circuits_exact", "busy"),),
    "matrix_fill": (("sampler.sample_matrix", "busy"),),
    "contraction": (("sampler.trace_moment_samples", "self"),),
    "eigensolve": (("spectra.eigenvalues_symmetric", "busy"),),
    "histogram": (("spectra.esd", "self"),),
}


def _span_name(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + attr


def _contract_flops(q, n: int, reps: int) -> int:
    # dense products of the first k-1 factors, then one elementwise
    # multiply-and-sum with the last factor
    k = len(q)
    if k == 1:
        return reps * n
    return reps * ((k - 2) * 2 * n**3 + 2 * n**2)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        post = self._post_hook(name, fn)
        count_faults = name == "limits.count_circuits_exact"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            if count_faults:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                rec[5] = post(args, kwargs, result, rec[5])
            if count_faults:
                rec[5].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            return result

        return wrapper

    def _post_hook(self, name: str, fn):
        """Function computing a span's extra field from the call, or None."""
        sig = inspect.signature(fn)

        def arg(args, kwargs, key):
            return sig.bind(*args, **kwargs).arguments.get(key, sig.parameters[key].default)

        if name in ("algebra.enumerate_pair_matched_words", "limits.build_cases"):
            return lambda a, k, result, _: len(result)
        if name == "limits.ConstraintSystem.identity_ok":
            return lambda a, k, result, _: int(result)
        if name == "limits.case_volume_mc":
            # [samples, dim, drew samples]; the default_rng hook sets the flag
            return lambda a, k, result, drew: [arg(a, k, "samples"), arg(a, k, "cs").dim, int(bool(drew))]
        if name == "limits.count_circuits_exact":
            limits = sys.modules["patrm.limits"]
            work = limits.exact_count_work
            return lambda a, k, result, _: [work(arg(a, k, "w"), arg(a, k, "n"))]
        if name == "sampler.sample_matrix":
            return lambda a, k, result, _: arg(a, k, "n")
        if name == "sampler.trace_moment_samples":
            return lambda a, k, result, _: _contract_flops(arg(a, k, "q"), arg(a, k, "n"), arg(a, k, "reps"))
        if name == "spectra.eigenvalues_symmetric":
            return lambda a, k, result, _: int(np.shape(arg(a, k, "M"))[0])
        return None

    def _rng_hook(self, fn):
        # marks the enclosing case_volume_mc span as one that drew samples
        spans, stack = self.spans, self.stack
        mc_id = self.names.index("limits.case_volume_mc")

        @functools.wraps(fn)
        def default_rng(*args, **kwargs):
            if stack and spans[stack[-1]][0] == mc_id:
                spans[stack[-1]][5] = 1
            return fn(*args, **kwargs)

        return default_rng

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every TRACED callable in every namespace that refers to it."""
        for module_name, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items()) if key == "patrm" or key.startswith("patrm.")]
        for module_name, attr in TRACED:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, leaf)
            wrapper = self._wrap(_span_name(module_name, attr), original)
            self._set(owner, leaf, wrapper)
            if path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        self._set(np.random, "default_rng", self._rng_hook(np.random.default_rng))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


# -- analysis ---------------------------------------------------------------


def _process_totals(trace: dict) -> dict:
    """Per-name calls, busy time, self time and extras of one process."""
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    t = {
        "calls": {}, "busy": {}, "self": {}, "extras": {}, "root_s": 0.0, "spans": len(spans),
        "cache_calls": 0, "cache_hits": 0, "identity_filter_busy": 0.0, "partitions": 0,
    }
    for i, rec in enumerate(spans):
        name = names[rec[0]]
        parent = names[spans[rec[3]][0]] if rec[3] >= 0 else None
        dur = rec[2] - rec[1]
        t["calls"][name] = t["calls"].get(name, 0) + 1
        t["self"][name] = t["self"].get(name, 0.0) + dur - child_time[i]
        # busy time counts a span only when no ancestor has the same name
        # (p_limit re-enters itself on the exact-to-mc fallback)
        p = rec[3]
        while p >= 0 and spans[p][0] != rec[0]:
            p = spans[p][3]
        if p < 0:
            t["busy"][name] = t["busy"].get(name, 0.0) + dur
        if parent is None:
            t["root_s"] += dur
        if rec[5] is not None:
            t["extras"].setdefault(name, []).append((rec[5], parent))
        # a p_limit_cached call hits unless it calls p_limit
        if name == "limits.p_limit_cached":
            t["cache_calls"] += 1
            t["cache_hits"] += 1
        elif name == "limits.p_limit" and parent == "limits.p_limit_cached":
            t["cache_hits"] -= 1
        # p_limit's case filter, not the re-check inside case_volume_mc
        elif name == "limits.ConstraintSystem.identity_ok" and parent == "limits.p_limit":
            t["identity_filter_busy"] += dur
        elif name == "freeness.sigma_gamma_cycles" and parent == "freeness.free_moment_prediction":
            t["partitions"] += 1
    return t


def summarize(traces: list[dict], traced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and per-stage busy times of one traced pass.

    `traces` holds the dumps of every process of the pass; `traced_wall`
    is the pass's wall time with tracing on.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    extras: dict[str, list] = {}
    totals = {"root_s": 0.0, "cache_calls": 0, "cache_hits": 0, "identity_filter_busy": 0.0, "partitions": 0, "spans": 0}
    for trace in traces:
        t = _process_totals(trace)
        for src, dst in ((t["calls"], calls), (t["busy"], busy), (t["self"], self_s)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        for key, value in t["extras"].items():
            extras.setdefault(key, []).extend(value)
        for key in totals:
            totals[key] += t[key]

    def ex(name):
        return [value for value, _ in extras.get(name, [])]

    mc = ex("limits.case_volume_mc")
    sampled = [(samples, dim) for samples, dim, drew in mc if drew]
    exact = ex("limits.count_circuits_exact")
    identity = extras.get("limits.ConstraintSystem.identity_ok", [])
    cases = sum(ex("limits.build_cases"))
    systems = calls.get("limits.case_volume_mc", 0)
    m = {
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "algebra.words": sum(ex("algebra.enumerate_pair_matched_words")),
        "algebra.enumerate_pair_matched_words.busy_s": busy.get("algebra.enumerate_pair_matched_words", 0.0),
        "limits.cases": cases,
        "limits.resolve_affine.busy_s": busy.get("limits.resolve_affine", 0.0),
        "limits.cases_killed_identity": sum(
            1 for ok, parent in identity if not ok and parent == "limits.p_limit"
        ),
        "limits.cases_deduped": calls.get("limits.ConstraintSystem.canonical_key", 0) - systems,
        "limits.systems_evaluated": systems,
        "limits.case_yield": systems / cases if cases else 0.0,
        "limits.p_limit.calls": calls.get("limits.p_limit", 0),
        "limits.word_cache_hit_ratio": (
            totals["cache_hits"] / totals["cache_calls"] if totals["cache_calls"] else 0.0
        ),
        "limits.case_volume_mc.busy_s": busy.get("limits.case_volume_mc", 0.0),
        "limits.mc_samples": sum(s for s, _ in sampled),
        "limits.mc_short_circuit": len(mc) - len(sampled),
        "limits.mc_bytes": sum(s * d * 8 for s, d in sampled),
        "limits.count_circuits_exact.busy_s": busy.get("limits.count_circuits_exact", 0.0),
        "limits.exact_cells": sum(cells for cells, _ in exact),
        "limits.count_circuits_exact.minflt": sum(faults for _, faults in exact),
        "linkfns.solve_branch_grid.calls": calls.get("linkfns.solve_branch_grid", 0),
        "linkfns.solve_branch_grid.busy_s": busy.get("linkfns.solve_branch_grid", 0.0),
        "linkfns.lvalue_key_grid.busy_s": busy.get("linkfns.lvalue_key_grid", 0.0),
        "sampler.sample_matrix.calls": calls.get("sampler.sample_matrix", 0),
        "sampler.sample_matrix.busy_s": busy.get("sampler.sample_matrix", 0.0),
        "sampler.entries_filled": sum(n * n for n in ex("sampler.sample_matrix")),
        "sampler.trace_moment_samples.self_s": self_s.get("sampler.trace_moment_samples", 0.0),
        "sampler.contract_flops": sum(ex("sampler.trace_moment_samples")),
        "spectra.eigenvalues_symmetric.calls": calls.get("spectra.eigenvalues_symmetric", 0),
        "spectra.eigenvalues_symmetric.busy_s": busy.get("spectra.eigenvalues_symmetric", 0.0),
        "spectra.eig_n3": sum(n**3 for n in ex("spectra.eigenvalues_symmetric")),
        "spectra.esd.busy_s": busy.get("spectra.esd", 0.0),
        "spectra.sum_lsd_report.self_s": self_s.get("spectra.sum_lsd_report", 0.0),
        "freeness.free_moment_prediction.self_s": self_s.get("freeness.free_moment_prediction", 0.0),
        "freeness.partitions": totals["partitions"],
        "trace.wall_s": traced_wall,
        "trace.outside_s": traced_wall - totals["root_s"],
        "trace.spans": totals["spans"],
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    times = {"busy": busy, "self": self_s}
    stages = {stage: sum(times[kind].get(name, 0.0) for name, kind in spans) for stage, spans in STAGES.items()}
    # the case engine excludes identity re-checks made inside case_volume_mc
    stages["case_engine"] += totals["identity_filter_busy"] - busy.get("limits.ConstraintSystem.identity_ok", 0.0)
    return m, stages
