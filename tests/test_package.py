import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path


def _load_tracing():
    # the benchmark's tracer names the package callables it wraps; it is
    # loaded read-only from its file, outside the package
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# parameters the tracer reads by name from the calls it records
TRACED_PARAMETERS = {
    ("patrm.limits", "case_volume_mc"): ("cs", "samples"),
    ("patrm.limits", "count_circuits_exact"): ("w", "n"),
    ("patrm.sampler", "sample_matrix"): ("n",),
    ("patrm.sampler", "trace_moment_samples"): ("q", "n", "reps"),
    ("patrm.spectra", "eigenvalues_symmetric"): ("M",),
}


def test_benchmark_hooks_resolve():
    for module_name, attr in _load_tracing().TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        params = inspect.signature(owner).parameters
        for name in TRACED_PARAMETERS.get((module_name, attr), ()):
            assert name in params, (module_name, attr, name)
    # names the benchmark's own tests patch or clear
    from patrm import freeness, limits, linkfns, sampler, spectra

    assert freeness.sample_matrix is spectra.sample_matrix is sampler.sample_matrix
    assert limits.solve_branch_grid is linkfns.solve_branch_grid
    assert isinstance(limits._P_CACHE, dict)


# the settable parameters of the public API, exactly: a change that raises
# or lowers the count edits this number and says why
SETTABLE_PARAMETERS = 145


def _parameter_count(obj) -> int:
    try:
        return len(inspect.signature(obj).parameters)
    except ValueError:
        # exception classes built on builtin types have no signature
        return 0


def test_settable_parameter_count_does_not_rise():
    import patrm

    total = 0
    for info in pkgutil.iter_modules(patrm.__path__):
        module = importlib.import_module(f"patrm.{info.name}")
        for name, obj in vars(module).items():
            public = not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            if not public or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            total += _parameter_count(obj)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        total += len([p for p in inspect.signature(member).parameters if p != "self"])
    assert total == SETTABLE_PARAMETERS
