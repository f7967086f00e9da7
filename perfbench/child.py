"""One op process of the benchmark, optionally traced.

    python child.py sweep --kind R --seed 3 [--trace spans.json]
        Freeness sweep over every {W, kind} monomial of length 2..8 that
        contains both kinds: limits.alpha and
        freeness.free_moment_prediction at 200 000 samples each, as
        scripts/freeness_sweep.py does.  Prints one JSON line with, per
        monomial, [text, alpha, prediction, alpha_bound, latency_s].

    python child.py cli --trace spans.json --op 4 -- <patrm arguments>
        Runs `patrm <arguments>` in this process with tracing on; its
        output and exit code are those of `python -m patrm.cli`.

patrm is imported from PYTHONPATH, which the harness points at the
checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

SWEEP_SAMPLES = 200_000
SWEEP_MAX_LENGTH = 8


def sweep_monomials(kind_char: str, max_length: int):
    from patrm.algebra import Monomial
    from patrm.linkfns import LinkKind

    other = LinkKind.from_char(kind_char)
    for length in range(2, max_length + 1):
        for colors in itertools.product((LinkKind.WIGNER, other), repeat=length):
            if len(set(colors)) == 2:
                yield Monomial(tuple((c, 1) for c in colors))


def run_sweep(kind_char: str, seed: int, max_length: int, tracer=None) -> list:
    from patrm import freeness, limits

    rows = []
    for op, q in enumerate(sweep_monomials(kind_char, max_length)):
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        a = limits.alpha(q, "mc", samples=SWEEP_SAMPLES, seed=seed)
        pred = freeness.free_moment_prediction(q, samples=SWEEP_SAMPLES, seed=seed)
        latency = time.perf_counter() - t0
        rows.append([str(q), a, pred, limits.alpha_bound(q), latency])
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    sw = sub.add_parser("sweep")
    sw.add_argument("--kind", required=True, choices=list("THRS"))
    sw.add_argument("--seed", type=int, required=True)
    sw.add_argument("--trace")
    cl = sub.add_parser("cli")
    cl.add_argument("--trace", required=True)
    cl.add_argument("--op", type=int, default=0)
    cl.add_argument("args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        if args.mode == "sweep":
            rows = run_sweep(args.kind, args.seed, SWEEP_MAX_LENGTH, tracer)
            print(json.dumps({"ops": rows}))
            return 0
        from patrm import cli

        tracer.op = args.op
        patrm_args = args.args[1:] if args.args[:1] == ["--"] else args.args
        return cli.main(patrm_args)
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.write(args.trace)


if __name__ == "__main__":
    sys.exit(main())
