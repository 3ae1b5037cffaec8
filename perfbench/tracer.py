"""In-process replay of one workload pass, with optional per-layer spans.

    python3 perfbench/tracer.py --workload W --seed N --work DIR \
        [--warm-cache DIR] --mode plain|traced --out FILE

Runs every invocation of the workload through `tanisaki.cli.main` in this
one fresh interpreter, so the engine's lru caches start empty as they do in
the CLI.  In `traced` mode the public functions of each layer are wrapped,
under every name a `tanisaki` module holds them by, before the first call.
A wrapper records a span (name, parent span, invocation, start, end) in
memory and counts work read from the arguments and return value.  Reports,
spans and counts are written to FILE as JSON at the end.  `run.py` starts
this script; `layer_metrics` turns its spans into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import tempfile
import time
from collections import Counter

import workloads


def _gr_pivots(args, result):
    return {"linalg.gr_pivots": sum(row[3] for row in result.rows)}


def _freeness_rank(args, result):
    return {"linalg.freeness_rank": sum(row[1] for row in result.degrees)}


def _completion(args, result):
    return {
        "groebner.completion_calls": 1,
        "groebner.basis_size": len(result),
        "groebner.completion_generators": len(args[0].generators),
    }


def _checks(args, result):
    return {"lambda_ring.checks": len(result.rows)}


def _generators(args, result):
    return {"ideals.generator_count": len(result.generators)}


def _one(counter):
    return lambda args, result: {counter: 1}


# (module, function, span name, work counted from (args, return value)).
# The self time of a span name is reported as "<span name>_s"; the span of
# cli.main is named cli.self, since its self time is the CLI's remainder.
TARGETS = (
    ("linalg", "filtration_check", "linalg.filtration", _gr_pivots),
    ("linalg", "ideal_degree_rank", "linalg.ideal_rank", _one("linalg.ideal_rank_calls")),
    ("linalg", "integral_freeness_check", "linalg.freeness", _freeness_rank),
    ("linalg", "verify_rank_lemma", "linalg.rank_lemma", None),
    ("groebner", "buchberger", "groebner.completion", _completion),
    ("groebner", "standard_monomials", "groebner.staircase",
     lambda args, result: {"groebner.standard_monomials": len(result)}),
    ("groebner", "hilbert_series", "groebner.hilbert", None),
    ("groebner", "normal_form", "groebner.normal_form", _one("groebner.normal_form_calls")),
    ("groebner", "cached_buchberger", "groebner.cache", None),
    ("lambda_ring", "verify_gamma_relations", "lambda_ring.sweeps", _checks),
    ("lambda_ring", "equivalent_lambda_relations", "lambda_ring.sweeps", _checks),
    ("ideals", "tanisaki_generators", "ideals.generators", _generators),
    ("ideals", "k_tanisaki_generators", "ideals.generators", _generators),
    ("ideals", "truncation_certificate", "ideals.truncation", None),
    ("cli", "render_report", "cli.render", None),
    ("cli", "main", "cli.self", None),
)

# Per-layer metrics in report order, with units.
PER_LAYER = (
    ("linalg.filtration_s", "s"),
    ("linalg.ideal_rank_s", "s"),
    ("linalg.ideal_rank_calls", "count"),
    ("linalg.gr_pivots", "count"),
    ("linalg.freeness_s", "s"),
    ("linalg.freeness_rank", "count"),
    ("linalg.rank_lemma_s", "s"),
    ("groebner.completion_s", "s"),
    ("groebner.completion_calls", "count"),
    ("groebner.basis_size", "count"),
    ("groebner.completion_generators", "count"),
    ("groebner.basis_per_generator", "ratio"),
    ("groebner.staircase_s", "s"),
    ("groebner.standard_monomials", "count"),
    ("groebner.hilbert_s", "s"),
    ("groebner.normal_form_s", "s"),
    ("groebner.normal_form_calls", "count"),
    ("groebner.cache_s", "s"),
    ("groebner.cache_hits", "count"),
    ("groebner.cache_misses", "count"),
    ("lambda_ring.sweeps_s", "s"),
    ("lambda_ring.checks", "count"),
    ("ideals.generators_s", "s"),
    ("ideals.generator_count", "count"),
    ("ideals.truncation_s", "s"),
    ("cli.render_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans and work counts, kept in memory until the replay ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, invocation, start, end]
        self.stack: list[int] = []
        self.work: Counter = Counter()
        self.invocation = -1

    def wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, parent, tracer.invocation, 0.0, 0.0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            completions = tracer.work["groebner.completion_calls"]
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                tracer.work.update(count(args, result))
            if name == "groebner.cache":
                # a miss is a call under which completion ran
                ran = tracer.work["groebner.completion_calls"] > completions
                tracer.work["groebner.cache_misses" if ran else "groebner.cache_hits"] += 1
            return result

        return wrapper

    def install(self):
        """Replace each target at every name a loaded tanisaki module holds it by."""
        import tanisaki.cli  # noqa: F401  (loads every layer)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tanisaki"]
        wrappers = {}
        for module, function, name, count in TARGETS:
            fn = getattr(sys.modules[f"tanisaki.{module}"], function)
            wrappers[id(fn)] = (fn, self.wrap(name, fn, count))
        for module in modules:
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attr, found[1])


def layer_metrics(spans, work) -> dict[str, float]:
    """Self time per span name plus the work counts, keyed as in PER_LAYER."""
    covered = [0.0] * len(spans)
    for name, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    values: Counter = Counter()
    for (name, _, _, start, end), inner in zip(spans, covered):
        values[name + "_s"] += end - start - inner
    values.update(work)
    gens = values["groebner.completion_generators"]
    values["groebner.basis_per_generator"] = values["groebner.basis_size"] / gens if gens else 0.0
    return {name: values[name] for name, _ in PER_LAYER if name != "trace.overhead_s"}


def replay(workload: str, seed: int, work: str, warm: str | None, tracer: Tracer | None) -> list[dict]:
    from tanisaki import cli

    if tracer is not None:
        tracer.install()
    done = []
    for i, inv in enumerate(workloads.invocations(workload, seed)):
        cache = tempfile.mkdtemp(dir=work) if inv.cache == "fresh" else warm
        argv = inv.with_cache(cache)
        if tracer is not None:
            tracer.invocation = i
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        wall = time.perf_counter() - t0
        done.append({"argv": list(inv.argv), "returncode": code, "stdout": buf.getvalue(), "wall_s": wall})
    return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for fresh cache directories")
    parser.add_argument("--warm-cache", default=None)
    parser.add_argument("--mode", choices=["plain", "traced"], required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    tracer = Tracer() if args.mode == "traced" else None
    invocations = replay(args.workload, args.seed, args.work, args.warm_cache, tracer)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "invocations": invocations,
        "spans": tracer.spans if tracer else [],
        "work": dict(tracer.work) if tracer else {},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
