"""Command-line surface: presentations, verification sweeps, reports.

Commands: presentation, verify, sweep, gamma, rank-lemma.  Exit codes:
0 all checks passed, 1 verification failure, 2 usage or configuration error.
All output is deterministic for a fixed configuration; wall-clock timings
(sweep only) are the single exception.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property

from . import groebner, ideals, lambda_ring, linalg
from .groebner import MonomialOrder, InfiniteQuotient
from .ideals import k_tanisaki_generators, tanisaki_generators
from .partitions import (
    Partition,
    PartitionError,
    enumerate_partitions,
    enumerate_subsets,
    parse_partition,
)

SCHEMA_VERSION = 2
SWEEP_MAX_N = 7
SWEEP_GROEBNER_MAX_N = 6
VERIFY_MAX_N = 5
PRESENTATION_MAX_N = 8  # presentation and gamma complete a Groebner basis
RANK_LEMMA_MAX_N = 40
HEAVY_SUITES = ("gamma", "lambda", "truncation", "filtration", "freeness", "stability")
ALL_SUITES = ("rank-lemma",) + HEAVY_SUITES


@dataclass
class RunConfig:
    partitions: list[Partition]
    flavor: str = "both"
    convention: str = "v"
    order: MonomialOrder = field(default_factory=lambda: MonomialOrder("degrevlex"))
    fmt: str = "json"
    cache_dir: str | None = None
    jobs: int = 1
    suites: tuple[str, ...] = ALL_SUITES

    def to_dict(self):
        return {
            "partitions": [list(p.parts) for p in self.partitions],
            "flavor": self.flavor,
            "convention": self.convention,
            "order": self.order.to_dict(),
            "format": self.fmt,
            "jobs": self.jobs,
            "suites": list(self.suites),
        }


def _partition_block(p: Partition) -> dict:
    dual = p.dual()
    return {
        "partition": list(p.parts),
        "n": p.n,
        "dual": list(dual.parts),
        "p_dual": [dual.p_function(s) for s in range(1, p.n + 1)],
        "rank": p.multinomial_rank(),
        "dimension": p.springer_dimension(),
    }


@dataclass
class _Context:
    """One partition's shared work: the K-basis, the cohomology presentation
    and basis, and the gamma sweep are computed on first use, at most once,
    by whichever suite needs them."""

    p: Partition
    cfg: RunConfig

    @cached_property
    def kbasis(self):
        """The K-basis in the run's convention and order (presentation: .source)."""
        pres = k_tanisaki_generators(self.p, self.cfg.convention)
        return groebner.cached_buchberger(pres, self.cfg.order, self.cfg.cache_dir)

    @cached_property
    def cohomology_presentation(self):
        return tanisaki_generators(self.p)

    @cached_property
    def cohomology(self):
        """The cohomology ideal's degrevlex basis and staircase series,
        completed in memory whatever --order says: the filtration and
        freeness checks read per-degree counts."""
        gb = groebner.buchberger(self.cohomology_presentation, groebner.DEGREVLEX)
        return gb, groebner.staircase_series(groebner.standard_monomials(gb))

    @cached_property
    def gamma(self):
        return lambda_ring.verify_gamma_relations(self.p, self.kbasis)


# -- presentation --------------------------------------------------------


def _presentation_block(p: Partition, flavor: str, cfg: RunConfig) -> dict:
    if flavor == ideals.COHOMOLOGY:
        pres = tanisaki_generators(p)
    else:
        pres = k_tanisaki_generators(p, cfg.convention)
    gb = groebner.cached_buchberger(pres, cfg.order, cfg.cache_dir)
    monos = groebner.standard_monomials(gb)
    prefix = pres.convention
    block = {
        "flavor": flavor,
        "convention": prefix,
        "generators": [
            {"subset": list(g.subset), "d": g.d, "q": g.q, "poly": g.poly.render(prefix)}
            for g in pres.generators
        ],
        "groebner_basis": [q.render(prefix) for q in gb.polys],
        "standard_monomials": [_render_monomial(m, prefix) for m in monos],
        "quotient_rank": len(monos),
    }
    if flavor == ideals.COHOMOLOGY:
        block["hilbert_series"] = list(groebner.staircase_series(monos))
    return block


def _render_monomial(m, prefix):
    if not any(m):
        return "1"
    return "*".join(
        f"{prefix}{j + 1}" if e == 1 else f"{prefix}{j + 1}^{e}"
        for j, e in enumerate(m)
        if e
    )


def cmd_presentation(cfg: RunConfig) -> dict:
    p = cfg.partitions[0]
    flavors = [cfg.flavor] if cfg.flavor != "both" else [ideals.COHOMOLOGY, ideals.KTHEORY]
    result = _partition_block(p)
    result["presentations"] = [_presentation_block(p, f, cfg) for f in flavors]
    ok = all(
        blk["quotient_rank"] == result["rank"] for blk in result["presentations"]
    )
    result["ok"] = ok
    return {"results": [result], "ok": ok}


# -- verify ---------------------------------------------------------------


def _suite_rank_lemma(ctx: _Context) -> dict:
    return linalg.verify_rank_lemma(ctx.p).to_dict()


def _suite_gamma(ctx: _Context) -> dict:
    return ctx.gamma.to_dict()


def _suite_lambda(ctx: _Context) -> dict:
    lam = lambda_ring.equivalent_lambda_relations(ctx.p, ctx.kbasis)
    doc = lam.to_dict()
    doc["agrees_with_gamma"] = ctx.gamma.ok == lam.ok
    doc["ok"] = doc["ok"] and doc["agrees_with_gamma"]
    return doc


def _suite_truncation(ctx: _Context) -> dict:
    p = ctx.p
    failures = []
    checks = 0
    for s in range(1, p.n + 1):
        for subset in enumerate_subsets(p.n, s):
            for cert in ideals.truncation_certificate(p, subset, ctx.cfg.convention):
                checks += 1
                if not groebner.normal_form(cert["h"], ctx.kbasis).is_zero():
                    failures.append({"subset": list(subset), "m": cert["m"]})
    return {"partition": list(p.parts), "checks": checks, "failures": failures, "ok": not failures}


def _suite_filtration(ctx: _Context) -> dict:
    """The K side is the staircase of the v-convention degrevlex basis,
    whatever --convention and --order say: the filtration is defined in the
    v-variables and needs a degree-compatible order.  When the run itself is
    v and degrevlex, that is ctx.kbasis; otherwise it is completed in
    memory."""
    if ctx.cfg.convention == "v" and ctx.cfg.order == groebner.DEGREVLEX:
        gb = ctx.kbasis
    else:
        gb = groebner.buchberger(k_tanisaki_generators(ctx.p, "v"), groebner.DEGREVLEX)
    k_series = groebner.staircase_series(groebner.standard_monomials(gb))
    return linalg.filtration_check(ctx.p, ctx.cohomology[1], k_series).to_dict()


def _suite_freeness(ctx: _Context) -> dict:
    """Z-freeness from the prime certificate of the cohomology completion:
    its staircase against those over F_p, counted through degree dim + 1."""
    gb, series = ctx.cohomology
    modular = groebner.modular_series(gb, ctx.p.springer_dimension() + 1)
    return linalg.integral_freeness_check(ctx.p, series, modular).to_dict()


def _suite_stability(ctx: _Context) -> dict:
    """Adjacent transpositions permute each generating set into itself and
    land in the ideal (checked by normal form on the K side).  Each K image
    is permuted once and serves both checks; the normal-form failures follow
    the pool failures in the report."""
    p = ctx.p
    n = p.n
    failures = []
    nf_failures = []
    checks = 0
    transpositions = []
    for i in range(1, n):
        sigma = list(range(1, n + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        transpositions.append(tuple(sigma))
    gb = ctx.kbasis
    for flavor, pres in ((ideals.COHOMOLOGY, ctx.cohomology_presentation),
                         (ideals.KTHEORY, gb.source)):
        pool = {g.poly for g in pres.generators}
        for g in pres.generators:
            for sigma in transpositions:
                checks += 1
                image = g.poly.permute_variables(sigma)
                if image not in pool:
                    failures.append(
                        {"flavor": flavor, "subset": list(g.subset), "d": g.d, "sigma": list(sigma)}
                    )
                if flavor == ideals.KTHEORY:
                    checks += 1
                    if not groebner.normal_form(image, gb).is_zero():
                        nf_failures.append({"flavor": "ktheory-nf", "subset": list(g.subset),
                                            "d": g.d, "sigma": list(sigma)})
    failures += nf_failures
    return {"partition": list(p.parts), "checks": checks, "failures": failures, "ok": not failures}


_SUITE_FN = {
    "rank-lemma": _suite_rank_lemma,
    "gamma": _suite_gamma,
    "lambda": _suite_lambda,
    "truncation": _suite_truncation,
    "filtration": _suite_filtration,
    "freeness": _suite_freeness,
    "stability": _suite_stability,
}


def _verify_one(p: Partition, cfg: RunConfig) -> dict:
    ctx = _Context(p, cfg)
    suites = {}
    ok = True
    for name in cfg.suites:
        doc = _SUITE_FN[name](ctx)
        suites[name] = doc
        ok = ok and bool(doc["ok"])
    return {**_partition_block(p), "suites": suites, "ok": ok}


def cmd_verify(cfg: RunConfig) -> dict:
    if cfg.jobs > 1 and len(cfg.partitions) > 1:
        # imported here: multiprocessing would otherwise load at every start
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every worker at once: never more than there is work for
        workers = min(cfg.jobs, len(cfg.partitions))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, cfg.partitions, [cfg] * len(cfg.partitions)))
    else:
        results = [_verify_one(p, cfg) for p in cfg.partitions]
    return {"results": results, "ok": all(r["ok"] for r in results)}


# -- sweep ----------------------------------------------------------------


def cmd_sweep(cfg: RunConfig) -> dict:
    results = []
    for p in cfg.partitions:
        t0 = time.perf_counter()
        row = _partition_block(p)
        kth = k_tanisaki_generators(p, cfg.convention)
        row["generator_count"] = len(kth.generators)
        if p.n <= SWEEP_GROEBNER_MAX_N:
            coh = tanisaki_generators(p)
            gb_c = groebner.cached_buchberger(coh, cfg.order, cfg.cache_dir)
            gb_k = groebner.cached_buchberger(kth, cfg.order, cfg.cache_dir)
            row["gb_size_cohomology"] = len(gb_c)
            row["gb_size_ktheory"] = len(gb_k)
        else:
            row["gb_size_cohomology"] = None
            row["gb_size_ktheory"] = None
        row["time_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        results.append(row)
    return {"results": results, "ok": True}


# -- gamma ----------------------------------------------------------------


def cmd_gamma(cfg: RunConfig, subset, d: int) -> dict:
    p = cfg.partitions[0]
    gb = _Context(p, cfg).kbasis
    poly, nf, vanished = lambda_ring.gamma_membership(p, gb, subset, d)
    s = len(subset)
    q = p.dual().p_function(s)
    claimed = d >= max(1, s + 1 - q)
    ok = vanished or not claimed
    result = {
        **_partition_block(p),
        "subset": list(subset),
        "d": d,
        "gamma_polynomial": poly.render("u"),
        "normal_form": nf.render(cfg.convention),
        "in_ideal": vanished,
        "claimed": claimed,
        "ok": ok,
    }
    return {"results": [result], "ok": ok}


def cmd_rank_lemma(cfg: RunConfig) -> dict:
    results = []
    for p in cfg.partitions:
        rep = linalg.verify_rank_lemma(p)
        results.append({**_partition_block(p), **rep.to_dict()})
    return {"results": results, "ok": all(r["ok"] for r in results)}


# -- output ----------------------------------------------------------------


def render_report(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(doc)
    return _render_text(doc)


_CSV_COLUMNS = {
    "sweep": [
        "partition", "n", "rank", "dimension",
        "generator_count", "gb_size_cohomology", "gb_size_ktheory", "time_ms",
    ],
    "verify": ["partition", "suite", "status", "detail"],
    "rank-lemma": ["partition", "s", "p_dual", "jordan_rank", "status"],
    "gamma": ["partition", "subset", "d", "gamma_polynomial", "normal_form", "status"],
    "presentation": ["partition", "flavor", "convention", "subset", "d", "q", "poly"],
}


def _render_csv(doc: dict) -> str:
    command = doc["command"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS[command])
    for r in doc["results"]:
        part = ",".join(str(x) for x in r["partition"])
        if command == "sweep":
            writer.writerow([
                part, r["n"], r["rank"], r["dimension"], r["generator_count"],
                r["gb_size_cohomology"], r["gb_size_ktheory"], r["time_ms"],
            ])
        elif command == "verify":
            for suite, sdoc in sorted(r["suites"].items()):
                detail = json.dumps(sdoc.get("failures", sdoc.get("findings", [])), sort_keys=True)
                writer.writerow([part, suite, "pass" if sdoc["ok"] else "fail", detail])
        elif command == "rank-lemma":
            for row in r["rows"]:
                writer.writerow([
                    part, row["s"], row["p_dual"], row["jordan_rank"],
                    "pass" if row["p_dual"] == row["jordan_rank"] else "fail",
                ])
        elif command == "gamma":
            writer.writerow([
                part, ",".join(str(i) for i in r["subset"]), r["d"],
                r["gamma_polynomial"], r["normal_form"], "pass" if r["ok"] else "fail",
            ])
        elif command == "presentation":
            for blk in r["presentations"]:
                for g in blk["generators"]:
                    writer.writerow([
                        part, blk["flavor"], blk["convention"],
                        ",".join(str(i) for i in g["subset"]), g["d"], g["q"], g["poly"],
                    ])
    return buf.getvalue()


def _render_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}   overall: {'pass' if doc['ok'] else 'FAIL'}"]
    for r in doc["results"]:
        part = ",".join(str(x) for x in r["partition"])
        dual = ",".join(str(x) for x in r.get("dual", []))
        lines.append(
            f"partition ({part})  dual ({dual})  rank {r.get('rank')}  dim {r.get('dimension')}"
        )
        if "suites" in r:
            for suite, sdoc in sorted(r["suites"].items()):
                status = "pass" if sdoc["ok"] else "FAIL"
                lines.append(f"  {suite:<12} {status}")
                for f in (sdoc.get("failures") or [])[:5]:
                    lines.append(f"    counterexample: {json.dumps(f, sort_keys=True)}")
        if "presentations" in r:
            for blk in r["presentations"]:
                lines.append(
                    f"  {blk['flavor']:<12} generators {len(blk['generators'])}  "
                    f"gb {len(blk['groebner_basis'])}  rank {blk['quotient_rank']}"
                )
                if "hilbert_series" in blk:
                    lines.append(f"    hilbert series {blk['hilbert_series']}")
        if "gamma_polynomial" in r:
            lines.append(f"  gamma^{r['d']} = {r['gamma_polynomial']}")
            lines.append(f"  normal form = {r['normal_form']}  ({'pass' if r['ok'] else 'FAIL'})")
        if "gb_size_ktheory" in r:
            lines.append(
                f"  generators {r['generator_count']}  gb(coh) {r['gb_size_cohomology']}  "
                f"gb(K) {r['gb_size_ktheory']}  time {r['time_ms']}ms"
            )
        if "rows" in r and "suites" not in r:
            bad = [row for row in r["rows"] if row["p_dual"] != row["jordan_rank"]]
            lines.append(f"  rank lemma rows {len(r['rows'])}  mismatches {len(bad)}")
    return "\n".join(lines) + "\n"


# -- argument plumbing ------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--partition", action="append", default=[],
                     help="comma-separated parts, e.g. 5,4,4,2,2,2,1 (repeatable)")
    sub.add_argument("--n", type=int, default=None,
                     help="run over every partition of n")
    sub.add_argument("--flavor", choices=["cohomology", "ktheory", "both"], default="both")
    sub.add_argument("--convention", choices=["u", "v"], default="v",
                     help="variable convention for K-theory computations")
    sub.add_argument("--order", choices=["degrevlex", "deglex", "lex"], default="degrevlex")
    sub.add_argument("--format", choices=["json", "csv", "text"], default="json")
    sub.add_argument("--cache-dir", default=None,
                     help="directory to write each reduced Groebner basis to as JSON "
                          "(written, never read back)")
    sub.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanisaki",
        description="Presentations of Springer-variety cohomology and K-rings: "
                    "Tanisaki ideals, Groebner bases, and exact verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("presentation", "verify", "sweep", "gamma", "rank-lemma"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "verify":
            sub.add_argument("--suite", action="append", choices=list(ALL_SUITES),
                             default=[], help="suites to run (default: all)")
        if name == "gamma":
            sub.add_argument("--subset", required=True,
                             help="comma-separated line indices, e.g. 1,2")
            sub.add_argument("--d", required=True, type=int)
    return parser


def _n_cap(args) -> tuple[int, str]:
    """The largest n the command accepts, and how to name that cap."""
    if args.command in ("presentation", "gamma"):
        return PRESENTATION_MAX_N, args.command
    if args.command == "sweep":
        return SWEEP_MAX_N, "sweep"
    if args.command == "verify" and set(args.suite or ALL_SUITES) & set(HEAVY_SUITES):
        return VERIFY_MAX_N, "verify with suites other than rank-lemma"
    return RANK_LEMMA_MAX_N, "the rank lemma"


def _resolve_partitions(args) -> list[Partition]:
    """The partitions to run; an n over the command's cap is refused before
    any partition of it is enumerated or used."""
    parts = [parse_partition(t) for t in args.partition]
    sizes = [p.n for p in parts]
    if args.n is not None:
        if args.n < 1:
            raise PartitionError(f"--n must be >= 1, got {args.n}")
        sizes.append(args.n)
    cap, name = _n_cap(args)
    if any(n > cap for n in sizes):
        raise PartitionError(f"{name} is capped at n={cap}, got n={max(sizes)}")
    if args.n is not None:
        parts.extend(enumerate_partitions(args.n))
    if not parts:
        raise PartitionError("no partitions given: use --partition or --n")
    return parts


def _check_cache_dir(path: str) -> None:
    """Create the cache directory if needed; a path that cannot hold cache
    files is a configuration error, not a verification failure."""
    try:
        os.makedirs(path, exist_ok=True)
    except FileExistsError:
        raise PartitionError(f"--cache-dir {path!r} is not a directory") from None
    except OSError as exc:
        raise PartitionError(f"--cache-dir {path!r} cannot be created: {exc.strerror}") from None
    if not os.access(path, os.W_OK | os.X_OK):
        raise PartitionError(f"--cache-dir {path!r} is not writable")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        partitions = _resolve_partitions(args)
        if args.jobs < 1:
            raise PartitionError(f"--jobs must be >= 1, got {args.jobs}")
        if args.cache_dir is not None:
            _check_cache_dir(args.cache_dir)
        cfg = RunConfig(
            partitions=partitions,
            flavor=args.flavor,
            convention=args.convention,
            order=MonomialOrder(args.order),
            fmt=args.format,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            suites=tuple(args.suite) if getattr(args, "suite", None) else ALL_SUITES,
        )
        if args.command == "presentation":
            if len(partitions) != 1:
                raise PartitionError("presentation takes exactly one partition")
            doc = cmd_presentation(cfg)
        elif args.command == "verify":
            doc = cmd_verify(cfg)
        elif args.command == "sweep":
            doc = cmd_sweep(cfg)
        elif args.command == "gamma":
            if len(partitions) != 1:
                raise PartitionError("gamma takes exactly one partition")
            try:
                subset = tuple(int(t) for t in args.subset.split(","))
            except ValueError:
                raise PartitionError(f"bad --subset {args.subset!r}") from None
            if args.d < 0:
                raise PartitionError("--d must be >= 0")
            # the verify sweep stops at s + 2, and gamma^d(sum [L_i] - s),
            # the t^d coefficient of prod(1 + ([L_i] - 1) t), is zero for d > s
            d_max = partitions[0].n + 2
            if args.d > d_max:
                raise PartitionError(f"--d must be <= n + 2 = {d_max}, got {args.d}")
            doc = cmd_gamma(cfg, subset, args.d)
        else:
            doc = cmd_rank_lemma(cfg)
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfiniteQuotient as exc:
        print(f"error: infinite quotient detected: {exc}", file=sys.stderr)
        return 1

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "tanisaki",
        "command": args.command,
        "config": cfg.to_dict(),
        **doc,
    }
    sys.stdout.write(render_report(doc, cfg.fmt))
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
