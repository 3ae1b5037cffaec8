"""Command-line surface: presentations, verification sweeps, reports.

Commands: presentation, verify, sweep, gamma, rank-lemma.  Exit codes:
0 all checks passed, 1 verification failure, 2 usage or configuration error
or a report or basis file that cannot be written.
All output is deterministic for a fixed configuration; wall-clock timings
(sweep only) are the single exception.

Every basis a command reads comes from `_Context.basis`, in the run's own
order.  Only the cohomology presentation is completed, once per partition,
and a basis whose staircase size is not the multinomial rank exits 1 before
any report is written.  No command eliminates: `linalg` judges counts and
series.  `ideals.k_certificate` checks, once per partition, that the K
presentation is the Tanisaki one written in v (in u: after u_i = v_i + 1);
the K basis is then the cohomology completion itself, read in v, with its
staircase.  A refused presentation exits 1 the same way (stderr names the
convention, the partition, the subset and d).  Every reduction is in v;
u polynomials appear only where a report or a basis file renders them
(`_in_convention`).  The gamma, lambda and truncation suites report one
membership check of the cohomology generators, once per partition
(`_Context.membership`).

Run as `python -m tanisaki.cli`, the process ends with a hard exit: once
`main` has returned its code, stdout and stderr are flushed and `os._exit`
ends the process without the interpreter's teardown (as mypy does).
`main` itself is a plain function that returns the exit code, so the
console script and in-process callers see no difference.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import NamedTuple

from . import groebner, ideals, lambda_ring, linalg
from .groebner import MonomialOrder, InfiniteQuotient
from .ideals import k_tanisaki_generators, tanisaki_generators
from .partitions import (
    Partition,
    PartitionError,
    check_subset,
    enumerate_partitions,
    parse_integers,
    parse_partition,
)
from .polynomial import monomial_text

SCHEMA_VERSION = 4
SWEEP_MAX_N = 7
SWEEP_GROEBNER_MAX_N = 6
VERIFY_MAX_N = 5
PRESENTATION_MAX_N = 8  # presentation and gamma complete a Groebner basis
RANK_LEMMA_MAX_N = 40
HEAVY_SUITES = ("gamma", "lambda", "truncation", "filtration", "freeness", "stability")
ALL_SUITES = ("rank-lemma",) + HEAVY_SUITES


class RunConfig(NamedTuple):
    partitions: list[Partition]
    flavor: str = "both"
    convention: str = "v"
    order: MonomialOrder = groebner.DEGREVLEX
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


class WrongBasis(Exception):
    """A reduced basis whose staircase size is not the multinomial rank, or
    a K presentation that `ideals.k_certificate` refuses."""


def _in_convention(q, convention: str):
    """A v polynomial in the variables of the convention: v_i = u_i - 1 in u."""
    return q.shift_variables(-1) if convention == "u" else q


class _Context:
    """One partition's shared work in the run's order: each presentation,
    each basis and its staircase, and the membership check are computed on
    first use, at most once, by whichever command or suite needs them."""

    def __init__(self, p: Partition, cfg: RunConfig):
        self.p = p
        self.cfg = cfg
        self.presentations = {}
        self.bases = {}
        self.members = None

    def presentation(self, flavor: str):
        """The flavor's generators (K: in the run's convention), built once per context."""
        if flavor not in self.presentations:
            self.presentations[flavor] = (k_tanisaki_generators(self.p, self.cfg.convention)
                                          if flavor == ideals.KTHEORY
                                          else tanisaki_generators(self.p))
        return self.presentations[flavor]

    def basis(self, flavor: str):
        """The reduced basis of the flavor's presentation under the run's
        order and its staircase, once per context.

        Only the cohomology presentation is completed and walked.  The K
        basis is that same basis and staircase, read in v, once
        `ideals.k_certificate` ties the K presentation, in either
        convention, to the cohomology one; so every K reduction is in v.
        In u, v_i = u_i - 1 is a ring automorphism that maps the span of
        the staircase onto itself, so a u normal form is the rendering of
        the v one.  A refused presentation raises WrongBasis naming the
        subset and d.

        The staircase must have the multinomial rank's size; otherwise
        WrongBasis is raised.  A basis of a larger ideal reduces every
        relation to 0, so without this check it would pass every membership
        suite."""
        if flavor not in self.bases:
            self.bases[flavor] = (self._completed() if flavor == ideals.COHOMOLOGY
                                  else self._certified())
        return self.bases[flavor]

    def _completed(self):
        """The cohomology presentation completed under the run's order, and its staircase."""
        gb = groebner.cached_buchberger(self.presentation(ideals.COHOMOLOGY), self.cfg.order,
                                        self.cfg.cache_dir)
        monos = groebner.standard_monomials(gb)
        rank = self.p.multinomial_rank()
        if len(monos) != rank:
            raise WrongBasis(f"wrong cohomology basis: partition {self.p}: "
                             f"staircase size {len(monos)}, multinomial rank {rank}")
        return gb, monos

    def _certified(self):
        """The cohomology basis and staircase, once the K presentation is
        certified; the K basis file holds them in the K variables."""
        pres = self.presentation(ideals.KTHEORY)
        conv = pres.convention
        bad = ideals.k_certificate(self.presentation(ideals.COHOMOLOGY), pres)
        if bad is not None:
            subset, d = bad
            raise WrongBasis(f"K({conv}) presentation is not the Tanisaki ideal in {conv}: "
                             f"partition {self.p}: subset {','.join(map(str, subset))}, d {d}")
        gb, monos = self.basis(ideals.COHOMOLOGY)
        if self.cfg.cache_dir is not None:
            groebner.write_basis(pres, [_in_convention(q, conv) for q in gb.polys], gb.order,
                                 self.cfg.cache_dir)
        return gb, monos

    def membership(self) -> dict:
        """The one block of the gamma, lambda and truncation suites: the K
        basis first (so the certificate runs and the --cache-dir files are
        written), then `_membership` of the cohomology generators on it.

        It stands for the relations those suites name.  On a subset S,
        with a = q - s + d - 1, lambda^d(x - q) is h_d in the kept window,
        h_{s+1} and h_{s+2} are integer combinations of those h_d (the
        truncation recurrence), and gamma^d(x - s) = sum_{j <= a} C(a, j)
        h_{d-j}; the certificate makes the h_d of S a unitriangular
        combination of its e_d.  So every relation of S dies on the basis
        when the generators of S do, and the gamma and lambda relations of
        S all die only then."""
        if self.members is None:
            self.members = _membership(self.presentation(ideals.COHOMOLOGY),
                                       self.basis(ideals.KTHEORY)[0])
        return self.members


def _membership(pres, gb) -> dict:
    """One check per generator of the presentation, whose normal form on gb
    must be 0, and a failure {subset, d} for each one whose form is not."""
    failures = [{"subset": list(g.subset), "d": g.d} for g in pres.generators
                if not groebner.normal_form(g.poly, gb).is_zero()]
    return {"partition": list(pres.partition.parts), "checks": len(pres.generators),
            "failures": failures, "ok": not failures}


# -- presentation --------------------------------------------------------


def _presentation_block(ctx: _Context, flavor: str) -> dict:
    gb, monos = ctx.basis(flavor)
    pres = ctx.presentation(flavor)
    prefix = pres.convention
    block = {
        "flavor": flavor,
        "convention": prefix,
        "generators": [
            {"subset": list(g.subset), "d": g.d, "q": g.q, "poly": g.poly.render(prefix)}
            for g in pres.generators
        ],
        "groebner_basis": [_in_convention(q, prefix).render(prefix) for q in gb.polys],
        "standard_monomials": [monomial_text(m, prefix) or "1" for m in monos],
        "quotient_rank": len(monos),
    }
    if flavor == ideals.COHOMOLOGY:
        block["hilbert_series"] = list(groebner.staircase_series(monos))
    return block


def cmd_presentation(cfg: RunConfig) -> dict:
    """A basis of the wrong rank raises WrongBasis, so a report is always ok."""
    ctx = _Context(cfg.partitions[0], cfg)
    flavors = [cfg.flavor] if cfg.flavor != "both" else [ideals.COHOMOLOGY, ideals.KTHEORY]
    result = {**_partition_block(ctx.p), "ok": True,
              "presentations": [_presentation_block(ctx, f) for f in flavors]}
    return {"results": [result], "ok": True}


# -- verify ---------------------------------------------------------------


def _suite_rank_lemma(ctx: _Context) -> dict:
    return linalg.verify_rank_lemma(ctx.p).to_dict()


def _suite_filtration(ctx: _Context) -> dict:
    """The staircase of the K basis, which is the cohomology one.  Asking for
    it runs the certificate, which makes the K(v) ideal the cohomology ideal
    written in v; that ideal is homogeneous, so under any order the staircase
    counts the graded pieces of the quotient."""
    monos = ctx.basis(ideals.KTHEORY)[1]
    return linalg.filtration_check(ctx.p, groebner.staircase_series(monos)).to_dict()


def _suite_freeness(ctx: _Context) -> dict:
    """Z-freeness from the prime certificate of the cohomology completion:
    its staircase against those over F_p, counted through degree dim + 1."""
    gb, monos = ctx.basis(ideals.COHOMOLOGY)
    modular = groebner.modular_series(gb, ctx.p.springer_dimension() + 1)
    return linalg.integral_freeness_check(
        ctx.p, groebner.staircase_series(monos), modular).to_dict()


def _suite_stability(ctx: _Context) -> dict:
    """(1 2) and (1 2 ... n), which generate S_n, permute the cohomology
    generating set into itself: one check per generator and distinct
    permutation, none at n = 1.  The K side is left to the certificate,
    which asking for the K basis runs first: it ties each K record (S, d)
    to the cohomology records of S by weights that depend on (s, q, d)
    only, so a permutation that keeps the cohomology pool keeps the K pool,
    and a K-only asymmetry is refused before this suite reports."""
    ctx.basis(ideals.KTHEORY)  # the certificate, and the --cache-dir files
    n = ctx.p.n
    sigmas = [] if n == 1 else list(dict.fromkeys(
        [(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)]))
    pres = ctx.presentation(ideals.COHOMOLOGY)
    pool = set(pres.polynomials())
    failures = [{"flavor": ideals.COHOMOLOGY, "subset": list(g.subset), "d": g.d,
                 "sigma": list(sigma)}
                for g in pres.generators for sigma in sigmas
                if g.poly.permute_variables(sigma) not in pool]
    return {"partition": list(ctx.p.parts), "checks": len(pres.generators) * len(sigmas),
            "failures": failures, "ok": not failures}


_SUITE_FN = {
    "rank-lemma": _suite_rank_lemma,
    "gamma": _Context.membership,
    "lambda": _Context.membership,
    "truncation": _Context.membership,
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
        # one contiguous share per worker: every task pickles the whole cfg, partitions included
        share = -(-len(cfg.partitions) // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, cfg.partitions, [cfg] * len(cfg.partitions),
                                    chunksize=share))
    else:
        results = [_verify_one(p, cfg) for p in cfg.partitions]
    return {"results": results, "ok": all(r["ok"] for r in results)}


# -- sweep ----------------------------------------------------------------


def cmd_sweep(cfg: RunConfig) -> dict:
    results = []
    for p in cfg.partitions:
        t0 = time.perf_counter()
        row = _partition_block(p)
        ctx = _Context(p, cfg)
        row["generator_count"] = len(ctx.presentation(ideals.KTHEORY).generators)
        if p.n <= SWEEP_GROEBNER_MAX_N:
            row["gb_size_cohomology"] = len(ctx.basis(ideals.COHOMOLOGY)[0])
            row["gb_size_ktheory"] = len(ctx.basis(ideals.KTHEORY)[0])
        else:
            row["gb_size_cohomology"] = None
            row["gb_size_ktheory"] = None
        row["time_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        results.append(row)
    return {"results": results, "ok": True}


# -- gamma ----------------------------------------------------------------


def cmd_gamma(cfg: RunConfig, subset, d: int) -> dict:
    p = cfg.partitions[0]
    gb, _ = _Context(p, cfg).basis(ideals.KTHEORY)
    s = len(subset)
    relation = lambda_ring.gamma_op(p.n, subset, -s, d, "v")
    nf = groebner.normal_form(relation, gb)
    vanished = nf.is_zero()
    claimed = d >= ideals.kept_degrees(s, p.dual().p_function(s)).start
    ok = vanished or not claimed
    result = {
        **_partition_block(p),
        "subset": list(subset),
        "d": d,
        "gamma_polynomial": _in_convention(relation, "u").render("u"),
        "normal_form": _in_convention(nf, cfg.convention).render(cfg.convention),
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


def _detail(sdoc: dict) -> list:
    """What a suite block names against its verdict, for csv and text: failures,
    findings, torsion degrees or mismatched rank-lemma rows; empty on a pass."""
    if "failures" in sdoc:
        return sdoc["failures"]
    if "findings" in sdoc:
        return sdoc["findings"]
    if "degrees" in sdoc:
        return [row for row in sdoc["degrees"] if row["nonunit_factors"]]
    return [row for row in sdoc["rows"] if row["p_dual"] != row["jordan_rank"]]


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
                detail = json.dumps(_detail(sdoc), sort_keys=True)
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
                for f in _detail(sdoc)[:5]:
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
            bad = _detail(r)
            lines.append(f"  rank lemma rows {len(r['rows'])}  mismatches {len(bad)}")
            lines += [f"    counterexample: {json.dumps(row, sort_keys=True)}" for row in bad[:5]]
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
            subset = check_subset(parse_integers(args.subset, "--subset position"),
                                  partitions[0].n)
            if args.d < 0:
                raise PartitionError("--d must be >= 0")
            # the relation grid stops at the last extra degree, and gamma^d(sum [L_i] - s),
            # the t^d coefficient of prod(1 + ([L_i] - 1) t), is zero for d > s
            d_max = ideals.extra_degrees(partitions[0].n)[-1]
            if args.d > d_max:
                raise PartitionError(f"--d must be <= n + 2 = {d_max}, got {args.d}")
            doc = cmd_gamma(cfg, subset, args.d)
        else:
            doc = cmd_rank_lemma(cfg)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool": "tanisaki",
            "command": args.command,
            "config": cfg.to_dict(),
            **doc,
        }
        sys.stdout.write(render_report(doc, cfg.fmt))
        sys.stdout.flush()
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfiniteQuotient as exc:
        print(f"error: infinite quotient detected: {exc}", file=sys.stderr)
        return 1
    except WrongBasis as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the report or a basis file cannot be written
        print(f"error: cannot write {exc.filename or 'the report'}: {exc.strerror or exc}",
              file=sys.stderr)
        try:  # so that the flush at interpreter exit cannot fail again
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            return 2  # an in-memory stdout has no descriptor
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 2
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    # hard exit, as the module docstring describes
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
