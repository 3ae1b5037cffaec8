import concurrent.futures
import dataclasses
import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import weakref

import jsonschema
import pytest

from tanisaki import cli, groebner, lambda_ring, linalg
from tanisaki.ideals import k_tanisaki_generators, tanisaki_generators
from tanisaki.partitions import Partition

SCHEMA = json.load(
    open(os.path.join(os.path.dirname(cli.__file__), "report_schema.json"))
)


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def readme_examples():
    """Every `tanisaki ...` line of the README's CLI code block."""
    text = open(README).read()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("tanisaki ")]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _ = run_json(capsys, "rank-lemma", "--partition", "2,1")
        assert code == 0

    def test_usage_errors_are_two(self, capsys):
        assert cli.main(["presentation", "--partition", "1,2"]) == 2
        capsys.readouterr()
        assert cli.main(["verify", "--partition", "2,1,1,1,1,1"]) == 2  # n=7 heavy
        capsys.readouterr()
        assert cli.main(["sweep", "--n", "9"]) == 2
        capsys.readouterr()
        assert cli.main(["gamma", "--partition", "2,1", "--subset", "a,b", "--d", "1"]) == 2
        capsys.readouterr()
        assert cli.main(["presentation"]) == 2  # no partitions at all
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("presentation", "--partition", "99999999999"),
        ("presentation", "--partition", "25"),
        ("presentation", "--partition", "9"),
        ("gamma", "--partition", "99999999999", "--subset", "1", "--d", "1"),
        ("rank-lemma", "--partition", "99999999999"),
        ("rank-lemma", "--n", "41"),
        ("verify", "--partition", "99999999999", "--suite", "rank-lemma"),
        ("verify", "--n", "100"),
        ("sweep", "--n", "100"),
    ])
    def test_n_over_the_command_cap_is_two(self, capsys, monkeypatch, argv):
        def started(*args):
            raise AssertionError("partition work started past the cap")

        # refused before any partition is enumerated or used
        monkeypatch.setattr(cli, "enumerate_partitions", started)
        monkeypatch.setattr(Partition, "dual", started)
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at n=" in captured.err

    def test_rank_lemma_runs_at_its_cap(self, capsys):
        code, doc = run_json(capsys, "rank-lemma", "--partition", "20,20")
        assert code == 0 and doc["results"][0]["n"] == cli.RANK_LEMMA_MAX_N

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_two(self, capsys, jobs):
        assert cli.main(["rank-lemma", "--n", "2", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs must be >= 1" in captured.err

    @pytest.mark.parametrize("flag", ["--escalation-depth", "--degree-cap"])
    def test_removed_flags_are_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["presentation", "--partition", "2,1", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_unusable_cache_dir_is_two(self, capsys, tmp_path, below):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        cache = os.path.join(str(blocker), *below)
        assert cli.main(["presentation", "--partition", "2,1", "--cache-dir", cache]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cache-dir" in captured.err

    def test_verification_failure_is_one(self, capsys, monkeypatch):
        def broken(ctx):
            return {"partition": list(ctx.p.parts), "ok": False, "failures": [{"s": 1}]}

        monkeypatch.setitem(cli._SUITE_FN, "rank-lemma", broken)
        code, out = run_cli(
            capsys, "verify", "--partition", "2,1", "--suite", "rank-lemma"
        )
        assert code == 1

    @pytest.mark.parametrize("d", ["6", "1000000000"])
    def test_gamma_degree_over_n_plus_two_is_two(self, capsys, monkeypatch, d):
        def expanded(*args):
            raise AssertionError("lambda series expanded past the bound")

        monkeypatch.setattr(lambda_ring, "lambda_series", expanded)
        assert cli.main(["gamma", "--partition", "2,1", "--subset", "1", "--d", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--d must be <= n + 2 = 5" in captured.err

    def test_gamma_at_n_plus_two_runs(self, capsys):
        code, doc = run_json(capsys, "gamma", "--partition", "2,1", "--subset", "1", "--d", "5")
        assert code == 0 and doc["results"][0]["in_ideal"]

    def test_gamma_below_claimed_range_still_passes(self, capsys):
        code, doc = run_json(
            capsys, "gamma", "--partition", "2,1", "--subset", "1,2", "--d", "0"
        )
        assert code == 0
        r = doc["results"][0]
        assert r["gamma_polynomial"] == "1" and not r["claimed"]


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example_runs(capsys, line):
    assert cli.main(shlex.split(line)[1:]) == 0
    capsys.readouterr()


class TestReports:
    def test_presentation_json_schema_and_content(self, capsys):
        code, doc = run_json(
            capsys, "presentation", "--partition", "2,1", "--flavor", "both"
        )
        assert code == 0
        res = doc["results"][0]
        assert res["rank"] == 3
        assert res["p_dual"] == [0, 1, 3]
        flavors = {blk["flavor"]: blk for blk in res["presentations"]}
        assert flavors["cohomology"]["hilbert_series"] == [1, 2]
        assert flavors["cohomology"]["quotient_rank"] == 3
        assert flavors["ktheory"]["quotient_rank"] == 3

    def test_verify_report_embeds_config_and_partition_data(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--partition", "2,1", "--suite", "rank-lemma",
            "--suite", "gamma",
        )
        assert code == 0
        assert doc["schema_version"] == 2
        assert doc["config"]["suites"] == ["rank-lemma", "gamma"]
        res = doc["results"][0]
        assert set(res["suites"]) == {"rank-lemma", "gamma"}
        assert res["dual"] == [2, 1]

    def test_sweep_rows(self, capsys):
        code, doc = run_json(capsys, "sweep", "--n", "3")
        assert code == 0
        assert [r["rank"] for r in doc["results"]] == [1, 3, 6]
        assert [r["partition"] for r in doc["results"]] == [[3], [2, 1], [1, 1, 1]]

    def test_sweep_n1(self, capsys):
        code, doc = run_json(capsys, "sweep", "--n", "1")
        assert code == 0
        assert len(doc["results"]) == 1 and doc["results"][0]["rank"] == 1

    def test_csv_columns_fixed(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "2", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == cli._CSV_COLUMNS["sweep"]

        code, out = run_cli(
            capsys, "verify", "--partition", "2,1", "--suite", "rank-lemma",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].split(",") == cli._CSV_COLUMNS["verify"]

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "rank-lemma", "--partition", "3,1", "--format", "text")
        assert code == 0
        assert "overall: pass" in out


# sha256 of stdout for reports that a refactor must leave byte-identical;
# a change that means to alter one of them updates its digest here
REPORT_DIGESTS = {
    "verify --n 4":
        "7a32f76427dd13f152fea958626fe186f5ffc50b54da64f144865959bf6f0df5",
    "verify --n 4 --convention u --order lex --format csv":
        "554fd357b41836e1a0bbda267876a1a6dffdd0781661db287011e14de8ec600a",
    "presentation --partition 3,2,1 --flavor both":
        "51962c1d3af06c38d34b903e04bafe61e70c1cc252aa255a2943c0ee44cc40fe",
    "gamma --partition 3,2 --subset 1,2,3 --d 1 --format text":
        "736f31e29096009ed41e85a53fa0f68c2d74052230e47740ceee4230914b27ea",
    "verify --n 5 --suite gamma --suite lambda --suite truncation --suite stability":
        "77bb1008b901004742d9bbb86341764b3159f6b85fd0351a8e675402cc69c2b5",
}


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        args = ("verify", "--partition", "2,1", "--suite", "gamma", "--suite", "truncation")
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)
        assert a == b

    def test_sweep_deterministic_modulo_timings(self, capsys):
        _, a = run_json(capsys, "sweep", "--n", "3")
        _, b = run_json(capsys, "sweep", "--n", "3")
        for doc in (a, b):
            for row in doc["results"]:
                row.pop("time_ms")
        assert a == b

    def test_presentation_byte_identical(self, capsys):
        args = ("presentation", "--partition", "2,2", "--flavor", "ktheory")
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)
        assert a == b

    @pytest.mark.parametrize("line", list(REPORT_DIGESTS))
    def test_reports_match_recorded_digests(self, capsys, line):
        code, out = run_cli(capsys, *line.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[line]


class TestCacheIntegration:
    def test_corrupted_cache_recomputed(self, capsys, tmp_path):
        cache = str(tmp_path)
        args = ("presentation", "--partition", "2,1", "--flavor", "ktheory",
                "--cache-dir", cache)
        _, a = run_cli(capsys, *args)
        files = [f for f in os.listdir(cache) if f.endswith(".json")]
        assert files
        victim = os.path.join(cache, files[0])
        with open(victim, "w") as fh:
            fh.write("{not json")
        _, b = run_cli(capsys, *args)
        assert a == b
        assert json.load(open(victim))  # rewritten as valid JSON

    def test_redundant_cached_basis_is_not_reported(self, capsys, tmp_path):
        # a cached basis with a repeated element still presents the ideal,
        # but it is not the reduced basis the report must show
        args = ("presentation", "--partition", "2,1", "--flavor", "ktheory",
                "--cache-dir", str(tmp_path))
        code, cold = run_cli(capsys, *args)
        assert code == 0
        path = tmp_path / "gb_2-1_ktheory_v_degrevlex.json"
        doc = json.loads(path.read_text())
        doc["basis"] = doc["basis"] + doc["basis"][:1]
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        code, warm = run_cli(capsys, *args)
        assert code == 0
        assert warm == cold


class TestCacheCertification:
    """A cached basis that does not present the ideal is recomputed."""

    def _rewrite_with(self, capsys, monkeypatch, tmp_path, parts, basis):
        args = ("verify", "--partition", parts, "--suite", "gamma", "--suite", "stability",
                "--suite", "truncation", "--cache-dir", str(tmp_path))
        code, cold = run_cli(capsys, *args)
        assert code == 0
        path = tmp_path / f"gb_{parts.replace(',', '-')}_ktheory_v_degrevlex.json"
        good = path.read_text()
        doc = json.loads(good)
        doc["basis"] = basis  # order and schema_version untouched
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

        calls = []
        buchberger = groebner.buchberger

        def counting(*a, **kw):
            calls.append(a)
            return buchberger(*a, **kw)

        monkeypatch.setattr(groebner, "buchberger", counting)
        code, warm = run_cli(capsys, *args)
        assert code == 0
        assert warm == cold
        assert len(calls) == 1
        assert path.read_text() == good

    def test_unit_ideal_basis_is_recomputed(self, capsys, monkeypatch, tmp_path):
        self._rewrite_with(capsys, monkeypatch, tmp_path, "3", ["1"])

    def test_basis_missing_a_generator_is_recomputed(self, capsys, monkeypatch, tmp_path):
        # staircase 1, v1, v1^2 has the multinomial rank 3, but v1 + v2 + v3
        # does not reduce to zero
        self._rewrite_with(capsys, monkeypatch, tmp_path, "2,1", ["v1^3", "v2", "v3"])

    def test_basis_of_a_larger_ideal_is_recomputed(self, capsys, monkeypatch, tmp_path):
        # staircase 1, v2 has the rank 2 and every generator reduces to zero,
        # but the S-pair of v1 + v2 and v1 - 1 leaves v2 + 1: the unit ideal
        self._rewrite_with(capsys, monkeypatch, tmp_path, "1,1", ["v1 + v2", "v2^2", "v1 - 1"])


class TestSharedPartitionWork:
    def test_basis_and_gamma_sweep_once_per_partition(self, capsys, monkeypatch, tmp_path):
        seen = {"basis": [], "gamma": []}
        cached_buchberger = groebner.cached_buchberger
        verify_gamma_relations = lambda_ring.verify_gamma_relations

        def basis(pres, *args):
            seen["basis"].append(pres.partition.parts)
            return cached_buchberger(pres, *args)

        def gamma(p, gb):
            seen["gamma"].append(p.parts)
            return verify_gamma_relations(p, gb)

        monkeypatch.setattr(groebner, "cached_buchberger", basis)
        monkeypatch.setattr(lambda_ring, "verify_gamma_relations", gamma)
        code, doc = run_json(
            capsys, "verify", "--n", "3", "--suite", "gamma", "--suite", "lambda",
            "--suite", "truncation", "--suite", "stability", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        parts = [tuple(r["partition"]) for r in doc["results"]]
        assert seen == {"basis": parts, "gamma": parts}
        assert all(r["suites"]["lambda"]["agrees_with_gamma"] for r in doc["results"])

    def test_no_basis_outlives_its_call(self, capsys, monkeypatch):
        # each call's _Context owns its bases; nothing memoises them past it
        refs = []
        buchberger = groebner.buchberger

        def recording(*args):
            gb = buchberger(*args)
            refs.append(weakref.ref(gb))
            return gb

        monkeypatch.setattr(groebner, "buchberger", recording)
        for argv in (("verify", "--n", "3"),
                     ("presentation", "--partition", "2,1", "--flavor", "both"),
                     ("sweep", "--n", "3")):
            code, _ = run_cli(capsys, *argv)
            assert code == 0
        gc.collect()
        assert refs and [r for r in refs if r() is not None] == []

    def test_each_distinct_polynomial_reduced_once_per_basis(self, capsys, monkeypatch):
        pairs = []  # (polynomial, basis) per normal_form call; keeps each basis alive
        depth = [0]
        reductions = []
        normal_form = groebner.normal_form
        reduce = groebner._Engine.reduce

        def recording(p, gb, rng=None):
            pairs.append((p, gb))
            depth[0] += 1
            try:
                return normal_form(p, gb, rng)
            finally:
                depth[0] -= 1

        def counting(self, *args, **kwargs):
            if depth[0]:
                reductions.append(1)
            return reduce(self, *args, **kwargs)

        monkeypatch.setattr(groebner, "normal_form", recording)
        monkeypatch.setattr(lambda_ring, "normal_form", recording)
        monkeypatch.setattr(groebner._Engine, "reduce", counting)
        code, _ = run_cli(capsys, "verify", "--n", "4")
        assert code == 0
        distinct = {(p, id(gb)) for p, gb in pairs}
        assert len(reductions) == len(distinct) < len(pairs)

    def test_no_cohomology_slice_eliminated(self, capsys, monkeypatch):
        calls = []
        unit_pivots = linalg._unit_pivots

        def counting(rows):
            calls.append(1)
            return unit_pivots(rows)

        monkeypatch.setattr(linalg, "_unit_pivots", counting)
        # (2,2) has the prime 2 in its certificate, so an F_2 completion runs
        code, doc = run_json(
            capsys, "verify", "--n", "4", "--suite", "filtration", "--suite", "freeness"
        )
        assert code == 0
        assert calls == []


class TestFiltrationFlags:
    def test_filtration_ignores_convention_and_order(self, capsys, monkeypatch):
        _, default = run_json(capsys, "verify", "--n", "4", "--suite", "filtration")
        # the staircase series happens to agree under every convention and
        # order here, so also check which basis the suite asks for
        asked = []
        buchberger = groebner.buchberger

        def recording(pres, *args):
            asked.append((pres.convention, args))
            return buchberger(pres, *args)

        monkeypatch.setattr(groebner, "buchberger", recording)
        _, other = run_json(capsys, "verify", "--n", "4", "--suite", "filtration",
                            "--convention", "u", "--order", "lex")
        blocks = [r["suites"]["filtration"] for r in default["results"]]
        assert blocks == [r["suites"]["filtration"] for r in other["results"]]
        assert all(b["ok"] for b in blocks)
        # the K(v) basis, then the cohomology basis the ideal column reads
        assert asked == [("v", (groebner.DEGREVLEX,)), ("y", (groebner.DEGREVLEX,))] * len(blocks)


def planted_torsion(lam):
    """The cohomology presentation of lam with its degree-1 generator e_1 of
    all n variables scaled by 2, which no other generator recovers over Z:
    Z[y]/I then has 2-torsion, as Z[x]/(x^2, 2x) does."""
    pres = tanisaki_generators(lam)
    gens = list(pres.generators)
    k = next(i for i, g in enumerate(gens) if g.d == 1 and len(g.subset) == lam.n)
    gens[k] = dataclasses.replace(gens[k], poly=gens[k].poly * 2)
    return dataclasses.replace(pres, generators=tuple(gens))


class TestPlantedFailures:
    def test_torsion_prime_exits_one_naming_prime_and_degree(self, capsys, monkeypatch):
        lam = Partition((2, 1))
        planted = planted_torsion(lam)
        monkeypatch.setattr(cli, "tanisaki_generators", lambda p: planted)
        code, doc = run_json(capsys, "verify", "--partition", "2,1", "--suite", "freeness")
        assert code == 1
        rep = doc["results"][0]["suites"]["freeness"]
        assert rep["degrees"] == [
            {"d": 1, "rank": 1, "nonunit_factors": [2]},
            {"d": 2, "rank": 6, "nonunit_factors": [2, 2, 2]},
        ]
        # the Smith forms of the slices agree: same ranks, and as many
        # invariant factors divisible by 2 as the certificate lists
        for row in rep["degrees"]:
            rank, factors = linalg._slice(planted, row["d"])
            assert rank == row["rank"]
            assert len([f for f in factors if f % 2 == 0]) == len(row["nonunit_factors"])

    def test_wrong_basis_exits_one_after_a_passing_run(self, capsys, monkeypatch):
        # the same checks pass first on the right basis in this process; the
        # planted full-flag basis of (1,1,1) must still fail them for (2,1)
        argv = ("verify", "--partition", "2,1", "--suite", "gamma", "--suite", "truncation",
                "--suite", "stability")
        assert run_cli(capsys, *argv)[0] == 0
        cached_buchberger = groebner.cached_buchberger

        def planted(pres, *args):
            flag = Partition((1,) * pres.partition.n)
            return cached_buchberger(k_tanisaki_generators(flag, pres.convention), *args)

        monkeypatch.setattr(groebner, "cached_buchberger", planted)
        code, doc = run_json(capsys, *argv)
        assert code == 1
        suites = doc["results"][0]["suites"]
        assert not suites["gamma"]["ok"] and suites["truncation"]["failures"]

    def test_wrong_cohomology_series_exits_one_with_a_gp_finding(self, capsys, monkeypatch):
        staircase_series = groebner.staircase_series

        def moved(monos):
            # one standard monomial moved from degree 1 to degree 2, on both
            # sides: gr and ideal columns agree, and the total is unchanged
            series = list(staircase_series(monos))
            series[1] -= 1
            series[2] += 1
            return tuple(series)

        monkeypatch.setattr(groebner, "staircase_series", moved)
        code, doc = run_json(capsys, "verify", "--partition", "1,1,1", "--suite", "filtration")
        assert code == 1
        rep = doc["results"][0]["suites"]["filtration"]
        assert rep["mismatch_degree"] == 1
        assert rep["findings"] == [
            "degree 1: ideal rank 2 and gr dimension 2 vs 1 from the Garsia-Procesi series"
        ]


class TestParallel:
    def test_jobs_match_serial(self, capsys):
        serial = ("verify", "--n", "3", "--suite", "rank-lemma", "--suite", "freeness")
        _, a = run_cli(capsys, *serial)
        _, b = run_cli(capsys, *serial, "--jobs", "3")
        da, db = json.loads(a), json.loads(b)
        assert da["results"] == db["results"]

    def test_workers_capped_at_partition_count(self, capsys, monkeypatch):
        # a recorder in place of the pool: it starts no process
        asked = []

        class Recorder:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        code, doc = run_json(capsys, "verify", "--partition", "2,1", "--partition", "1,1,1",
                             "--suite", "rank-lemma", "--jobs", "64")
        assert code == 0
        assert asked == [2]
        assert doc["config"]["jobs"] == 64


def test_presentation_leaves_process_pool_unimported():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from tanisaki import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['presentation', '--partition', '2,1'])\n"
        "print(code, sorted(m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "0 []\n", proc.stderr


def test_console_script_end_to_end():
    # the child must import the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tanisaki.cli", "rank-lemma", "--partition",
         "5,4,4,2,2,2,1", "--format", "json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["results"][0]["ok"] is True
