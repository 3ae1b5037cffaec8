import concurrent.futures
import csv
import errno
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

import jsonschema
import pytest

from tanisaki import cli, groebner, ideals, lambda_ring, linalg
from tanisaki.ideals import k_tanisaki_generators, tanisaki_generators
from tanisaki.partitions import Partition, enumerate_partitions

from conftest import child_env, without_smallest_prime

with open(os.path.join(os.path.dirname(cli.__file__), "report_schema.json")) as fh:
    SCHEMA = json.load(fh)


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def readme_examples():
    """Every `tanisaki ...` line of the README's CLI code block."""
    with open(README) as fh:
        text = fh.read()
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


# the layers a refused argv must not start, each under every name it is called by
LAYERS = {
    "partitions": ((cli, "enumerate_partitions"), (Partition, "dual")),
    "completion": ((groebner, "buchberger"),),
    # the K generators and the gamma relation
    "lambda": ((ideals, "lambda_coefficient"), (lambda_ring, "lambda_coefficient")),
}

# a valid argv of each command, and the flags it reads: a literal copy of
# cli.COMMAND_FLAGS, so a flag added to a command is added here too
READS = {
    "presentation --partition 2,1":
        "--partition --flavor --convention --order --format --cache-dir",
    "verify --n 3": "--partition --n --convention --order --format --cache-dir --jobs --suite",
    "sweep --n 3": "--partition --n --convention --order --format --cache-dir",
    "gamma --partition 2,1 --subset 1 --d 1":
        "--partition --convention --order --format --cache-dir --subset --d",
    "rank-lemma --n 3": "--partition --n --format",
}
# a value for each flag that some command does not read
UNREAD = {"--n": "3", "--flavor": "both", "--convention": "u", "--order": "lex",
          "--cache-dir": "{dir}/cache", "--jobs": "2"}

# the layers that must not start: argv ({dir} is a directory holding one
# plain file, blocker) and the stderr fragment that names the reason
USAGE_ERRORS = {
    "partitions": [
        ("verify --partition 2,1,1,1,1,1", "other than rank-lemma is capped at n=5, got n=7"),
        ("sweep --n 9", "sweep is capped at n=7, got n=9"),
        ("rank-lemma --partition 0_2", "part 1 ('0_2') is not an integer"),  # not read as 2
        ("presentation --partition 99999999999", "presentation is capped at n=8"),
        ("presentation --partition 25", "presentation is capped at n=8, got n=25"),
        ("presentation --partition 9", "presentation is capped at n=8, got n=9"),
        ("gamma --partition 99999999999 --subset 1 --d 1", "gamma is capped at n=8"),
        ("rank-lemma --partition 99999999999", "the rank lemma is capped at n=40"),
        ("rank-lemma --n 41", "the rank lemma is capped at n=40, got n=41"),
        ("verify --partition 99999999999 --suite rank-lemma", "the rank lemma is capped at n=40"),
        ("verify --n 100", "other than rank-lemma is capped at n=5, got n=100"),
        ("sweep --n 100", "sweep is capped at n=7, got n=100"),
        ("verify", "no partitions given: use --partition or --n"),
        ("sweep", "no partitions given: use --partition or --n"),
        ("rank-lemma", "no partitions given: use --partition or --n"),
    ],
    "completion": [
        ("presentation --partition 1,2", "part 2 (=2) exceeds part 1 (=1)"),
        ("gamma --partition 2,1 --subset a,b --d 1", "position 1 ('a') is not an integer"),
        ("presentation", "presentation takes exactly one partition"),
        ("verify --n 2 --jobs 0", "--jobs must be >= 1, got 0"),
        ("verify --n 2 --jobs -3", "--jobs must be >= 1, got -3"),
        ("presentation --partition 2,1 --cache-dir {dir}/blocker",
         "--cache-dir '{dir}/blocker' is not a directory"),
        ("presentation --partition 2,1 --cache-dir {dir}/blocker/sub",
         "--cache-dir '{dir}/blocker/sub' cannot be created: Not a directory"),
        ("gamma --partition 3,2,2,1 --subset 9 --d 1", "index 9 out of range 1..8"),
        ("gamma --partition 3,2,2,1 --subset 3,1 --d 1", "position 2 (=1)"),
        ("gamma --partition 3,2,2,1 --subset 0_1 --d 1", "position 1 ('0_1')"),
    ],
    "lambda": [
        ("gamma --partition 2,1 --subset 1 --d 6", "--d must be <= n + 2 = 5, got 6"),
        ("gamma --partition 2,1 --subset 1 --d 1000000000", "--d must be <= n + 2 = 5"),
    ],
    "partitions completion": [
        ("presentation --partition 2,1 --escalation-depth 1",
         "unrecognized arguments: --escalation-depth"),
        ("presentation --partition 2,1 --degree-cap 1", "unrecognized arguments: --degree-cap"),
        # an abbreviation of a flag the command reads
        ("verify --n 2 --suite rank-lemma --jo 2", "unrecognized arguments: --jo 2"),
        ("rank-lemma --n 3 --f json", "unrecognized arguments: --f json"),
        *[(f"{argv} {flag} {value}", f"unrecognized arguments: {flag}")
          for argv, reads in READS.items() for flag, value in UNREAD.items()
          if flag not in reads.split()],
    ],
}
USAGE_ROWS = [pytest.param(argv, reason, layers, id=argv)
              for layers, rows in USAGE_ERRORS.items() for argv, reason in rows]


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _ = run_json(capsys, "rank-lemma", "--partition", "2,1")
        assert code == 0

    def test_each_command_takes_only_the_flags_it_reads(self):
        [subs] = [a for a in cli.build_parser()._actions if a.dest == "command"]
        taken = {name: " ".join(flag for a in sub._actions if a.dest != "help"
                                for flag in a.option_strings)
                 for name, sub in subs.choices.items()}
        assert taken == {argv.split()[0]: reads for argv, reads in READS.items()}
        assert sum(len(reads.split()) for reads in taken.values()) == 30

    @pytest.mark.parametrize("argv, reason, layers", USAGE_ROWS)
    def test_usage_error_is_two(self, capsys, monkeypatch, tmp_path, argv, reason, layers):
        def started(*args, **kwargs):
            raise AssertionError(f"{layers} started before {argv!r} was refused")

        for layer in layers.split():
            for owner, name in LAYERS[layer]:
                monkeypatch.setattr(owner, name, started)
        (tmp_path / "blocker").write_text("")
        code = cli.main(argv.format(dir=tmp_path).split())
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert reason.format(dir=tmp_path) in err
        assert os.listdir(tmp_path) == ["blocker"]  # no --cache-dir was created

    def test_rank_lemma_runs_at_its_cap(self, capsys):
        code, doc = run_json(capsys, "rank-lemma", "--partition", "20,20")
        assert code == 0 and doc["results"][0]["n"] == cli.RANK_LEMMA_MAX_N

    def test_verification_failure_is_one(self, capsys, monkeypatch):
        def broken(ctx):
            return {"partition": list(ctx.p.parts), "ok": False, "failures": [{"s": 1}]}

        monkeypatch.setitem(cli._SUITE_FN, "rank-lemma", broken)
        code, out = run_cli(
            capsys, "verify", "--partition", "2,1", "--suite", "rank-lemma"
        )
        assert code == 1

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
        # a repeated suite is named once, where it was first given
        code, doc = run_json(capsys, "verify", "--partition", "2,1", "--suite", "rank-lemma",
                             "--suite", "gamma", "--suite", "rank-lemma")
        assert code == 0
        assert doc["schema_version"] == 5
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
        "ac13eb66687a85867603cc05a81588b2b6deab28544d465d9623de2980cb531e",
    "verify --n 4 --convention u --order lex --format csv":
        "554fd357b41836e1a0bbda267876a1a6dffdd0781661db287011e14de8ec600a",
    "presentation --partition 3,2,1 --flavor both":
        "373c8b9be5267e796ec4b81428a4b03c002bb999d7e41c0eade7c81ef87c8f99",
    "gamma --partition 3,2 --subset 1,2,3 --d 1 --format text":
        "736f31e29096009ed41e85a53fa0f68c2d74052230e47740ceee4230914b27ea",
    "verify --n 5 --suite gamma --suite lambda --suite truncation --suite stability":
        "7ba80fe491a739420a5c427d374583f6a7578ef6bb94b05998d9cb8e4bc35dda",
    "presentation --partition 3,2,1 --flavor ktheory --convention u --order lex":
        "0ae5cc5dc51203969207270a3ab589715b48250dee959e4de11d49ac4f9a14a1",
    # normal form -u2 - u3 - u4 - u5 + 4: nonzero and not constant
    "gamma --partition 3,2 --subset 1 --d 1 --convention u":
        "eea4b3f806cec4c99ac74670c070f2bf5327f06b38c5250f9d60a98462e0e855",
    "rank-lemma --n 6":
        "46f46ac46f80be4539c7c0531a52fab1eb593d7c7c9d7ed9e81c6db42c8f84f7",
    "rank-lemma --partition 3,2,1 --format text":
        "78bfaa264be88e1d5ac874966bc0bd2132498ca4bc77b94504d641c6c87d4132",
}


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        args = ("verify", "--partition", "2,1", "--suite", "gamma", "--suite", "truncation")
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)
        assert a == b

    def test_convention_changes_only_the_config(self, capsys):
        # cohomology, K(u) and K(v) give the same verdicts, details included
        runs = {c: {fmt: run_cli(capsys, "verify", "--n", "4", "--convention", c,
                                 "--format", fmt) for fmt in ("json", "csv", "text")}
                for c in ("u", "v")}
        assert runs["u"]["csv"] == runs["v"]["csv"]
        assert runs["u"]["text"] == runs["v"]["text"]
        (code_u, u), (code_v, v) = ((code, json.loads(out)) for code, out in
                                    (runs["u"]["json"], runs["v"]["json"]))
        assert (u["config"].pop("convention"), v["config"].pop("convention")) == ("u", "v")
        assert (code_u, u) == (code_v, v)

    def test_sweep_deterministic_modulo_timings(self, capsys):
        _, a = run_json(capsys, "sweep", "--n", "3")
        _, b = run_json(capsys, "sweep", "--n", "3")
        for doc in (a, b):
            for row in doc["results"]:
                row.pop("time_ms")
        assert a == b

    def test_repeated_suite_runs_once(self, capsys):
        once = run_cli(capsys, "verify", "--n", "3", "--suite", "stability")
        assert run_cli(capsys, "verify", "--n", "3", "--suite", "stability",
                       "--suite", "stability") == once

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
    @pytest.mark.parametrize("command", [
        ("presentation", "--flavor", "ktheory"),
        ("verify", "--suite", "gamma", "--suite", "stability", "--suite", "truncation"),
        ("gamma", "--subset", "1,2", "--d", "2"),
    ], ids=["presentation", "verify", "gamma"])
    @pytest.mark.parametrize("parts,plant", [
        pytest.param("2,1", None, id="not-json"),
        pytest.param("2,1", lambda basis: basis + basis[:1], id="repeated-element"),
        pytest.param("2,1", lambda basis: ["1"], id="unit-ideal-2,1"),
        pytest.param("3", lambda basis: ["1"], id="unit-ideal-3"),
        # staircase 1, v1, v1^2 has the multinomial rank 3, but v1 + v2 + v3
        # does not reduce to zero
        pytest.param("2,1", lambda basis: ["v1^3", "v2", "v3"], id="missing-generator"),
        # staircase 1, v2 has the rank 2 and every generator reduces to zero,
        # but the S-pair of v1 + v2 and v1 - 1 leaves v2 + 1: the unit ideal
        pytest.param("1,1", lambda basis: ["v1 + v2", "v2^2", "v1 - 1"], id="larger-ideal"),
    ])
    def test_planted_basis_files_are_never_read(self, capsys, monkeypatch, tmp_path,
                                                command, parts, plant):
        # a stale, corrupted or planted file cannot change a report: the run
        # completes once over Q and writes every file as the cold run did
        args = (command[0], "--partition", parts, *command[1:], "--cache-dir", str(tmp_path))
        code, cold = run_cli(capsys, *args)
        assert code == 0
        written = {path: path.read_bytes() for path in tmp_path.iterdir()}
        for path, blob in written.items():
            if plant is None:
                path.write_text("{not json")
                continue
            doc = json.loads(blob)
            doc["basis"] = plant(doc["basis"])  # order and schema_version untouched
            path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

        calls = []
        buchberger = groebner.buchberger

        def counting(pres, order=groebner.DEGREVLEX, modulus=0):
            calls.append(modulus)
            return buchberger(pres, order, modulus)

        monkeypatch.setattr(groebner, "buchberger", counting)
        assert run_cli(capsys, *args) == (0, cold)
        assert calls == [0]
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == written

    def test_verify_writes_every_basis_it_completes(self, capsys, tmp_path):
        # with --order lex every suite reads the lex bases: the run completes
        # one cohomology basis per partition, and the K(v) basis shares it
        # and is written beside it
        code, _ = run_cli(capsys, "verify", "--n", "3", "--order", "lex",
                          "--cache-dir", str(tmp_path))
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == [
            f"gb_{parts}_{kind}.json"
            for parts in ("1-1-1", "2-1", "3")
            for kind in ("cohomology_y_lex", "ktheory_v_lex")
        ]

    @pytest.mark.parametrize("convention", ["u", "v"])
    def test_shared_kv_basis_file_matches_the_direct_completion(self, capsys, tmp_path,
                                                                convention):
        # the K file is written from the shared basis in the K variables,
        # with the name and bytes a completion of the K presentation itself
        # would give: the schema version, the order and the basis
        lam = Partition((3, 2, 1))
        run, direct = tmp_path / "run", tmp_path / "direct"
        direct.mkdir()  # `main` creates the run's directory; `write_basis` creates none
        for order in ("degrevlex", "lex"):
            code, _ = run_cli(capsys, "presentation", "--partition", str(lam), "--convention",
                              convention, "--order", order, "--cache-dir", str(run))
            assert code == 0
            groebner.cached_buchberger(k_tanisaki_generators(lam, convention),
                                       groebner.MonomialOrder(order), str(direct))
        [name, name_lex] = sorted(os.listdir(direct))
        assert name == f"gb_3-2-1_ktheory_{convention}_degrevlex.json"
        assert name_lex == f"gb_3-2-1_ktheory_{convention}_lex.json"
        for f, order in ((name, "degrevlex"), (name_lex, "lex")):
            blob = (run / f).read_bytes()
            assert blob == (direct / f).read_bytes()
            doc = json.loads(blob)
            assert set(doc) == {"schema_version", "order", "basis"}
            assert (doc["schema_version"], doc["order"]["kind"]) == (2, order)


class TestFiltrationFlags:
    def test_filtration_reads_the_runs_order_with_the_same_report(self, capsys):
        # the ideal is homogeneous, so its staircase series is the same under
        # every order; which basis the suite completes is a ledger row
        _, default = run_json(capsys, "verify", "--n", "4", "--suite", "filtration")
        _, other = run_json(capsys, "verify", "--n", "4", "--suite", "filtration",
                            "--convention", "u", "--order", "lex")
        blocks = [r["suites"]["filtration"] for r in default["results"]]
        assert blocks == [r["suites"]["filtration"] for r in other["results"]]
        assert all(b["ok"] for b in blocks)


def planted_torsion(lam):
    """The cohomology presentation of lam with its degree-1 generator e_1 of
    all n variables scaled by 2, which no other generator recovers over Z:
    Z[y]/I then has 2-torsion, as Z[x]/(x^2, 2x) does."""
    pres = tanisaki_generators(lam)
    gens = list(pres.generators)
    k = next(i for i, g in enumerate(gens) if g.d == 1 and len(g.subset) == lam.n)
    gens[k] = gens[k]._replace(poly=gens[k].poly * 2)
    return pres._replace(generators=tuple(gens))


class TestPlantedFailures:
    @pytest.mark.parametrize("order", ["degrevlex", "deglex", "lex"])
    @pytest.mark.parametrize("convention", ["u", "v"])
    def test_torsion_prime_exits_one_naming_prime_and_degree(self, capsys, monkeypatch,
                                                             convention, order):
        # the freeness suite reads the run's own completion: the torsion is
        # named the same under every order and convention
        lam = Partition((2, 1))
        planted = planted_torsion(lam)
        monkeypatch.setattr(cli, "tanisaki_generators", lambda p: planted)
        code, doc = run_json(capsys, "verify", "--partition", "2,1", "--suite", "freeness",
                             "--convention", convention, "--order", order)
        assert code == 1
        rep = doc["results"][0]["suites"]["freeness"]
        assert rep["degrees"] == [
            {"d": 1, "rank": 1, "nonunit_factors": [2]},
            {"d": 2, "rank": 6, "nonunit_factors": [2, 2, 2]},
        ]
        assert rep["primes"] == [{"p": 2, "series": [1, 3, 3]}]
        # the Smith forms of the slices agree: same ranks, and as many
        # invariant factors divisible by 2 as the certificate lists
        for row in rep["degrees"]:
            rank, factors = linalg._slice(planted, row["d"])
            assert rank == row["rank"]
            assert len([f for f in factors if f % 2 == 0]) == len(row["nonunit_factors"])

    def test_torsion_beside_a_skipped_prime_exits_one_naming_the_prime(self, capsys,
                                                                       monkeypatch):
        # the F_2 series is the only witness of the torsion: with it dropped
        # no degree lists torsion, and the block fails on the prime it lacks
        planted = planted_torsion(Partition((2, 1)))
        monkeypatch.setattr(cli, "tanisaki_generators", lambda p: planted)
        monkeypatch.setattr(groebner, "modular_series", without_smallest_prime)
        code, doc = run_json(capsys, "verify", "--partition", "2,1", "--suite", "freeness")
        assert code == 1
        rep = doc["results"][0]["suites"]["freeness"]
        assert rep["primes"] == [{"p": 2, "series": None}]
        assert [row["nonunit_factors"] for row in rep["degrees"]] == [[], []]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    @pytest.mark.parametrize("skip, detail", [
        # the degrees the json report lists, prime 2 in degrees 1 and 2
        pytest.param(False, [{"d": 1, "nonunit_factors": [2], "rank": 1},
                             {"d": 2, "nonunit_factors": [2, 2, 2], "rank": 6}], id="torsion"),
        # the prime with no F_2 series, which hides the torsion
        pytest.param(True, [{"p": 2, "series": None}], id="skipped-prime"),
    ])
    def test_torsion_degrees_named_in_csv_and_text(self, capsys, monkeypatch, fmt, skip,
                                                   detail):
        # what the json block fails on is the detail of the csv row and the
        # counterexamples of the text block
        lam = Partition((2, 1))
        planted = planted_torsion(lam)
        monkeypatch.setattr(cli, "tanisaki_generators", lambda p: planted)
        if skip:
            monkeypatch.setattr(groebner, "modular_series", without_smallest_prime)
        code, out = run_cli(capsys, "verify", "--partition", "2,1", "--suite", "freeness",
                            "--format", fmt)
        assert code == 1
        if fmt == "csv":
            assert list(csv.reader(io.StringIO(out))) == [
                ["partition", "suite", "status", "detail"],
                ["2,1", "freeness", "fail", json.dumps(detail, sort_keys=True)],
            ]
        else:
            assert out.splitlines()[2:] == ["  freeness     FAIL"] + [
                f"    counterexample: {json.dumps(row, sort_keys=True)}" for row in detail]

    def test_rank_lemma_mismatch_named_in_csv_and_text(self, capsys, monkeypatch):
        lam = Partition((2, 1))
        (s, p_dual, rank), *rest = linalg.verify_rank_lemma(lam).rows
        planted = linalg.RankLemmaReport(lam, ((s, p_dual, rank + 1), *rest), False)
        monkeypatch.setattr(linalg, "verify_rank_lemma", lambda p: planted)
        line = json.dumps({"jordan_rank": rank + 1, "p_dual": p_dual, "s": s})
        code, out = run_cli(capsys, "verify", "--partition", "2,1", "--suite", "rank-lemma",
                            "--format", "csv")
        assert code == 1
        assert list(csv.reader(io.StringIO(out)))[1] == ["2,1", "rank-lemma", "fail", f"[{line}]"]
        code, out = run_cli(capsys, "verify", "--partition", "2,1", "--suite", "rank-lemma",
                            "--format", "text")
        assert code == 1
        assert out.splitlines()[2:] == ["  rank-lemma   FAIL", f"    counterexample: {line}"]
        code, out = run_cli(capsys, "rank-lemma", "--partition", "2,1", "--format", "text")
        assert code == 1
        assert out.splitlines()[2:] == ["  rank lemma rows 3  mismatches 1",
                                        f"    counterexample: {line}"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stability_checks_each_cohomology_generator_per_permutation(self, capsys, n):
        # (1 2) and (1 2 ... n) are one permutation at n = 2 and none at n = 1
        code, doc = run_json(capsys, "verify", "--n", str(n), "--suite", "stability")
        assert code == 0
        for r in doc["results"]:
            gens = len(tanisaki_generators(Partition(tuple(r["partition"]))).generators)
            assert r["suites"]["stability"]["checks"] == min(n - 1, 2) * gens

    @pytest.mark.parametrize("convention", ["u", "v"])
    def test_smaller_ideal_basis_fails_every_membership_check(self, convention):
        # past the staircase check, the membership pass reports the
        # generators of (2,1) that the full-flag ideal of (1,1,1) lacks; so
        # do the K generators permuted by adjacent transpositions, reduced
        # here directly.  The K presentation of either convention is read
        # in v (u_i = v_i + 1), as the CLI reads it once certified
        def in_v(q):
            return q.shift_variables(1) if convention == "u" else q

        lam = Partition((2, 1))
        gb = groebner.buchberger([in_v(g.poly) for g in
                                  k_tanisaki_generators(Partition((1, 1, 1)), convention).generators])
        ctx = cli._Context(lam, cli.RunConfig([lam], convention=convention))
        ctx.bases[ideals.COHOMOLOGY] = (gb, groebner.standard_monomials(gb))
        assert ctx.membership() == {
            "partition": [2, 1], "checks": 6, "ok": False,
            "failures": [{"subset": subset, "d": 2} for subset in ([1, 2], [1, 3], [2, 3])]}
        images = [in_v(g.poly.permute_variables(sigma))
                  for g in k_tanisaki_generators(lam, convention).generators
                  for sigma in ((2, 1, 3), (1, 3, 2))]
        assert any(not groebner.normal_form(image, gb).is_zero() for image in images)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_wrong_cohomology_series_exits_one_with_a_gp_finding(self, capsys, monkeypatch,
                                                                 fmt):
        staircase_series = groebner.staircase_series

        def moved(monos):
            # one standard monomial moved from degree 1 to degree 2: the
            # total is unchanged, so only the series tells
            series = list(staircase_series(monos))
            series[1] -= 1
            series[2] += 1
            return tuple(series)

        monkeypatch.setattr(groebner, "staircase_series", moved)
        code = cli.main(["verify", "--partition", "1,1,1", "--suite", "filtration",
                         "--format", fmt])
        out, err = capsys.readouterr()
        # the basis is refused before any report, with the finding that
        # `filtration_check` gives (its text is pinned in test_linalg.py)
        finding = linalg.filtration_check(Partition((1, 1, 1)), (1, 1, 3, 1)).findings[0]
        assert (code, out, err) == (
            1, "", f"error: wrong cohomology basis: partition 1,1,1: {finding}\n")


class TestMembershipPass:
    """The membership pass stands for the relation sweeps and the truncation
    certificates, which stay in `lambda_ring` and `ideals`: on the same
    basis it fails on the same subsets as each of them."""

    @pytest.mark.parametrize("convention", ["u", "v"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fails_on_the_subsets_the_sweeps_fail(self, n, convention):
        # every lam |- n read against the completion of every mu |- n: the
        # smaller ideals of the dominated mu lack some generators of lam
        bases = {mu: groebner.buchberger(tanisaki_generators(mu))
                 for mu in enumerate_partitions(n)}
        failing = 0
        for lam in enumerate_partitions(n):
            for gb in bases.values():
                ctx = cli._Context(lam, cli.RunConfig([lam], convention=convention))
                ctx.bases[ideals.COHOMOLOGY] = (gb, groebner.standard_monomials(gb))
                members = {tuple(f["subset"]) for f in ctx.membership()["failures"]}
                gamma, lam_ = ({subset for subset, _ in report.failures()} for report in (
                    lambda_ring.verify_gamma_relations(lam, gb),
                    lambda_ring.equivalent_lambda_relations(lam, gb)))
                truncation = {subset for subset, _ in ideals.relation_grid(lam)
                              for cert in ideals.truncation_certificate(lam, subset)
                              if not groebner.normal_form(cert["h"], gb).is_zero()}
                assert members == gamma == lam_ == truncation, (lam, gb.source.partition)
                failing += bool(members)
        assert failing == {1: 0, 2: 1, 3: 3, 4: 10, 5: 21}[n]


class TestParallel:
    def test_jobs_match_serial(self, capsys):
        serial = ("verify", "--n", "3", "--suite", "rank-lemma", "--suite", "freeness")
        _, a = run_cli(capsys, *serial)
        _, b = run_cli(capsys, *serial, "--jobs", "3")
        da, db = json.loads(a), json.loads(b)
        assert da["results"] == db["results"]

    def test_workers_capped_at_partition_count(self, capsys, monkeypatch):
        # a recorder in place of the pool: it starts no process, and notes the
        # contiguous shares that map would hand out for the chunksize it is given
        asked = []
        shares = []

        class Recorder:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                parts = [list(p.parts) for p in iterables[0]]
                shares.append([parts[i:i + chunksize] for i in range(0, len(parts), chunksize)])
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        code, doc = run_json(capsys, "verify", "--partition", "2,1", "--partition", "1,1,1",
                             "--suite", "rank-lemma", "--jobs", "64")
        assert code == 0
        assert asked == [2]
        assert doc["config"]["jobs"] == 64
        # five partitions on two workers: one contiguous share each, in order
        code, doc = run_json(capsys, "verify", "--n", "4", "--suite", "rank-lemma", "--jobs", "2")
        assert code == 0
        assert asked == [2, 2]
        assert shares[1] == [[[4], [3, 1], [2, 2]], [[2, 1, 1], [1, 1, 1, 1]]]
        assert [r["partition"] for r in doc["results"]] == [p for s in shares[1] for p in s]


def test_presentation_leaves_process_pool_unimported():
    # importing the CLI loads every layer, and neither dataclasses nor inspect
    layers = ("groebner", "ideals", "lambda_ring", "linalg", "partitions", "polynomial")
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from tanisaki import cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'inspect'}),"
        f" [m for m in {layers!r} if 'tanisaki.' + m not in added])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['presentation', '--partition', '2,1'])\n"
        "print(code, sorted(m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=child_env(),
    )
    assert proc.stdout == "[] []\n0 []\n", proc.stderr
    # nor tempfile, shutil or random, which only a basis file write needs;
    # -S keeps site's .pth files from loading them first
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from tanisaki import cli\n"
        "print(sorted((set(sys.modules) - before) & {'tempfile', 'shutil', 'random'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120,
        env=child_env(),
    )
    assert proc.stdout == "[]\n", proc.stderr


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "tanisaki.cli", "rank-lemma", "--partition",
         "5,4,4,2,2,2,1", "--format", "json"],
        capture_output=True, text=True, timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["results"][0]["ok"] is True


class _Broken:
    """A rank-lemma report that fails."""

    def to_dict(self):
        return {"ok": False, "failures": [{"s": 1}]}


# the child plants the same failure, then runs the module as `python -m` does;
# an atexit hook shows whether the interpreter's teardown ran
PLANTED_CHILD = """\
import atexit, runpy, sys
from tanisaki import linalg
class _Broken:
    def to_dict(self):
        return {"ok": False, "failures": [{"s": 1}]}
linalg.verify_rank_lemma = lambda p: _Broken()
atexit.register(lambda: print("teardown", file=sys.stderr))
sys.argv = ["tanisaki"] + sys.argv[1:]
runpy.run_module("tanisaki.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code, planted", [
    (("presentation", "--partition", "3,1", "--flavor", "both"), 0, False),
    (("verify", "--partition", "2,1", "--suite", "rank-lemma", "--format", "text"), 1, True),
    (("presentation", "--partition", "9"), 2, False),
    (("rank-lemma", "--partition", "2,1", "--order", "lex"), 2, False),
], ids=["pass", "planted-failure", "capped-n", "unread-flag"])
def test_module_entry_point_matches_main(capsys, monkeypatch, argv, code, planted):
    head = ["-c", PLANTED_CHILD] if planted else ["-m", "tanisaki.cli"]
    proc = subprocess.run(
        [sys.executable, *head, *argv], capture_output=True, timeout=120,
        env=child_env(),
    )
    if planted:
        monkeypatch.setattr(linalg, "verify_rank_lemma", lambda p: _Broken())
        assert proc.stderr == b""  # the hard exit skipped the atexit hook
    assert (cli.main(list(argv)), capsys.readouterr().out.encode()) == (code, proc.stdout)
    assert proc.returncode == code


# what the `tanisaki` console script runs
CONSOLE_SCRIPT = "import sys\nfrom tanisaki.cli import main\nsys.exit(main())\n"


@pytest.mark.parametrize("target, reason", [
    ("closed-pipe", "Broken pipe"),
    pytest.param("/dev/full", "No space left on device", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
], ids=["closed-pipe", "dev-full"])
@pytest.mark.parametrize("head", [["-m", "tanisaki.cli"], ["-c", CONSOLE_SCRIPT]],
                         ids=["module", "console-script"])
def test_unwritable_report_exits_2(target, reason, head):
    if target == "closed-pipe":
        r, fd = os.pipe()
        os.close(r)  # closed before the child starts: every write is EPIPE
    else:
        fd = os.open(target, os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, *head, "rank-lemma", "--partition", "2,1", "--format", "text"],
            stdout=fd, stderr=subprocess.PIPE, text=True, timeout=120,
            env=child_env(),
        )
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write the report: {reason}\n")


def test_unwritable_basis_file_exits_2(capsys, monkeypatch, tmp_path):
    target = str(tmp_path / "gb.json")

    def full(pres, polys, order, cache_dir):
        raise OSError(errno.ENOSPC, "No space left on device", target)

    monkeypatch.setattr(groebner, "write_basis", full)
    code = cli.main(["presentation", "--partition", "2,1", "--cache-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: cannot write {target}: No space left on device\n")
