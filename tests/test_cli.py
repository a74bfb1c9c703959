"""End-to-end CLI behavior through the argparse entry point."""

import json
import shlex
import time
from pathlib import Path

import pytest

from wbslab.cli import build_parser, main
from wbslab.errors import InvalidInputError
from wbslab.schreier import count_max_at_most, unlimited_int_digits


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestSchreierCommands:
    def test_unrank(self, capsys):
        code, payload = run_cli(capsys, "schreier", "unrank", "5")
        assert code == 0
        assert payload["set"] == [3, 4, 5]

    def test_rank(self, capsys):
        code, payload = run_cli(capsys, "schreier", "rank", "3,4,5")
        assert code == 0
        assert payload["rank"] == "5"

    def test_rank_json_form(self, capsys):
        code, payload = run_cli(capsys, "schreier", "rank", "[2, 3]")
        assert payload["rank"] == "2"

    def test_count(self, capsys):
        code, payload = run_cli(capsys, "schreier", "count", "15")
        assert payload["count_max_at_most"] == "610"

    def test_alt_enumeration_flag(self, capsys):
        code, payload = run_cli(
            capsys, "schreier", "rank", "3,4,5", "--enumeration", "alt"
        )
        assert payload["rank"] == "4"

    def test_ranks_past_the_int_digit_limit_round_trip(self, capsys):
        code, payload = run_cli(capsys, "schreier", "rank", "2,1000000")
        assert code == 0 and len(payload["rank"]) > 200_000
        code, back = run_cli(capsys, "schreier", "unrank", payload["rank"])
        assert code == 0 and back["set"] == [2, 1_000_000]

    def test_count_past_the_int_digit_limit(self, capsys):
        code, payload = run_cli(capsys, "schreier", "count", "30000")
        assert code == 0
        with unlimited_int_digits():
            assert payload["count_max_at_most"] == str(count_max_at_most(30000))
        assert len(payload["count_max_at_most"]) > 4300

    def test_invalid_set_exits_nonzero(self, capsys):
        code = main(["schreier", "rank", "2,3,4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "InvalidInputError" in err


class TestCesaroCommand:
    def test_identity(self, capsys):
        code, payload = run_cli(
            capsys, "cesaro", "certify", "--subsequence", "identity", "--N", "2"
        )
        assert code == 0
        assert payload["A_N"] == [3, 4, 5]
        assert payload["i0"] == "5"
        assert payload["mean"] == "1/2"
        assert payload["prefix_len"] == 5

    def test_rule_and_enumeration(self, capsys):
        code, payload = run_cli(
            capsys,
            "cesaro", "certify",
            "--subsequence", "affine:2,0",
            "--N", "3",
            "--enumeration", "alt",
        )
        assert code == 0
        assert payload["A_N"] == list(range(8, 24, 2))
        assert payload["enumeration"] == "alt"

    def test_terms_file(self, capsys, tmp_path):
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps(list(range(1, 40))))
        code, payload = run_cli(
            capsys, "cesaro", "certify", "--subsequence", str(terms), "--N", "4"
        )
        assert code == 0
        num, den = payload["mean"].split("/")
        assert int(num) * 2 >= int(den)

    def test_long_inline_terms(self, capsys):
        terms = ",".join(str(i) for i in range(1, 120))
        assert len(terms) > 255
        code, payload = run_cli(capsys, "cesaro", "certify", "--subsequence", terms, "--N", "4")
        assert code == 0 and payload["prefix_len"] <= 119

    def test_witness_coordinate_past_the_int_digit_limit(self, capsys):
        code, payload = run_cli(
            capsys, "cesaro", "certify", "--subsequence", "identity", "--N", "20000"
        )
        assert code == 0
        assert payload["A_N"] == list(range(20001, 40002))
        assert len(payload["i0"]) > 4300 and payload["mean"] == "1/2"

    def test_short_prefix_fails_cleanly(self, capsys):
        code = main(["cesaro", "certify", "--subsequence", "1,2,3", "--N", "4"])
        assert code == 2
        assert "NeedsMoreDataError" in capsys.readouterr().err


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"points": [[float(i)] for i in range(8)]}))
    return path


class TestMetricAndPairs:
    def test_validate_ok(self, capsys, space_file):
        code, payload = run_cli(capsys, "metric", "validate", str(space_file))
        assert code == 0 and payload["ok"]

    def test_validate_bad_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
        code, payload = run_cli(capsys, "metric", "validate", str(path))
        assert code == 1
        assert payload["violations"]

    def test_find_then_verify(self, capsys, space_file, tmp_path):
        fam_path = tmp_path / "family.json"
        code, payload = run_cli(
            capsys,
            "pairs", "find", str(space_file),
            "--K", "0.25", "--count", "3",
            "--out", str(fam_path),
        )
        assert code == 0 and payload["ok"] and payload["found"] == 3
        code, payload = run_cli(
            capsys, "pairs", "verify", str(space_file), str(fam_path)
        )
        assert code == 0 and payload["ok"]

    def test_find_failure_reports_best(self, capsys, space_file):
        code, payload = run_cli(
            capsys, "pairs", "find", str(space_file), "--K", "0.25", "--count", "7"
        )
        assert code == 1
        assert payload["found"] == 4
        assert not payload["ok"]

    def test_validate_infinite_matrix_is_json_error(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"matrix": [[0, float("inf")], [float("inf"), 0]]}))
        assert main(["metric", "validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError" and "infinite" in err["message"]

    def test_find_accepts_long_inline_json(self, capsys, tmp_path):
        # past the 255-byte file-name limit the path probe raised OSError
        text = json.dumps({"points": [[float(i), float(i * i % 7)] for i in range(40)]})
        assert len(text) == 522
        path = tmp_path / "space.json"
        path.write_text(text)
        args = ["--K", "0.5", "--count", "2"]
        code, inline = run_cli(capsys, "pairs", "find", text, *args)
        assert code == 0 and inline["ok"]
        assert run_cli(capsys, "pairs", "find", str(path), *args) == (0, inline)

    def test_malformed_long_json_is_json_error(self, capsys):
        text = json.dumps({"points": [[float(i), 0.0] for i in range(60)]})[:-3]
        assert len(text) > 255
        assert main(["pairs", "find", text, "--K", "0.5"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "JSONDecodeError"

    def test_validate_accepts_inline_json(self, capsys, space_file):
        inline = run_cli(capsys, "metric", "validate", space_file.read_text())
        assert inline == run_cli(capsys, "metric", "validate", str(space_file))
        assert inline[0] == 0 and inline[1]["ok"]


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "validate", "{missing}"],
        ["metric", "validate", '{"matrix": [[0, "a"], ["a", 0]]}'],
        ["pairs", "verify", "{space}", "{missing}"],
        ["pairs", "verify", "{space}", "[1]"],
        ["pairs", "verify", "{space}", '{"pairs": [["p0", "p1"]]}'],
        ["pairs", "verify", "{space}", '{"K": 0.5}'],
        ["pairs", "find", "[1, 2]"],
        ["pairs", "find", '{"matrix": "x"}'],
        ["pairs", "find", '{"points": ["x", "y"]}'],
        ["holder", "seminorm", "{space}", "{missing}"],
        ["embed", "holder", "{space}", "{missing}"],
        ["classify", "ordinal"],
        ["metric", "validate", "{dir}"],
        ["holder", "seminorm", "{space}", '{"a": 1}'],
        ["holder", "seminorm", "{space}", '["x"]'],
        ["pairs", "find", '{"points": 5}'],
        ["pairs", "find", '{"points": [[0], [1]], "labels": 5}'],
        ["embed", "holder", "{space}", '{"K": 0.5, "pairs": [["p0", "p1"]]}', "--vector", "a,b"],
        ["embed", "holder", "{space}", '{"K": 0.5, "pairs": [["p0", "p1"]]}', "--vector", "random:-1"],
        ["schreier", "unrank", "abc"],
        ["schreier", "unrank", "0x10"],
        ["schreier", "rank", "a,b"],
        ["schreier", "count", "abc"],
        ["classify", "linf", "--masses", "1,a"],
        # values the library rejects
        ["cesaro", "certify", "--subsequence", "affine:x", "--N", "2"],
        ["cesaro", "certify", "--subsequence", "geometric:x", "--N", "2"],
        ["metric", "validate", "{space}", "--tolerance", "nope=1"],
        ["metric", "validate", "{space}", "--tolerance", "triangle_rel=abc"],
        ["metric", "validate", "{space}", "--tolerance", "triangle_rel"],
        ["embed", "linf", "--masses", "1,2", "--vector", "random:1:0"],
        ["embed", "cb", "{space}", "--centers", "p0", "--radii", "0.4", "--vector", "random:1:0"],
        ["holder", "bump", "{space}", "--pair", "p0,p1,p2"],
        ["holder", "bump", "{space}", "--kind", "tent"],
        ["schreier", "count", "15", "--out", "{dir}"],
        ["classify", "ordinal", "w^(" * 1000 + "1" + ")" * 1000],
        # missing required arguments
        ["embed", "cb", "{space}", "--centers", "p0"],
        ["embed", "cb", "{space}", "--radii", "0.4"],
        ["embed", "linf"],
        ["classify", "linf"],
        ["embed", "holder", "{space}"],
        ["embed", "holder"],
        ["holder", "seminorm", "{space}"],
        ["holder", "bump", "{space}"],
        ["pairs", "verify", "{space}"],
        ["schreier", "unrank"],
        ["schreier"],
        [],
        # shared flags on actions that do not read them, and deleted aliases
        ["schreier", "count", "5", "--enumeration", "alt"],
        ["schreier", "rank", "3,4,5", "--tolerance", "nope=1"],
        ["cesaro", "certify", "--subsequence", "identity", "--N", "2", "--tolerance", "a=1"],
        ["classify", "ordinal", "w", "--seed", "3"],
        ["pairs", "find", "{space}", "--tolerance", "triangle_rel=1"],
        ["embed", "linf", "--masses", "1", "--vector", "1", "--report", "r.json"],
        ["classify", "cb", "w*5"],
        ["classify", "ordinal", "--ordinal", "w"],
        ["classify", "calpha", "--assume", "finite"],
        ["classify", "cb", "--ordinal", "w", "--assume", "noncompact"],
        ["classify", "calpha", "--points", "3", "--assume", "infinite"],
    ],
)
def test_malformed_arguments_are_json_errors(capsys, space_file, tmp_path, argv):
    names = {
        "{space}": str(space_file),
        "{missing}": str(tmp_path / "nosuch.json"),
        "{dir}": str(tmp_path),
    }
    assert main([names.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["cesaro", "certify", "--subsequence", "geometric:1,2", "--N", "9"],
        ["schreier", "count", str(10**30)],
        ["schreier", "rank", f"2,{10**30}"],
    ],
)
def test_grades_past_the_cap_fail_at_once(capsys, argv):
    # each of these ran for minutes in the Fibonacci count before the cap
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "largest supported grade" in json.loads(captured.err)["message"]


def test_usage_error_names_the_action(capsys):
    assert main(["embed", "cb", "space.json", "--centers", "p0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "InvalidInputError",
        "message": "wbslab embed cb: the following arguments are required: --radii",
    }


def test_stray_arguments_name_the_action(capsys):
    assert main(["schreier", "count", "5", "--enumeration", "alt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "InvalidInputError",
        "message": "wbslab schreier count: unrecognized arguments: --enumeration alt",
    }


def test_pinned_error_messages(capsys):
    # the benchmark's golden digests cover these stderr payloads
    assert main(["classify", "cb"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "WbsLabError",
        "message": "classify cb needs --ordinal EXPR or --assume noncompact",
    }
    assert main(["classify", "calpha"]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == (
        "classify calpha needs --points N or --assume infinite"
    )


# The minimal call of each action and the shared flags its handler reads.
ACTIONS = [
    (["schreier", "unrank", "5"], {"--enumeration"}),
    (["schreier", "rank", "3,4,5"], {"--enumeration"}),
    (["schreier", "count", "5"], set()),
    (["cesaro", "certify", "--subsequence", "identity", "--N", "2"], {"--enumeration", "--seed"}),
    (["metric", "validate", "S"], {"--tolerance"}),
    (["pairs", "find", "S"], set()),
    (["pairs", "verify", "S", "F"], set()),
    (["holder", "seminorm", "S", "F"], set()),
    (["holder", "bump", "S"], set()),
    (["embed", "holder", "S", "F"], {"--seed", "--tolerance"}),
    (["embed", "cb", "S", "--centers", "p0", "--radii", "1"], {"--seed"}),
    (["embed", "linf", "--masses", "1"], {"--seed"}),
    (["classify", "calpha"], set()),
    (["classify", "cb"], set()),
    (["classify", "linf", "--masses", "1"], set()),
    (["classify", "ordinal", "w"], set()),
    (["experiment", "run", "all"], {"--seed", "--enumeration", "--tolerance"}),
]
SHARED_FLAGS = {"--seed": "3", "--enumeration": "alt", "--tolerance": "float_slack=1e-9"}


@pytest.mark.parametrize("argv, reads", ACTIONS, ids=[" ".join(argv[:2]) for argv, _ in ACTIONS])
def test_shared_flags_only_where_read(argv, reads):
    parser = build_parser()
    args = parser.parse_args(argv + ["--out", "report.json"])
    assert args.out == Path("report.json") and callable(args.handler)
    for flag, value in SHARED_FLAGS.items():
        if flag in reads:
            parser.parse_args(argv + [flag, value])
        else:
            with pytest.raises(InvalidInputError, match=f"unrecognized arguments: {flag}"):
                parser.parse_args(argv + [flag, value])


def _readme_tour() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in tour.splitlines() if line.startswith("wbslab ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_tour_parses():
    calls = _readme_tour()
    assert len(calls) >= 20
    for argv in calls:
        args = build_parser().parse_args(argv)
        assert callable(args.handler)


class TestHolderAndEmbed:
    def test_seminorm(self, capsys, space_file, tmp_path):
        field = tmp_path / "field.json"
        field.write_text(json.dumps([0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0]))
        code, payload = run_cli(
            capsys,
            "holder", "seminorm", str(space_file), str(field), "--alpha", "1.0",
        )
        assert code == 0
        assert payload["seminorm"] == 2.0
        assert payload["holder_norm"] == payload["sup_norm"] + payload["seminorm"]

    def test_bump(self, capsys, space_file):
        code, payload = run_cli(
            capsys,
            "holder", "bump", str(space_file),
            "--kind", "pair", "--pair", "p0,p1", "--K", "0.5", "--alpha", "1.0",
        )
        assert code == 0
        assert payload["support"] == ["p1"]

    def test_embed_holder_report(self, capsys, space_file, tmp_path):
        fam_path = tmp_path / "family.json"
        run_cli(
            capsys,
            "pairs", "find", str(space_file),
            "--K", "0.5", "--count", "3", "--out", str(fam_path),
        )
        code, payload = run_cli(
            capsys,
            "embed", "holder", str(space_file), str(fam_path),
            "--alpha", "0.5", "--vector", "random:4:10",
        )
        assert code == 0
        assert 1.0 <= payload["lower"] <= payload["upper"] <= payload["bound_upper"] + 1e-9

    def test_embed_cb(self, capsys, space_file):
        code, payload = run_cli(
            capsys,
            "embed", "cb", str(space_file),
            "--centers", "p0,p2,p4",
            "--radii", "0.4,0.4,0.4",
            "--vector", "1.0,-2.0,0.5",
        )
        assert code == 0
        assert payload["isometric"]
        assert payload["image_sup"] == 2.0

    def test_embed_linf_long_inline_vector(self, capsys):
        vector = ",".join(["0.125"] * 100)
        assert len(vector) > 255
        code, payload = run_cli(
            capsys, "embed", "linf", "--masses", ",".join(["1"] * 100), "--vector", vector
        )
        assert code == 0 and payload["isometric"]

    def test_embed_linf(self, capsys):
        code, payload = run_cli(
            capsys,
            "embed", "linf", "--masses", "1,2,3", "--vector", "0.5,-1.5,1.0",
        )
        assert code == 0
        assert payload["isometric"]


    @pytest.mark.parametrize("action", ["linf", "cb"])
    def test_single_vector_actions_draw_one_vector(self, capsys, space_file, action):
        # the first vector of random:1:COUNT is the same for every COUNT
        args = {
            "linf": ["embed", "linf", "--masses", "1,2,3"],
            "cb": ["embed", "cb", str(space_file), "--centers", "p0,p2,p4", "--radii", "0.4,0.4,0.4"],
        }[action]
        assert main(args + ["--vector", "random:1:1"]) == 0
        one = capsys.readouterr().out
        start = time.perf_counter()
        assert main(args + ["--vector", "random:1:200000"]) == 0
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().out == one


class TestClassifyCommands:
    def test_ordinal(self, capsys):
        code, payload = run_cli(capsys, "classify", "ordinal", "w^2*3 + w*2 + 5")
        assert code == 0 and payload["wbs"]

    def test_ordinal_infinite_rank(self, capsys):
        code, payload = run_cli(capsys, "classify", "ordinal", "w^w")
        assert not payload["wbs"]

    def test_cb_noncompact(self, capsys):
        code, payload = run_cli(capsys, "classify", "cb", "--assume", "noncompact")
        assert not payload["wbs"]
        assert "assumption" in payload

    def test_cb_with_ordinal(self, capsys):
        code, payload = run_cli(capsys, "classify", "cb", "--ordinal", "w*5")
        assert payload["wbs"]

    def test_linf(self, capsys):
        code, payload = run_cli(capsys, "classify", "linf", "--masses", "1,2")
        assert payload["wbs"]
        code, payload = run_cli(
            capsys, "classify", "linf", "--masses", "1,2", "--more-sets"
        )
        assert not payload["wbs"]

    def test_calpha(self, capsys):
        code, payload = run_cli(capsys, "classify", "calpha", "--points", "10")
        assert payload["wbs"]
        code, payload = run_cli(capsys, "classify", "calpha", "--assume", "infinite")
        assert not payload["wbs"]


class TestExperimentCommand:
    def test_isometry_suite(self, capsys, tmp_path):
        code, payload = run_cli(
            capsys,
            "experiment", "run", "isometry-suite",
            "--seed", "5", "--report-dir", str(tmp_path),
        )
        assert code == 0 and payload["ok"]
        assert (tmp_path / "isometry-suite.json").exists()
        assert (tmp_path / "isometry-suite.csv").exists()

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiment", "run", "bogus"]) == 2
        assert "error" in json.loads(capsys.readouterr().err)
