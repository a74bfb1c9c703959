"""End-to-end CLI behavior through the argparse entry point."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wbslab.classify import FiniteMeasurePartition
from wbslab.cli import build_parser, main
from wbslab.embed import (
    FiniteSequence,
    StepFunction,
    build_support_map,
    distortion_report,
    embed_cb,
    embed_holder,
    embed_linf,
    tent_images,
    verify_sandwich,
)
from wbslab.errors import WbsLabError
from wbslab.holder import pair_bump, tent_bump
from wbslab.inputs import cell_masses
from wbslab.metric import SeparatedPairFamily, find_pair_family, load_space
from wbslab.schreier import count_max_at_most

from golden.regenerate import tour_lines
from oracles import int_digit_limit


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
        with int_digit_limit(0):
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

    def test_past_the_term_cap_names_the_terms_needed(self, capsys):
        # random:5 grows slowly; the witness at N = 700,000 needs 2,099,936 terms
        code = main(["cesaro", "certify", "--subsequence", "random:5", "--N", "700000"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "InvalidInputError",
            "message": "the certificate at N = 700000 needs N + k_(N+1) = 2099936 terms, "
            "past the materialization cap 1000000",
        }

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

    def test_validate_points_with_violations_reports(self, capsys):
        # a repeated point is reported like a matrix violation, not raised
        code, payload = run_cli(capsys, "metric", "validate", '{"points": [[0], [0], [1]]}')
        assert code == 1
        assert [v["kind"] for v in payload["violations"]] == ["positivity"]

    @pytest.mark.parametrize("kind", ["euclidean", "l1", "linf"])
    def test_validate_points_without_coordinates(self, capsys, kind):
        # no coordinates put every point at distance 0, under every metric
        code, payload = run_cli(capsys, "metric", "validate", json.dumps({"points": [[], []], "metric": kind}))
        assert code == 1
        assert [v["kind"] for v in payload["violations"]] == ["positivity"]

    @pytest.mark.parametrize(
        "space",
        [
            {"points": [[1e200], [-1e200]]},
            {"points": [[1e308], [-1e308]], "metric": "linf"},
            {"points": [[1e200] + [0.0] * 7, [-1e200] + [0.0] * 7]},
        ],
    )
    def test_validate_points_past_the_float_range(self, capsys, space):
        # the refusal as before, with no numpy overflow warning ahead of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["metric", "validate", json.dumps(space)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvalidInputError",
            "message": "distance matrix contains infinite entries",
        }

    def test_validate_checks_a_points_space_once(self, capsys, space_file, monkeypatch):
        from wbslab import metric

        validate, calls = metric.validate_metric, []

        def spy(*args, **kwargs):
            calls.append(args)
            return validate(*args, **kwargs)

        monkeypatch.setattr(metric, "validate_metric", spy)
        code, payload = run_cli(capsys, "metric", "validate", str(space_file))
        assert code == 0 and payload["ok"]
        assert len(calls) == 1

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
        # the deleted --tolerance flag, on the action that once read it
        ["metric", "validate", "{space}", "--tolerance", "nope=1"],
        ["metric", "validate", "{space}", "--tolerance", "triangle_rel=abc"],
        ["metric", "validate", "{space}", "--tolerance", "triangle_rel"],
        # values the library rejects
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
        # an unwritable report dir, non-integer set elements, a NaN radius, bad labels
        ["experiment", "run", "isometry-suite", "--report-dir", "{under_file}"],
        ["schreier", "rank", "[1.5]"],
        ["schreier", "rank", "[true]"],
        ["embed", "cb", "{space}", "--centers", "p0", "--radii", "nan", "--vector", "1"],
        ["metric", "validate", '{"matrix": [[0, 1], [1, 0]], "labels": 5}'],
        ["metric", "validate", '{"matrix": [[0, 1], [1, 0]], "labels": ["a", "a"]}'],
        ["metric", "validate", '{"matrix": [[0, 1], [1, 0]], "labels": "ab"}'],
        ["pairs", "find", '{"matrix": [[0, 1], [1, 0]], "labels": "ab"}'],
        ["metric", "validate", '{"matrix": [[0, 1], [1, 0]], "labels": {"a": 0, "b": 1}}'],
        # JSON nested past the recursion limit, inline and in a file
        ["schreier", "rank", "[" * 100_000],
        ["metric", "validate", '{"matrix": ' + "[" * 100_000],
        ["embed", "linf", "--masses", "1", "--vector", "{deep}"],
        # a JSON boolean is not the number 1.0, even beside a numeric text
        ["embed", "linf", "--masses", "1,1", "--vector", "{booleans}"],
        # ... nor 1.0 or 0.0 in a field, a distance matrix or a family's K
        ["holder", "seminorm", "{space}", "[true, 0, 0, 0, 0, 0, 0, false]"],
        ["metric", "validate", '{"matrix": [[0, true], [true, 0]]}'],
        ["pairs", "verify", "{space}", '{"K": true, "pairs": [["p0", "p1"]]}'],
        ["embed", "holder", "{space}", '{"K": true, "pairs": [["p0", "p1"]]}'],
        # a norm past the float range is no norm to print
        ["holder", "seminorm", "{space}", "[1e308, -1e308, 0, 0, 0, 0, 0, 0]"],
    ],
)
def test_malformed_arguments_are_json_errors(capsys, space_file, tmp_path, argv):
    names = {
        "{space}": str(space_file),
        "{missing}": str(tmp_path / "nosuch.json"),
        "{dir}": str(tmp_path),
        "{under_file}": str(space_file / "sub"),
        "{deep}": str(tmp_path / "deep.json"),
        "{booleans}": str(tmp_path / "booleans.json"),
    }
    if "{deep}" in argv:
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    if "{booleans}" in argv:
        (tmp_path / "booleans.json").write_text('[true, "2.5"]')
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


def test_witness_past_the_cap_is_refused_before_its_terms_are_drawn(capsys):
    # all 131,089 terms of this witness took about 1.1 GB and 2 s
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert main(["cesaro", "certify", "--subsequence", "geometric:1,2", "--N", "17"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 50 * 2**20
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidInputError", "message": "n exceeds the largest supported grade, 10000000"}


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
    (["metric", "validate", "S"], set()),
    (["pairs", "find", "S"], set()),
    (["pairs", "verify", "S", "F"], set()),
    (["holder", "seminorm", "S", "F"], set()),
    (["holder", "bump", "S"], set()),
    (["embed", "holder", "S", "F"], {"--seed"}),
    (["embed", "cb", "S", "--centers", "p0", "--radii", "1"], {"--seed"}),
    (["embed", "linf", "--masses", "1"], {"--seed"}),
    (["classify", "calpha"], set()),
    (["classify", "cb"], set()),
    (["classify", "linf", "--masses", "1"], set()),
    (["classify", "ordinal", "w"], set()),
    (["experiment", "run", "all"], {"--seed", "--enumeration"}),
]
# --tolerance is read by no action: the float slacks are pinned
SHARED_FLAGS = {"--seed": "3", "--enumeration": "alt", "--tolerance": "float_slack=1e-9"}


@pytest.mark.parametrize("argv, reads", ACTIONS, ids=[" ".join(argv[:2]) for argv, _ in ACTIONS])
def test_shared_flags_only_where_read(capsys, argv, reads):
    parser = build_parser()
    args = parser.parse_args(argv + ["--out", "report.json"])
    assert args.out == Path("report.json") and callable(args.handler)
    for flag, value in SHARED_FLAGS.items():
        if flag in reads:
            parser.parse_args(argv + [flag, value])
        else:
            error, message = failure(capsys, argv + [flag, value])
            assert error == "InvalidInputError"
            assert message == f"wbslab {argv[0]} {argv[1]}: unrecognized arguments: {flag} {value}"


def test_triangle_slack_cannot_be_widened(capsys):
    # d(p0, p2) = 9 > 1 + 1 breaks the triangle inequality by 7
    space = '{"matrix": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}'
    code, payload = run_cli(capsys, "metric", "validate", space)
    assert code == 1 and not payload["ok"]
    assert [(v["kind"], v["points"]) for v in payload["violations"]] == [("triangle", ["p0", "p1", "p2"])]
    assert failure(capsys, ["metric", "validate", space, "--tolerance", "triangle_rel=10"]) == (
        "InvalidInputError", "wbslab metric validate: unrecognized arguments: --tolerance triangle_rel=10",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["schreier", "rank", "[3, null, 5]"], "expected a decimal integer, got JSON null"),
        (["pairs", "find", "[1, 2]"], "space JSON must be an object, got array"),
        (["metric", "validate", '"x"'], "space JSON must be an object, got string"),
    ],
)
def test_refusals_name_json_types(capsys, argv, message):
    assert failure(capsys, argv) == ("InvalidInputError", message)


def test_closed_stdout_is_a_json_error(tmp_path):
    # like `wbslab schreier count 1000000 | head -c 20`: the 209k-digit
    # count overfills the pipe, and the reader leaves after 20 bytes
    with subprocess.Popen(
        [sys.executable, "-m", "wbslab.cli", "schreier", "count", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        assert len(child.stdout.read(20)) == 20
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait() == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert json.loads(err)["error"] == "BrokenPipeError"


# the child runs an action on a small input and reports its peak address space
_PEAK_PROBE = "import sys, wbslab.cli; wbslab.cli.main(sys.argv[1:]); print(open('/proc/self/status').read())"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak from /proc")
@pytest.mark.parametrize(
    "argv, small, detail",
    [
        # the n x n table alone takes 122 MiB
        (["metric", "validate", "{cloud}"], '{"points": [[0], [1], [3]]}', ": Unable to allocate"),
        # 600,001 terms and a witness of 300,001 elements
        (["cesaro", "certify", "--subsequence", "identity", "--N", "300000"], "8", ""),
    ],
    ids=["metric-validate", "cesaro-certify"],
)
def test_out_of_memory_is_a_json_error(tmp_path, argv, small, detail):
    import random
    import re
    import resource

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    cloud = tmp_path / "cloud.json"
    r = random.Random(4000)
    cloud.write_text(json.dumps({"points": [[r.random(), r.random()] for _ in range(4000)]}))
    # numpy's import alone reserves over 100 MiB of address space, so the
    # limit is the same action's peak on a small input plus 32 MiB
    probe = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, *argv[:-1], small], capture_output=True, text=True, env=env, timeout=60
    )
    limit = int(re.search(r"VmPeak:\s*(\d+) kB", probe.stdout).group(1)) * 1024 + (32 << 20)
    argv = [arg.format(cloud=cloud) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "wbslab.cli", *argv], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "MemoryError"
    assert error["message"].startswith(f"{argv[0]} {argv[1]} ran out of memory{detail}")


def test_readme_tour_parses():
    calls = [shlex.split(line, comments=True)[1:] for line in tour_lines()]
    assert len(calls) >= 20
    for argv in calls:
        args = build_parser().parse_args(argv)
        assert callable(args.handler)


class TestHolderAndEmbed:
    def test_seminorm(self, capsys, space_file, tmp_path, monkeypatch):
        from unittest.mock import Mock

        import wbslab.holder

        spy = Mock(wraps=wbslab.holder.holder_seminorm)
        monkeypatch.setattr(wbslab.holder, "holder_seminorm", spy)
        field = tmp_path / "field.json"
        field.write_text(json.dumps([0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0]))
        code, payload = run_cli(
            capsys,
            "holder", "seminorm", str(space_file), str(field), "--alpha", "1.0",
        )
        assert code == 0
        assert payload["seminorm"] == 2.0
        assert payload["holder_norm"] == payload["sup_norm"] + payload["seminorm"]
        assert spy.call_count == 1

    def test_bump(self, capsys, space_file):
        code, payload = run_cli(
            capsys,
            "holder", "bump", str(space_file),
            "--kind", "pair", "--pair", "p0,p1", "--K", "0.5", "--alpha", "1.0",
        )
        assert code == 0
        assert payload["support"] == ["p1"]

    def test_tent_bump_rejects_a_nan_radius(self, capsys, space_file):
        argv = ["holder", "bump", str(space_file), "--kind", "tent", "--center", "p0", "--epsilon", "nan"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvalidInputError",
            "message": "radius must be positive, got nan",
        }

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

    def test_embed_holder_refuses_an_overflowed_norm(self, capsys, tmp_path):
        # the bound 4.03 * 1e308 overflows too, so an inf norm would pass it
        points = np.random.default_rng(371441).uniform(0, 10, (10, 2)).tolist()
        space_path, fam_path = tmp_path / "space.json", tmp_path / "family.json"
        space_path.write_text(json.dumps({"points": points}))
        fam_path.write_text(json.dumps(find_pair_family(load_space({"points": points}), 0.25, 5).to_json()))
        vector = "1e308,-8.103189569590888e+307,0,0,0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "holder", str(space_path), str(fam_path), "--alpha", "0.3", "--vector", vector])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvalidInputError",
            "message": "image norm overflows the float range at sup(a)=1e+308",
        }

    @pytest.mark.parametrize(
        "argv, center",
        [
            (["--kind", "pair", "--pair", "p0,p1", "--K", "5e-324", "--alpha", "1"], "p1"),
            (["--kind", "tent", "--center", "p0", "--epsilon", "1e-320"], "p0"),
        ],
    )
    def test_bump_quotients_past_the_float_range(self, capsys, space_file, argv, center):
        # d / K**alpha and d / epsilon overflow at every point but the
        # center, which clamps them to 0 as before, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["holder", "bump", str(space_file), *argv])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        labels = [f"p{i}" for i in range(8)]
        values = [float(label == center) for label in labels]
        assert json.loads(captured.out) == {"labels": labels, "support": [center], "values": values}

    def test_embed_holder_with_the_least_separation_constant(self, capsys, space_file, tmp_path):
        fam_path = tmp_path / "family.json"
        fam_path.write_text(json.dumps({"K": 5e-324, "pairs": [["p0", "p1"], ["p5", "p6"]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "holder", str(space_file), str(fam_path), "--alpha", "1", "--vector", "1,2"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        payload = json.loads(captured.out)
        assert (payload["lower"], payload["upper"], payload["bound_upper"]) == (2.0, 2.0, math.inf)

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


# ---- integers past CPython's int/str digit limit -------------------------------

BIG = "9" * 5000
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv, status",
    [
        (["schreier", "rank", f"{BIG},{BIG}1"], 2),
        (["schreier", "unrank", f"-{BIG}"], 2),
        (["schreier", "rank", f"[3,5,{BIG}]"], 2),
        (["schreier", "count", f"-{BIG}"], 2),
        (["cesaro", "certify", "--subsequence", "{terms}", "--N", "1"], 2),
        (["cesaro", "certify", "--subsequence", "{terms}", "--N", "2"], 2),
        (["cesaro", "certify", "--subsequence", f"affine:{BIG}", "--N", "1"], 2),
        (["metric", "validate", f'{{"matrix": [[0, {BIG}], [{BIG}, 0]]}}'], 2),
        (["classify", "ordinal", f"w^{BIG}"], 0),
        (["classify", "ordinal", f"w*{BIG}"], 0),
    ],
    ids=["rank B,B1", "unrank -B", "rank [3,5,B]", "count -B", "certify terms N=1", "certify terms N=2",
         "certify affine:B", "validate", "ordinal w^B", "ordinal w*B"],
)
def test_long_integers_end_in_an_answer_or_a_json_error(capsys, tmp_path, argv, status):
    terms = tmp_path / "terms.json"
    terms.write_text(f"[1, 2, {BIG}]")
    assert main([str(terms) if arg == "{terms}" else arg for arg in argv]) == status
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if status == 2:
        assert captured.out == "" and "error" in json.loads(captured.err)
    else:
        assert json.loads(captured.out)["space_family"] == "C_of_ordinal"


def test_long_integers_are_echoed_in_full(capsys):
    assert main(["schreier", "unrank", f"-{BIG}"]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == f"rank must be >= 1, got -{BIG}"
    assert main(["classify", "ordinal", f"w^{BIG}"]) == 0
    assert f"vanish after 1{'0' * 5000} step(s)" in json.loads(capsys.readouterr().out)["reason"]


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "validate", "{big_matrix}"],
        ["pairs", "find", "{big_matrix}"],
        ["holder", "seminorm", "{space}", f"[{'9' * 400}, 0, 0, 0, 0]"],
        ["pairs", "verify", "{space}", f'{{"K": {"9" * 400}, "pairs": [["p0", "p1"]]}}'],
        ["embed", "linf", "--masses", "1", "--vector", "{big_vector}"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_integers_past_the_float_range_are_json_errors(capsys, space_file, tmp_path, argv):
    big_matrix = f'{{"matrix": [[0, {"9" * 400}], [{"9" * 400}, 0]]}}'
    big_vector = tmp_path / "vector.json"
    big_vector.write_text(f"[{BIG}]")
    names = {"{space}": str(space_file), "{big_matrix}": big_matrix, "{big_vector}": str(big_vector)}
    assert main([names.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidInputError"


def test_no_digit_limit_toggle_while_long_integers_cross_text(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda limit: calls.append(limit))
    code, payload = run_cli(capsys, "schreier", "rank", "3,5,200000")
    assert code == 0 and len(payload["rank"]) > 40_000
    code, payload = run_cli(capsys, "schreier", "count", "30000")
    assert code == 0 and len(payload["count_max_at_most"]) > 4300
    code, payload = run_cli(capsys, "cesaro", "certify", "--subsequence", "identity", "--N", "20000")
    assert code == 0 and len(payload["i0"]) > 4300
    assert calls == []


def test_long_rank_round_trips_under_the_lowest_digit_limit():
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "wbslab.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    rank = cli("schreier", "rank", "3,5,200000")["rank"]
    assert len(rank) > 40_000
    assert cli("schreier", "unrank", rank)["set"] == [3, 5, 200000]


def test_large_ordinal_exponent_answers_at_once(capsys):
    start = time.perf_counter()
    code, payload = run_cli(capsys, "classify", "ordinal", "w^1000000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "vanish after 1000000000001 step(s)" in payload["reason"]


# ---- each input rule of the float half, at every entry point that checks it


def failure(capsys, entry) -> tuple[str, str]:
    """The error type and message of a library call, or of a CLI argv's JSON error."""
    if callable(entry):
        with pytest.raises(WbsLabError) as info:
            entry()
        return type(info.value).__name__, str(info.value)
    assert main(entry) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    payload = json.loads(captured.err)
    return payload["error"], payload["message"]


@pytest.mark.parametrize("K", [0.0, -1.0, 1.5, 2.0, math.nan])
@pytest.mark.parametrize(
    "entry", ["SeparatedPairFamily", "find_pair_family", "pair_bump", "pairs find", "holder bump"]
)
def test_separation_constant_rule(capsys, space_file, entry, K):
    space, path = load_space(str(space_file)), str(space_file)
    calls = {
        "SeparatedPairFamily": lambda: SeparatedPairFamily((("p0", "p1"),), K),
        "find_pair_family": lambda: find_pair_family(space, K, 1),
        "pair_bump": lambda: pair_bump(space, ("p0", "p1"), K, 1.0),
        "pairs find": ["pairs", "find", path, f"--K={K}"],
        "holder bump": ["holder", "bump", path, "--pair", "p0,p1", f"--K={K}"],
    }
    message = f"separation constant must be in (0, 1], got {K}"
    assert failure(capsys, calls[entry]) == ("InvalidInputError", message)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", ["tent_bump", "tent_images", "embed_cb", "holder bump", "embed cb"])
def test_tent_radius_rule(capsys, space_file, entry, radius):
    space, path, a = load_space(str(space_file)), str(space_file), FiniteSequence((1.0,))
    calls = {
        "tent_bump": lambda: tent_bump(space, "p0", radius),
        "tent_images": lambda: tent_images([a], space, ["p0"], [radius]),
        "embed_cb": lambda: embed_cb(a, space, ["p0"], [radius]),
        "holder bump": ["holder", "bump", path, "--kind", "tent", "--center", "p0", f"--epsilon={radius}"],
        "embed cb": ["embed", "cb", path, "--centers", "p0", f"--radii={radius}", "--vector", "1"],
    }
    assert failure(capsys, calls[entry]) == ("InvalidInputError", f"radius must be positive, got {radius}")


@pytest.mark.parametrize("masses", [(0.0,), (-1.0,), (1.0, -2.0), (math.nan,), (math.inf,)])
@pytest.mark.parametrize(
    "entry", ["StepFunction", "embed_linf", "FiniteMeasurePartition", "embed linf", "classify linf"]
)
def test_cell_masses_rule(capsys, entry, masses):
    ones, text = (1.0,) * len(masses), ",".join(map(str, masses))
    calls = {
        "StepFunction": lambda: StepFunction(ones, masses),
        "embed_linf": lambda: embed_linf(FiniteSequence(ones), list(masses)),
        "FiniteMeasurePartition": lambda: FiniteMeasurePartition(masses, is_terminal=True),
        "embed linf": ["embed", "linf", f"--masses={text}", "--vector", ",".join(["1"] * len(masses))],
        "classify linf": ["classify", "linf", f"--masses={text}"],
    }
    message = f"cell masses must be positive and finite: {masses}"
    assert failure(capsys, calls[entry]) == ("InvalidInputError", message)


@pytest.mark.parametrize(
    "masses, detail",
    [((True,), "got JSON boolean"), ((2.0, True), "got JSON boolean"), (("x",), "could not convert string to float: 'x'")],
)
@pytest.mark.parametrize("entry", ["cell_masses", "StepFunction", "embed_linf", "FiniteMeasurePartition"])
def test_cell_masses_are_read_as_floats(capsys, entry, masses, detail):
    # a boolean mass was read as 1.0, and a non-numeric one raised a bare ValueError
    ones = (1.0,) * len(masses)
    calls = {
        "cell_masses": lambda: cell_masses(masses),
        "StepFunction": lambda: StepFunction(ones, masses),
        "embed_linf": lambda: embed_linf(FiniteSequence(ones), list(masses)),
        "FiniteMeasurePartition": lambda: FiniteMeasurePartition(masses, is_terminal=True),
    }
    assert failure(capsys, calls[entry]) == ("InvalidInputError", f"expected a list of numbers: {detail}")


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize(
    "entry", ["embed_holder", "verify_sandwich", "distortion_report", "embed holder"]
)
def test_vector_length_rule(capsys, space_file, entry, length):
    space, path = load_space(str(space_file)), str(space_file)
    family = find_pair_family(space, 0.5, 2)
    a = FiniteSequence((1.0,) * length)
    calls = {
        "embed_holder": lambda: embed_holder(a, build_support_map(space, family, 1.0)),
        "verify_sandwich": lambda: verify_sandwich([a], build_support_map(space, family, 1.0)),
        "distortion_report": lambda: distortion_report(space, family, 1.0, [a]),
        "embed holder": [
            "embed", "holder", path, json.dumps(family.to_json()), "--vector", ",".join(["1"] * length)
        ],
    }
    message = f"vector length {length} != family size 2"
    assert failure(capsys, calls[entry]) == ("InvalidInputError", message)


@pytest.mark.parametrize("entry", ["StepFunction", "embed_linf", "embed linf"])
def test_partition_size_rule(capsys, entry):
    calls = {
        "StepFunction": lambda: StepFunction((1.0, 1.0), (1.0,)),
        "embed_linf": lambda: embed_linf(FiniteSequence((1.0, 1.0)), [1.0]),
        "embed linf": ["embed", "linf", "--masses", "1", "--vector", "1,1"],
    }
    assert failure(capsys, calls[entry]) == ("InvalidInputError", "vector length 2 != partition size 1")


@pytest.mark.parametrize(
    "value, detail",
    [
        (10**400, "int too large to convert to float"),
        ("x", "could not convert string to float: 'x'"),
        (None, "float() argument must be a string or a real number, not 'NoneType'"),
        ([1.0], "float() argument must be a string or a real number, not 'list'"),
        (True, "got JSON boolean"),
    ],
    ids=["huge", "text", "null", "nested", "boolean"],
)
@pytest.mark.parametrize("entry", ["FiniteSequence", "StepFunction", "embed linf"])
def test_vector_entry_rule(capsys, tmp_path, entry, value, detail):
    path = tmp_path / "vector.json"
    path.write_text(json.dumps([value]))
    calls = {
        "FiniteSequence": lambda: FiniteSequence((value,)),
        "StepFunction": lambda: StepFunction((value,), (1.0,)),
        "embed linf": ["embed", "linf", "--masses", "1", "--vector", str(path)],
    }
    assert failure(capsys, calls[entry]) == ("InvalidInputError", f"expected a list of numbers: {detail}")


def test_rules_keep_their_check_order(capsys, space_file):
    space = load_space(str(space_file))
    a = FiniteSequence((1.0, 1.0))
    cases = [
        # alpha before K, K before target_count, lengths before radii or masses
        (lambda: pair_bump(space, ("p0", "p1"), 1.5, 0.0), "exponent must satisfy"),
        (lambda: find_pair_family(space, 1.5, 0), "separation constant must be"),
        (lambda: tent_images([a], space, ["p0"], [-1.0]), "lengths disagree"),
        (lambda: StepFunction((1.0, 1.0), (-1.0,)), "vector length 2 != partition size 1"),
        (lambda: embed_linf(a, [-1.0]), "vector length 2 != partition size 1"),
    ]
    for call, start in cases:
        assert failure(capsys, call)[1].startswith(start)


@pytest.mark.parametrize(
    "terms, message",
    [
        ({"a": 1}, "a term file must hold a JSON array of integers, got JSON object"),
        (5, "a term file must hold a JSON array of integers, got JSON number"),
        (None, "a term file must hold a JSON array of integers, got JSON null"),
        (["x", 2], "expected a decimal integer, got 'x'"),
        ([[1], [2]], "expected a decimal integer, got JSON array"),
        ([1.5, 2.5, 3.5, 4.5], "expected a decimal integer, got JSON number"),
        ([True, 2, 3], "expected a decimal integer, got JSON boolean"),
    ],
    ids=["object", "number", "null", "text", "nested", "floats", "bool"],
)
def test_term_file_reads_integers_like_inline_terms(capsys, tmp_path, terms, message):
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(terms))
    argv = ["cesaro", "certify", "--subsequence", str(path), "--N", "1"]
    assert failure(capsys, argv) == ("InvalidInputError", message)


def test_term_file_of_decimal_strings_matches_inline_terms(capsys, tmp_path):
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(["2", "3", "4", "5"]))
    code, from_file = run_cli(capsys, "cesaro", "certify", "--subsequence", str(path), "--N", "1")
    assert (code, from_file) == run_cli(capsys, "cesaro", "certify", "--subsequence", "2,3,4,5", "--N", "1")
    assert code == 0 and from_file["rule"] == "explicit"
