import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lamptwist
from lamptwist import cli, finite_oracle
from lamptwist.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    build_parser,
    main,
    spec_from_json,
    spec_to_json,
)
from lamptwist.finite_oracle import DEFAULT_ELEMENT_BUDGET, FiniteAutomorphism
from lamptwist.lattice import IntMatrix, realized_periods
from lamptwist.reidemeister import DEFAULT_SEARCH_BUDGET, ORDER_THREE_BLOCK
from lamptwist.wreath import (
    FiniteSupportFunction,
    WreathAutomorphism,
    WreathElement,
    element_from_json,
    format_element,
    parse_element,
    twisted_transform,
)

CASEP3_SPEC = {
    "version": 1,
    "m": 3,
    "k": 2,
    "matrix": [[0, 1], [-1, -1]],
    "u": 2,
    "x0": [0, 0],
}


@pytest.fixture
def casep3_file(tmp_path):
    path = tmp_path / "casep3.json"
    path.write_text(json.dumps(CASEP3_SPEC))
    return str(path)


def test_spec_round_trip():
    phi = WreathAutomorphism(ORDER_THREE_BLOCK, 3, 2, (1, 0))
    assert spec_from_json(spec_to_json(phi)) == phi
    gamma = WreathElement.delta(3, (0, 1), 2)
    twisted = phi.twist(gamma)
    assert spec_from_json(spec_to_json(twisted)) == twisted


def test_classify_casep3(casep3_file, capsys):
    assert main(["classify", casep3_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "finite" in out and "R = 3" in out and "cylinder" in out


def test_classify_json(casep3_file, capsys):
    assert main(["classify", casep3_file, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "finite"
    assert report["value"] == 3
    assert report["certificate"]["rule"] == "cylinder"
    assert report["unit_order"] == 2
    assert report["orbit_report"]["order"] == 3


def test_classify_m2_infinite(capsys):
    assert main(["classify", "--m", "2", "--u", "1", "--matrix", "-1", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "infinite"
    assert report["certificate"]["rule"] == "non-epi-orbit"


@pytest.mark.parametrize(
    "matrix, m, u, rule",
    [
        ("0,1;-1,-1", 3, 2, "cylinder"),
        ("-1", 2, 1, "non-epi-orbit"),
        ("2,1;1,1", 3, 2, "infinite-orbit"),
        ("1,0;0,1", 3, 2, "det-zero"),
    ],
)
def test_classify_computes_orbit_report_once(capsys, matrix, m, u, rule):
    realized_periods.cache_clear()
    argv = ["classify", "--m", str(m), "--u", str(u), "--matrix", matrix, "--json"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["rule"] == rule
    assert realized_periods.cache_info().misses == 1
    a = IntMatrix([[int(x) for x in row.split(",")] for row in matrix.split(";")])
    assert report["orbit_report"] == cli._orbit_report_json(realized_periods(a))


def test_classify_malformed_matrix(capsys):
    assert main(["classify", "--m", "3", "--u", "2", "--matrix", "0,1;-1"]) == EXIT_INPUT


def test_classify_bad_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == EXIT_INPUT
    bad.write_text(json.dumps({"version": 99, "m": 3, "k": 1, "matrix": [[1]], "u": 1}))
    assert main(["classify", str(bad)]) == EXIT_INPUT


@pytest.mark.parametrize(
    "spec_or_argv",
    [
        dict(CASEP3_SPEC, matrix=5),
        dict(CASEP3_SPEC, x0=5),
        dict(CASEP3_SPEC, matrix=[[0, 1], [-1, None]]),
        ["--m", "3", "--matrix", "1,a"],
        ["--m", "3", "--matrix", "1", "--x0", "1,a"],
        # spec numbers must be JSON integers: no truncation, no bool, no string
        {"version": 1, "m": 3.9, "k": 1, "matrix": [[-1.5]], "u": 2.7, "x0": [0.5]},
        dict(CASEP3_SPEC, m=3.9),
        dict(CASEP3_SPEC, m="3"),
        dict(CASEP3_SPEC, k=2.0),
        dict(CASEP3_SPEC, u=2.7),
        dict(CASEP3_SPEC, u=True),
        dict(CASEP3_SPEC, matrix=[[0, 1], [-1, -1.5]]),
        dict(CASEP3_SPEC, matrix=[[0, True], [-1, -1]]),
        dict(CASEP3_SPEC, x0=[0, 0.5]),
        dict(CASEP3_SPEC, x0="00"),
        dict(CASEP3_SPEC, version=True),
        dict(CASEP3_SPEC, version=1.0),
        # the modulus is checked before u is reduced mod m
        ["--m", "0", "--u", "1", "--matrix", "1"],
    ],
)
def test_classify_malformed_input_is_an_input_error(tmp_path, capsys, spec_or_argv):
    if isinstance(spec_or_argv, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_or_argv))
        spec_or_argv = [str(path)]
    assert main(["classify", *spec_or_argv]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_group_status(capsys):
    assert main(["group-status", "3", "3"]) == EXIT_OK
    assert "has-r-infinity" in capsys.readouterr().out

    assert main(["group-status", "7", "2", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "not-r-infinity"
    witness = spec_from_json(report["witness_spec"])
    assert witness.matrix == -IntMatrix.identity(2)

    assert main(["group-status", "9", "2"]) == EXIT_OK
    assert "unknown" in capsys.readouterr().out

    assert main(["group-status", "3", "17"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: rank k must be in 1..16\n"


@pytest.mark.parametrize(
    "argv",
    [
        # m = 999999937 * 1000000007: trial division would take minutes
        ["classify", "--m", "999999943999999559", "--u", "2", "--matrix", "-1"],
        ["group-status", "999999943999999559", "2"],
    ],
)
def test_large_composite_modulus_is_fast(argv, capsys):
    started = time.perf_counter()
    assert main(argv) == EXIT_OK
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr().out
    assert ("R = 2" in out) if argv[0] == "classify" else ("unknown" in out)


# composite, and a strong pseudoprime to every Miller-Rabin base the engine uses
STRONG_PSEUDOPRIME = "3317044064679887385961981"


@pytest.mark.parametrize(
    "argv",
    [
        ["group-status", STRONG_PSEUDOPRIME, "2"],
        ["classify", "--m", STRONG_PSEUDOPRIME, "--u", "2", "--matrix", "-1"],
    ],
)
def test_modulus_past_the_primality_bound_is_an_input_error(argv, capsys):
    started = time.perf_counter()
    assert main(argv) == EXIT_INPUT
    assert time.perf_counter() - started < 1.0
    assert "only below 3317044064679887385961981" in capsys.readouterr().err


def test_rank_one_group_status_needs_no_primality_test(capsys):
    started = time.perf_counter()
    assert main(["group-status", STRONG_PSEUDOPRIME, "1", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "not-r-infinity"
    assert spec_from_json(report["witness_spec"]).matrix == IntMatrix([[-1]])
    # the text form prints the witness's R, whose unit order needs phi(m):
    # it fails before anything is printed
    assert main(["group-status", STRONG_PSEUDOPRIME, "1"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert "only below 3317044064679887385961981" in err
    assert time.perf_counter() - started < 1.0


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    for _ in range(2):
        assert main(["orbits", "--m", "3", "--matrix", "-1", "--json"]) == EXIT_OK
    assert capsys.readouterr().out.count('"order": 2') == 2
    assert len(built) == 1


def test_twisted_eq(casep3_file, capsys):
    code = main(["twisted-eq", casep3_file, "f=[(0,0):1] t=(0,0)", "f=[] t=(0,0)"])
    assert code == EXIT_OK
    assert "yes" in capsys.readouterr().out
    code = main(["twisted-eq", casep3_file, "f=[] t=(0,0)", "f=[] t=(1,0)", "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "no"
    assert main(["twisted-eq", casep3_file, "garbage", "f=[] t=(0,0)"]) == EXIT_INPUT


def test_twisted_eq_support_far_apart_on_one_orbit(tmp_path, capsys):
    # p, A^300 p and A^700 p: the default window from A^700 p reaches back to
    # A^300 p, which the window from p already took.  With u = 1 the value
    # sum mod m is a class invariant, and here it is 3 = 1 mod 2.
    spec = {"version": 1, "m": 2, "k": 2, "u": 1, "matrix": [[2, 1], [1, 1]], "x0": [0, 0]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(spec))
    a = IntMatrix(spec["matrix"])
    points, p = [], (1, 0)
    for n in range(701):
        if n in (0, 300, 700):
            points.append(p)
        p = a.apply(p)
    h = WreathElement(FiniteSupportFunction(2, [(q, 1) for q in points]), (0, 0))
    assert main(["twisted-eq", str(path), "f=[] t=(0,0)", format_element(h)]) == EXIT_OK
    assert "answer: no" in capsys.readouterr().out


def test_twisted_eq_search_exhausts_the_class(capsys):
    # A = 1 is the identity: the twisted class of 1 is the conjugacy class {1}
    argv = ["twisted-eq", "--m", "2", "--u", "1", "--matrix", "1",
            "f=[] t=(0)", "f=[(0):1] t=(0)", "--json"]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "status": "no",
        "reason": "base sums differ modulo gcd(1 - u, m)",
    }
    argv[-2] = "f=[(0):1; (1):1] t=(0)"  # base sum 0: the search decides
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "status": "no",
        "reason": "twisted class exhausted without reaching target",
    }


def test_twisted_eq_rejects_repeated_support_positions(capsys):
    argv = ["twisted-eq", "--m", "3", "--u", "2", "--matrix=-1",
            "f=[(0):1; (0):2] t=(0)", "f=[] t=(0)"]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: support position (0) appears twice\n"


def test_twisted_eq_json_witness_checks_out(capsys):
    g, h = "f=[] t=(0,0)", "f=[(1,0):1; (2,1):1] t=(0,0)"
    argv = ["twisted-eq", "--m", "2", "--u", "1", "--matrix", "2,1;1,1", g, h, "--json"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "yes"
    w = element_from_json(report["witness"], 2)
    phi = WreathAutomorphism(IntMatrix([[2, 1], [1, 1]]), 2, 1, (0, 0))
    assert twisted_transform(phi, parse_element(g, 2), w) == parse_element(h, 2)


def test_group_status_text_prints_the_witness(capsys):
    assert main(["group-status", "5", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("Z_5 wr Z^2: not-r-infinity\nwitness automorphism (R = 4):\n")
    assert spec_from_json(json.loads(out.split(":\n", 1)[1])).matrix == -IntMatrix.identity(2)
    assert main(["group-status", "1", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: modulus m must be >= 2\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ([CASEP3_SPEC], "spec must be a JSON object"),
        ({key: v for key, v in CASEP3_SPEC.items() if key != "u"}, "bad spec field: 'u'"),
        (None, "cannot read spec file"),
        (dict(CASEP3_SPEC, m=0), "modulus must be at least 2"),
        (dict(CASEP3_SPEC, inner=5), "inner must be an element string or null, got 5"),
        (dict(CASEP3_SPEC, inner=["x"]), "inner must be an element string or null, got ['x']"),
    ],
)
def test_spec_file_errors(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    assert main(["classify", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_json_output_is_one_line(capsys):
    inline = ["--m", "5", "--u", "2", "--matrix=-1"]
    for argv in (
        ["classify", *inline],
        ["group-status", "7", "2"],
        ["twisted-eq", *inline, "f=[(0):1] t=(0)", "f=[] t=(1)"],
        ["orbits", *inline],
        ["verify", *inline, "2"],
        ["oracle-classes", *inline, "2"],
    ):
        assert main([*argv, "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        json.loads(out)


def test_missing_spec_and_wrong_element_rank(capsys):
    assert main(["classify"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")
    argv = ["twisted-eq", "--m", "3", "--matrix", "1,1;0,1", "f=[] t=(0)", "f=[] t=(0,0)"]
    assert main(argv) == EXIT_INPUT
    assert "element rank does not match the spec" in capsys.readouterr().err


def test_orbits_and_oracle_classes_text(capsys):
    assert main(["orbits", "--m", "3", "--matrix", "1,1;0,1"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "matrix order: infinite\n"
        "basis periods: [1, None]\n"
        "  realized period 1: witness (0, 0)\n"
    )
    assert main(["oracle-classes", "--m", "5", "--u", "2", "--matrix=-1", "2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "group order 50, twisted classes: 2\n"
        "  f=[0, 0] t=[0]\n"
        "  f=[0, 0] t=[1]\n"
    )


def test_orbits(casep3_file, capsys):
    assert main(["orbits", casep3_file, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 3
    assert {e["period"] for e in report["realized"]} == {1, 3}


def test_verify_casep3(casep3_file, capsys):
    assert main(["verify", casep3_file, "3", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["twisted_classes"] == 3
    assert report["fixed_irreps"] == 3
    assert report["tbft"] is True
    assert report["library"]["value"] == 3
    assert report["match"] is True


def test_verify_with_transport_checks(capsys):
    code = main(
        ["verify", "--m", "5", "--u", "2", "--matrix", "-1", "2",
         "--transport-checks", "3", "--seed", "7", "--json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["transport_counts_equal"] is True


@pytest.mark.parametrize(
    "argv, comparisons",
    [
        (["--m", "3", "--u", "2", "--matrix", "0,1;-1,-1", "3"],
         {"tbft": {"result": True}, "structured": {"result": True},
          "count_vs_R": {"result": True},
          "transport": {"skipped": "no transport checks were requested"}}),
        (["--m", "3", "--u", "2", "--matrix", "0,1;-1,-1", "2"],
         {"tbft": {"result": True}, "structured": {"result": True},
          "count_vs_R": {"skipped": "n=2 is not a multiple of the exponent 3"},
          "transport": {"skipped": "no transport checks were requested"}}),
        (["--m", "2", "--matrix", "-1", "3", "--transport-checks", "2"],
         {"tbft": {"result": True}, "structured": {"result": True},
          "count_vs_R": {"skipped": "the library verdict is infinite"},
          "transport": {"result": True, "equal": "2/2"}}),
    ],
)
def test_verify_reports_the_comparisons_it_made(argv, comparisons, capsys):
    assert main(["verify", *argv, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["comparisons"] == comparisons
    assert main(["verify", *argv]) == EXIT_OK
    out = capsys.readouterr().out
    for name, c in comparisons.items():
        assert f"  {name}: " + (f"skipped ({c['skipped']})" if "skipped" in c else "True") in out


def test_verify_mismatch_names_the_failed_comparison(monkeypatch, capsys):
    real = cli.fibre_class_count
    monkeypatch.setattr(cli, "fibre_class_count", lambda group, aut: real(group, aut) + 1)
    argv = ["verify", "--m", "5", "--u", "2", "--matrix", "-1", "2", "--transport-checks", "1"]
    assert main([*argv, "--json"]) == EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert report["comparisons"]["transport"] == {"result": False, "equal": "0/1"}
    assert report["comparisons"]["structured"] == {"result": False}
    assert report["comparisons"]["count_vs_R"] == {"result": True}
    assert report["comparisons"]["tbft"] == {"result": True}
    assert report["transport_counts_equal"] is False and report["match"] is False


def test_verify_wrong_bruteforce_count_fails_the_structured_comparison(monkeypatch, capsys):
    real = finite_oracle.twisted_classes_bruteforce
    monkeypatch.setattr(finite_oracle, "twisted_classes_bruteforce",
                        lambda group, aut: (real(group, aut)[0] + 1, []))
    argv = ["verify", "--m", "5", "--u", "2", "--matrix", "-1", "2"]
    assert main([*argv, "--json"]) == EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert report["twisted_classes"] == 3 and report["structured_classes"] == 2
    assert report["comparisons"]["structured"] == {"result": False}
    assert report["match"] is False


def test_verify_transport_catches_a_one_sided_inner_twist(monkeypatch, capsys):
    # an inner part applied as gamma * x instead of gamma * x * gamma^-1 is
    # no automorphism; the orbit count of each twist reads it through the
    # base part of aut((0, s)), while phi itself has no inner part
    real = FiniteAutomorphism.apply

    def one_sided(self, x):
        inner, self.inner = self.inner, None
        try:
            out = real(self, x)
        finally:
            self.inner = inner
        return out if inner is None else self.group.multiply(inner, out)

    monkeypatch.setattr(FiniteAutomorphism, "apply", one_sided)
    argv = ["verify", "--m", "2", "--matrix", "-1", "4", "--transport-checks", "3", "--json"]
    assert main(argv) == EXIT_MISMATCH
    comparisons = json.loads(capsys.readouterr().out)["comparisons"]
    assert comparisons["structured"] == comparisons["tbft"] == {"result": True}
    assert comparisons["transport"] == {"result": False, "equal": "0/3"}


def test_verify_runs_bruteforce_once(monkeypatch, capsys):
    calls = []
    real = finite_oracle.twisted_classes_bruteforce

    def counting(group, aut):
        calls.append(aut)
        return real(group, aut)

    monkeypatch.setattr(finite_oracle, "twisted_classes_bruteforce", counting)
    monkeypatch.setattr(cli, "twisted_classes_bruteforce", counting)
    argv = ["verify", "--m", "5", "--u", "2", "--matrix", "-1", "6", "--transport-checks", "4"]
    assert main([*argv, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["comparisons"]["transport"] == {
        "result": True, "equal": "4/4"}
    assert len(calls) == 1


def test_verify_budget_exceeded(casep3_file, capsys):
    assert main(["verify", casep3_file, "9"]) == EXIT_BUDGET


def test_oracle_classes(capsys):
    code = main(
        ["oracle-classes", "--m", "5", "--u", "2", "--matrix", "-1", "2", "--json"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["twisted_classes"] == 2
    assert len(report["representatives"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        # Z_3 wr (Z/100)^2: 3^10000 elements, an integer too long to print
        ["verify", "--m", "3", "--u", "2", "--matrix", "0,1;-1,-1", "100"],
        # Z_2 wr (Z/60)^4: 12,960,000 positions, never to be built
        ["oracle-classes", "--m", "2", "--matrix=-1,0,0,0;0,-1,0,0;0,0,-1,0;0,0,0,-1", "60"],
    ],
)
def test_budget_checked_before_enumeration(argv, capsys):
    started = time.perf_counter()
    assert main(argv) == EXIT_BUDGET
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    n = argv[-1]
    assert f"^({n}^" in err and len(err) < 200


def test_oracle_classes_rejects_nonpositive_n(capsys):
    assert main(["oracle-classes", "--m", "3", "--u", "2", "--matrix", "-1", "0"]) == EXIT_INPUT


def test_verify_rejects_negative_transport_checks(capsys):
    code = main(
        ["verify", "--m", "5", "--u", "2", "--matrix", "-1", "2", "--transport-checks", "-3"]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_twisted_eq_rejects_budget_below_one(budget, capsys):
    argv = ["twisted-eq", "--m", "3", "--u", "1", "--matrix", "1,1;0,1",
            "f=[] t=(0,0)", "f=[(5,7):1; (6,7):2] t=(0,0)", "--budget", budget]
    assert main(argv) == EXIT_INPUT
    assert "--budget must be >= 1" in capsys.readouterr().err
    argv[-1] = "1"
    assert main([*argv, "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "unknown"


@pytest.mark.parametrize("command", ["verify", "oracle-classes"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_quotient_commands_reject_budget_below_one(command, budget, capsys):
    argv = [command, "--m", "5", "--u", "2", "--matrix=-1", "6", "--budget", budget]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --budget must be >= 1\n"


def test_flags_belong_to_the_subcommands_that_read_them():
    parser = build_parser()
    inline = ["--m", "3", "--matrix", "-1"]
    twisted = parser.parse_args(["twisted-eq", *inline, "f=[] t=(0)", "f=[] t=(1)"])
    assert twisted.budget == DEFAULT_SEARCH_BUDGET
    for command in ("verify", "oracle-classes"):
        assert parser.parse_args([command, *inline, "2"]).budget == DEFAULT_ELEMENT_BUDGET
    assert parser.parse_args(["verify", *inline, "2"]).seed == 0
    for argv in (["classify", *inline, "--seed", "1"],
                 ["orbits", *inline, "--budget", "5"],
                 ["group-status", "3", "2", "--budget", "5"],
                 ["twisted-eq", *inline, "f=[] t=(0)", "f=[] t=(1)", "--seed", "1"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_cli_does_not_import_devices():
    src = str(Path(lamptwist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, lamptwist.cli; print('lamptwist.devices' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
