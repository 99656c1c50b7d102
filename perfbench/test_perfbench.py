"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lamptwist.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import _call  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(workload):
    first = [q.to_json() for i in range(2) for q in workloads.make_round(workload, "5", i)]
    again = [q.to_json() for i in range(2) for q in workloads.make_round(workload, "5", i)]
    other = [q.to_json() for i in range(2) for q in workloads.make_round(workload, "6", i)]
    assert first == again
    assert first != other


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_pinned_quotient_counts_match_finite_verdicts():
    # when n is a multiple of the exponent of Z^k / (I - A) Z^k (a single
    # block here, so |det(I - B)|) the quotient count is R itself
    for q in workloads.QUOTIENTS:
        verdict = workloads.expected_verdict(list(q.blocks), (0,) * sum(b.size for b in q.blocks),
                                             q.m, q.u)
        if verdict["verdict"] == "finite" and len(q.blocks) == 1 and q.n % verdict["value"] == 0:
            assert q.classes == verdict["value"]


def _answered(workload, kinds, tmp_path):
    """Real answers to the first query of each kind in round 0."""
    records, seen = [], set()
    for query in workloads.make_round(workload, "5", 0):
        if query.kind in kinds and query.kind not in seen:
            seen.add(query.kind)
            query.write_spec(tmp_path)
            code, stdout, error, _ = _call(cli, query.argv(tmp_path))
            records.append({"query": query.to_json(), "code": code, "stdout": stdout,
                            "error": error, "seconds": 0.0})
    assert seen == set(kinds)
    return records


def _tamper(record, edit):
    bad = copy.deepcopy(record)
    out = json.loads(bad["stdout"])
    edit(out)
    bad["stdout"] = json.dumps(out)
    return bad


def _bump_value(out):
    out["value"] += 1


def _flip_status(out):
    out["status"] = "no"


def _bump_witness(out):
    out["witness"]["translation"][0] += 1


def _bump_classes(out):
    out["twisted_classes"] += 1


@pytest.mark.parametrize("workload, kind, edit", [
    ("classify", "classify/cylinder/o3+o4+o6+neg/k2", _bump_value),
    ("twisted-eq", "twisted-eq/o3/conjugate", _flip_status),
    ("twisted-eq", "twisted-eq/o3/conjugate", _bump_witness),
    ("verify", "verify/neg-m3-u2-n2", _bump_classes),
])
def test_tampered_answer_counts_as_failed(workload, kind, edit, tmp_path):
    records = _answered(workload, [kind], tmp_path)
    attempted, failures = run._check(records)
    assert (attempted, failures) == (1, [])
    attempted, failures = run._check(records + [_tamper(records[0], edit)])
    assert attempted == 2 and len(failures) == 1


def test_wrong_exit_code_and_crash_count_as_failed(tmp_path):
    records = _answered("classify", ["classify/det-zero/o3+o4+o6+neg/k2"], tmp_path)
    wrong_code = dict(records[0], code=2)
    crashed = dict(records[0], code=None, error="ValueError('boom')")
    assert len(run._check([wrong_code, crashed])[1]) == 2


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "classify", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
