"""lamptwist benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  ``--trace 0`` runs the workload in one fresh worker process and
reports the end-to-end metrics.  ``--trace 1`` runs it untraced for half the
time, then replays the same rounds in a second worker with the span recorder
installed, and reports the per-layer metrics.  Every answer is checked
against the answer its input was built to have.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see ``workloads.py`` for the inputs and ``BENCHMARK.json`` for why
each was chosen): ``classify``, ``twisted-eq``, ``verify``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 10
WORKER_TIMEOUT_SECONDS = 170


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: str, workdir: Path, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns (process, set-up seconds)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", seed,
         "--workdir", str(workdir), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=WORKER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def _run_worker(workload, seed, workdir, name, *extra) -> tuple[dict, float]:
    out = workdir / f"{name}.jsonl"
    proc, setup = _spawn(workload, seed, workdir, "--out", str(out), *extra)
    _finish(proc)
    *records, summary = (json.loads(line) for line in out.read_text().splitlines())
    return {**summary, "records": records}, setup


def _check(records: list[dict]) -> tuple[int, list[str]]:
    import workloads

    failures = []
    for i, rec in enumerate(records):
        query = workloads.Query.from_json(rec["query"])
        why = rec["error"] if rec["code"] is None else workloads.check(query, rec["code"], rec["stdout"])
        if why is not None:
            failures.append(f"query {i} ({query.kind}): {why}")
    return len(records), failures


def _decided(record: dict) -> bool:
    """False for an ``unknown`` answer and for output that is no answer at all."""
    try:
        out = json.loads(record["stdout"])
    except json.JSONDecodeError:
        return False
    return isinstance(out, dict) and out.get("status") != "unknown"


def _env(seed: str, records: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # a checkout without .git (or with packed refs) has none
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lamptwist").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    inputs = hashlib.sha256(json.dumps([r["query"] for r in records], sort_keys=True).encode())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
        "inputs_sha256": inputs.hexdigest()[:16],
    }


def _quantile_ms(seconds: list[float], q: int) -> float:
    """The q-th percentile, in ms (exclusive method, as statistics.quantiles)."""
    return statistics.quantiles(seconds, n=100)[q - 1] * 1e3 if len(seconds) > 1 else seconds[0] * 1e3


def end_to_end(run: dict, setups: list[float]) -> dict:
    records = run["records"]
    latencies = [r["seconds"] for r in records]
    return {
        "queries_per_s": (len(records) / run["busy_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (_quantile_ms(latencies, 90), "ms"),
        "decided_ratio": (sum(map(_decided, records)) / len(records), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }


def _elements_per_s(run: dict) -> float:
    elements = 0
    for rec in run["records"]:
        query = rec["query"]
        if query["args"][0] == "verify":
            checks = int(query["args"][query["args"].index("--transport-checks") + 1])
            elements += query["expected"]["order"] * (1 + checks)
    return elements / run["busy_s"]


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:62s} {value:14.6g} {unit}")


def _select(computed: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, each with the unit it declares."""
    out = {}
    for metric in declared:
        if metric["name"] not in computed:
            raise BenchError(f"{metric['name']} is declared in BENCHMARK.json but not measured")
        value, unit = computed[metric["name"]]
        if unit != metric["unit"]:
            raise BenchError(f"{metric['name']}: unit {unit}, BENCHMARK.json says {metric['unit']}")
        out[metric["name"]] = (value, unit)
    return out


def bench(workload: str, seed: str, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        for query in workloads.make_round(workload, seed, 0):
            query.write_spec(workdir)
        if not trace:
            setups = []
            for _ in range(SETUP_PROBES):
                proc, setup = _spawn(workload, seed, workdir, "--setup-only")
                _finish(proc)
                setups.append(setup)
            run, setup = _run_worker(workload, seed, workdir, "plain", "--seconds", str(seconds))
            setups.append(setup)
            runs = [run]
            metrics = _select(end_to_end(run, setups), declared["end_to_end"])
            extra = {"samples": (len(run["records"]), "count"), "rounds": (run["rounds"], "count")}
            if workload == "verify":
                extra["elements_per_s"] = (_elements_per_s(run), "1/s")
        else:
            plain, _ = _run_worker(workload, seed, workdir, "plain", "--seconds", str(seconds / 2))
            spans = OUT / f"spans-{workload}.jsonl"
            traced, _ = _run_worker(workload, seed, workdir, "traced",
                                    "--rounds", str(plain["rounds"]), "--trace", str(spans))
            runs = [plain, traced]
            layers = traced["layers"]
            layers["trace.overhead_ratio"] = (traced["busy_s"] / plain["busy_s"] - 1, "ratio")
            _print_metrics(f"per-layer metrics (traced run, spans in {spans.relative_to(ROOT)}):",
                           layers)
            metrics = _select(layers, declared["per_layer"])
            extra = {"samples": (len(traced["records"]), "count"),
                     "rounds": (traced["rounds"], "count")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [rec for run in runs for rec in run["records"]]
    attempted, failures = _check(records)
    for line in failures[:20]:
        print(f"FAILED {line}")
    extra["failed_ratio"] = (len(failures) / attempted, "ratio")
    print("env " + json.dumps(_env(seed, runs[0]["records"])))
    if not trace:
        _print_metrics(f"end-to-end metrics ({workload}, seed {seed}):", {**metrics, **extra})
    else:
        _print_metrics("run:", extra)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classify", "twisted-eq", "verify"))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lamptwist" / "__init__.py").is_file():
        print(f"error: no lamptwist package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
