"""Benchmark worker: one process, one client, one workload run.

Calls ``lamptwist.cli.main(argv)`` in-process with stdout captured, sending
each query only after the previous one has returned.  Rounds are generated
between calls, outside the timed region.  Prints ``ready`` once set-up
(interpreter start, package import, loading the first round's spec files)
is done, and writes every answer, unchecked, to ``--out`` as one JSON line
each, followed by a summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WARMUP_SECONDS = 1.0
WALL_LIMIT_SECONDS = 120.0  # stop early rather than overrun the caller's timeout


def _call(cli, argv: list[str]):
    """(exit code, stdout, error, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception as exc:  # a crash is a failed answer, not a failed run
            code, error = None, repr(exc)
        seconds = perf_counter() - start
    return code, out.getvalue(), error or err.getvalue() or None, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    parser.add_argument("--trace", type=Path, help="record spans and write them here")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import lamptwist.cli as cli
    import workloads

    first = workloads.make_round(args.workload, args.seed, 0)
    for path in sorted({args.workdir / q.spec_name for q in first}):
        with open(path) as fh:
            cli.spec_from_json(json.load(fh))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    wall_start = perf_counter()
    warm = 0.0
    for query in workloads.make_round(args.workload, workloads.warmup_seed(args.seed), 0):
        if warm >= WARMUP_SECONDS:
            break
        query.write_spec(args.workdir)
        warm += _call(cli, query.argv(args.workdir))[3]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.workload)
        tracer.install()
        cache_before = tracer.cache_info()

    busy = 0.0
    rounds = queries_run = 0
    # answers go straight to disk so the worker's peak memory does not grow
    # with the number of queries a run gets through
    with open(args.out, "w") as out:
        while True:
            if args.rounds and rounds >= args.rounds:
                break
            # stop at the round boundary nearest to --seconds of measured time
            if not args.rounds and rounds and (busy + busy / rounds / 2 >= args.seconds
                                               or perf_counter() - wall_start > WALL_LIMIT_SECONDS):
                break
            for query in workloads.make_round(args.workload, args.seed, rounds):
                query.write_spec(args.workdir)
                if tracer:
                    tracer.begin_query(queries_run, query.k)
                code, stdout, error, seconds = _call(cli, query.argv(args.workdir))
                if tracer:
                    tracer.end_query()
                busy += seconds
                queries_run += 1
                out.write(json.dumps({"query": query.to_json(), "code": code, "stdout": stdout,
                                      "error": error, "seconds": seconds}) + "\n")
            rounds += 1
        summary = {
            "rounds": rounds,
            "busy_s": busy,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer:
            tracer.write_spans(args.trace)
            summary["layers"] = tracer.summary(cache_before, tracer.cache_info())
        out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
