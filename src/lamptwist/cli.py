"""Command-line front end.

Subcommands: classify, group-status, twisted-eq, orbits, verify,
oracle-classes.  Automorphisms are given as JSON spec files (schema
version 1); small matrices can be passed inline as "a,b;c,d".  All
commands accept --json for machine-readable output.

Exit codes: 0 success, 1 verification mismatch, 2 input error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import lru_cache
from typing import Optional

from .finite_oracle import (
    DEFAULT_ELEMENT_BUDGET,
    BudgetExceededError,
    FiniteAutomorphism,
    fibre_class_count,
    induce_automorphism,
    oracle_report,
    twisted_classes_bruteforce,
)
from .lattice import (
    IntMatrix,
    OrbitReport,
    realized_periods,
    smith_normal_form,
)
from .reidemeister import (
    DEFAULT_SEARCH_BUDGET,
    are_twisted_conjugate_full,
    r_infinity_status,
    reidemeister_number,
)
from .wreath import (
    WreathAutomorphism,
    element_to_json,
    format_element,
    parse_element,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

MAX_CLI_RANK = 16  # soft limit; the library itself has no cap

SPEC_VERSION = 1


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# spec files


def spec_to_json(phi: WreathAutomorphism) -> dict:
    out = {
        "version": SPEC_VERSION,
        "m": phi.m,
        "k": phi.k,
        "matrix": phi.matrix.to_lists(),
        "u": phi.u,
        "x0": list(phi.x0),
    }
    if phi.inner is not None:
        out["inner"] = format_element(phi.inner)
    return out


def _check_rank(k: int) -> None:
    if k < 1 or k > MAX_CLI_RANK:
        raise InputError(f"rank k must be in 1..{MAX_CLI_RANK}")


def _integer(value, field: str) -> int:
    # JSON true/false load as bool, a subclass of int; 3.9 must not become 3
    if type(value) is not int:
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def spec_from_json(obj: dict) -> WreathAutomorphism:
    if not isinstance(obj, dict):
        raise InputError("spec must be a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != SPEC_VERSION:  # true and 1.0 are not 1
        raise InputError(f"unsupported spec version: {version!r}")
    try:
        m = _integer(obj["m"], "m")
        k = _integer(obj["k"], "k")
        matrix = obj["matrix"]
        u = _integer(obj["u"], "u")
        x0 = obj.get("x0", [0] * k)
    except KeyError as exc:
        raise InputError(f"bad spec field: {exc}") from exc
    _check_rank(k)
    if (
        not isinstance(matrix, list)
        or len(matrix) != k
        or any(not isinstance(row, list) or len(row) != k for row in matrix)
    ):
        raise InputError("matrix must be a k x k array of integers")
    for row in matrix:
        for entry in row:
            _integer(entry, "matrix entry")
    if not isinstance(x0, list):
        raise InputError("x0 must be an array of integers")
    for c in x0:
        _integer(c, "x0 entry")
    inner_text = obj.get("inner")
    if inner_text is not None and not isinstance(inner_text, str):
        raise InputError(f"inner must be an element string or null, got {inner_text!r}")
    try:
        a = IntMatrix(matrix)
        inner = parse_element(inner_text, m) if inner_text else None
        return WreathAutomorphism(a, m, u, tuple(x0), inner)
    except TypeError as exc:
        raise InputError(f"bad spec field: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_spec(args: argparse.Namespace) -> WreathAutomorphism:
    if getattr(args, "spec", None):
        try:
            with open(args.spec) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"spec file is not valid JSON: {exc}") from exc
        return spec_from_json(obj)
    if args.matrix is None or args.m is None:
        raise InputError("give a spec file, or --m/--u/--matrix inline")
    try:
        rows = [r for r in args.matrix.split(";") if r.strip()]
        matrix = [[int(x) for x in row.split(",")] for row in rows]
        x0 = [int(x) for x in args.x0.split(",")] if args.x0 else [0] * len(matrix)
    except ValueError as exc:
        raise InputError(f"inline matrix and offset take integers: {exc}") from exc
    return spec_from_json(
        {
            "version": SPEC_VERSION,
            "m": args.m,
            "k": len(matrix),
            "matrix": matrix,
            "u": args.u,
            "x0": x0,
        }
    )


# ---------------------------------------------------------------------------
# report helpers


def _orbit_report_json(report: OrbitReport) -> dict:
    return {
        "order": report.order,
        "realized": [
            {"period": r, "witness": list(w)} for r, w in report.realized
        ],
        "basis_periods": list(report.basis_periods),
    }


def _print_orbit_report(report: OrbitReport) -> None:
    order = "infinite" if report.order is None else str(report.order)
    print(f"matrix order: {order}")
    print(f"basis periods: {list(report.basis_periods)}")
    for r, w in report.realized:
        print(f"  realized period {r}: witness {tuple(w)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args: argparse.Namespace) -> int:
    phi = _load_spec(args)
    verdict = reidemeister_number(phi)
    report = realized_periods(phi.matrix)  # cached: a hit unless the rule is det-zero
    if args.json:
        out = verdict.to_json()
        out["orbit_report"] = _orbit_report_json(report)
        print(json.dumps(out))
        return EXIT_OK
    if verdict.finite:
        print(f"verdict: finite, R = {verdict.value}, rule = {verdict.rule}")
    else:
        print(f"verdict: infinite, rule = {verdict.rule}")
    print(f"certificate witness: {verdict.witness}")
    _print_orbit_report(report)
    return EXIT_OK


def cmd_group_status(args: argparse.Namespace) -> int:
    if args.m < 2:
        raise InputError("modulus m must be >= 2")
    _check_rank(args.k)
    status = r_infinity_status(args.m, args.k)
    witness_spec = spec_to_json(status.example) if status.example else None
    if args.json:
        print(json.dumps(
            {"m": args.m, "k": args.k, "status": status.status, "witness_spec": witness_spec}
        ))
        return EXIT_OK
    print(f"Z_{args.m} wr Z^{args.k}: {status.status}")
    if status.example is not None:
        print(f"witness automorphism (R = {reidemeister_number(status.example).value}):")
        print(json.dumps(witness_spec, indent=2))
    return EXIT_OK


def cmd_twisted_eq(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise InputError("--budget must be >= 1")
    phi = _load_spec(args)
    try:
        g = parse_element(args.element1, phi.m)
        h = parse_element(args.element2, phi.m)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if g.k != phi.k or h.k != phi.k:
        raise InputError("element rank does not match the spec")
    answer = are_twisted_conjugate_full(phi, g, h, budget=args.budget)
    if args.json:
        out = {"status": answer.status}
        if answer.witness is not None:
            out["witness"] = element_to_json(answer.witness)
        if answer.reason:
            out["reason"] = answer.reason
        if answer.bound:
            out["bound"] = answer.bound
        print(json.dumps(out))
        return EXIT_OK
    print(f"answer: {answer.status}")
    if answer.witness is not None:
        print(f"conjugator: {format_element(answer.witness)}")
    if answer.reason:
        print(f"reason: {answer.reason}")
    if answer.bound:
        print(f"bound: {answer.bound}")
    return EXIT_OK


def cmd_orbits(args: argparse.Namespace) -> int:
    phi = _load_spec(args)
    report = realized_periods(phi.matrix)
    if args.json:
        print(json.dumps(_orbit_report_json(report)))
        return EXIT_OK
    _print_orbit_report(report)
    return EXIT_OK


def _induced_quotient(phi: WreathAutomorphism, args: argparse.Namespace) -> FiniteAutomorphism:
    """The automorphism phi induces on the quotient mod n, within the element budget."""
    if args.n < 1:
        raise InputError("quotient parameter n must be >= 1")
    if args.budget < 1:
        raise InputError("--budget must be >= 1")
    return induce_automorphism(phi, args.n, args.budget)


def cmd_verify(args: argparse.Namespace) -> int:
    phi = _load_spec(args)
    if args.transport_checks < 0:
        raise InputError("--transport-checks must be >= 0")
    aut = _induced_quotient(phi, args)
    group = aut.group
    report = oracle_report(group, aut)
    verdict = reidemeister_number(phi)
    report["library"] = verdict.to_json()
    # each comparison is either made, with a boolean "result", or "skipped"
    # with the reason
    comparisons: dict[str, dict] = {"tbft": {"result": report["tbft"]}}
    # Burnside over positions against union-find over elements
    report["structured_classes"] = fibre_class_count(group, aut)
    comparisons["structured"] = {
        "result": report["structured_classes"] == report["twisted_classes"]
    }

    if verdict.finite:
        # the quotient count reproduces R(phi) exactly when n is a multiple
        # of the exponent of Z^k / (I - A) Z^k
        ident = IntMatrix.identity(phi.k)
        exponent = max(smith_normal_form(ident - phi.matrix).diagonal)
        report["quotient_exponent"] = exponent
        if args.n % exponent == 0:
            comparisons["count_vs_R"] = {"result": report["twisted_classes"] == verdict.value}
        else:
            reason = f"n={args.n} is not a multiple of the exponent {exponent}"
            comparisons["count_vs_R"] = {"skipped": reason}
    else:
        comparisons["count_vs_R"] = {"skipped": "the library verdict is infinite"}

    if args.transport_checks:
        transports = []
        rng = random.Random(args.seed)
        for _ in range(args.transport_checks):
            f = tuple(rng.randrange(group.m) for _ in group.positions)
            t = tuple(rng.randrange(group.n) for _ in range(group.k))
            g_fin = (f, t)
            twisted = aut.twist(group.inverse(g_fin))
            transports.append(fibre_class_count(group, twisted) == report["twisted_classes"])
        report["transport_counts_equal"] = all(transports)
        comparisons["transport"] = {
            "result": all(transports),
            "equal": f"{sum(transports)}/{len(transports)}",
        }
    else:
        comparisons["transport"] = {"skipped": "no transport checks were requested"}

    match = all(c["result"] for c in comparisons.values() if "result" in c)
    report["comparisons"] = comparisons
    report["match"] = match

    if args.json:
        print(json.dumps(report))
    else:
        print(f"group: Z_{group.m} wr (Z/{group.n})^{group.k}  (order {group.size})")
        print(f"twisted classes: {report['twisted_classes']}")
        print(f"fixed irreps:    {report['fixed_irreps']}")
        print(f"orbit count:     {report['structured_classes']}")
        lib = "finite R = " + str(verdict.value) if verdict.finite else "infinite"
        print(f"library verdict: {lib} ({verdict.rule})")
        print("comparisons:")
        for name, c in comparisons.items():
            if "skipped" in c:
                print(f"  {name}: skipped ({c['skipped']})")
            else:
                print(f"  {name}: {c['result']}" + (f" ({c['equal']} equal)" if "equal" in c else ""))
        print(f"match: {match}")
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_oracle_classes(args: argparse.Namespace) -> int:
    phi = _load_spec(args)
    aut = _induced_quotient(phi, args)
    group = aut.group
    count, reps = twisted_classes_bruteforce(group, aut)
    if args.json:
        print(json.dumps({
            "group": {"m": group.m, "n": group.n, "k": group.k},
            "twisted_classes": count,
            "representatives": [{"f": list(f), "t": list(t)} for f, t in reps],
        }))
        return EXIT_OK
    print(f"group order {group.size}, twisted classes: {count}")
    for f, t in reps:
        print(f"  f={list(f)} t={list(t)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamptwist",
        description="Twisted conjugacy for automorphisms of Z_m wr Z^k",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    spec_args = argparse.ArgumentParser(add_help=False)
    spec_args.add_argument("spec", nargs="?", help="automorphism spec file (JSON)")
    spec_args.add_argument("--m", type=int, help="modulus (inline spec)")
    spec_args.add_argument("--u", type=int, default=1, help="unit u (inline spec)")
    spec_args.add_argument("--matrix", help='inline matrix "a,b;c,d"')
    spec_args.add_argument("--x0", help='inline offset "a,b"')
    quotient_args = argparse.ArgumentParser(add_help=False)
    quotient_args.add_argument("n", type=int, help="lattice quotient parameter")
    quotient_args.add_argument("--budget", type=int, default=DEFAULT_ELEMENT_BUDGET,
                               help="largest quotient order to enumerate")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common, spec_args],
                       help="Reidemeister verdict with certificate")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("group-status", parents=[common],
                       help="does Z_m wr Z^k have the R-infinity property?")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_group_status)

    p = sub.add_parser("twisted-eq", parents=[common, spec_args],
                       help="decide twisted conjugacy of two elements")
    p.add_argument("element1", help='element, e.g. "f=[(0,0):1] t=(0,0)"')
    p.add_argument("element2")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                   help="node budget of the search used when det(I - A) = 0")
    p.set_defaults(func=cmd_twisted_eq)

    p = sub.add_parser("orbits", parents=[common, spec_args],
                       help="orbit report of the quotient matrix")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", parents=[common, spec_args, quotient_args],
                       help="cross-check the verdict on a finite quotient")
    p.add_argument("--transport-checks", type=int, default=0,
                   help="also compare the orbit class count of N random inner twists "
                        "with the class count")
    p.add_argument("--seed", type=int, default=0, help="seed of the transport checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle-classes", parents=[common, spec_args, quotient_args],
                       help="brute-force twisted classes of a finite quotient")
    p.set_defaults(func=cmd_oracle_classes)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args makes a fresh namespace per call, so one parser serves them all
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
