"""Seeded inputs and expected answers for the three benchmark workloads.

A workload is an endless stream of rounds.  Every round holds the same fixed
mix of query kinds, so any whole number of rounds has the same mix and the
latency quantiles fall on the same kinds whatever the seed; the seed only
chooses the matrices, offsets, units and group elements.  The program sees
spec files and argv, never a workload name.

Expected answers come from how each input is built, not from the engine:

* ``classify``: A = P * diag(blocks) * P^-1 with blocks of known order and
  known det(I - B), so the verdict, rule and value follow from the block data.
* ``twisted-eq``: conjugate pairs are made as h = w g phi(w)^-1; the other
  pairs add c * delta_x to such an h at a point x whose orbit makes that
  delta a non-boundary, which makes them provably not twisted conjugate.
* ``verify``: class counts are invariant under conjugating A, changing the
  offset and inner twists, so each quotient kind has one pinned count.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from lamptwist.wreath import (
    FiniteSupportFunction,
    WreathAutomorphism,
    WreathElement,
    element_from_json,
    format_element,
    parse_element,
    twisted_transform,
)
from lamptwist.lattice import IntMatrix

WORKLOADS = ("classify", "twisted-eq", "verify")
CLASSIFY_RANKS = (2, 4, 8, 12, 16)
TWISTED_EQ_BUDGET = 800  # BFS nodes for the det(I - A) = 0 specs


@dataclass(frozen=True)
class Block:
    """Diagonal block with its order (None: infinite) and det(I - B)."""

    name: str
    rows: tuple[tuple[int, ...], ...]
    order: Optional[int]
    det_i_minus: int

    @property
    def size(self) -> int:
        return len(self.rows)


NEG = Block("neg", ((-1,),), 2, 2)
ONE = Block("one", ((1,),), 1, 0)
O3 = Block("o3", ((0, 1), (-1, -1)), 3, 3)
O4 = Block("o4", ((0, 1), (-1, 0)), 4, 2)
O6 = Block("o6", ((1, 1), (-1, 0)), 6, 1)
CAT = Block("cat", ((2, 1), (1, 1)), None, -1)
SHEAR = Block("shear", ((1, 1), (0, 1)), None, 0)
FINITE_PAIRS = ((O3,), (O4,), (O6,), (NEG, NEG))

UNITS = tuple(
    (m, u) for m in (2, 3, 5, 7, 11) for u in range(1, m) if math.gcd(u, m) == 1
)


# ---------------------------------------------------------------------------
# plain integer matrices, kept apart from the engine's IntMatrix


def _identity(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _apply(a: list[list[int]], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _unimodular(rng: random.Random, k: int, steps: int) -> tuple[list, list]:
    """A random P in GL_k(Z) and its inverse, built from elementary moves."""
    p, p_inv = _identity(k), _identity(k)
    for _ in range(steps if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-1, 1))
        # P <- P * (I + c e_i e_j^T);  P^-1 <- (I - c e_i e_j^T) * P^-1
        for row in p:
            row[j] += c * row[i]
        p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[j])]
    return p, p_inv


def _block_diagonal(blocks: list[Block]) -> list[list[int]]:
    k = sum(b.size for b in blocks)
    out = [[0] * k for _ in range(k)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            out[off + i][off:off + b.size] = row
        off += b.size
    return out


def _fill(rng: random.Random, head: list[Block], k: int, palette) -> list[Block]:
    """``head`` plus pairs taken in turn from ``palette``, from a random start.

    Taking the pairs in turn, not at random, gives every matrix of rank 8
    and up every order of its palette, so costs at one rank do not swing
    with the seed.
    """
    blocks = list(head)
    start = rng.randrange(len(palette))
    i = 0
    while sum(b.size for b in blocks) < k:
        blocks.extend(palette[(start + i) % len(palette)])
        i += 1
    rng.shuffle(blocks)
    return blocks


def _conjugated(rng: random.Random, blocks: list[Block], steps: int):
    """(A, P) with A = P * diag(blocks) * P^-1."""
    p, p_inv = _unimodular(rng, sum(b.size for b in blocks), steps)
    return _matmul(_matmul(p, _block_diagonal(blocks)), p_inv), p


def _spec(m: int, u: int, matrix, x0) -> dict:
    return {"version": 1, "m": m, "k": len(matrix), "matrix": matrix, "u": u, "x0": list(x0)}


def expected_verdict(blocks: list[Block], y0: tuple[int, ...], m: int, u: int) -> dict:
    """Verdict of A = P diag(blocks) P^-1 with offset x0 = P y0, from block data.

    Realized orbit periods are the lcms of subsets of the block orders (every
    nonzero point of these finite-order blocks has the block's full order),
    and the offset's period is the lcm of the orders of the blocks it meets.
    """
    d = math.prod(b.det_i_minus for b in blocks)
    if d == 0:
        return {"verdict": "infinite", "rule": "det-zero"}
    if any(b.order is None for b in blocks):
        return {"verdict": "infinite", "rule": "infinite-orbit"}
    realized = {1}
    t, off = 1, 0
    for b in blocks:
        realized |= {math.lcm(s, b.order) for s in realized}
        if any(y0[off:off + b.size]):
            t = math.lcm(t, b.order)
        off += b.size
    for s in sorted(realized):
        if math.gcd((1 - pow(u, math.lcm(s, t), m)) % m, m) != 1:
            return {"verdict": "infinite", "rule": "non-epi-orbit"}
    return {"verdict": "finite", "rule": "cylinder", "value": abs(d)}


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class Query:
    """One CLI call: argv with the spec file path left out, plus its answer."""

    kind: str
    k: int
    spec: dict
    args: tuple[str, ...]  # argv after the spec path
    expected: dict

    @property
    def spec_name(self) -> str:
        blob = json.dumps(self.spec, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:20] + ".json"

    def argv(self, workdir: Path) -> list[str]:
        return [self.args[0], str(workdir / self.spec_name), *self.args[1:]]

    def write_spec(self, workdir: Path) -> None:
        path = workdir / self.spec_name
        if not path.exists():
            path.write_text(json.dumps(self.spec))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "spec": self.spec,
            "args": list(self.args),
            "expected": self.expected,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Query":
        return cls(obj["kind"], obj["k"], obj["spec"], tuple(obj["args"]), obj["expected"])


def _rng(workload: str, seed: str, *tags) -> random.Random:
    return random.Random("/".join([workload, seed, *map(str, tags)]))


def make_round(workload: str, seed: str, index: int) -> list[Query]:
    """Round ``index`` of a workload's query stream for ``seed``."""
    if workload == "classify":
        return _classify_round(_rng(workload, seed, index))
    if workload == "twisted-eq":
        return _twisted_eq_round(_twisted_eq_specs(_rng(workload, seed, "specs")),
                                 _rng(workload, seed, index))
    if workload == "verify":
        return _verify_round(_rng(workload, seed, index))
    raise ValueError(f"unknown workload {workload!r}")


def warmup_seed(seed: str) -> str:
    """A seed no timed run uses, so warm-up leaves the timed inputs' caches cold."""
    return f"warmup-{seed}"


# ---------------------------------------------------------------------------
# classify: distinct matrices, every rank gets every rule


# Seven queries per rank, 35 per round, each finite-order kind drawing its
# blocks from its own palette so that the costs at one rank form a ramp,
# not a few tight clusters.  A shared host can switch between a fast and a
# slow speed every few seconds (about 1.4x apart on a 2-vCPU Xeon VM); a
# percentile that falls between two tight clusters jumps from one to the
# other as the share of slow time in a run changes, while on a ramp it
# moves smoothly.  Sorted by
# latency, p50 (position 17.5) falls among the k = 8 kinds and p90
# (position 32.4) among the finite-order k = 16 kinds.
CLASSIFY_KINDS = (
    ("det-zero", FINITE_PAIRS),
    ("infinite-orbit", FINITE_PAIRS),
    ("non-epi-orbit", FINITE_PAIRS),
    ("non-epi-orbit", ((O3,), (NEG, NEG))),
    ("cylinder", FINITE_PAIRS),
    ("cylinder", ((O4,), (NEG, NEG))),
    ("cylinder", ((O3,), (O6,))),
)


def _classify_query(rng: random.Random, rule: str, palette, k: int) -> Query:
    if rule == "det-zero":
        # infinite order (shear) at low rank only, so at k >= 12 only the
        # infinite-orbit kind carries the long matrix_order walk
        head = [SHEAR] if k <= 8 else [ONE, NEG]
    elif rule == "infinite-orbit":
        head = [CAT]
    else:
        head = []
    blocks = _fill(rng, head, k, palette)
    y0 = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(k))
    choices = [(m, u) for m, u in UNITS if expected_verdict(blocks, y0, m, u)["rule"] == rule]
    m, u = rng.choice(choices)
    a, p = _conjugated(rng, blocks, k + 2)
    spec = _spec(m, u, a, _apply(p, y0))
    orders = "+".join(pair[0].name for pair in palette)
    return Query(f"classify/{rule}/{orders}/k{k}", k, spec, ("classify", "--json"),
                 expected_verdict(blocks, y0, m, u))


def _classify_round(rng: random.Random) -> list[Query]:
    queries = [_classify_query(rng, rule, palette, k)
               for k in CLASSIFY_RANKS for rule, palette in CLASSIFY_KINDS]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# twisted-eq: a few fixed specs per seed, many element pairs


@dataclass(frozen=True)
class _TwistedSpec:
    blocks: tuple[Block, ...]
    m: int
    u: int
    conjugate: int  # conjugate pairs per round
    other: int  # provably non-conjugate pairs per round


# Per round: 21 cheap forced finite-order or degenerate-yes queries, 12
# infinite-order window queries and 2 budget-bound degenerate queries.  With
# 35 queries sorted by latency, p50 (position 17.5) falls among the cheap
# kinds and p90 (position 31.5) inside the window kinds, not on a boundary.
TWISTED_SPECS = (
    _TwistedSpec((O3,), 3, 1, 2, 2),
    _TwistedSpec((O4,), 5, 4, 2, 2),
    _TwistedSpec((O6,), 7, 6, 2, 2),
    _TwistedSpec((O3, O4), 2, 1, 2, 2),
    _TwistedSpec((CAT,), 2, 1, 3, 3),
    _TwistedSpec((CAT, CAT), 3, 2, 3, 3),
    _TwistedSpec((SHEAR,), 3, 1, 3, 1),
    _TwistedSpec((ONE, NEG), 2, 1, 2, 1),
)


def _twisted_eq_specs(rng: random.Random) -> list[tuple[_TwistedSpec, dict, WreathAutomorphism]]:
    out = []
    for ts in TWISTED_SPECS:
        a, _ = _conjugated(rng, list(ts.blocks), 3)
        x0 = tuple(rng.randrange(-2, 3) for _ in a)
        spec = _spec(ts.m, ts.u, a, x0)
        out.append((ts, spec, WreathAutomorphism(IntMatrix(a), ts.m, ts.u, x0)))
    return out


def _random_element(rng: random.Random, m: int, k: int, support: int, box: int) -> WreathElement:
    entries = [
        (tuple(rng.randrange(-box, box + 1) for _ in range(k)), rng.randrange(1, m))
        for _ in range(rng.randrange(1, support + 1))
    ]
    t = tuple(rng.randrange(-box, box + 1) for _ in range(k))
    return WreathElement(FiniteSupportFunction(m, entries), t)


def _short_word(rng: random.Random, m: int, k: int) -> WreathElement:
    """Product of two of the breadth-first search's generators."""
    gens = [WreathElement.delta(m, (0,) * k, 1), WreathElement.delta(m, (0,) * k, m - 1)]
    for i in range(k):
        e = tuple(int(j == i) for j in range(k))
        gens.append(WreathElement.translation(m, e))
        gens.append(WreathElement.translation(m, tuple(-c for c in e)))
    return rng.choice(gens) * rng.choice(gens)


def _non_boundary_point(rng, phi: WreathAutomorphism, t_h) -> tuple[int, ...]:
    """A point x with c * delta_x outside image(1 - psi') for every c != 0.

    psi' moves position y to A y + x0 + t_h and scales by u.  With u = 1 the
    total sum of values is an invariant of every twisted class.  Otherwise x
    lies on an orbit of length r with u^r = 1 mod m (the cyclic system has
    no solution), or on an infinite orbit, where a single nonzero value can
    never be cancelled by a finitely supported preimage.
    """
    k = phi.k
    rows = [list(r) for r in phi.matrix.rows]
    shift = tuple(a + b for a, b in zip(phi.x0, t_h))

    def step(y):
        return tuple(a + b for a, b in zip(_apply(rows, y), shift))

    while True:
        x = tuple(rng.randrange(-3, 4) for _ in range(k))
        if phi.u == 1:
            return x
        y, r = step(x), 1
        while y != x and r <= 64:
            y, r = step(y), r + 1
        if y != x:  # open orbit: only the fixed point is periodic here
            return x
        if pow(phi.u, r, phi.m) == 1:
            return x


def _twisted_eq_round(specs, rng: random.Random) -> list[Query]:
    queries = []
    for ts, spec, phi in specs:
        k, m = phi.k, phi.m
        degenerate = math.prod(b.det_i_minus for b in ts.blocks) == 0
        extra = ("--budget", str(TWISTED_EQ_BUDGET)) if degenerate else ()
        for i in range(ts.conjugate + ts.other):
            g = _random_element(rng, m, k, 3, 3)
            w = _short_word(rng, m, k) if degenerate else _random_element(rng, m, k, 2, 2)
            h = twisted_transform(phi, g, w)
            if i < ts.conjugate:
                expected = {"status": ["yes"]}
                kind = "conjugate"
            else:
                x = _non_boundary_point(rng, phi, h.t)
                h = WreathElement(h.f + FiniteSupportFunction.delta(m, x, rng.randrange(1, m)), h.t)
                # the budgeted search may stop before it can say no
                expected = {"status": ["no", "unknown"] if degenerate else ["no"]}
                kind = "other"
            queries.append(Query(
                f"twisted-eq/{'+'.join(b.name for b in ts.blocks)}/{kind}", k, spec,
                ("twisted-eq", format_element(g), format_element(h), "--json", *extra),
                expected,
            ))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# verify: brute force on finite quotients Z_m wr (Z/n)^k


@dataclass(frozen=True)
class _Quotient:
    blocks: tuple[Block, ...]
    m: int
    u: int
    n: int
    classes: int  # pinned twisted-class count (equal to the fixed irreps)

    @property
    def order(self) -> int:
        k = sum(b.size for b in self.blocks)
        return self.m ** (self.n ** k) * self.n ** k


# 25 quotients per round, sorted here by latency: five small kinds, fifteen
# of 2,048 to 2,500 elements whose middle holds p50 (position 13), a ramp of
# four near 10^4 elements that holds p90 (position 22.5), and Z_5 wr Z/6
# (93,750 elements), which takes over half the time and sets peak memory.
# A percentile next to a gap between sizes jumps across it when the
# machine changes speed (see CLASSIFY_KINDS), so p50 sits seven kinds away
# from the nearest gap on either side.
QUOTIENTS = (
    _Quotient((NEG,), 3, 2, 2, 3),
    _Quotient((O3,), 2, 1, 2, 4),
    _Quotient((O6,), 2, 1, 2, 4),
    _Quotient((O3,), 3, 2, 2, 1),
    _Quotient((NEG,), 3, 2, 4, 8),
    *[_Quotient((NEG,), 2, 1, 8, 30)] * 3,
    *[_Quotient((NEG,), 5, 1, 4, 90)] * 3,
    *[_Quotient((NEG,), 5, 2, 4, 2)] * 3,
    *[_Quotient((NEG,), 5, 3, 4, 2)] * 3,
    *[_Quotient((NEG,), 5, 4, 4, 18)] * 3,
    _Quotient((NEG,), 7, 3, 4, 2),
    _Quotient((NEG,), 7, 2, 4, 2),
    _Quotient((NEG,), 2, 1, 10, 56),
    _Quotient((O6,), 7, 3, 2, 1),
    _Quotient((NEG,), 5, 2, 6, 2),
)


def _verify_round(rng: random.Random) -> list[Query]:
    queries = []
    for q in QUOTIENTS:
        k = sum(b.size for b in q.blocks)
        a, p = _conjugated(rng, list(q.blocks), 3)
        y0 = tuple(rng.randrange(q.n) for _ in range(k))
        spec = _spec(q.m, q.u, a, _apply(p, y0))
        expected = {
            "classes": q.classes,
            "order": q.order,
            "library": expected_verdict(list(q.blocks), y0, q.m, q.u),
        }
        args = ("verify", str(q.n), "--json", "--transport-checks", "1",
                "--seed", str(rng.randrange(1 << 30)))
        name = "+".join(b.name for b in q.blocks)
        queries.append(Query(f"verify/{name}-m{q.m}-u{q.u}-n{q.n}", k, spec, args, expected))
    return queries


# ---------------------------------------------------------------------------
# answer checking


def _verdict(obj: dict) -> dict:
    out = {"verdict": obj.get("verdict"), "rule": obj.get("certificate", {}).get("rule")}
    if "value" in obj:
        out["value"] = obj["value"]
    return out


def check(query: Query, code, stdout: str) -> Optional[str]:
    """None if the answer is right, else why it is wrong."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(out, dict):
        return "output is not a JSON object"
    exp = query.expected
    if query.args[0] == "classify":
        got = _verdict(out)
        return None if got == exp else f"got {got}, expected {exp}"
    if query.args[0] == "twisted-eq":
        status = out.get("status")
        if status not in exp["status"]:
            return f"status {status!r}, expected one of {exp['status']}"
        if status == "yes":
            return _check_witness(query, out.get("witness"))
        return None
    got = _verdict(out.get("library", {}))
    if got != exp["library"]:
        return f"library verdict {got}, expected {exp['library']}"
    if out.get("twisted_classes") != exp["classes"] or out.get("fixed_irreps") != exp["classes"]:
        return f"counts {out.get('twisted_classes')}/{out.get('fixed_irreps')}, expected {exp['classes']}"
    if out.get("match") is not True or out.get("transport_counts_equal") is not True:
        return "verify reported a mismatch"
    return None


def _check_witness(query: Query, witness) -> Optional[str]:
    """Re-verify a yes answer: w g phi(w)^-1 must equal h."""
    spec = query.spec
    try:
        w = element_from_json(witness, spec["m"])
    except (KeyError, TypeError, ValueError):
        return f"malformed witness {witness!r}"
    phi = WreathAutomorphism(IntMatrix(spec["matrix"]), spec["m"], spec["u"], tuple(spec["x0"]))
    g = parse_element(query.args[1], spec["m"])
    h = parse_element(query.args[2], spec["m"])
    return None if twisted_transform(phi, g, w) == h else "witness does not conjugate g to h"
