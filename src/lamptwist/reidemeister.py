"""Reidemeister numbers and twisted-conjugacy decisions for Z_m wr Z^k.

The decision pipeline follows the quotient structure of the group: the
translation quotient Z^k contributes |det(I - A)| classes when nonzero, and
the base subgroup contributes a factor that is either trivial (one class)
or infinite.  Which of the two happens is read off from the orbit structure
of A: infinite when some orbit is unbounded, or when 1 - u^L is not a unit
mod m at the order L of A.  Every verdict carries a certificate naming the
rule that produced it and the numeric witnesses behind it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import add, mul
from typing import Optional

from .lattice import (
    IntMatrix,
    OrbitSieve,
    Vector,
    _charpoly,
    _inverse,
    _prime_factors,
    _totient,
    affine_period,
    coset_representatives,
    realized_periods,
    solve,
    unit_vector,
    vec_add,
    vec_neg,
    vec_sub,
    zero_vector,
)
from .wreath import (
    FiniteSupportFunction,
    WreathAutomorphism,
    WreathElement,
    twisted_transform,
)

# certificate rules
RULE_DET_ZERO = "det-zero"
RULE_INFINITE_ORBIT = "infinite-orbit"
RULE_NON_EPI = "non-epi-orbit"
RULE_CYLINDER = "cylinder"

# answers of the full conjugacy decision
YES = "yes"
NO = "no"
UNKNOWN = "unknown"

# the bound a no or unknown depends on
BOUND_ORBIT_WINDOW = "orbit_window"
BOUND_SEARCH_BUDGET = "search_budget"

DEFAULT_SEARCH_BUDGET = 100_000
DEFAULT_ORBIT_WINDOW = 512


def unit_order(u: int, m: int) -> int:
    """Least d >= 1 with u^d = 1 mod m.

    The order divides Euler's totient of m: start there and divide out
    each prime p for as long as u^(d/p) stays 1.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    u %= m
    if math.gcd(u, m) != 1:
        raise ValueError("u must be a unit mod m")
    d = _totient(m)
    for p in _prime_factors(d):
        while d % p == 0 and pow(u, d // p, m) == 1:
            d //= p
    return d


@dataclass(frozen=True)
class ReidemeisterVerdict:
    """Finite(value) or Infinite, plus the certificate that produced it."""

    finite: bool
    value: Optional[int]
    rule: str
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {"verdict": "finite" if self.finite else "infinite"}
        if self.finite:
            out["value"] = self.value
        out["certificate"] = {"rule": self.rule, "witness": dict(self.witness)}
        return out


def classify_sigma(phi: WreathAutomorphism, d: int) -> ReidemeisterVerdict:
    """Verdict of the stage d = det(I - A) != 0: is 1 - phi' onto the base?

    If every orbit block of 1 - phi' is onto, the base contributes a single
    twisted class and the classes are cylinders over the |d| translation
    classes.  Otherwise the base has infinitely many classes, certified
    either by a basis vector with unbounded orbit or by the order L of A,
    at which 1 - u^L is not a unit mod m.

    One test at L decides every orbit length.  A block of 1 - phi' has
    length r = lcm(s, t), with s a realized period of A and t the period of
    the effective offset x0 under A.  Both s and t divide L, since A^L = I;
    s = L is realized, and lcm(L, t) = L.  For r | L, x^r - 1 divides
    x^L - 1, so 1 - u^r divides 1 - u^L in Z, and a prime of m dividing
    the one divides the other.  So some block fails exactly when
    gcd(1 - u^L, m) != 1, whatever x0 and the inner twist are.  The
    cylinder certificate carries d, L and gcd(1 - u^L, m) = 1, which
    together prove R = |d|.
    """
    if d == 0:
        raise ValueError("classify_sigma requires det(I - A) != 0")
    a = phi.matrix
    report = realized_periods(a)
    order = report.order
    if order is None:
        idx = report.basis_periods.index(None)
        witness = {"basis_vector": list(unit_vector(a.k, idx))}
        return ReidemeisterVerdict(False, None, RULE_INFINITE_ORBIT, witness)
    m = phi.m
    gap = math.gcd((1 - pow(phi.u, order, m)) % m, m)  # 1 iff 1 - u^L is a unit mod m
    if gap != 1:
        witness = {"order": order, "unit_gap": gap}
        return ReidemeisterVerdict(False, None, RULE_NON_EPI, witness)
    witness = {"det_i_minus_a": d, "order": order, "unit_gap": gap}
    return ReidemeisterVerdict(True, abs(d), RULE_CYLINDER, witness)


def reidemeister_number(phi: WreathAutomorphism) -> ReidemeisterVerdict:
    """Reidemeister number of phi with a certificate.

    Infinite when the translation quotient already has infinitely many
    classes (det(I - A) = 0); otherwise ``classify_sigma`` decides from the
    base subgroup.  det(I - A) is chi_A(1), the coefficient sum of the
    characteristic polynomial that the orbit analysis splits.
    """
    d = sum(_charpoly(phi.matrix))
    if d == 0:
        return ReidemeisterVerdict(False, None, RULE_DET_ZERO, {"det_i_minus_a": 0})
    return classify_sigma(phi, d)


def class_representatives(phi: WreathAutomorphism) -> tuple[WreathElement, ...]:
    """Pairwise non-equivalent transversal of the twisted classes.

    Only defined for finite verdicts: the classes are cylinders over the
    translation quotient, so lifts of coset representatives of (I - A) Z^k
    enumerate them exactly.
    """
    verdict = reidemeister_number(phi)
    if not verdict.finite:
        raise ValueError("infinite Reidemeister number has no finite transversal")
    a = phi.matrix
    reps = coset_representatives(IntMatrix.identity(a.k) - a)
    zero = FiniteSupportFunction(phi.m)
    return tuple(WreathElement(zero, c) for c in reps)


# ---------------------------------------------------------------------------
# twisted conjugacy in the base subgroup


def _solve_congruence(alpha: int, c: int, m: int) -> Optional[int]:
    """Some x with alpha * x = c mod m, or None."""
    alpha %= m
    c %= m
    g = math.gcd(alpha, m)
    if c % g:
        return None
    mg = m // g
    return (c // g) * pow(alpha // g, -1, mg) % mg if mg > 1 else 0


class SigmaAnswer(tuple):
    """The pair (solvable, witness) of ``are_twisted_conjugate_sigma``.

    ``bound`` is ``BOUND_ORBIT_WINDOW`` on a False answer that holds only up
    to the orbit window, and None otherwise.
    """

    bound: Optional[str]

    def __new__(cls, ok: bool, witness: Optional[FiniteSupportFunction] = None,
                bound: Optional[str] = None) -> "SigmaAnswer":
        answer = super().__new__(cls, (ok, witness))
        answer.bound = bound
        return answer


def are_twisted_conjugate_sigma(
    phi: WreathAutomorphism,
    h1: FiniteSupportFunction,
    h2: FiniteSupportFunction,
    orbit_window: int = DEFAULT_ORBIT_WINDOW,
) -> SigmaAnswer:
    """Decide h1 - h2 in image(1 - phi') on the base subgroup, with witness.

    The difference is split along orbits of the affine position map
    x -> A x + x0.  Whether a support point's orbit is finite is decided
    exactly, by ``affine_period`` (the lift (x, 1) -> (A x + x0, 1)), whatever
    A is.  A finite orbit of length r gives a cyclic linear system whose
    solvability is governed by gcd(1 - u^r, m); an open orbit gives a
    forward-substitution telescope that must end in zero.  Open orbits are
    grouped only within ``orbit_window`` steps each way of a support point.

    The walk along an open orbit waits only for the support points that an
    ``OrbitSieve`` of its start keeps: a point whose residue misses the
    start's residue cycle mod a small prime is on another orbit.  The walk
    stops once no unread point is kept, and has then grouped its orbit
    exactly, at any distance.  Only a walk that reaches the window with
    kept points unread may split an orbit, so a False answer met after such
    a walk carries the bound ``BOUND_ORBIT_WINDOW``; every other False is
    exact.  The sieve changes no answer and no witness.  Every True answer
    carries an exactly verified witness.

    Inner-twisted automorphisms are rejected: reduce them through the
    right-shift transport of classes first.
    """
    if not phi.is_standard:
        raise ValueError("inner-twisted automorphism: reduce via shift transport first")
    if h1.m != phi.m or h2.m != phi.m:
        raise ValueError("modulus mismatch")
    m, u, a, x0 = phi.m, phi.u, phi.matrix, phi.x0
    v = h1 - h2
    if not v:
        return SigmaAnswer(True, FiniteSupportFunction(m))
    if any(len(p) != phi.k for p in v.support()):
        raise ValueError("support dimension does not match the automorphism rank")

    # x -> A x + x0 as (row, offset) pairs; the inverse map A^-1 x - A^-1 x0
    # is built when the first open orbit is met
    forward = tuple(zip(a.rows, x0))
    backward: Optional[tuple] = None

    def step(pairs, p: Vector) -> Vector:
        return tuple([sum(map(mul, row, p)) + c for row, c in pairs])

    # support values not yet read; popping them reads each value once
    remaining = dict(v.items())
    entries: list[tuple[Vector, int]] = []
    truncated = False  # some open-orbit walk reached the window with kept points unread
    while remaining:
        start = min(remaining)
        r = affine_period(a, x0, start)
        if r is not None:
            # cyclic orbit of length r: solve (1 - u^r) a0 = telescoped sum
            seq = [start]
            for _ in range(r - 1):
                seq.append(step(forward, seq[-1]))
            vals = [remaining.pop(q, 0) for q in seq]
            c = vals[0]
            power = 1
            for j in range(1, r):
                power = (power * u) % m
                c = (c + power * vals[r - j]) % m
            a0 = _solve_congruence((1 - pow(u, r, m)) % m, c, m)
            if a0 is None:
                return SigmaAnswer(False)
            coeffs = [a0]
            for i in range(1, r):
                coeffs.append((vals[i] + u * coeffs[i - 1]) % m)
            entries.extend(zip(seq, coeffs))
        else:
            # open orbit: the window runs at most orbit_window steps each way
            # and stops once no unread point can be on it; points further
            # along are zero, and the telescope reads only lo..hi
            if backward is None:
                a_inv = _inverse(a)
                backward = tuple(zip(a_inv.rows, vec_neg(a_inv.apply(x0))))
            sieve = OrbitSieve(a, x0, start)
            waiting = remaining.keys() - {start}  # unread points the sieve keeps
            back, fwd = [start], [start]
            for _ in range(orbit_window):
                if not waiting:
                    break
                p, q = step(backward, back[-1]), step(forward, fwd[-1])
                back.append(p)
                fwd.append(q)
                waiting.discard(p)
                waiting.discard(q)
                waiting = sieve.sift(waiting)
            truncated = truncated or bool(waiting)
            line = back[:0:-1] + fwd
            vals = [remaining.pop(q, 0) for q in line]
            support_idx = [i for i, val in enumerate(vals) if val]
            lo, hi = support_idx[0], support_idx[-1]
            coeff = 0
            for i in range(lo, hi + 1):
                coeff = (vals[i] + u * coeff) % m
                if coeff and i < hi:
                    entries.append((line[i], coeff))
            if coeff:
                # telescope does not terminate: a finitely supported
                # preimage would need an infinite tail
                return SigmaAnswer(False, bound=BOUND_ORBIT_WINDOW if truncated else None)
    witness = FiniteSupportFunction(m, entries)
    assert h1 - h2 == witness - phi.apply_base(witness)
    return SigmaAnswer(True, witness)


# ---------------------------------------------------------------------------
# twisted conjugacy in the full group


@dataclass(frozen=True)
class ConjugacyAnswer:
    status: str  # yes | no | unknown
    witness: Optional[WreathElement] = None
    reason: Optional[str] = None
    bound: Optional[str] = None  # the bound an inexact no or an unknown depends on


def _bfs_generators(m: int, k: int) -> tuple[WreathElement, ...]:
    gens = [WreathElement.delta(m, zero_vector(k), 1)]
    if m > 2:
        gens.append(WreathElement.delta(m, zero_vector(k), m - 1))
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        gens.append(WreathElement.translation(m, e))
        gens.append(WreathElement.translation(m, vec_neg(e)))
    return tuple(gens)


def are_twisted_conjugate_full(
    phi: WreathAutomorphism,
    g: WreathElement,
    h: WreathElement,
    budget: int = DEFAULT_SEARCH_BUDGET,
    orbit_window: int = DEFAULT_ORBIT_WINDOW,
) -> ConjugacyAnswer:
    """Decide whether g and h lie in the same twisted class of phi.

    Projecting to the translation quotient is always necessary, so a coset
    mismatch of the translations modulo (I - A) Z^k is an exact No.  So are
    base sums that differ modulo gcd(1 - u, m), whatever det(I - A) is.
    When det(I - A) != 0 the translation part of any conjugator is forced
    to the unique solution z of (I - A) z = t_h - t_g, which reduces the
    question to one solvable system in the base subgroup: the answer is
    then a Yes (with verified witness) or a No, exact unless ``bound``
    names ``BOUND_ORBIT_WINDOW`` (see ``are_twisted_conjugate_sigma``).  In
    the degenerate case det(I - A) = 0 a breadth-first search over twisted
    transforms decides, and reports Unknown, with the bound
    ``BOUND_SEARCH_BUDGET``, once ``budget`` nodes are expanded.
    """
    if g.m != phi.m or h.m != phi.m or g.k != phi.k or h.k != phi.k:
        raise ValueError("elements from a different group")
    if phi.inner is not None:
        # right-shift transport: x ~ y under tau_gamma o phi iff
        # x*gamma ~ y*gamma under phi, with the same conjugator
        return are_twisted_conjugate_full(
            phi.standard(), g * phi.inner, h * phi.inner, budget, orbit_window
        )
    a = phi.matrix
    i_minus_a = IntMatrix.identity(a.k) - a
    dt = vec_sub(h.t, g.t)
    z = solve(i_minus_a, dt)
    if z is None:
        return ConjugacyAnswer(NO, reason="translations lie in different quotient classes")
    m = phi.m
    # the base sum is a homomorphism onto Z_m that standard phi multiplies
    # by u, so h = w g phi(w)^-1 gives sum h - sum g = (1 - u) sum w
    if sum(val for _, val in (h.f - g.f).items()) % math.gcd(1 - phi.u, m):
        return ConjugacyAnswer(NO, reason="base sums differ modulo gcd(1 - u, m)")
    if sum(_charpoly(a)) != 0:  # det(I - A) = chi_A(1)
        # conjugator translation is forced; one base-subgroup solve decides
        v = h.f - g.f.translate(z)
        phi_eff = WreathAutomorphism(a, phi.m, phi.u, vec_add(phi.x0, h.t))
        base = are_twisted_conjugate_sigma(
            phi_eff, v, FiniteSupportFunction(phi.m), orbit_window
        )
        ok, c = base
        if not ok:
            return ConjugacyAnswer(
                NO, reason="base equation unsolvable for the forced conjugator translation",
                bound=base.bound,
            )
        w = WreathElement(c, z)
        assert twisted_transform(phi, g, w) == h
        return ConjugacyAnswer(YES, witness=w)
    # degenerate quotient: search the twisted class breadth-first
    if g == h:
        return ConjugacyAnswer(YES, witness=WreathElement.identity(m, phi.k))
    gens = _bfs_generators(m, phi.k)
    # gen * (cf, ct) * tail = (gf + cf shifted by gt + tf shifted by gt + ct, gt + ct + tt)
    moves = []
    for gen in gens:
        tail = phi.apply(gen).inverse()
        moves.append((gen.t, any(gen.t), gen.f.items(), tail.t, tail.f.items()))
    target = (h.t, frozenset(h.f.items()))
    start = (g.t, frozenset(g.f.items()))
    parent: dict = {start: None}  # node -> (node it was reached from, generator index)
    queue = deque([start])
    nodes = 0
    while queue:
        cur = queue.popleft()
        ct, cf = cur
        for i, (gt, shifts, gf, tt, tf) in enumerate(moves):
            gct = tuple(map(add, gt, ct))
            f = dict(gf)
            for p, val in cf:
                if shifts:
                    p = tuple(map(add, p, gt))
                f[p] = f.get(p, 0) + val
            for p, val in tf:
                p = tuple(map(add, p, gct))
                f[p] = f.get(p, 0) + val
            nxt = (tuple(map(add, gct, tt)),
                   frozenset([(p, r) for p, val in f.items() if (r := val % m)]))
            if nxt == target:
                path = [i]
                node = cur
                while parent[node] is not None:
                    node, j = parent[node]
                    path.append(j)
                conj = WreathElement.identity(m, phi.k)
                for j in reversed(path):
                    conj = gens[j] * conj
                assert twisted_transform(phi, g, conj) == h
                return ConjugacyAnswer(YES, witness=conj)
            if nxt not in parent:
                parent[nxt] = (cur, i)
                nodes += 1
                if nodes >= budget:
                    return ConjugacyAnswer(UNKNOWN, reason="search budget exhausted",
                                           bound=BOUND_SEARCH_BUDGET)
                queue.append(nxt)
    return ConjugacyAnswer(NO, reason="twisted class exhausted without reaching target")


# ---------------------------------------------------------------------------
# group-level answer


HAS_R_INFINITY = "has-r-infinity"
NOT_R_INFINITY = "not-r-infinity"

ORDER_THREE_BLOCK = IntMatrix([[0, 1], [-1, -1]])


@dataclass(frozen=True)
class GroupStatus:
    status: str
    example: Optional[WreathAutomorphism] = None


def r_infinity_status(m: int, k: int) -> GroupStatus:
    """Does every automorphism of Z_m wr Z^k have infinitely many classes?

    Decided for every m >= 2 and k >= 1 from m mod 6 and the parity of k,
    with no factoring:

    * m even, or 3 | m with k odd: R-infinity.  The base B is exactly the
      set of torsion elements (an element with translation t != 0 maps to
      t in the torsion-free Z^k), so B is characteristic, and so is pB.
      For a prime p | m, G / pB = Z_p wr Z^k, and the twisted classes of
      an automorphism map onto those of the automorphism it induces on the
      quotient.  Z_2 wr Z^k has R-infinity in every rank, and Z_3 wr Z^k in
      odd rank, so G inherits it.
    * 3 | m otherwise (m odd, k even): k/2 blocks of order 3 with u = m - 1.
      At L = 3, 1 - u^3 = 2 mod m is a unit, and det(I - A) = 3^(k/2).
    * gcd(m, 6) = 1: A = -I with u = 2.  At L = 2, 1 - u^2 = -3 is a unit,
      and det(I - A) = 2^k.
    """
    if m < 2 or k < 1:
        raise ValueError("need modulus >= 2 and rank >= 1")
    if m % 2 == 0 or (m % 3 == 0 and k % 2):
        return GroupStatus(HAS_R_INFINITY)
    if m % 3 == 0:
        a, u = IntMatrix.block_diagonal(*[ORDER_THREE_BLOCK] * (k // 2)), m - 1
    else:
        a, u = -IntMatrix.identity(k), 2
    return GroupStatus(NOT_R_INFINITY, WreathAutomorphism(a, m, u, zero_vector(k)))
