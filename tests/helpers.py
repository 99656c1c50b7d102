"""Shared generators for the randomized suites, and the tuple-level oracle.

Everything takes an explicit random.Random so tests stay reproducible;
seeds are fixed in the test modules.

Four sections hold earlier implementations that now serve as referees:

* the finite oracle as it was before its loops moved to integer codes: it
  works on (f, t) tuples through ``FiniteWreathGroup.multiply`` and
  ``translate_f``, and referees the integer-coded one;
* the orbit analysis as it was before it was read off the characteristic
  polynomial: it walks up to ``torsion_order_bound(k)`` powers and basis
  vector images, and referees ``matrix_order`` and ``realized_periods``;
* the base-subgroup decision as it was before periodicity was read off the
  lifted matrix: it finds cycles of x -> A x + x0 by a walk bounded by
  ``torsion_order_bound(k)``, and referees ``orbit_period``,
  ``affine_period`` and ``are_twisted_conjugate_sigma``;
* both twisted-conjugacy decisions as they were before their loops moved
  to plain tuples: the base-subgroup walk over the full window and the
  breadth-first search over ``WreathElement`` products, which referee the
  early stop of the open-orbit walk and the keyed search;
* the base-subgroup verdict as it was before it became one unit test at the
  order of A: it tries every realized period s against the offset's period
  t, and referees ``classify_sigma``.
"""

import math
from collections import deque
from functools import lru_cache
from itertools import permutations, product
from typing import Optional

from lamptwist.finite_oracle import (
    FiniteAutomorphism,
    FiniteElement,
    FiniteWreathGroup,
    IrrepLabel,
    _generators,
)
from lamptwist.lattice import (
    IntMatrix,
    OrbitReport,
    SmithDecomposition,
    Vector,
    _divisors,
    _is_prime,
    _prime_factors,
    det,
    is_unimodular,
    kernel_rank,
    orbit_period,
    realized_periods,
    smith_normal_form,
    solve,
    unit_vector,
    vec_add,
    vec_sub,
    zero_vector,
)
from lamptwist.reidemeister import (
    DEFAULT_ORBIT_WINDOW,
    DEFAULT_SEARCH_BUDGET,
    NO,
    RULE_CYLINDER,
    RULE_INFINITE_ORBIT,
    RULE_NON_EPI,
    UNKNOWN,
    YES,
    ConjugacyAnswer,
    ReidemeisterVerdict,
    _bfs_generators,
    _solve_congruence,
    unit_order,
)
from lamptwist.wreath import (
    FiniteSupportFunction,
    WreathAutomorphism,
    WreathElement,
    twisted_transform,
)


def elementary_add(k, i, j, c):
    rows = [[int(r == s) for s in range(k)] for r in range(k)]
    rows[i][j] = c
    return IntMatrix(rows)


def random_unimodular(rng, k, max_factors=12):
    """Product of at most max_factors elementary/permutation/sign matrices."""
    m = IntMatrix.identity(k)
    for _ in range(rng.randrange(1, max_factors + 1)):
        kind = rng.choice(["add", "swap", "sign"]) if k > 1 else "sign"
        if kind == "add":
            i, j = rng.sample(range(k), 2)
            m = m * elementary_add(k, i, j, rng.choice([-2, -1, 1, 2]))
        elif kind == "swap":
            i, j = rng.sample(range(k), 2)
            rows = [[int(r == s) for s in range(k)] for r in range(k)]
            rows[i][i] = rows[j][j] = 0
            rows[i][j] = rows[j][i] = 1
            m = m * IntMatrix(rows)
        else:
            i = rng.randrange(k)
            rows = [[int(r == s) for s in range(k)] for r in range(k)]
            rows[i][i] = -1
            m = m * IntMatrix(rows)
    return m


def random_signed_permutation(rng, k):
    perm = list(range(k))
    rng.shuffle(perm)
    rows = [[0] * k for _ in range(k)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([-1, 1])
    return IntMatrix(rows)


def all_signed_permutations(k):
    for perm in permutations(range(k)):
        for signs in product([-1, 1], repeat=k):
            rows = [[0] * k for _ in range(k)]
            for i, (j, s) in enumerate(zip(perm, signs)):
                rows[i][j] = s
            yield IntMatrix(rows)


def random_finite_order_unimodular(rng, k, conjugations=4):
    """Signed permutation conjugated by a random unimodular matrix."""
    p = random_signed_permutation(rng, k)
    u = random_unimodular(rng, k, conjugations)
    return u * p * u.inverse()


def lift(a, x0):
    """The (k + 1)-matrix [[A, x0], [0, 1]] acting on (x, 1) as x -> A x + x0."""
    rows = [list(row) + [c] for row, c in zip(a.rows, x0)]
    return IntMatrix(rows + [[0] * a.k + [1]])


def random_function(rng, m, k, max_support=3, box=3):
    entries = []
    for _ in range(rng.randrange(0, max_support + 1)):
        pos = tuple(rng.randrange(-box, box + 1) for _ in range(k))
        entries.append((pos, rng.randrange(1, m)))
    return FiniteSupportFunction(m, entries)


def random_element(rng, m, k, max_support=3, box=3):
    t = tuple(rng.randrange(-box, box + 1) for _ in range(k))
    return WreathElement(random_function(rng, m, k, max_support, box), t)


# ---------------------------------------------------------------------------
# tuple-level referee oracle


def twisted_classes_bruteforce(
    group: FiniteWreathGroup, aut: FiniteAutomorphism
) -> tuple[int, list[FiniteElement]]:
    """Exact twisted-class count and canonical representatives.

    Union-find closes the moves g -> gamma * g * aut(gamma)^-1 over the
    generating set (base generator at position 0 plus the translation
    units); representatives are the least element of each class in the
    canonical tuple order.
    """
    elems = list(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    parent = list(range(len(elems)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    multiply = group.multiply
    steps = [(gen, group.inverse(aut.apply(gen))) for gen in _generators(group)]
    for i, x in enumerate(elems):
        for gen, tail in steps:
            y = multiply(multiply(gen, x), tail)
            ri, rj = find(i), find(index[y])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    reps: dict[int, FiniteElement] = {}
    for i, x in enumerate(elems):
        root = find(i)
        if root not in reps:
            reps[root] = x  # elems are enumerated in canonical order
    return len(reps), [reps[r] for r in sorted(reps)]


def _stabilizer(group: FiniteWreathGroup, chi: tuple[int, ...]) -> list[Vector]:
    return [b for b in group.positions if group.translate_f(chi, b) == chi]


def _eta_key(group: FiniteWreathGroup, stab: list[Vector], y: Vector) -> tuple[int, ...]:
    n = group.n
    return tuple(sum(a * b for a, b in zip(y, s)) % n for s in stab)


def _canonical_eta(group: FiniteWreathGroup, stab: list[Vector], y: Vector) -> Vector:
    target = _eta_key(group, stab, y)
    for cand in group.positions:
        if _eta_key(group, stab, cand) == target:
            return cand
    raise AssertionError("unreachable: y itself matches its key")


def _stabilizer_characters(group: FiniteWreathGroup, stab: list[Vector]) -> list[Vector]:
    seen: dict[tuple[int, ...], Vector] = {}
    for y in group.positions:
        seen.setdefault(_eta_key(group, stab, y), y)
    return sorted(seen.values())


def irreps_little_group(group: FiniteWreathGroup) -> tuple[IrrepLabel, ...]:
    """Complete list of irreducible representation labels.

    Base characters are m-residue tuples over the positions; the
    translation group permutes them, and each orbit representative chi
    together with a character eta of its stabilizer induces one
    irreducible of dimension equal to the orbit size.
    """
    m = group.m
    npk = len(group.positions)
    labels = []
    for chi in product(range(m), repeat=npk):
        orbit = {group.translate_f(chi, b) for b in group.positions}
        if min(orbit) != chi:
            continue
        stab = _stabilizer(group, chi)
        dim = len(orbit)
        for eta in _stabilizer_characters(group, stab):
            labels.append(IrrepLabel(chi, eta, dim))
    return tuple(labels)


def _transport_label(
    group: FiniteWreathGroup, aut: FiniteAutomorphism, label: IrrepLabel
) -> IrrepLabel:
    """Label of the representation pulled back along the automorphism.

    Composing a base character chi with the standard part gives
    (chi o phi')_x = u * chi(sigma(x)); the eta part pulls back through the
    quotient matrix, then both are canonicalized.  Inner parts are ignored
    because conjugate representations are equivalent.
    """
    m, n = group.m, group.n
    chi = label.chi
    new_chi = tuple((aut.u * chi[aut.sigma[i]]) % m for i in range(len(chi)))
    orbit = {group.translate_f(new_chi, b) for b in group.positions}
    canon_chi = min(orbit)
    stab = _stabilizer(group, canon_chi)
    pulled = tuple(
        c % n for c in aut.matrix.transpose().apply(label.eta)
    )
    canon_eta = _canonical_eta(group, stab, pulled)
    return IrrepLabel(canon_chi, canon_eta, len(orbit))


def phi_hat_fixed_count(group: FiniteWreathGroup, aut: FiniteAutomorphism) -> int:
    """Number of irreducible representation classes fixed by pullback."""
    labels = irreps_little_group(group)
    return sum(1 for label in labels if _transport_label(group, aut, label) == label)


# ---------------------------------------------------------------------------
# walk-based referee orbit analysis


@lru_cache(maxsize=None)
def torsion_order_bound(k: int) -> int:
    """Largest finite order of an element of GL_k(Z).

    An order n occurs iff the sum of phi(p^a) over the maximal prime powers
    p^a dividing n is at most k, where a single factor of 2 costs nothing.
    It bounds the order of every finite-order matrix of rank k, and with it
    the period of every periodic lattice point.
    """
    if k < 1:
        raise ValueError("rank must be positive")
    primes = [p for p in range(2, k + 2) if _is_prime(p)]
    best = 1

    def extend(idx: int, budget: int, n: int) -> None:
        nonlocal best
        if n > best:
            best = n
        for i in range(idx, len(primes)):
            p = primes[i]
            q = p
            exponent = 1
            while True:
                cost = 0 if (p == 2 and exponent == 1) else (q // p) * (p - 1)
                if cost > budget:
                    break
                extend(i + 1, budget - cost, n * q)
                q *= p
                exponent += 1

    extend(0, k, 1)
    return best


def walk_matrix_order(a: IntMatrix):
    """Smallest r >= 1 with A^r = identity, or None for infinite order."""
    if not is_unimodular(a):
        raise ValueError("matrix_order requires a unimodular matrix")
    ident = IntMatrix.identity(a.k)
    power = a
    for r in range(1, torsion_order_bound(a.k) + 1):
        if power == ident:
            return r
        power = power * a
    return None


def walk_period(a: IntMatrix, x: Vector, bound: int):
    """Least r <= bound with A^r x = x, or None."""
    y = a.apply(x)
    for r in range(1, bound + 1):
        if y == x:
            return r
        y = a.apply(y)
    return None


def walk_realized_periods(a: IntMatrix) -> OrbitReport:
    """Exact periods attained by lattice points under A.

    For finite order L the attained periods are the divisors r of L whose
    fixed lattice of A^r is strictly larger than that of every A^(r/q),
    q prime: a saturated sublattice cannot be a finite union of proper
    saturated sublattices, so a rank increase is equivalent to existence of
    an exact-period point.  For infinite order, only periods of standard
    basis vectors are collected and the order is reported as None.
    """
    order = walk_matrix_order(a)
    k = a.k
    bound = order if order is not None else torsion_order_bound(k)
    basis = tuple(walk_period(a, unit_vector(k, i), bound) for i in range(k))
    realized: dict[int, Vector] = {1: zero_vector(k)}
    if order is None:
        for i, per in enumerate(basis):
            if per is not None and per not in realized:
                realized[per] = unit_vector(k, i)
        return OrbitReport(None, tuple(sorted(realized.items())), basis)
    ident = IntMatrix.identity(k)
    ranks: dict[int, int] = {}
    for r in _divisors(order):
        fix = a ** r - ident
        ranks[r] = kernel_rank(fix)
        if r > 1 and all(ranks[r // q] < ranks[r] for q in _prime_factors(r)):
            realized[r] = _exact_period_witness(a, r, order, smith_normal_form(fix))
    return OrbitReport(order, tuple(sorted(realized.items())), basis)


def _exact_period_witness(
    a: IntMatrix, r: int, order: int, dec: SmithDecomposition
) -> Vector:
    """A point of exact period r, from the Smith form ``dec`` of A^r - I."""
    k = a.k
    basis = [
        tuple(dec.V.rows[row][c] for row in range(k))
        for c in range(k)
        if dec.diagonal[c] == 0
    ]
    # Combinations along a moment curve avoid the (finitely many) proper
    # saturated sublattices of lower exact period.
    for j in range(1, 4 * len(basis) + 9):
        w = zero_vector(k)
        scale = 1
        for b in basis:
            w = tuple(x + scale * y for x, y in zip(w, b))
            scale *= j
        if any(w) and walk_period(a, w, order) == r:
            return w
    raise AssertionError("no exact-period witness found; rank test violated")


# ---------------------------------------------------------------------------
# walk-based referee twisted conjugacy in the base subgroup


def walk_affine_period(a: IntMatrix, x0: Vector, x: Vector):
    """Least r with T^r x = x for T(y) = A y + x0, or None.

    Exact: the centroid c of a finite orbit is fixed by T, and
    T^j x - c = A^j (x - c), so the period is a period of A on a rational
    point, at most ``torsion_order_bound(k)``.
    """
    y = x
    for r in range(1, torsion_order_bound(a.k) + 1):
        y = vec_add(a.apply(y), x0)
        if y == x:
            return r
    return None


def walk_twisted_conjugate_sigma(phi: WreathAutomorphism, v: FiniteSupportFunction,
                                 orbit_window: int) -> bool:
    """Is v in image(1 - phi')?  Same grouping contract as the engine.

    Cycles come from ``walk_affine_period``.  On a cycle of length r the
    system w_i - u w_(i-1) = v_i (indices mod r) is tried for every start
    value w_0 mod m.  An open orbit is read in a window of ``orbit_window``
    steps each way, skipping points an earlier window took; the telescope
    ends in zero iff sum_i v_i u^(hi - i) = 0 mod m.
    """
    m, u, a, x0 = phi.m, phi.u, phi.matrix, phi.x0
    a_inv = a.inverse()
    remaining = set(v.support())
    while remaining:
        start = min(remaining)
        r = walk_affine_period(a, x0, start)
        if r is not None:
            orbit = [start]
            for _ in range(r - 1):
                orbit.append(vec_add(a.apply(orbit[-1]), x0))
            vals = [v.value_at(q) for q in orbit]
            remaining.difference_update(orbit)

            def closes(w0):
                w = w0
                for val in vals[1:]:
                    w = (val + u * w) % m
                return (vals[0] + u * w - w0) % m == 0

            if not any(closes(w0) for w0 in range(m)):
                return False
        else:
            back, fwd = [start], [start]
            for _ in range(orbit_window):
                back.append(a_inv.apply(tuple(p - c for p, c in zip(back[-1], x0))))
                fwd.append(vec_add(a.apply(fwd[-1]), x0))
            line = back[:0:-1] + fwd
            vals = [v.value_at(q) if q in remaining else 0 for q in line]
            remaining.difference_update(line)
            hi = max(i for i, val in enumerate(vals) if val)
            if sum(val * pow(u, hi - i, m) for i, val in enumerate(vals[: hi + 1])) % m:
                return False
    return True


# ---------------------------------------------------------------------------
# step-by-step referee twisted conjugacy
#
# The engine's two loops as they were before they ran on plain tuples: the
# base-subgroup decision walks the full window each way with IntMatrix.apply,
# and the degenerate-case search forms WreathElement products on every edge.


def stepwise_twisted_conjugate_sigma(
    phi: WreathAutomorphism,
    h1: FiniteSupportFunction,
    h2: FiniteSupportFunction,
    orbit_window: int = DEFAULT_ORBIT_WINDOW,
) -> tuple[bool, Optional[FiniteSupportFunction]]:
    """Decide h1 - h2 in image(1 - phi') on the base subgroup, with witness.

    The difference is split along orbits of the affine position map
    x -> A x + x0.  Whether a support point's orbit is finite is decided
    exactly, by ``orbit_period`` on the lift (x, 1) -> (A x + x0, 1), whatever
    A is.  A finite orbit of length r gives a cyclic linear system whose
    solvability is governed by gcd(1 - u^r, m); an open orbit gives a
    forward-substitution telescope that must end in zero.  Open orbits are
    grouped only within ``orbit_window`` steps each way of a support point:
    support points further apart along one open orbit are treated as lying
    on separate orbits, so a False answer that met an open orbit is exact
    only up to that window.  Every True answer carries an exactly verified
    witness.

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
        return True, FiniteSupportFunction(m)
    if any(len(p) != phi.k for p in v.support()):
        raise ValueError("support dimension does not match the automorphism rank")

    lifted = IntMatrix([row + (c,) for row, c in zip(a.rows, x0)] + [(0,) * a.k + (1,)])
    a_inv: Optional[IntMatrix] = None

    def step(p: Vector) -> Vector:
        return vec_add(a.apply(p), x0)

    def step_back(p: Vector) -> Vector:
        return a_inv.apply(vec_sub(p, x0))

    def walk(move, p: Vector, n: int) -> list[Vector]:
        path = [p]
        for _ in range(n):
            path.append(move(path[-1]))
        return path

    remaining = set(v.support())
    entries: list[tuple[Vector, int]] = []
    while remaining:
        start = min(remaining)
        r = orbit_period(lifted, start + (1,))
        if r is not None:
            # cyclic orbit of length r: solve (1 - u^r) a0 = telescoped sum
            seq = walk(step, start, r - 1)
            vals = [v.value_at(q) for q in seq]
            remaining.difference_update(seq)
            c = vals[0]
            power = 1
            for j in range(1, r):
                power = (power * u) % m
                c = (c + power * vals[r - j]) % m
            a0 = _solve_congruence((1 - pow(u, r, m)) % m, c, m)
            if a0 is None:
                return False, None
            coeffs = [a0]
            for i in range(1, r):
                coeffs.append((vals[i] + u * coeffs[i - 1]) % m)
            entries.extend(zip(seq, coeffs))
        else:
            # open orbit: the window runs orbit_window steps each way, and a
            # point an earlier window took is read as zero, so no value counts twice
            if a_inv is None:
                a_inv = a.inverse()
            back = walk(step_back, start, orbit_window)
            line = back[:0:-1] + walk(step, start, orbit_window)
            vals = [v.value_at(q) if q in remaining else 0 for q in line]
            remaining.difference_update(line)
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
                return False, None
    witness = FiniteSupportFunction(m, entries)
    assert h1 - h2 == witness - phi.apply_base(witness)
    return True, witness


def element_twisted_conjugate_full(
    phi: WreathAutomorphism,
    g: WreathElement,
    h: WreathElement,
    budget: int = DEFAULT_SEARCH_BUDGET,
    orbit_window: int = DEFAULT_ORBIT_WINDOW,
) -> ConjugacyAnswer:
    """Decide whether g and h lie in the same twisted class of phi.

    Projecting to the translation quotient is always necessary, so a coset
    mismatch of the translations modulo (I - A) Z^k is an exact No.  When
    det(I - A) != 0 the translation part of any conjugator is forced to the
    unique solution z of (I - A) z = t_h - t_g, which reduces the question
    to one solvable system in the base subgroup: the answer is then an
    exact Yes (with verified witness) or No.  Only the degenerate case
    det(I - A) = 0 falls back to a breadth-first search over twisted
    transforms, which reports Unknown once ``budget`` nodes are expanded.
    """
    if g.m != phi.m or h.m != phi.m or g.k != phi.k or h.k != phi.k:
        raise ValueError("elements from a different group")
    if phi.inner is not None:
        # right-shift transport: x ~ y under tau_gamma o phi iff
        # x*gamma ~ y*gamma under phi, with the same conjugator
        return element_twisted_conjugate_full(
            phi.standard(), g * phi.inner, h * phi.inner, budget, orbit_window
        )
    a = phi.matrix
    i_minus_a = IntMatrix.identity(a.k) - a
    dt = vec_sub(h.t, g.t)
    z = solve(i_minus_a, dt)
    if z is None:
        return ConjugacyAnswer(NO, reason="translations lie in different quotient classes")
    if det(i_minus_a) != 0:
        # conjugator translation is forced; one base-subgroup solve decides
        v = h.f - g.f.translate(z)
        phi_eff = WreathAutomorphism(a, phi.m, phi.u, vec_add(phi.x0, h.t))
        ok, c = stepwise_twisted_conjugate_sigma(
            phi_eff, v, FiniteSupportFunction(phi.m), orbit_window
        )
        if not ok:
            return ConjugacyAnswer(
                NO, reason="base equation unsolvable for the forced conjugator translation"
            )
        w = WreathElement(c, z)
        assert twisted_transform(phi, g, w) == h
        return ConjugacyAnswer(YES, witness=w)
    # degenerate quotient: search the twisted class breadth-first
    if g == h:
        return ConjugacyAnswer(YES, witness=WreathElement.identity(phi.m, phi.k))
    gens = _bfs_generators(phi.m, phi.k)
    steps = [(gen, phi.apply(gen).inverse()) for gen in gens]
    seen = {g}
    queue = deque([(g, WreathElement.identity(phi.m, phi.k))])
    nodes = 0
    while queue:
        cur, w = queue.popleft()
        for gen, tail in steps:
            nxt = gen * cur * tail
            conj = gen * w
            if nxt == h:
                assert twisted_transform(phi, g, conj) == h
                return ConjugacyAnswer(YES, witness=conj)
            if nxt not in seen:
                seen.add(nxt)
                nodes += 1
                if nodes >= budget:
                    return ConjugacyAnswer(UNKNOWN, reason="search budget exhausted")
                queue.append((nxt, conj))
    return ConjugacyAnswer(NO, reason="twisted class exhausted without reaching target")


def periodwise_classify_sigma(phi: WreathAutomorphism, d: int) -> ReidemeisterVerdict:
    """Verdict of the stage d = det(I - A) != 0: is 1 - phi' onto the base?

    If every orbit block of 1 - phi' is onto, the base contributes a single
    twisted class and the classes are cylinders over the |d| translation
    classes.  Otherwise the base has infinitely many classes, certified
    either by a basis vector with unbounded orbit or by a realized period
    pair (s, t) whose combined length r = lcm(s, t) makes 1 - u^r a
    non-unit mod m.  Inner twists only shift the effective offset, so they
    are normalized away before the orbit analysis.
    """
    if d == 0:
        raise ValueError("classify_sigma requires det(I - A) != 0")
    a = phi.matrix
    report = realized_periods(a)
    if report.order is None:
        idx = report.basis_periods.index(None)
        witness = {"basis_vector": list(unit_vector(a.k, idx))}
        return ReidemeisterVerdict(False, None, RULE_INFINITE_ORBIT, witness)
    m, t = phi.m, orbit_period(a, phi.effective_x0)
    for s in sorted(report.periods):
        r = math.lcm(s, t)
        gap = math.gcd((1 - pow(phi.u, r, m)) % m, m)  # 1 iff 1 - u^r is a unit mod m
        if gap != 1:
            witness = {"s": s, "t": t, "r": r, "unit_gap": gap}
            return ReidemeisterVerdict(False, None, RULE_NON_EPI, witness)
    witness = {"det_i_minus_a": d, "unit_order": unit_order(phi.u, m)}
    return ReidemeisterVerdict(True, abs(d), RULE_CYLINDER, witness)
