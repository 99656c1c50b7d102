"""Shared generators for the randomized suites, and the tuple-level oracle.

Everything takes an explicit random.Random so tests stay reproducible;
seeds are fixed in the test modules.

Two sections hold earlier implementations that now serve as referees:

* the finite oracle as it was before its loops moved to integer codes: it
  works on (f, t) tuples through ``FiniteWreathGroup.multiply`` and
  ``translate_f``, and referees the integer-coded one;
* the orbit analysis as it was before it was read off the characteristic
  polynomial: it walks up to ``torsion_order_bound(k)`` powers and basis
  vector images, and referees ``matrix_order`` and ``realized_periods``.
"""

from itertools import permutations, product

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
    _prime_factors,
    is_unimodular,
    kernel_rank,
    smith_normal_form,
    torsion_order_bound,
    unit_vector,
    zero_vector,
)
from lamptwist.wreath import FiniteSupportFunction, WreathElement


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
