import math
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from lamptwist.devices import fixed_characters
from lamptwist.lattice import (
    IntMatrix,
    PrimalityBoundError,
    _charpoly,
    _cyclotomic,
    _cyclotomic_candidates,
    _cyclotomic_split,
    _divisors,
    _is_prime,
    _lift_split,
    _prime_factors,
    affine_period,
    coset_representatives,
    det,
    kernel_rank,
    matrix_order,
    orbit_period,
    point_period,
    realized_periods,
    smith_normal_form,
    solve,
    vec_add,
    vec_sub,
)
from lamptwist.reidemeister import reidemeister_number
from lamptwist.wreath import WreathAutomorphism

from helpers import (
    lift,
    random_finite_order_unimodular,
    random_unimodular,
    torsion_order_bound,
    walk_period,
    walk_realized_periods,
)

M3 = IntMatrix([[0, 1], [-1, -1]])
I2 = IntMatrix.identity(2)


def det_by_permutation_expansion(m):
    """Independent oracle: sum over permutations with parity signs."""
    k = m.k
    total = 0
    for perm in permutations(range(k)):
        inversions = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        term = (-1) ** inversions
        for i in range(k):
            term *= m.rows[i][perm[i]]
        total += term
    return total


# ---------------------------------------------------------------------------
# determinant


def test_det_examples():
    assert det(IntMatrix([[1]])) == 1
    assert det(IntMatrix([[0, 1], [-1, -1]])) == 1  # cofactor expansion by hand
    assert det(I2 - M3) == 3


def test_det_matches_permutation_expansion():
    rng = random.Random(101)
    for _ in range(60):
        k = rng.randrange(1, 5)
        m = IntMatrix(
            [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(k)]
        )
        assert det(m) == det_by_permutation_expansion(m)


def test_det_large_entries_exact():
    big = 10 ** 30
    m = IntMatrix([[big, 1], [1, big]])
    assert det(m) == big * big - 1


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_examples():
    assert smith_normal_form(I2).diagonal == (1, 1)
    # manual row/column reduction: [[1,-1],[1,2]] -> diag(1, 3)
    assert smith_normal_form(IntMatrix([[1, -1], [1, 2]])).diagonal == (1, 3)
    assert smith_normal_form(IntMatrix([[2, 0], [0, 4]])).diagonal == (2, 4)


def test_snf_recomposition_and_chain():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randrange(1, 5)
        m = IntMatrix(
            [[rng.randrange(-6, 7) for _ in range(k)] for _ in range(k)]
        )
        dec = smith_normal_form(m)
        assert dec.U * m * dec.V == dec.D
        assert abs(det(dec.U)) == 1 and abs(det(dec.V)) == 1
        diag = dec.diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # off-diagonal must vanish
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert dec.D.rows[i][j] == 0


def test_snf_deterministic():
    m = IntMatrix([[4, 6, 2], [6, 4, 8], [2, 8, 4]])
    assert smith_normal_form(m) == smith_normal_form(m)


@st.composite
def integer_matrices(draw):
    """Square integer matrices, k <= 6: raw, forced singular, or unimodular."""
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["raw", "singular", "unimodular"]))
    if kind == "unimodular":
        return random_unimodular(draw(st.randoms(use_true_random=False)), k)
    entries = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k))
    if kind == "singular":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(k)]
    return IntMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_elimination_core_matches_sympy(m):
    """det, Smith form, kernel rank and inverse agree with sympy as referee."""
    ref = Matrix(m.to_lists())
    k = m.k
    d = det(m)
    assert d == ref.det()
    factors = [int(x) for x in invariant_factors(ref, domain=ZZ)]
    assert smith_normal_form(m).diagonal == tuple(factors + [0] * (k - len(factors)))
    assert kernel_rank(m) == k - ref.rank()
    if d == 0:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    elif abs(d) != 1:
        with pytest.raises(ValueError, match="not unimodular"):
            m.inverse()
    else:
        assert m.inverse().to_lists() == ref.inv().tolist()


# ---------------------------------------------------------------------------
# torsion orders


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 18 - 1), st.integers(2, 10 ** 9), st.integers(2, 10 ** 9))
def test_factoring_matches_sympy(n, a, b):
    # random n rarely has two large prime factors, so also build semiprimes
    # and prime squares from the next primes after a and b
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    for x in (n, p * q, p * p):
        assert _prime_factors(x) == tuple(sorted(sympy.factorint(x)))
        assert _is_prime(x) == sympy.isprime(x)
    small = n % 100_000 + 1
    assert _divisors(small) == tuple(sympy.divisors(small))


def test_is_prime_on_strong_pseudoprimes():
    # least strong pseudoprimes to the first 4, 9 and 12 prime bases, and two
    # Carmichael numbers
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561, 41041):
        assert not _is_prime(n)
    assert _is_prime(2) and _is_prime(41) and _is_prime(43) and not _is_prime(1)


def test_is_prime_names_its_bound_instead_of_guessing():
    started = time.perf_counter()
    # composite, and a strong pseudoprime to every base; then the prime 2^89 - 1
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(PrimalityBoundError, match="only below 3317044064679887385961981"):
            _is_prime(n)
    assert time.perf_counter() - started < 1.0
    # a base that shows a number composite is a proof at any size
    assert not _is_prime((2 ** 89 - 1) * (2 ** 61 - 1))


def test_torsion_order_bound_known_values():
    assert [torsion_order_bound(k) for k in range(1, 9)] == [2, 6, 6, 12, 12, 30, 30, 60]


def test_matrix_order_examples():
    for k in (1, 2, 3):
        assert matrix_order(-IntMatrix.identity(k)) == 2
    assert matrix_order(M3) == 3
    assert matrix_order(IntMatrix([[2, 1], [1, 1]])) is None


def test_matrix_order_rejects_non_unimodular():
    with pytest.raises(ValueError, match="^realized_periods requires a unimodular matrix$"):
        matrix_order(IntMatrix([[2, 0], [0, 1]]))


def test_matrix_order_is_minimal():
    rng = random.Random(23)
    ident = IntMatrix.identity(3)
    for _ in range(20):
        a = random_finite_order_unimodular(rng, 3)
        r = matrix_order(a)
        assert a ** r == ident
        for d in range(1, r):
            if r % d == 0:
                assert a ** d != ident


# ---------------------------------------------------------------------------
# kernels and periods


def test_kernel_rank_examples():
    assert kernel_rank(IntMatrix([[0, 0], [0, 0]])) == 2
    assert kernel_rank(IntMatrix([[-2, 0], [0, -2]])) == 0
    assert kernel_rank(IntMatrix([[0, 1], [0, 0]])) == 1


def brute_force_periods(a, radius=5):
    """Oracle: exact periods of every point in the max-norm ball."""
    order = matrix_order(a)
    seen = set()
    for point in product(range(-radius, radius + 1), repeat=a.k):
        cur = a.apply(point)
        for r in range(1, order + 1):
            if cur == point:
                seen.add(r)
                break
            cur = a.apply(cur)
    return seen


def test_realized_periods_examples():
    assert realized_periods(-I2).periods == {1, 2}
    assert realized_periods(M3).periods == {1, 3}
    block = IntMatrix.block_diagonal(M3, -I2)
    assert realized_periods(block).periods == {1, 2, 3, 6}


def test_realized_periods_match_bruteforce():
    for a, radius in [(-I2, 3), (M3, 5), (IntMatrix.block_diagonal(M3, -I2), 2)]:
        assert realized_periods(a).periods == brute_force_periods(a, radius)


def test_realized_period_witnesses_are_exact():
    rng = random.Random(31)
    mats = [M3, -I2, IntMatrix.block_diagonal(M3, -I2)]
    mats += [random_finite_order_unimodular(rng, 3) for _ in range(10)]
    for a in mats:
        report = realized_periods(a)
        assert report.order == matrix_order(a)
        assert 1 in report.periods and report.witness(1) == (0,) * a.k
        for r, w in report.realized:
            assert r == 1 or point_period(a, w) == r
            assert report.order % r == 0


def test_realized_periods_infinite_order():
    a = IntMatrix.block_diagonal(IntMatrix([[-1]]), IntMatrix([[2, 1], [1, 1]]))
    report = realized_periods(a)
    assert report.order is None
    assert report.periods == {1, 2}
    assert report.basis_periods == (2, None, None)


# ---------------------------------------------------------------------------
# the orbit analysis read off the characteristic polynomial


def companion(poly):
    """Companion matrix of a monic polynomial, constant term first."""
    k = len(poly) - 1
    rows = [[int(i == j + 1) for j in range(k)] for i in range(k)]
    for i in range(k):
        rows[i][k - 1] = -poly[i]
    return IntMatrix(rows)


CAT = IntMatrix([[2, 1], [1, 1]])
SHEAR = IntMatrix([[1, 1], [0, 1]])
FINITE_BLOCKS = [IntMatrix([[1]]), IntMatrix([[-1]])] + [
    companion(_cyclotomic(n)) for n in (3, 4, 5, 6, 8, 10, 12)
]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_charpoly_matches_sympy(m):
    x = sympy.Symbol("x")
    ref = Matrix(m.to_lists()).charpoly(x).all_coeffs()
    assert _charpoly(m) == tuple(int(c) for c in reversed(ref))


def test_cyclotomic_table_matches_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 121):
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert _cyclotomic(n) == tuple(int(c) for c in reversed(ref))
    for k in (1, 2, 6, 16):
        ref = tuple(n for n in range(1, 4 * k * k) if sympy.totient(n) <= k)
        assert _cyclotomic_candidates(k) == ref


@st.composite
def orbit_matrices(draw):
    """Unimodular k <= 6: finite-order conjugates, cat or shear next to
    finite blocks, and random elementary products."""
    kind = draw(st.sampled_from(["signed-permutation", "blocks", "cat", "shear", "elementary"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "elementary":
        return random_unimodular(rng, draw(st.integers(1, 6)), 16)
    if kind == "signed-permutation":
        return random_finite_order_unimodular(rng, draw(st.integers(1, 6)))
    blocks = {"blocks": [], "cat": [CAT], "shear": [SHEAR]}[kind]
    while True:
        size = sum(b.k for b in blocks)
        fits = [b for b in FINITE_BLOCKS if size + b.k <= 6]
        if not fits or (blocks and draw(st.booleans())):
            break
        blocks.append(draw(st.sampled_from(fits)))
    a = IntMatrix.block_diagonal(*draw(st.permutations(blocks)))
    if not draw(st.booleans()):  # keep some basis vectors inside one block
        return a
    p = random_unimodular(rng, a.k, 6)
    return p * a * p.inverse()


@settings(max_examples=300, deadline=None)
@given(orbit_matrices(), st.randoms(use_true_random=False))
def test_orbit_analysis_matches_the_walk_referee(a, rng):
    ref = walk_realized_periods(a)
    report = realized_periods(a)
    assert matrix_order(a) == ref.order == report.order
    assert report.basis_periods == ref.basis_periods
    assert report.periods == ref.periods
    bound = report.order or torsion_order_bound(a.k)
    for r, w in report.realized:
        assert walk_period(a, w, bound) == r
    if report.order is not None:
        x = tuple(rng.randrange(-3, 4) for _ in range(a.k))
        assert point_period(a, x) == walk_period(a, x, report.order)


def test_matrix_order_at_rank_16_needs_few_products(monkeypatch):
    # a walk over the torsion bound makes 840 products at k = 16
    limit = 2 * math.log2(torsion_order_bound(16)) + 2
    rng = random.Random(16)
    p = random_unimodular(rng, 16, 24)
    blocks = [companion(_cyclotomic(n)) for n in (5, 7, 8)]  # orders 5, 7 and 8
    mats = [
        random_unimodular(rng, 16, 48),  # chi_A has a non-cyclotomic factor
        p * IntMatrix.block_diagonal(SHEAR, *blocks) * p.inverse(),  # chi_A is cyclotomic
    ]
    calls = []
    real = IntMatrix.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    realized_periods.cache_clear()  # earlier tests may have cached these matrices
    monkeypatch.setattr(IntMatrix, "__mul__", counting)
    for a in mats:
        calls.clear()
        assert matrix_order.__wrapped__(a) is None
        assert len(calls) < limit
    assert matrix_order.cache_info().maxsize is not None


def test_orbit_analysis_forms_no_matrix_product(monkeypatch):
    rng = random.Random(10)
    p = random_unimodular(rng, 16, 24)
    finite = [companion(_cyclotomic(n)) for n in (3, 4, 5, 6, 12)]  # degrees 2+2+4+2+4
    mats = [
        p * IntMatrix.block_diagonal(*finite, IntMatrix([[-1]]), IntMatrix([[-1]])) * p.inverse(),
        IntMatrix.block_diagonal(finite[0], SHEAR, IntMatrix([[-1]])),
        CAT,
    ]
    refs = [walk_realized_periods(a) for a in mats]
    assert [ref.order for ref in refs] == [60, None, None]

    def forbidden(self, other):
        raise AssertionError("the orbit analysis formed a matrix product")

    realized_periods.cache_clear()  # CAT, for one, is cached by earlier tests
    monkeypatch.setattr(IntMatrix, "__mul__", forbidden)
    monkeypatch.setattr(IntMatrix, "__pow__", forbidden)
    for a, ref in zip(mats, refs):
        report = realized_periods(a)
        assert matrix_order.__wrapped__(a) == ref.order == report.order
        assert report.basis_periods == ref.basis_periods
        assert report.periods == ref.periods
        reidemeister_number(WreathAutomorphism(a, 5, 2, (0,) * a.k))


def test_point_period_examples():
    assert point_period(M3, (0, 0)) == 1
    assert point_period(-I2, (1, 0)) == 2
    assert point_period(M3, (1, 0)) == 3  # (1,0) -> (0,-1) -> (-1,1) -> (1,0)
    with pytest.raises(ValueError):
        point_period(IntMatrix([[2, 1], [1, 1]]), (1, 0))


def test_orbit_period_examples():
    assert orbit_period(M3, (1, 0)) == 3
    assert orbit_period(CAT, (0, 0)) == 1
    assert orbit_period(CAT, (1, 0)) is None
    assert orbit_period(SHEAR, (1, 0)) == 1  # on the fixed axis
    assert orbit_period(SHEAR, (0, 1)) is None
    # x -> S x + (2, 0) for the shear S, lifted: (x, -2) is fixed, the rest is open
    lifted = IntMatrix([[1, 1, 2], [0, 1, 0], [0, 0, 1]])
    assert orbit_period(lifted, (5, -2, 1)) == 1
    assert orbit_period(lifted, (5, -1, 1)) is None
    assert affine_period(SHEAR, (2, 0), (5, -2)) == 1
    assert affine_period(SHEAR, (2, 0), (5, -1)) is None
    assert affine_period(M3, (1, 0), (0, 0)) == 3  # (0,0) -> (1,0) -> (1,-1) -> (0,0)
    assert affine_period(CAT, (1, 0), (0, -1)) == 1  # (I - A)^-1 (1, 0) = (0, -1)
    assert affine_period(CAT, (1, 0), (0, 1)) is None


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(orbit_matrices(),
              st.sampled_from([SHEAR, IntMatrix([[1, 0], [0, -1]]), IntMatrix([[1]])])),
    st.randoms(use_true_random=False),
)
def test_lift_split_is_read_off_the_split_of_a(a, rng):
    # chi of [[A, x0], [0, 1]] is chi_A * (x - 1), whatever x0 is
    x0 = tuple(rng.randrange(-3, 4) for _ in range(a.k))
    assert _lift_split(a) == _cyclotomic_split(lift(a, x0))


# ---------------------------------------------------------------------------
# fixed characters and coset enumeration


def test_fixed_characters_examples():
    assert fixed_characters(IntMatrix([[-1]])) == (
        (Fraction(0),),
        (Fraction(1, 2),),
    )
    assert len(fixed_characters(M3)) == 3
    with pytest.raises(ValueError):
        fixed_characters(I2)


def test_fixed_characters_fix_equation():
    rng = random.Random(47)
    for _ in range(15):
        k = rng.randrange(1, 4)
        a = random_finite_order_unimodular(rng, k)
        if det(IntMatrix.identity(k) - a) == 0:
            continue
        at = a.transpose()
        for chi in fixed_characters(a):
            assert all(0 <= c < 1 for c in chi)
            image = tuple(
                sum(Fraction(at.rows[i][j]) * chi[j] for j in range(k)) % 1
                for i in range(k)
            )
            assert image == chi


def test_coset_representatives_examples():
    assert coset_representatives(IntMatrix([[2]])) == ((0,), (1,))
    assert coset_representatives(I2) == ((0, 0),)
    reps = coset_representatives(I2 - M3)
    assert len(reps) == 3
    for i, x in enumerate(reps):
        for y in reps[i + 1 :]:
            diff = tuple(a - b for a, b in zip(x, y))
            assert solve(I2 - M3, diff) is None  # pairwise non-congruent
    for singular in (I2 - I2, IntMatrix([[1, 1], [1, 1]])):
        with pytest.raises(ValueError, match="infinite index: det = 0"):
            coset_representatives(singular)


def test_count_coincidences():
    # |fixed characters| = |cosets of (I-A)Z^k| = |det(I-A)|
    rng = random.Random(59)
    for _ in range(20):
        k = rng.randrange(1, 4)
        a = random_finite_order_unimodular(rng, k)
        d = det(IntMatrix.identity(k) - a)
        if d == 0:
            continue
        assert len(fixed_characters(a)) == abs(d)
        assert len(coset_representatives(IntMatrix.identity(k) - a)) == abs(d)


def test_coset_representatives_classify():
    m = I2 - M3
    reps = coset_representatives(m)
    for r in reps:
        for s in reps:
            assert (solve(m, vec_sub(r, s)) is None) == (r != s)
    shifted = vec_add(reps[1], m.apply((3, -2)))
    assert [r for r in reps if solve(m, vec_sub(shifted, r)) is not None] == [reps[1]]


def test_solve_system():
    assert solve(I2 - M3, (3, 3)) is not None
    assert solve(I2 - M3, (1, 0)) is None
    singular = IntMatrix([[1, 1], [1, 1]])
    assert solve(singular, (2, 2)) is not None
    assert solve(singular, (1, 0)) is None


# ---------------------------------------------------------------------------
# structural properties used downstream


def test_power_first_column_gcd_is_one():
    rng = random.Random(61)
    for _ in range(25):
        k = rng.choice([2, 3])
        a = random_unimodular(rng, k)
        power = IntMatrix.identity(k)
        for _ in range(12):
            power = power * a
            col = [power.rows[i][0] for i in range(k)]
            assert math.gcd(*col) == 1


def test_axis_orbit_intersection_small():
    rng = random.Random(67)
    radius = 8
    for _ in range(10):
        a = random_unimodular(rng, 2)
        for x in range(1, radius + 1):
            axis_hits = {(x, 0)}
            forward = (x, 0)
            backward = (x, 0)
            inv = a.inverse()
            for _ in range(60):
                forward = a.apply(forward)
                backward = inv.apply(backward)
                for p in (forward, backward):
                    if max(abs(c) for c in p) <= radius and p[1] == 0:
                        axis_hits.add(p)
            assert axis_hits <= {(x, 0), (-x, 0)}
