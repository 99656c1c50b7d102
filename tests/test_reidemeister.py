import dataclasses
import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix, eye, primefactors

from lamptwist import lattice, reidemeister
from lamptwist.devices import cyclic_block_det, delta_chain_check
from lamptwist.finite_oracle import fibre_class_count, induce_automorphism
from lamptwist.lattice import (
    SIEVE_CAP,
    SIEVE_PRIMES,
    IntMatrix,
    OrbitSieve,
    affine_period,
    det,
    orbit_period,
    solve,
    unit_vector,
)
from lamptwist.reidemeister import (
    BOUND_ORBIT_WINDOW,
    BOUND_SEARCH_BUDGET,
    DEFAULT_ORBIT_WINDOW,
    HAS_R_INFINITY,
    NO,
    NOT_R_INFINITY,
    ORDER_THREE_BLOCK,
    RULE_CYLINDER,
    RULE_DET_ZERO,
    RULE_INFINITE_ORBIT,
    RULE_NON_EPI,
    UNKNOWN,
    YES,
    ConjugacyAnswer,
    _bfs_generators,
    are_twisted_conjugate_full,
    are_twisted_conjugate_sigma,
    class_representatives,
    classify_sigma,
    r_infinity_status,
    reidemeister_number,
    unit_order,
)
from lamptwist.wreath import (
    FiniteSupportFunction,
    WreathAutomorphism,
    WreathElement,
    twisted_transform,
)

from helpers import (
    element_twisted_conjugate_full,
    factoring_r_infinity_status,
    lift,
    periodwise_classify_sigma,
    random_element,
    random_finite_order_unimodular,
    random_function,
    random_unimodular,
    stepwise_twisted_conjugate_sigma,
    torsion_order_bound,
    walk_affine_period,
    walk_residue_cycle,
    walk_twisted_conjugate_sigma,
)

M3 = ORDER_THREE_BLOCK
I2 = IntMatrix.identity(2)


def units(m):
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


def sigma_verdict(phi):
    return classify_sigma(phi, det(IntMatrix.identity(phi.k) - phi.matrix))


# ---------------------------------------------------------------------------
# small arithmetic


def test_unit_order_examples():
    assert unit_order(1, 7) == 1
    assert unit_order(2, 5) == 4
    assert unit_order(2, 3) == 2
    with pytest.raises(ValueError):
        unit_order(2, 4)
    with pytest.raises(ValueError):
        unit_order(1, 1)


def test_unit_order_matches_the_power_walk():
    for m in range(2, 200):
        for u in units(m):
            d, power = 1, u
            while power != 1:
                power = power * u % m
                d += 1
            assert unit_order(u, m) == d


def test_unit_order_large_prime_modulus():
    started = time.perf_counter()
    assert unit_order(5, 1_000_000_007) == 1_000_000_006  # 5 is a primitive root
    assert time.perf_counter() - started < 1.0


def test_reidemeister_abelian_examples():
    # a finite R(phi) is the class count |det(I - A)| of A on Z^k
    for k in (1, 2, 3):
        phi = WreathAutomorphism(-IntMatrix.identity(k), 5, 2, (0,) * k)
        assert reidemeister_number(phi).value == 2 ** k
    assert reidemeister_number(WreathAutomorphism(M3, 3, 2, (0, 0))).value == 3
    assert reidemeister_number(WreathAutomorphism(I2, 3, 2, (0, 0))).value is None


def test_cyclic_block_det_examples():
    assert cyclic_block_det(2, 1, 5) == (1 - 2) % 5
    assert cyclic_block_det(2, 2, 5) == 2  # 1 - 4 = -3 = 2 mod 5
    assert cyclic_block_det(2, 3, 3) == 2  # 1 - 8 = -7 = 2 mod 3


def test_cyclic_block_det_identity_exhaustive():
    for m in (2, 3, 5, 7, 9):
        for u in units(m):
            for s in range(1, 9):
                assert cyclic_block_det(u, s, m) == (1 - u ** s) % m


def test_unit_gap_divisor_coherence():
    # if 1 - u^r is a unit, so is 1 - u^d for every divisor d of r
    for m in (2, 3, 5, 7, 9):
        for u in units(m):
            for r in range(1, 25):
                if math.gcd((1 - u ** r) % m, m) == 1:
                    for d in range(1, r + 1):
                        if r % d == 0:
                            assert math.gcd((1 - u ** d) % m, m) == 1


# ---------------------------------------------------------------------------
# classification


def test_classify_m2_always_obstructed():
    rng = random.Random(3)
    for k in (1, 2, 3):
        for _ in range(10):
            a = random_unimodular(rng, k)
            if det(IntMatrix.identity(k) - a) == 0:
                continue
            phi = WreathAutomorphism(a, 2, 1, (0,) * k)
            assert sigma_verdict(phi).rule in (RULE_NON_EPI, RULE_INFINITE_ORBIT)


def test_classify_examples():
    phi = WreathAutomorphism(-I2, 5, 2, (0, 0))
    assert sigma_verdict(phi).rule == RULE_CYLINDER

    rng = random.Random(5)
    for _ in range(5):
        x0 = tuple(rng.randrange(-3, 4) for _ in range(2))
        phi = WreathAutomorphism(M3, 3, 2, x0)
        assert sigma_verdict(phi).rule == RULE_CYLINDER


def test_classify_requires_nonzero_det():
    with pytest.raises(ValueError):
        classify_sigma(WreathAutomorphism.identity(3, 2), 0)


def test_classify_infinite_orbit():
    a = IntMatrix([[2, 1], [1, 1]])
    phi = WreathAutomorphism(a, 5, 2, (0, 0))
    verdict = sigma_verdict(phi)
    assert verdict.rule == RULE_INFINITE_ORBIT
    assert verdict.witness["basis_vector"] in ([1, 0], [0, 1])


def test_classify_non_epi_witness_periods():
    phi = WreathAutomorphism(-I2, 3, 2, (0, 0))  # 1 - 2^2 = -3 = 0 mod 3
    verdict = sigma_verdict(phi)
    assert verdict.rule == RULE_NON_EPI
    assert verdict.witness == {"order": 2, "unit_gap": 3}


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_regression_values():
    assert reidemeister_number(WreathAutomorphism(M3, 3, 2, (0, 0))).value == 3
    block = IntMatrix.block_diagonal(M3, M3)
    assert reidemeister_number(WreathAutomorphism(block, 3, 2, (0,) * 4)).value == 9
    infinite = reidemeister_number(WreathAutomorphism(M3, 3, 1, (0, 0)))
    assert not infinite.finite and infinite.rule == RULE_NON_EPI


def test_verdict_det_zero():
    verdict = reidemeister_number(WreathAutomorphism.identity(3, 2))
    assert not verdict.finite and verdict.rule == RULE_DET_ZERO


def test_verdict_consistency():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.choice([2, 3, 5, 7, 9])
        k = rng.choice([1, 2, 3])
        a = random_unimodular(rng, k)
        u = rng.choice(units(m))
        x0 = tuple(rng.randrange(-2, 3) for _ in range(k))
        phi = WreathAutomorphism(a, m, u, x0)
        verdict = reidemeister_number(phi)
        if verdict.finite:
            assert verdict.value == abs(det(IntMatrix.identity(k) - a))
            assert sigma_verdict(phi).rule == RULE_CYLINDER
            assert verdict.rule == RULE_CYLINDER


@pytest.mark.parametrize(
    "phi, rule",
    [
        (WreathAutomorphism.identity(3, 2), RULE_DET_ZERO),
        (WreathAutomorphism(IntMatrix([[2, 1], [1, 1]]), 5, 2, (0, 0)), RULE_INFINITE_ORBIT),
        (WreathAutomorphism(-I2, 3, 2, (0, 0)), RULE_NON_EPI),
        (WreathAutomorphism(M3, 3, 2, (0, 0)), RULE_CYLINDER),
    ],
)
def test_reidemeister_number_runs_no_elimination(monkeypatch, phi, rule):
    """det(I - A) is chi_A(1), read off one characteristic polynomial."""
    assert not hasattr(reidemeister, "det") and not hasattr(reidemeister, "orbit_period")

    def refuse(*args):
        raise AssertionError("the verdict ran an elimination")

    monkeypatch.setattr(lattice, "det", refuse)
    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    lattice._charpoly.cache_clear()
    assert reidemeister_number(phi).rule == rule
    assert lattice._charpoly.cache_info().misses == 1


@st.composite
def small_automorphisms(draw):
    """k <= 4, m in {2, 3, 4, 5, 6, 7, 9, 15}, any unit, small offset and inner twist."""
    k = draw(st.integers(1, 4))
    m = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 9, 15]))
    # finite order twice as often: only there do cylinder and non-epi-orbit compete
    finite = random_finite_order_unimodular
    make = draw(st.sampled_from([finite, random_unimodular, finite]))
    rng = draw(st.randoms(use_true_random=False))
    a = make(rng, k)
    small = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    phi = WreathAutomorphism(a, m, draw(st.sampled_from(units(m))), tuple(draw(small)))
    return phi.twist(random_element(rng, m, k)) if draw(st.booleans()) else phi


@settings(max_examples=300, deadline=None)
@given(small_automorphisms())
def test_certificates_recheck_without_the_engine(phi):
    """Each certificate field re-derived with sympy and plain arithmetic."""
    verdict = reidemeister_number(phi)
    witness = verdict.witness
    m, u, k = phi.m, phi.u, phi.k
    a = Matrix(phi.matrix.to_lists())
    d = (eye(k) - a).det()
    assert verdict.finite == (verdict.rule == RULE_CYLINDER)
    if verdict.rule == RULE_DET_ZERO:
        assert d == 0 and witness == {"det_i_minus_a": 0}
        return
    assert d != 0
    if verdict.rule == RULE_INFINITE_ORBIT:
        e = Matrix(witness["basis_vector"])
        assert sorted(witness["basis_vector"]) == [0] * (k - 1) + [1]
        v = e
        for _ in range(torsion_order_bound(k)):
            v = a * v
            assert v != e
    elif verdict.rule == RULE_NON_EPI:
        order = witness["order"]
        assert a ** order == eye(k)
        assert all(a ** (order // p) != eye(k) for p in primefactors(order))
        assert witness["unit_gap"] == math.gcd((1 - u ** order) % m, m) != 1
    else:
        assert verdict.rule == RULE_CYLINDER
        assert verdict.value == abs(d) == abs(witness["det_i_minus_a"])
        assert witness["det_i_minus_a"] == d
        order = witness["order"]
        assert a ** order == eye(k)
        assert all(a ** (order // p) != eye(k) for p in primefactors(order))
        assert witness["unit_gap"] == math.gcd((1 - u ** order) % m, m) == 1


@settings(max_examples=300, deadline=None)
@given(small_automorphisms())
def test_verdict_matches_the_periodwise_referee(phi):
    """The test at the order of A agrees with the loop over period pairs (s, t)."""
    d = det(IntMatrix.identity(phi.k) - phi.matrix)
    assume(d != 0)  # the det-zero rule needs no orbit analysis
    verdict = reidemeister_number(phi)
    ref = periodwise_classify_sigma(phi, d)
    assert (verdict.finite, verdict.rule, verdict.value) == (ref.finite, ref.rule, ref.value)


def test_verdict_inner_twist_invariance():
    rng = random.Random(11)
    cases = [
        WreathAutomorphism(M3, 3, 2, (0, 0)),
        WreathAutomorphism(-I2, 5, 2, (1, 0)),
        WreathAutomorphism(-I2, 3, 2, (0, 0)),
        WreathAutomorphism(IntMatrix([[-1]]), 2, 1, (0,)),
        WreathAutomorphism(IntMatrix([[2, 1], [1, 1]]), 5, 2, (0, 0)),
    ]
    for phi in cases:
        base = reidemeister_number(phi)
        for _ in range(6):
            gamma = random_element(rng, phi.m, phi.k)
            twisted = reidemeister_number(phi.twist(gamma))
            assert twisted.finite == base.finite
            assert twisted.value == base.value


def test_class_representatives():
    phi = WreathAutomorphism(M3, 3, 2, (0, 0))
    reps = class_representatives(phi)
    assert len(reps) == 3
    for i, x in enumerate(reps):
        for y in reps[i + 1 :]:
            assert are_twisted_conjugate_full(phi, x, y).status == "no"

    phi5 = WreathAutomorphism(IntMatrix([[-1]]), 5, 2, (0,))
    reps5 = class_representatives(phi5)
    assert sorted(r.t for r in reps5) == [(0,), (1,)]

    phi_quad = WreathAutomorphism(-I2, 5, 2, (0, 0))
    assert len(class_representatives(phi_quad)) == 4

    with pytest.raises(ValueError):
        class_representatives(WreathAutomorphism(M3, 3, 1, (0, 0)))


# ---------------------------------------------------------------------------
# conjugacy in the base subgroup


def test_sigma_examples():
    phi = WreathAutomorphism(IntMatrix([[-1]]), 2, 1, (0,))
    d1 = FiniteSupportFunction.delta(2, (1,))
    ok, witness = are_twisted_conjugate_sigma(phi, d1, d1)
    assert ok and not witness

    dm1 = FiniteSupportFunction.delta(2, (-1,))
    ok, witness = are_twisted_conjugate_sigma(phi, d1, dm1)
    assert ok
    assert d1 - dm1 == witness - phi.apply_base(witness)

    d2 = FiniteSupportFunction.delta(2, (2,))
    assert are_twisted_conjugate_sigma(phi, d1, d2) == (False, None)


def test_sigma_witnesses_random():
    # build guaranteed-equivalent pairs and check the returned witness exactly
    rng = random.Random(13)
    mats = {1: IntMatrix([[-1]]), 2: M3}
    for _ in range(40):
        m = rng.choice([2, 3, 5, 9])
        k = rng.choice([1, 2])
        a = mats[k]
        phi = WreathAutomorphism(a, m, rng.choice(units(m)),
                                 tuple(rng.randrange(-2, 3) for _ in range(k)))
        h = random_function(rng, m, k)
        h2 = random_function(rng, m, k)
        h1 = h2 + h - phi.apply_base(h)
        ok, witness = are_twisted_conjugate_sigma(phi, h1, h2)
        assert ok
        assert h1 - h2 == witness - phi.apply_base(witness)


def test_sigma_infinite_order_telescope():
    a = IntMatrix([[2, 1], [1, 1]])
    phi = WreathAutomorphism(a, 5, 2, (0, 0))
    h = random_function(random.Random(17), 5, 2)
    v = h - phi.apply_base(h)
    ok, witness = are_twisted_conjugate_sigma(phi, v, FiniteSupportFunction(5))
    assert ok
    assert v == witness - phi.apply_base(witness)
    # single generators are never in the image on an infinite orbit
    d = FiniteSupportFunction.delta(5, (1, 0))
    assert are_twisted_conjugate_sigma(phi, d, FiniteSupportFunction(5)) == (False, None)


def test_sigma_overlapping_windows_read_each_value_once():
    # the window from 3 reaches back to 1, which the window from -1 already took;
    # with u = 1 the value sum mod m is a class invariant, and here it is 1
    phi = WreathAutomorphism(IntMatrix([[1]]), 2, 1, (1,))
    v = FiniteSupportFunction(2, [((-1,), 1), ((1,), 1), ((3,), 1)])
    zero = FiniteSupportFunction(2)
    assert are_twisted_conjugate_sigma(phi, v, zero, orbit_window=3) == (False, None)
    assert walk_twisted_conjugate_sigma(phi, v, 3) is False


CAT = IntMatrix([[2, 1], [1, 1]])
SHEAR = IntMatrix([[1, 1], [0, 1]])
ONE_MINUS_ONE = IntMatrix([[1, 0], [0, -1]])


@st.composite
def affine_maps(draw):
    """(A, x0, points): maps with periodic points next to open orbits.

    Shear with x0 on its fixed axis (fixed line x2 = -c), cat map with its
    integer fixed point (I - A)^-1 x0, [[1]] + [[-1]] with x0 across its
    fixed axis (every point periodic) or with a component along it (every
    orbit open), and random finite-order or elementary A at k <= 3; each
    is conjugated or not.
    """
    kind = draw(st.sampled_from(["shear", "cat", "one-minus-one", "finite", "elementary"]))
    rng = draw(st.randoms(use_true_random=False))
    small = st.integers(-3, 3)
    c = draw(small)
    points = []
    if kind == "shear":
        a, x0 = SHEAR, (c, 0)
        points = [(draw(small), -c)]
    elif kind == "cat":
        a, x0 = CAT, (c, draw(small))
        points = [solve(IntMatrix.identity(2) - a, x0)]
    elif kind == "one-minus-one":
        a, x0 = ONE_MINUS_ONE, (draw(st.sampled_from([0, c])), draw(small))
    else:
        k = draw(st.integers(1, 3))
        make = random_finite_order_unimodular if kind == "finite" else random_unimodular
        a, x0 = make(rng, k), tuple(draw(small) for _ in range(k))
    if draw(st.booleans()):
        p = random_unimodular(rng, a.k, 4)
        a, x0, points = p * a * p.inverse(), p.apply(x0), [p.apply(q) for q in points]
    points += [tuple(draw(small) for _ in range(a.k)) for _ in range(3)]
    return a, tuple(x0), points


@settings(max_examples=300, deadline=None)
@given(affine_maps(), st.sampled_from([2, 3, 5, 7, 9]), st.sampled_from([3, 8, 512]),
       st.randoms(use_true_random=False))
def test_periodicity_and_sigma_match_the_walk_referee(affine, m, window, rng):
    a, x0, points = affine
    lifted = lift(a, x0)
    for x in points:
        period = walk_affine_period(a, x0, x)
        assert orbit_period(lifted, x + (1,)) == period
        assert affine_period(a, x0, x) == period
    phi = WreathAutomorphism(a, m, rng.choice(units(m)), x0)
    # a boundary w - phi'(w) on the chosen points, sometimes plus noise
    w = FiniteSupportFunction(m, [(x, rng.randrange(1, m)) for x in points])
    v = w - phi.apply_base(w)
    if rng.random() < 0.5:
        v = v + FiniteSupportFunction(m, [(rng.choice(points), rng.randrange(1, m))])
    zero = FiniteSupportFunction(m)
    ok, witness = are_twisted_conjugate_sigma(phi, v, zero, window)
    assert ok == walk_twisted_conjugate_sigma(phi, v, window)
    if ok:
        assert v == witness - phi.apply_base(witness)


_P16 = random_unimodular(random.Random(16), 16, 24)
RANK16 = _P16 * IntMatrix.block_diagonal(CAT, IntMatrix.identity(14)) * _P16.inverse()


@pytest.mark.parametrize(
    "a, window",
    [(CAT, 3), (CAT, DEFAULT_ORBIT_WINDOW), (RANK16, 3), (RANK16, DEFAULT_ORBIT_WINDOW)],
    ids=["k2-3", "k2-default", "k16-3", "k16-default"],
)
def test_open_orbit_window_groups_points_at_most_window_apart(a, window):
    # v = delta_p - u^d delta_(A^d p) is the boundary of sum_(i<d) u^i delta_(A^i p),
    # so it is in the image; sigma sees that iff both points share one window.
    # The window starts at the lexicographically least point, which is p for
    # one sign of e_1 and A^d p for the other, so both directions are checked.
    k, m, u = a.k, 5, 2
    phi = WreathAutomorphism(a, m, u, (0,) * k)
    zero = FiniteSupportFunction(m)
    for sign in (1, -1):
        p = tuple(sign * c for c in unit_vector(k, 0))
        assert orbit_period(lift(a, (0,) * k), p + (1,)) is None
        q = p
        for d in range(1, window + 2):
            q = a.apply(q)
            if d < window:
                continue
            v = FiniteSupportFunction(m, [(p, 1), (q, -(u ** d))])
            ok, _ = are_twisted_conjugate_sigma(phi, v, zero, window)
            assert ok == (d <= window)
    if k == 16:
        # the window is exactly orbit_window, not the rank-16 torsion bound
        assert DEFAULT_ORBIT_WINDOW < torsion_order_bound(16) == 840


CAT_CAT = IntMatrix.block_diagonal(CAT, CAT)
# cat, order-3, x^2 - 3x - 1 and x^2 - 5x + 1 blocks, twice: their orders mod
# 7, 11 and 13 have lcm 336, 120 and 546, so the residue cycle of a point with
# a component in every block closes within SIEVE_CAP at none of SIEVE_PRIMES
_MIXED = [CAT, M3, IntMatrix([[0, 1], [1, 3]]), IntMatrix([[0, 1], [-1, 5]])]
RANK16_OPEN = _P16 * IntMatrix.block_diagonal(*_MIXED, *_MIXED) * _P16.inverse()


def test_rank16_open_case_closes_no_residue_cycle():
    rng = random.Random(3)
    for _ in range(4):
        x0 = tuple(rng.randrange(-2, 3) for _ in range(16))
        p = tuple(rng.randrange(-2, 3) for _ in range(16))
        assert all(walk_residue_cycle(RANK16_OPEN, x0, p, prime, SIEVE_CAP) is None
                   for prime in SIEVE_PRIMES)


@st.composite
def open_orbit_supports(draw):
    """(phi, v, window): runs along one or several open orbits of x -> A x + x0.

    A is the cat map or cat + cat, whose only periodic point is the fixed
    point (I - A)^-1 x0, or ``RANK16_OPEN``, whose residue cycles almost
    never close, so the walk waits for every remaining point as it did
    before the sieve.  Each run adds c (delta_(T^s p) - u^d delta_(T^(s+d) p)),
    the boundary of c sum_(i<d) u^i delta_(T^(s+i) p), with d on either side
    of the window; runs share an orbit or not, and v sometimes gets a stray
    value on one of its points.
    """
    a = draw(st.sampled_from([CAT, CAT_CAT, RANK16_OPEN]))
    k = a.k
    m = draw(st.sampled_from([2, 3, 5]))
    u = draw(st.sampled_from(units(m)))
    # at rank 16 the referees' full-window walks of 512 steps take seconds
    window = draw(st.sampled_from([3, 8] if k == 16 else [3, 8, 512]))
    small = st.integers(-2, 2)
    x0 = tuple(draw(small) for _ in range(k))
    phi = WreathAutomorphism(a, m, u, x0)
    fixed = solve(IntMatrix.identity(k) - a, x0)
    distances = st.sampled_from([1, 2, window - 1, window, window + 1, window + 2])
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        p = tuple(draw(small) for _ in range(k))
        if p == fixed:
            continue
        for _ in range(draw(st.integers(1, 2))):
            s, d = draw(st.integers(0, 3)), draw(distances)
            path = [p]
            for _ in range(s + d):
                path.append(tuple(x + c for x, c in zip(a.apply(path[-1]), x0)))
            c = draw(st.integers(1, m - 1))
            entries += [(path[s], c), (path[s + d], -c * u ** d)]
    if entries and draw(st.integers(0, 3)) == 0:
        entries.append((draw(st.sampled_from(entries))[0], draw(st.integers(1, m - 1))))
    return phi, FiniteSupportFunction(m, entries), window


@settings(max_examples=100, deadline=None)
@given(open_orbit_supports())
def test_open_orbit_early_stop_matches_the_full_window_walk(case):
    # the walk stops once every remaining support point is on the line; the
    # full-window walk and the walk referee see the same groups
    phi, v, window = case
    zero = FiniteSupportFunction(phi.m)
    answer = are_twisted_conjugate_sigma(phi, v, zero, window)
    assert answer == stepwise_twisted_conjugate_sigma(phi, v, zero, window)
    assert answer[0] == walk_twisted_conjugate_sigma(phi, v, window)


@pytest.mark.parametrize(
    "a, p, q",
    [(CAT, (1, 0), (0, 1)), (CAT_CAT, (1, 0, 0, 0), (0, 0, 1, 0))],
    ids=["cat", "cat+cat"],
)
def test_residue_sieve_ends_each_walk_near_its_own_stretch(a, p, q, monkeypatch):
    # (0, 1) is an odd Fibonacci step from (1, 0), so it is off (1, 0)'s cat
    # orbit, and mod 7 the 8-cycle of (1, 0) misses it; under cat + cat the
    # two points lie in different invariant planes
    k, m, u = a.k, 5, 2
    phi = WreathAutomorphism(a, m, u, (0,) * k)
    ap, aq = a.apply(p), a.apply(q)
    sieve, kept = OrbitSieve(a, phi.x0, p), {q, aq}
    for _ in range(SIEVE_CAP):
        kept = sieve.sift(kept)
    assert kept == set()
    # delta_x - u delta_(A x) is the boundary of delta_x: one step on each orbit
    v = FiniteSupportFunction(m, [(p, 1), (ap, -u), (q, 1), (aq, -u)])
    zero = FiniteSupportFunction(m)
    steps = []

    class CountingSieve(OrbitSieve):
        def __init__(self, *args):
            super().__init__(*args)
            steps.append(0)

        def sift(self, points):
            steps[-1] += 1
            return super().sift(points)

    monkeypatch.setattr(reidemeister, "OrbitSieve", CountingSieve)
    answer = are_twisted_conjugate_sigma(phi, v, zero)
    assert answer == stepwise_twisted_conjugate_sigma(phi, v, zero)
    assert answer[0] and answer.bound is None
    # the walk from q reads its stretch, then waits only until a residue
    # cycle closes (the cat map has order 8, 5 and 14 mod 7, 11 and 13) and
    # drops p's stretch; the walk from p ends on reading its stretch
    assert len(steps) == 2 and steps[0] <= 14 and steps[1] == 1


def test_window_bound_names_the_orbit_split_by_the_window():
    # v = w - phi'(w) for w = delta on 11 consecutive points of one cat-map
    # orbit, so v's support is 12 consecutive orbit points: a window of 4
    # splits the orbit and answers an inexact no, wider windows group it
    m, u = 5, 2
    phi = WreathAutomorphism(CAT, m, u, (0, 0))
    path = [(1, 0)]
    for _ in range(10):
        path.append(CAT.apply(path[-1]))
    w = FiniteSupportFunction(m, [(x, 1) for x in path])
    v = w - phi.apply_base(w)
    assert len(v.support()) == 12
    zero = FiniteSupportFunction(m)
    split = are_twisted_conjugate_sigma(phi, v, zero, orbit_window=4)
    assert split == (False, None) and split.bound == BOUND_ORBIT_WINDOW
    g, h = WreathElement.identity(m, 2), WreathElement(v, (0, 0))
    assert are_twisted_conjugate_full(phi, g, h, orbit_window=4) == ConjugacyAnswer(
        NO, reason="base equation unsolvable for the forced conjugator translation",
        bound=BOUND_ORBIT_WINDOW,
    )
    for window in (16, 512):
        grouped = are_twisted_conjugate_sigma(phi, v, zero, window)
        assert grouped[0] and grouped.bound is None
        assert v == grouped[1] - phi.apply_base(grouped[1])
        answer = are_twisted_conjugate_full(phi, g, h, orbit_window=window)
        assert answer.status == YES and answer.bound is None
    # an exact no: delta_p alone is never a boundary on an open orbit
    single = are_twisted_conjugate_sigma(phi, FiniteSupportFunction.delta(m, (1, 0)), zero, 4)
    assert single == (False, None) and single.bound is None


def test_sigma_rejects_inner_twists():
    phi = WreathAutomorphism(M3, 3, 2, (0, 0), WreathElement.delta(3, (0, 0)))
    zero = FiniteSupportFunction(3)
    with pytest.raises(ValueError):
        are_twisted_conjugate_sigma(phi, zero, zero)


def test_delta_chain_examples():
    phi = WreathAutomorphism(IntMatrix([[-1]]), 2, 1, (0,))
    assert delta_chain_check(phi, (1,), (1,))
    assert delta_chain_check(phi, (1,), (-1,))
    assert not delta_chain_check(phi, (1,), (2,))
    with pytest.raises(ValueError):
        delta_chain_check(WreathAutomorphism.identity(3, 1), (0,), (0,))


def test_delta_chain_is_necessary_for_sigma_equivalence():
    rng = random.Random(19)
    phi = WreathAutomorphism(M3, 2, 1, (1, 0))
    for _ in range(20):
        x1 = tuple(rng.randrange(-3, 4) for _ in range(2))
        x2 = tuple(rng.randrange(-3, 4) for _ in range(2))
        ok, _ = are_twisted_conjugate_sigma(
            phi,
            FiniteSupportFunction.delta(2, x1),
            FiniteSupportFunction.delta(2, x2),
        )
        if ok:
            assert delta_chain_check(phi, x1, x2)


# ---------------------------------------------------------------------------
# conjugacy in the full group


def test_full_conjugacy_examples():
    phi = WreathAutomorphism(M3, 3, 2, (0, 0))
    g = random_element(random.Random(23), 3, 2)
    ans = are_twisted_conjugate_full(phi, g, g)
    assert ans.status == "yes"
    assert twisted_transform(phi, g, ans.witness) == g

    ident = WreathElement.identity(3, 2)
    shifted = WreathElement.translation(3, (1, 0))
    assert are_twisted_conjugate_full(phi, ident, shifted).status == "no"

    delta = WreathElement.delta(3, (0, 0))
    ans = are_twisted_conjugate_full(phi, delta, ident)
    assert ans.status == "yes"
    assert twisted_transform(phi, delta, ans.witness) == ident


def test_full_conjugacy_completeness_random():
    # h constructed as a twisted transform of g must be recognized
    rng = random.Random(29)
    mats = {1: IntMatrix([[-1]]), 2: M3}
    for _ in range(30):
        m = rng.choice([2, 3, 5])
        k = rng.choice([1, 2])
        phi = WreathAutomorphism(mats[k], m, 1 if m == 2 else 2,
                                 tuple(rng.randrange(-2, 3) for _ in range(k)))
        if rng.random() < 0.3:
            phi = phi.twist(random_element(rng, m, k))
        g = random_element(rng, m, k)
        w = random_element(rng, m, k)
        h = twisted_transform(phi, g, w)
        ans = are_twisted_conjugate_full(phi, g, h)
        assert ans.status == "yes"
        assert twisted_transform(phi, g, ans.witness) == h


def test_full_conjugacy_infinite_verdict_exact_when_det_nonzero():
    # A has infinite order, det(I - A) = -1: translation of conjugator forced
    a = IntMatrix([[2, 1], [1, 1]])
    phi = WreathAutomorphism(a, 3, 1, (0, 0))
    assert not reidemeister_number(phi).finite
    g = WreathElement.delta(3, (0, 0))
    h = WreathElement.delta(3, (1, 0))
    ans = are_twisted_conjugate_full(phi, g, h)
    assert ans.status == "no"
    w = WreathElement(FiniteSupportFunction(3, [((0, 0), 2)]), (1, -1))
    target = twisted_transform(phi, g, w)
    ans = are_twisted_conjugate_full(phi, g, target)
    assert ans.status == "yes"
    assert twisted_transform(phi, g, ans.witness) == target


def test_full_conjugacy_degenerate_quotient_bfs():
    # A = I forces the breadth-first fallback
    phi = WreathAutomorphism.identity(2, 1)
    d0 = WreathElement.delta(2, (0,))
    d1 = WreathElement.delta(2, (1,))
    ans = are_twisted_conjugate_full(phi, d0, d1, budget=5000)
    assert ans.status == "yes"  # ordinary conjugation by a translation
    assert twisted_transform(phi, d0, ans.witness) == d1

    shifted = WreathElement.translation(2, (1,))
    assert are_twisted_conjugate_full(phi, d0, shifted).status == "no"

    # unreachable target inside the same quotient class exhausts the budget
    far = WreathElement(
        FiniteSupportFunction(2, [((0,), 1), ((1,), 1), ((2,), 1)]), (0,)
    )
    ans = are_twisted_conjugate_full(phi, d0, far, budget=50)
    assert ans.status == "unknown"


DEGENERATE = (
    IntMatrix([[1]]), I2, SHEAR, IntMatrix([[1, 2], [0, 1]]), ONE_MINUS_ONE,
    IntMatrix([[0, 1], [1, 0]]),
)


@st.composite
def degenerate_pairs(draw):
    """(phi, g, h) with det(I - A) = 0: h is g moved by a short generator word,
    sometimes with a value added, or an unrelated element."""
    a = draw(st.sampled_from(DEGENERATE))
    k = a.k
    m = draw(st.sampled_from([2, 3, 5]))
    rng = draw(st.randoms(use_true_random=False))
    phi = WreathAutomorphism(a, m, rng.choice(units(m)),
                             tuple(rng.randrange(-2, 3) for _ in range(k)))
    if draw(st.booleans()):
        phi = phi.twist(random_element(rng, m, k, 2, 2))
    g = random_element(rng, m, k, 2, 2)
    kind = draw(st.sampled_from(["word", "word+value", "random"]))
    if kind == "random":
        return phi, g, random_element(rng, m, k, 2, 2)
    w = WreathElement.identity(m, k)
    for _ in range(rng.randrange(1, 4)):
        w = rng.choice(_bfs_generators(m, k)) * w
    h = twisted_transform(phi, g, w)
    if kind == "word+value":
        h = WreathElement(h.f + FiniteSupportFunction.delta(m, (0,) * k, rng.randrange(1, m)), h.t)
    return phi, g, h


SUM_REASON = "base sums differ modulo gcd(1 - u, m)"


def base_sums_differ(phi, g, h):
    """sum h.f - sum g.f is not a multiple of gcd(1 - u, m).

    Transporting an inner twist multiplies g and h by the same element on
    the right, which adds the same sum to both.
    """
    diff = sum(v for _, v in h.f.items()) - sum(v for _, v in g.f.items())
    return diff % math.gcd(1 - phi.u, phi.m) != 0


def as_referee_answers(answer):
    """A degenerate-case answer without its bound, which the referee does not name.

    The bound is ``search_budget`` exactly on ``unknown``: every other
    answer of the search is exact.
    """
    assert answer.bound == (BOUND_SEARCH_BUDGET if answer.status == UNKNOWN else None)
    return dataclasses.replace(answer, bound=None)


@settings(max_examples=150, deadline=None)
@given(degenerate_pairs(), st.sampled_from([1, 5, 50, 300]))
def test_search_matches_the_element_referee(pair, budget):
    phi, g, h = pair
    answer = are_twisted_conjugate_full(phi, g, h, budget)
    referee = element_twisted_conjugate_full(phi, g, h, budget)
    if referee.reason != "translations lie in different quotient classes" and (
            base_sums_differ(phi, g, h)):
        # the sum test answers before the search, which cannot reach h
        assert answer == ConjugacyAnswer(NO, reason=SUM_REASON)
        assert referee.status != YES
        return
    assert as_referee_answers(answer) == referee
    if answer.status == YES:
        # a yes at one budget is a yes at every larger one: bisect for the first
        lo, hi = 1, budget
        while lo < hi:
            mid = (lo + hi) // 2
            if are_twisted_conjugate_full(phi, g, h, mid).status == YES:
                hi = mid
            else:
                lo = mid + 1
        for b in {max(lo - 1, 1), lo}:
            assert as_referee_answers(are_twisted_conjugate_full(phi, g, h, b)) == (
                element_twisted_conjugate_full(phi, g, h, b))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DEGENERATE), st.sampled_from([2, 3, 4, 5, 6]), st.booleans(),
       st.randoms(use_true_random=False))
def test_sum_test_never_rejects_a_conjugate_pair(a, m, inner, rng):
    k = a.k
    phi = WreathAutomorphism(a, m, rng.choice(units(m)),
                             tuple(rng.randrange(-2, 3) for _ in range(k)))
    if inner:
        phi = phi.twist(random_element(rng, m, k, 2, 2))
    g = random_element(rng, m, k, 3, 3)
    w = random_element(rng, m, k, 4, 4)
    h = twisted_transform(phi, g, w)
    assert not base_sums_differ(phi, g, h)
    answer = are_twisted_conjugate_full(phi, g, h, budget=20)
    assert answer.status != NO and answer.reason != SUM_REASON


# ---------------------------------------------------------------------------
# the group-level answer


def test_r_infinity_status_table():
    assert r_infinity_status(2, 3).status == HAS_R_INFINITY
    assert r_infinity_status(3, 3).status == HAS_R_INFINITY
    assert r_infinity_status(3, 1).status == HAS_R_INFINITY
    assert r_infinity_status(3, 4).status == NOT_R_INFINITY
    assert r_infinity_status(5, 1).status == NOT_R_INFINITY
    assert r_infinity_status(7, 2).status == NOT_R_INFINITY
    assert r_infinity_status(35, 1).status == NOT_R_INFINITY
    assert r_infinity_status(4, 1).status == HAS_R_INFINITY
    assert r_infinity_status(6, 1).status == HAS_R_INFINITY
    assert r_infinity_status(9, 2).status == NOT_R_INFINITY
    assert r_infinity_status(35, 2).status == NOT_R_INFINITY
    assert r_infinity_status(4, 2).status == HAS_R_INFINITY
    assert r_infinity_status(15, 4).status == NOT_R_INFINITY
    assert r_infinity_status(6, 3).status == HAS_R_INFINITY
    assert r_infinity_status(21, 2).status == NOT_R_INFINITY
    with pytest.raises(ValueError):
        r_infinity_status(1, 1)


def test_r_infinity_status_matches_the_factoring_referee():
    """The rule on m mod 6 and the parity of k agrees wherever the old one decided."""
    decided = 0
    for m in range(2, 200):
        for k in range(1, 17):
            ref = factoring_r_infinity_status(m, k)
            if ref.status != "unknown":
                assert r_infinity_status(m, k) == ref
                decided += 1
    assert decided == 888  # k = 1 for every m, and m = 2, 3 or prime for k >= 2


def test_r_infinity_status_decides_every_group():
    """A decided status for every m and k; every example is finite, 2^k or 3^(k/2)."""
    for m in range(2, 200):
        for k in range(1, 17):
            status = r_infinity_status(m, k)
            assert status.status in (HAS_R_INFINITY, NOT_R_INFINITY)
            assert (status.status == NOT_R_INFINITY) == (status.example is not None)
            if status.example is not None:
                verdict = reidemeister_number(status.example)
                assert verdict.finite
                assert verdict.value == (3 ** (k // 2) if m % 3 == 0 else 2 ** k)


@pytest.mark.parametrize("m", [9, 15, 21, 25, 35, 45, 49, 77])
def test_composite_witnesses_match_the_quotient_count(m):
    """R of each former unknown's example, counted on the quotient at its exponent."""
    n = 3 if m % 3 == 0 else 2  # the exponent of Z^k / (I - A) Z^k
    for k in range(1, 5):
        example = r_infinity_status(m, k).example
        if example is None:
            continue
        aut = induce_automorphism(example, n, 10 ** 400)
        assert fibre_class_count(aut.group, aut) == reidemeister_number(example).value


def test_r_infinity_witnesses_are_finite():
    expected = {(3, 4): 9, (3, 2): 3, (5, 3): 8, (7, 2): 4, (11, 1): 2, (35, 1): 2}
    for (m, k), value in expected.items():
        status = r_infinity_status(m, k)
        assert status.status == NOT_R_INFINITY
        verdict = reidemeister_number(status.example)
        assert verdict.finite and verdict.value == value
