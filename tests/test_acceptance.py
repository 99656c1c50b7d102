"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every check is an exact integer equality; the largest brute-force
case is the 177,147-element quotient in criterion 6.
"""

import math
import random
import time

from lamptwist.devices import cyclic_block_det, fixed_characters, shifted_sum_support
from lamptwist.finite_oracle import (
    induce_automorphism,
    phi_hat_fixed_count,
    twisted_classes_bruteforce,
)
from lamptwist.lattice import (
    IntMatrix,
    coset_representatives,
    det,
    smith_normal_form,
)
from lamptwist.reidemeister import (
    ORDER_THREE_BLOCK,
    are_twisted_conjugate_full,
    are_twisted_conjugate_sigma,
    reidemeister_number,
)
from lamptwist.wreath import (
    WreathAutomorphism,
    WreathElement,
    twisted_transform,
)

from helpers import (
    all_signed_permutations,
    random_element,
    random_finite_order_unimodular,
    random_function,
    random_unimodular,
)

M3 = ORDER_THREE_BLOCK


def _report(num, ok, desc, started):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({time.time() - started:.2f}s): {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_block_powers_of_three():
    started = time.time()
    rng = random.Random(1001)
    ok = True
    for d in (1, 2, 3):
        a = IntMatrix.block_diagonal(*([M3] * d))
        for _ in range(5):
            x0 = tuple(rng.randrange(-5, 6) for _ in range(2 * d))
            verdict = reidemeister_number(WreathAutomorphism(a, 3, 2, x0))
            ok = ok and verdict.finite and verdict.value == 3 ** d
    _report(1, ok, "m=3 block matrices give Finite(3^d) for any offset", started)


def test_criterion_02_minus_identity_powers_of_two():
    started = time.time()
    ok = True
    for p in (5, 7, 11):
        for k in (1, 2, 3, 4):
            phi = WreathAutomorphism(-IntMatrix.identity(k), p, 2, (0,) * k)
            verdict = reidemeister_number(phi)
            ok = ok and verdict.finite and verdict.value == 2 ** k
    _report(2, ok, "A=-I, u=2 gives Finite(2^k) for p in {5,7,11}, k<=4", started)


def test_criterion_03_m2_always_infinite():
    started = time.time()
    rng = random.Random(1003)
    ok = True
    for k in (1, 2, 3):
        for _ in range(25):
            a = random_unimodular(rng, k, max_factors=12)
            twists = [None] + [random_element(rng, 2, k) for _ in range(4)]
            for gamma in twists:
                phi = WreathAutomorphism(a, 2, 1, (0,) * k, gamma)
                ok = ok and not reidemeister_number(phi).finite
    _report(3, ok, "m=2: every sampled automorphism is Infinite", started)


def _odd_rank_catalog():
    yield IntMatrix([[-1]])
    for a in all_signed_permutations(3):
        if det(IntMatrix.identity(3) - a) != 0:
            yield a
    # block companions of order 6 with nonzero det(I - A)
    yield IntMatrix([[0, 0, -1], [1, 0, 0], [0, 1, 0]])          # x^3 + 1
    yield IntMatrix([[0, 0, -1], [1, 0, -2], [0, 1, -2]])        # (x+1)(x^2+x+1)
    yield IntMatrix.block_diagonal(IntMatrix([[-1]]), M3)


def test_criterion_04_m3_odd_rank_infinite():
    started = time.time()
    ok = True
    count = 0
    for a in _odd_rank_catalog():
        for u in (1, 2):
            phi = WreathAutomorphism(a, 3, u, (0,) * a.k)
            ok = ok and not reidemeister_number(phi).finite
            count += 1
    _report(4, ok, f"m=3, odd k: all {count} catalog automorphisms Infinite", started)


def test_criterion_05_cyclic_block_determinant_identity():
    started = time.time()
    ok = True
    for m in (2, 3, 5, 7, 9):
        for u in range(1, m):
            if math.gcd(u, m) != 1:
                continue
            for s in range(1, 9):
                ok = ok and cyclic_block_det(u, s, m) == (1 - u ** s) % m
    _report(5, ok, "orbit-block determinant equals 1 - u^s mod m, exhaustively", started)


def _specs_for(m, k):
    if k == 1:
        minus = IntMatrix([[-1]])
        plus = IntMatrix([[1]])
        if m == 2:
            return [
                WreathAutomorphism(minus, 2, 1, (0,)),
                WreathAutomorphism(minus, 2, 1, (1,)),
                WreathAutomorphism(plus, 2, 1, (1,)),
            ]
        return [
            WreathAutomorphism(minus, m, 2, (0,)),
            WreathAutomorphism(minus, m, 2, (1,)),
            WreathAutomorphism(plus, m, 1, (0,)),
        ]
    assert (m, k) == (3, 2)
    return [
        WreathAutomorphism(M3, 3, 2, (0, 0)),
        WreathAutomorphism(M3, 3, 2, (1, 0)),
        WreathAutomorphism(-IntMatrix.identity(2), 3, 2, (0, 0)),
    ]


def test_criterion_06_oracle_cross_check():
    started = time.time()
    configs = [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2),
               (5, 1, 4), (2, 1, 3), (3, 2, 2), (3, 2, 3)]
    ok = True
    casep3_checked = False
    for m, k, n in configs:
        for phi in _specs_for(m, k):
            aut = induce_automorphism(phi, n)
            count, _ = twisted_classes_bruteforce(aut.group, aut)
            fixed = phi_hat_fixed_count(aut.group, aut)
            ok = ok and count == fixed
            verdict = reidemeister_number(phi)
            if verdict.finite:
                exponent = max(
                    smith_normal_form(IntMatrix.identity(k) - phi.matrix).diagonal
                )
                if n % exponent == 0:
                    ok = ok and count == verdict.value
                    if (m, k, n) == (3, 2, 3) and phi.matrix == M3 and phi.x0 == (0, 0):
                        ok = ok and count == 3
                        casep3_checked = True
    ok = ok and casep3_checked
    _report(6, ok, "tbft holds on all quotients; counts match Finite verdicts", started)


def test_criterion_07_fixed_character_counts():
    started = time.time()
    rng = random.Random(1007)
    ok = True
    checked = 0
    while checked < 50:
        k = rng.choice([1, 2, 3])
        a = random_finite_order_unimodular(rng, k)
        i_minus_a = IntMatrix.identity(k) - a
        d = det(i_minus_a)
        if d == 0:
            continue
        ok = ok and len(fixed_characters(a)) == abs(d)
        ok = ok and len(coset_representatives(i_minus_a)) == abs(d)
        checked += 1
    _report(7, ok, "|fixed characters| = |det(I-A)| = |cosets| on 50 matrices", started)


def test_criterion_08_vertex_cancellation():
    started = time.time()
    rng = random.Random(1008)
    ok = True
    for _ in range(500):
        m = rng.choice([2, 3, 5, 7])
        k = rng.choice([1, 2, 3])
        n_points = rng.randrange(2, 7)
        points = set()
        while len(points) < n_points:
            points.add(tuple(rng.randrange(-5, 6) for _ in range(k)))
        coeffs = [rng.randrange(1, m) for _ in points]
        n_shifts = rng.randrange(2, 7)
        vecs = set()
        while len(vecs) < n_shifts:
            vecs.add(tuple(rng.randrange(-5, 6) for _ in range(k)))
        shifts = [(v, rng.randrange(1, m)) for v in sorted(vecs)]
        out = shifted_sum_support(m, sorted(points), coeffs, shifts)
        ok = ok and len(out) >= 2
    _report(8, ok, "500 shifted sums over prime moduli are never singletons", started)


def _class_roots(group, aut):
    elems = list(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    parent = list(range(len(elems)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    gens = []
    base = [0] * len(group.positions)
    base[group.pos_index[(0,) * group.k]] = 1
    gens.append((tuple(base), (0,) * group.k))
    zero_f = (0,) * len(group.positions)
    for i in range(group.k):
        if group.n > 1:
            t = tuple(1 if j == i else 0 for j in range(group.k))
            gens.append((zero_f, t))
    for i, x in enumerate(elems):
        for gen in gens:
            y = group.multiply(group.multiply(gen, x), group.inverse(aut.apply(gen)))
            ri, rj = find(i), find(index[y])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return elems, index, find


def test_criterion_09_shift_transport_on_quotients():
    started = time.time()
    rng = random.Random(1009)
    ok = True
    cases = [
        (WreathAutomorphism(IntMatrix([[-1]]), 3, 2, (0,)), 3),
        (WreathAutomorphism(IntMatrix([[1]]), 2, 1, (1,)), 2),
    ]
    for phi, n in cases:
        aut = induce_automorphism(phi, n)
        group = aut.group
        elems, index, find1 = _class_roots(group, aut)
        count1 = len({find1(i) for i in range(len(elems))})
        for _ in range(5):
            g = (
                tuple(rng.randrange(group.m) for _ in group.positions),
                tuple(rng.randrange(group.n) for _ in range(group.k)),
            )
            twisted = aut.twist(group.inverse(g))
            _, index2, find2 = _class_roots(group, twisted)
            count2 = len({find2(i) for i in range(len(elems))})
            ok = ok and count1 == count2
            # right shift by g carries classes of aut onto classes of twisted
            shifted_root = {}
            for i, x in enumerate(elems):
                r1 = find1(i)
                r2 = find2(index2[group.multiply(x, g)])
                if r1 in shifted_root:
                    ok = ok and shifted_root[r1] == r2
                else:
                    shifted_root[r1] = r2
            ok = ok and len(set(shifted_root.values())) == count2
    _report(9, ok, "right shifts biject twisted classes on finite quotients", started)


def test_criterion_10_axis_property():
    started = time.time()
    rng = random.Random(1010)
    radius = 20
    ok = True
    for trial in range(25):
        k = 2 if trial % 2 == 0 else 3
        a = random_unimodular(rng, k)
        inv = a.inverse()
        for x in range(1, radius + 1):
            start = tuple(x if i == 0 else 0 for i in range(k))
            allowed = {start, tuple(-c for c in start)}
            forward = backward = start
            for _ in range(200):
                forward = a.apply(forward)
                backward = inv.apply(backward)
                for p in (forward, backward):
                    if max(abs(c) for c in p) <= radius and all(c == 0 for c in p[1:]):
                        ok = ok and p in allowed
    _report(10, ok, "orbits meet the first axis in at most a point pair", started)


def test_criterion_11_witness_soundness():
    started = time.time()
    rng = random.Random(1011)
    ok = True

    # cylinder-case yes answers
    phi = WreathAutomorphism(M3, 3, 2, (0, 0))
    ans = are_twisted_conjugate_full(phi, WreathElement.delta(3, (0, 0)),
                                     WreathElement.identity(3, 2))
    ok = ok and ans.status == "yes"
    ok = ok and twisted_transform(phi, WreathElement.delta(3, (0, 0)), ans.witness) \
        == WreathElement.identity(3, 2)

    # constructed conjugate pairs in the full group
    mats = {1: IntMatrix([[-1]]), 2: M3}
    for _ in range(20):
        m = rng.choice([2, 3, 5])
        k = rng.choice([1, 2])
        psi = WreathAutomorphism(mats[k], m, 1 if m == 2 else 2,
                                 tuple(rng.randrange(-2, 3) for _ in range(k)))
        if rng.random() < 0.3:
            psi = psi.twist(random_element(rng, m, k))
        g = random_element(rng, m, k)
        h = twisted_transform(psi, g, random_element(rng, m, k))
        ans = are_twisted_conjugate_full(psi, g, h)
        ok = ok and ans.status == "yes"
        ok = ok and twisted_transform(psi, g, ans.witness) == h

    # constructed equivalent pairs in the base subgroup
    for _ in range(20):
        m = rng.choice([2, 3, 5, 9])
        k = rng.choice([1, 2])
        psi = WreathAutomorphism(mats[k], m, m - 1,
                                 tuple(rng.randrange(-2, 3) for _ in range(k)))
        h = random_function(rng, m, k)
        h2 = random_function(rng, m, k)
        h1 = h2 + h - psi.apply_base(h)
        got, witness = are_twisted_conjugate_sigma(psi, h1, h2)
        ok = ok and got
        ok = ok and h1 - h2 == witness - psi.apply_base(witness)

    _report(11, ok, "every yes/true answer re-verified by the twisting identity", started)
