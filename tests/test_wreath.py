import math
import random

import pytest

from lamptwist.devices import lex_extreme_vertex, shifted_sum_support
from lamptwist.lattice import IntMatrix
from lamptwist.wreath import (
    FiniteSupportFunction,
    WreathAutomorphism,
    WreathElement,
    element_from_json,
    element_to_json,
    format_element,
    parse_element,
    twisted_transform,
)

from helpers import random_element, random_function, random_unimodular

M3 = IntMatrix([[0, 1], [-1, -1]])


# ---------------------------------------------------------------------------
# base functions and group arithmetic


def test_canonical_form_drops_zeros():
    f = FiniteSupportFunction(3, [((0,), 1), ((0,), 2), ((1,), 3)])
    assert not f.support()  # 1+2 = 0 mod 3 and 3 = 0 mod 3
    g = FiniteSupportFunction(2, [((0,), 1), ((1,), 1), ((1,), 1)])
    assert g.support() == ((0,),)


def test_generator_has_order_m():
    d = WreathElement.delta(2, (0,))
    assert (d * d).is_identity()
    d3 = WreathElement.delta(3, (0, 0))
    assert not (d3 * d3).is_identity()
    assert (d3 * d3 * d3).is_identity()


def test_translation_conjugates_deltas():
    # (0,t) (delta_x, 0) (0,-t) = (delta_{t+x}, 0)
    rng = random.Random(3)
    for _ in range(25):
        m = rng.choice([2, 3, 5, 9])
        k = rng.choice([1, 2, 3])
        x = tuple(rng.randrange(-4, 5) for _ in range(k))
        t = tuple(rng.randrange(-4, 5) for _ in range(k))
        val = rng.randrange(1, m)
        lhs = (
            WreathElement.translation(m, t)
            * WreathElement.delta(m, x, val)
            * WreathElement.translation(m, t).inverse()
        )
        expect = WreathElement.delta(m, tuple(a + b for a, b in zip(t, x)), val)
        assert lhs == expect


def test_group_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.choice([2, 3, 5, 9])
        k = rng.choice([1, 2, 3])
        a, b, c = (random_element(rng, m, k) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        e = WreathElement.identity(m, k)
        assert a * e == a and e * a == a
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()


def test_inverse_examples():
    d = WreathElement.delta(5, (1, 2))
    assert d.inverse() == WreathElement.delta(5, (1, 2), 4)
    t = WreathElement.translation(5, (3, -1))
    assert t.inverse() == WreathElement.translation(5, (-3, 1))


def test_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        WreathElement.delta(2, (0,)) * WreathElement.delta(3, (0,))
    with pytest.raises(ValueError):
        WreathElement.delta(2, (0,)) * WreathElement.delta(2, (0, 0))


# ---------------------------------------------------------------------------
# automorphisms


def test_apply_examples():
    phi = WreathAutomorphism(M3, 3, 2, (0, 0))
    assert phi.apply(WreathElement.delta(3, (0, 0))) == WreathElement.delta(3, (0, 0), 2)

    ident = WreathAutomorphism.identity(3, 2)
    rng = random.Random(13)
    for _ in range(10):
        g = random_element(rng, 3, 2)
        assert ident.apply(g) == g

    phi2 = WreathAutomorphism(M3, 3, 2, (1, 0))
    assert phi2.apply(WreathElement.delta(3, (1, 1))) == WreathElement.delta(3, (2, -2), 2)


def test_apply_is_homomorphism():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.choice([2, 3, 5, 9])
        k = rng.choice([1, 2, 3])
        a = random_unimodular(rng, k)
        u = rng.choice([x for x in range(1, m) if math.gcd(x, m) == 1])
        x0 = tuple(rng.randrange(-3, 4) for _ in range(k))
        inner = random_element(rng, m, k) if rng.random() < 0.4 else None
        phi = WreathAutomorphism(a, m, u, x0, inner)
        g, h = random_element(rng, m, k), random_element(rng, m, k)
        assert phi.apply(g * h) == phi.apply(g) * phi.apply(h)
        # two-sided inverse
        assert phi.inverse().apply(phi.apply(g)) == g
        assert phi.apply(phi.inverse().apply(g)) == g


def test_base_action_equivariance():
    # phi'(f shifted by g) = (phi' f) shifted by A g, for the standard part
    rng = random.Random(19)
    for _ in range(30):
        m = rng.choice([2, 3, 5])
        k = rng.choice([1, 2])
        a = random_unimodular(rng, k)
        phi = WreathAutomorphism(a, m, 2 if m > 2 else 1,
                                 tuple(rng.randrange(-2, 3) for _ in range(k)))
        f = random_function(rng, m, k)
        g = tuple(rng.randrange(-3, 4) for _ in range(k))
        assert phi.apply_base(f.translate(g)) == phi.apply_base(f).translate(a.apply(g))


def test_apply_base_matches_apply_on_base_elements():
    rng = random.Random(23)
    for _ in range(20):
        m, k = rng.choice([(2, 1), (3, 2), (5, 2)])
        a = random_unimodular(rng, k)
        inner = random_element(rng, m, k)
        phi = WreathAutomorphism(a, m, m - 1, (0,) * k, inner)
        f = random_function(rng, m, k)
        image = phi.apply(WreathElement(f, (0,) * k))
        assert image.t == (0,) * k
        assert image.f == phi.apply_base(f)


def test_twisted_transform_examples():
    phi = WreathAutomorphism(IntMatrix([[-1]]), 2, 1, (0,))
    g = WreathElement.delta(2, (1,))
    ident = WreathElement.identity(2, 1)
    assert twisted_transform(phi, g, ident) == g

    phi_id = WreathAutomorphism.identity(3, 1)
    rng = random.Random(29)
    for _ in range(10):
        x, h = random_element(rng, 3, 1), random_element(rng, 3, 1)
        assert twisted_transform(phi_id, x, h) == h * x * h.inverse()

    # m=2, k=1, A=[-1]: delta_1 twisted by the unit translation
    h = WreathElement.translation(2, (1,))
    result = twisted_transform(phi, g, h)
    assert result == WreathElement(
        FiniteSupportFunction(2, [((2,), 1)]), (2,)
    )


def test_right_shift_transport_identity():
    # h x phi(h)^-1 g  =  h (x g) (tau_{g^-1} o phi)(h)^-1
    rng = random.Random(31)
    for _ in range(30):
        m = rng.choice([2, 3, 5])
        k = rng.choice([1, 2])
        a = random_unimodular(rng, k)
        u = 1 if m == 2 else 2
        phi = WreathAutomorphism(a, m, u, tuple(rng.randrange(-2, 3) for _ in range(k)))
        x, h, g = (random_element(rng, m, k) for _ in range(3))
        lhs = twisted_transform(phi, x, h) * g
        rhs = twisted_transform(phi.twist(g.inverse()), x * g, h)
        assert lhs == rhs


def test_validation():
    with pytest.raises(ValueError):
        WreathAutomorphism(M3, 4, 2, (0, 0))  # u not a unit
    with pytest.raises(ValueError):
        WreathAutomorphism(IntMatrix([[2, 0], [0, 1]]), 3, 1, (0, 0))  # not unimodular
    with pytest.raises(ValueError):
        WreathAutomorphism(M3, 3, 2, (0,))  # offset length


# ---------------------------------------------------------------------------
# support sums and vertices


def test_shifted_sum_support_examples():
    assert shifted_sum_support(3, [(0, 0)], [1], [((2, 2), 1)]) == {(2, 2)}
    # middle point covered twice cancels mod 2
    out = shifted_sum_support(2, [(0,), (1,)], [1, 1], [((0,), 1), ((1,), 1)])
    assert out == {(0,), (2,)}


def test_shifted_sum_support_never_singleton_for_prime_m():
    rng = random.Random(37)
    for _ in range(200):
        m = rng.choice([2, 3, 5, 7])
        k = rng.choice([1, 2, 3])
        size = rng.randrange(2, 7)
        points = set()
        while len(points) < size:
            points.add(tuple(rng.randrange(-4, 5) for _ in range(k)))
        points = sorted(points)
        coeffs = [rng.randrange(1, m) for _ in points]
        n_shifts = rng.randrange(2, 7)
        shift_vecs = set()
        while len(shift_vecs) < n_shifts:
            shift_vecs.add(tuple(rng.randrange(-4, 5) for _ in range(k)))
        shifts = [(v, rng.randrange(1, m)) for v in sorted(shift_vecs)]
        out = shifted_sum_support(m, points, coeffs, shifts)
        assert len(out) >= 2


def test_shifted_sum_support_validation():
    with pytest.raises(ValueError):
        shifted_sum_support(3, [(0,)], [3], [((0,), 1)])
    with pytest.raises(ValueError):
        shifted_sum_support(3, [(0,)], [1], [((0,), 1), ((0,), 2)])


def test_lex_extreme_vertex_examples():
    assert lex_extreme_vertex([(4, -2)], (1, 2)) == (4, -2)
    assert lex_extreme_vertex([(0, 0), (1, 0), (1, 1)], (1, 2)) == (1, 1)
    assert lex_extreme_vertex([(0, 0), (1, 0), (1, 1)], (-2, 1)) == (1, 0)
    with pytest.raises(ValueError):
        lex_extreme_vertex([], (1,))
    with pytest.raises(ValueError):
        lex_extreme_vertex([(0, 0)], (1, 1))


def test_lex_extreme_vertex_translation_equivariant():
    rng = random.Random(41)
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        pts = {tuple(rng.randrange(-5, 6) for _ in range(k))
               for _ in range(rng.randrange(1, 8))}
        axes = list(range(1, k + 1))
        rng.shuffle(axes)
        spec = tuple(rng.choice([-1, 1]) * ax for ax in axes)
        v = tuple(rng.randrange(-5, 6) for _ in range(k))
        base = lex_extreme_vertex(pts, spec)
        shifted = lex_extreme_vertex([tuple(p + w for p, w in zip(pt, v)) for pt in pts], spec)
        assert shifted == tuple(b + w for b, w in zip(base, v))


# ---------------------------------------------------------------------------
# grammar and JSON


def test_grammar_examples():
    g = WreathElement(
        FiniteSupportFunction(3, [((0, 0), 1), ((1, 2), 2)]), (0, -1)
    )
    text = format_element(g)
    assert text == "f=[(0,0):1; (1,2):2] t=(0,-1)"
    assert parse_element(text, 3) == g
    assert format_element(WreathElement.identity(3, 2)) == "f=[] t=(0,0)"


def test_grammar_round_trip_random():
    rng = random.Random(43)
    for _ in range(50):
        m = rng.choice([2, 3, 5, 9])
        k = rng.choice([1, 2, 3])
        g = random_element(rng, m, k)
        assert parse_element(format_element(g), m) == g
        assert element_from_json(element_to_json(g), m) == g


def test_grammar_rejects_garbage():
    for bad in ["", "f=[] t=()", "f=[(0):0] t=(0)", "f=[(0):5] t=(0)",
                "f=[(0,0):1] t=(0)", "t=(0) f=[]"]:
        with pytest.raises(ValueError):
            parse_element(bad, 3)
