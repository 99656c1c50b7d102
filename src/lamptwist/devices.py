"""The paper's proof devices, kept apart from the decision pipeline.

The R-infinity arguments for Z_2 wr Z^k and Z_3 wr Z^(2d) rest on a few
combinatorial facts: shifted sums of one weighted point set never
collapse to a single point, signed-lexicographic extreme vertices commute
with translation, the orbit-block determinant of 1 - phi' is 1 - u^s, and
mod-2 delta chains are a necessary condition for equivalence of base
generators.  The twisted Burnside-Frobenius count goes through the fixed
characters of the dual torus.  The engine decides verdicts without calling
any of these; they exist so the acceptance suite can check the facts
themselves, and nothing in ``lamptwist.cli`` or the modules it imports
depends on this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

from .lattice import (
    IntMatrix,
    Vector,
    as_vector,
    det,
    realized_periods,
    smith_normal_form,
    vec_add,
)
from .wreath import WreathAutomorphism


def fixed_characters(a: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """All characters chi of the k-torus with chi o A = chi.

    Characters are rational vectors modulo 1; the fixed ones solve
    (A^T - I) chi = 0 (mod 1) and are enumerated through the Smith form of
    A^T - I.  Requires det(I - A) != 0, and returns exactly |det(I - A)|
    characters, each with entries in [0, 1).
    """
    k = a.k
    n = a.transpose() - IntMatrix.identity(k)
    if det(n) == 0:
        raise ValueError("infinitely many fixed characters: det(I - A) = 0")
    dec = smith_normal_form(n)
    diag = dec.diagonal
    chars = []
    for combo in product(*(range(d) for d in diag)):
        psi = [Fraction(c, d) for c, d in zip(combo, diag)]
        chi = tuple(
            sum((Fraction(dec.V.rows[row][c]) * psi[c] for c in range(k)), Fraction(0)) % 1
            for row in range(k)
        )
        chars.append(chi)
    chars.sort()
    return tuple(chars)


def shifted_sum_support(
    m: int,
    points: Sequence[Iterable[int]],
    coeffs: Sequence[int],
    shifts: Sequence[tuple[Iterable[int], int]],
) -> set[Vector]:
    """Support of a sum of scaled translates of one weighted point set.

    Each shift (y, s) contributes s * coeffs[i] at position y + points[i];
    contributions at coinciding positions add mod m and vanishing totals
    leave the support.
    """
    points = [as_vector(p) for p in points]
    if len(points) != len(coeffs):
        raise ValueError("points and coefficients must pair up")
    if any(c % m == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero mod m")
    shift_vecs = [as_vector(y) for y, _ in shifts]
    if len(set(shift_vecs)) != len(shift_vecs):
        raise ValueError("shift vectors must be pairwise distinct")
    if any(s % m == 0 for _, s in shifts):
        raise ValueError("shift multipliers must be nonzero mod m")
    accum: dict[Vector, int] = {}
    for y, s in zip(shift_vecs, (s for _, s in shifts)):
        for p, c in zip(points, coeffs):
            pos = vec_add(y, p)
            accum[pos] = (accum.get(pos, 0) + s * c) % m
    return {pos for pos, v in accum.items() if v}


def lex_extreme_vertex(points: Iterable[Iterable[int]], directions: Sequence[int]) -> Vector:
    """Signed-lexicographic extreme point of a finite set.

    ``directions`` is a signed permutation of the 1-based axes, e.g.
    (+2, -1): maximize coordinate 2 first, then minimize coordinate 1 among
    the survivors.  The result is the unique point left after extremizing
    every coordinate, and commutes with translation of the whole set.
    """
    pts = {as_vector(p) for p in points}
    if not pts:
        raise ValueError("empty point set has no vertex")
    k = len(next(iter(pts)))
    axes = [abs(d) for d in directions]
    if sorted(axes) != list(range(1, k + 1)) or any(d == 0 for d in directions):
        raise ValueError("directions must be a signed permutation of 1..k")
    for d in directions:
        ax = abs(d) - 1
        if d > 0:
            best = max(p[ax] for p in pts)
        else:
            best = min(p[ax] for p in pts)
        pts = {p for p in pts if p[ax] == best}
    assert len(pts) == 1
    return next(iter(pts))


def cyclic_block_det(u: int, s: int, m: int) -> int:
    """Determinant mod m of the s x s orbit-block matrix of 1 - phi'.

    The block has 1 on the diagonal and -u on the subdiagonal and in the
    top-right corner; the determinant is computed by direct expansion and
    equals 1 - u^s mod m.
    """
    if s < 1:
        raise ValueError("block size must be positive")
    if s == 1:
        return (1 - u) % m
    rows = [[0] * s for _ in range(s)]
    for i in range(s):
        rows[i][i] = 1
        if i:
            rows[i][i - 1] = -u
    rows[0][s - 1] = -u
    return det(IntMatrix(rows)) % m


def delta_chain_check(
    phi: WreathAutomorphism,
    x1,
    x2,
    t_max: Optional[int] = None,
) -> bool:
    """Necessary condition for two base generators to share a twisted class.

    For modulus 2 only: checks whether iterating the affine position map
    x -> A x + x0 carries x1 to x2 (or x2 to x1) within t_max steps.  For
    finite-order A with the default bound ord(A) * k a False answer is
    definitive; for infinite order a bound must be supplied and False only
    means the condition failed up to that bound.  Chain success alone never
    certifies equivalence; confirm with are_twisted_conjugate_sigma.
    """
    if phi.m != 2:
        raise ValueError("the chain condition applies to modulus 2 only")
    x1, x2 = as_vector(x1), as_vector(x2)
    a, x0 = phi.matrix, phi.effective_x0
    if t_max is None:
        order = realized_periods(a).order
        if order is None:
            raise ValueError("supply t_max explicitly for infinite-order matrices")
        t_max = order * phi.k
    w1, w2 = x1, x2
    for _ in range(t_max + 1):
        if w1 == x2 or w2 == x1:
            return True
        w1 = vec_add(a.apply(w1), x0)
        w2 = vec_add(a.apply(w2), x0)
    return False
