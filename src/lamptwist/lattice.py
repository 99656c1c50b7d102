"""Exact integer-matrix and lattice machinery.

Everything in this module runs on plain Python integers, so determinants,
matrix powers, Smith normal forms and kernel computations are exact at any
size.  There are two eliminations: Bareiss ``det`` for determinants, and
``smith_normal_form``, from which ``solve``, ``IntMatrix.inverse``,
``kernel_rank`` and the coset enumeration are all read off.  No floating
point is used anywhere: matrix orders and orbit periods are read off the
cyclotomic factors of the characteristic polynomial instead of eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
from operator import mul
from typing import Iterable, NamedTuple, Optional

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# vectors


def as_vector(coords: Iterable[int]) -> Vector:
    return tuple(int(c) for c in coords)


def zero_vector(k: int) -> Vector:
    return (0,) * k


def unit_vector(k: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(k))


def vec_add(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Vector) -> Vector:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# matrices


class IntMatrix:
    """Immutable square matrix of arbitrary-precision integers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("expected a non-empty square matrix")
        self.rows: tuple[tuple[int, ...], ...] = rows

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls(tuple(unit_vector(k, i) for i in range(k)))

    @classmethod
    def block_diagonal(cls, *blocks: "IntMatrix") -> "IntMatrix":
        k = sum(b.k for b in blocks)
        rows = [[0] * k for _ in range(k)]
        off = 0
        for b in blocks:
            for i in range(b.k):
                for j in range(b.k):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.k
        return cls(rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def apply(self, v: Iterable[int]) -> Vector:
        v = as_vector(v)
        if len(v) != self.k:
            raise ValueError("vector length does not match matrix size")
        return tuple(sum(r * x for r, x in zip(row, v)) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_size(other)
        return IntMatrix(
            tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_size(other)
        cols = tuple(zip(*other.rows))
        product = object.__new__(IntMatrix)  # the rows below need no re-checking
        product.rows = tuple(
            tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows
        )
        return product

    def __pow__(self, n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("negative powers: invert explicitly with inverse()")
        result = IntMatrix.identity(self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "IntMatrix":
        """Exact inverse; the matrix must be invertible over the integers.

        Read off the Smith form: U M V = I gives M^-1 = V U.
        """
        dec = smith_normal_form(self)
        if 0 in dec.diagonal:
            raise ValueError("matrix is singular")
        if any(d != 1 for d in dec.diagonal):
            raise ValueError("inverse is not integral; matrix is not unimodular")
        return dec.V * dec.U

    def _check_same_size(self, other: "IntMatrix") -> None:
        if not isinstance(other, IntMatrix) or other.k != self.k:
            raise ValueError("matrix size mismatch")


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m.rows]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return abs(det(m)) == 1


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with unimodular U, V and divisibility chain on D."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.rows[i][i] for i in range(self.D.k))


def _identity_lists(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize over Z, tracking U and V.

    Pivot rule: smallest nonzero absolute value in the working submatrix,
    scanning rows before columns with lowest indices winning ties.  This
    makes the output deterministic for a given input.
    """
    k = m.k
    a = [list(row) for row in m.rows]
    u = _identity_lists(k)
    v = _identity_lists(k)

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i: int, j: int, q: int) -> None:
        # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_swap(i: int, j: int) -> None:
        for r in range(k):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def col_add(i: int, j: int, q: int) -> None:
        # col i += q * col j
        for r in range(k):
            a[r][i] += q * a[r][j]
            v[r][i] += q * v[r][j]

    def pick_pivot(s: int) -> Optional[tuple[int, int]]:
        best = None
        for r in range(s, k):
            for c in range(s, k):
                x = a[r][c]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), r, c)
        return None if best is None else (best[1], best[2])

    for s in range(k):
        while True:
            piv = pick_pivot(s)
            if piv is None:
                break
            pr, pc = piv
            if pr != s:
                row_swap(s, pr)
            if pc != s:
                col_swap(s, pc)
            p = a[s][s]
            dirty = False
            for r in range(s + 1, k):
                if a[r][s]:
                    q = a[r][s] // p
                    if q:
                        row_add(r, s, -q)
                    if a[r][s]:
                        dirty = True
            for c in range(s + 1, k):
                if a[s][c]:
                    q = a[s][c] // p
                    if q:
                        col_add(c, s, -q)
                    if a[s][c]:
                        dirty = True
            if dirty:
                continue
            bad_row = None
            for r in range(s + 1, k):
                if any(a[r][c] % p for c in range(s + 1, k)):
                    bad_row = r
                    break
            if bad_row is not None:
                row_add(s, bad_row, 1)
                continue
            break
        if a[s][s] < 0:
            row_negate(s)

    return SmithDecomposition(U=IntMatrix(u), D=IntMatrix(a), V=IntMatrix(v))


def solve(m: IntMatrix, target: Iterable[int]) -> Optional[Vector]:
    """An integer solution x of M x = target, or None if there is none."""
    dec = smith_normal_form(m)
    rhs = dec.U.apply(target)
    y = []
    for d, b in zip(dec.diagonal, rhs):
        if d == 0:
            if b != 0:
                return None
            y.append(0)
        else:
            if b % d:
                return None
            y.append(b // d)
    return dec.V.apply(y)


def kernel_rank(m: IntMatrix) -> int:
    """Rank over Q of the solution space of M x = 0."""
    return smith_normal_form(m).diagonal.count(0)


# ---------------------------------------------------------------------------
# primes and factoring


# Miller-Rabin with these bases decides primality exactly below the bound
# (Sorenson and Webster, 2017).  Above it, a base that shows n composite is
# still a proof, but passing every base is not, and no guess is returned.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


class PrimalityBoundError(ValueError):
    """Primality of a number at or above ``_MR_EXACT_BELOW`` was left undecided."""


def _is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below 3.317 * 10^24.

    At or above that bound a number that passes every base raises
    ``PrimalityBoundError``, which names the bound.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise PrimalityBoundError(
            f"cannot decide exactly whether {n} is prime: primality is exact "
            f"only below {_MR_EXACT_BELOW}"
        )
    return True


def _split(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho, Brent's variant."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                done += 128
            r *= 2
        if g == n:  # the batched product overshot: retrace one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorization(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Small primes are divided out first; what is left is split by Pollard's
    rho until every factor passes the exact ``_is_prime``.
    """
    out: dict[int, int] = {}
    for f in range(2, 1000):
        if f * f > n:
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
    stack = [n] if n > 1 else []
    while stack:
        x = stack.pop()
        if _is_prime(x):
            out[x] = out.get(x, 0) + 1
        else:
            d = _split(x)
            stack += [d, x // d]
    return out


def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, in increasing order."""
    return tuple(sorted(_factorization(n)))


def _divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, in increasing order."""
    divisors = [1]
    for p, e in _factorization(n).items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return tuple(sorted(divisors))


# ---------------------------------------------------------------------------
# characteristic polynomial and its cyclotomic factors

Poly = tuple[int, ...]  # integer coefficients, constant term first


def _poly_mul(f: Poly, g: Poly) -> Poly:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return tuple(out)


def _poly_divmod(f: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by the monic polynomial d, with deg d <= deg f."""
    f = list(f)
    n = len(d) - 1
    q = [0] * (len(f) - n)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = f[i + n]
        if c:
            for j in range(n):
                f[i + j] -= c * d[j]
    return tuple(q), tuple(f[:n])


@lru_cache(maxsize=256)
def _charpoly(a: IntMatrix) -> Poly:
    """det(x I - A) by Faddeev-LeVerrier.

    With M_1 = I and M_(j+1) = A M_j + c_(k-j) I, the coefficient of x^(k-j)
    is c_(k-j) = -tr(A M_j) / j, and each division by j is exact over Z.
    """
    rows = a.rows
    k = len(rows)
    coeffs = [0] * k + [1]
    am = [list(row) for row in rows]  # A M_1
    for j in range(1, k + 1):
        c = -sum(am[i][i] for i in range(k)) // j
        coeffs[k - j] = c
        if j == k:
            break
        for i in range(k):
            am[i][i] += c  # now M_(j+1)
        cols = tuple(zip(*am))
        am = [[sum(map(mul, row, col)) for col in cols] for row in rows]
    return tuple(coeffs)


def _totient(n: int) -> int:
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> Poly:
    """Phi_n: x^n - 1 divided exactly by Phi_d for every proper divisor d of n."""
    f = (-1,) + (0,) * (n - 1) + (1,)
    for d in _divisors(n)[:-1]:
        f, _ = _poly_divmod(f, _cyclotomic(d))
    return f


@lru_cache(maxsize=None)
def _cyclotomic_candidates(k: int) -> tuple[int, ...]:
    """Every n whose Phi_n can divide a degree-k polynomial: phi(n) <= k.

    phi(n) >= sqrt(n / 2) for every n, so the search stops at 2 k^2.
    """
    return tuple(n for n in range(1, 2 * k * k + 1) if _totient(n) <= k)


class _CyclotomicSplit(NamedTuple):  # a NamedTuple imports faster than a dataclass
    """chi_A = cofactor * prod Phi_n^(e_n) over ``indices``, e_n >= 1.

    No cyclotomic polynomial divides ``cofactor``.  ``squarefree`` is
    C = prod Phi_n over the indices, and ``parts[i]`` is C / Phi_(indices[i]).
    """

    indices: tuple[int, ...]
    cofactor: Poly
    squarefree: Poly
    parts: tuple[Poly, ...]


@lru_cache(maxsize=256)
def _cyclotomic_split(a: IntMatrix) -> _CyclotomicSplit:
    """Divide every Phi_n with phi(n) <= k out of chi_A, as often as it divides."""
    f = _charpoly(a)
    indices = []
    for n in _cyclotomic_candidates(a.k):
        phi = _cyclotomic(n)
        divides = False
        while len(phi) <= len(f):
            q, r = _poly_divmod(f, phi)
            if any(r):
                break
            f, divides = q, True
        if divides:
            indices.append(n)
    return _split_from(tuple(indices), f)


def _split_from(indices: tuple[int, ...], cofactor: Poly) -> _CyclotomicSplit:
    squarefree: Poly = (1,)
    for n in indices:
        squarefree = _poly_mul(squarefree, _cyclotomic(n))
    parts = tuple(_poly_divmod(squarefree, _cyclotomic(n))[0] for n in indices)
    return _CyclotomicSplit(indices, cofactor, squarefree, parts)


@lru_cache(maxsize=256)
def _lift_split(a: IntMatrix) -> _CyclotomicSplit:
    """Split of every lift [[A, x0], [0, 1]], read off A's own split.

    The lift's characteristic polynomial is chi_A * (x - 1) = chi_A * Phi_1,
    whatever x0 is: the cofactor is A's, and index 1 joins the indices if
    it is missing (candidates ascend, so it comes first).
    """
    split = _cyclotomic_split(a)
    if split.indices[:1] == (1,):
        return split
    return _split_from((1,) + split.indices, split.cofactor)


# ---------------------------------------------------------------------------
# matrix order and orbit periods


@lru_cache(maxsize=256)
def matrix_order(a: IntMatrix) -> Optional[int]:
    """Smallest r >= 1 with A^r = identity, or None for infinite order.

    A view of the cached ``realized_periods``, whose docstring proves it
    exact.  Its own cache stays only for ``perfbench/tracer.py``, which
    reads ``matrix_order.cache_info()``.
    """
    return realized_periods(a).order


def _orbit_coords(rows: tuple[Vector, ...], x: Vector,
                  split: _CyclotomicSplit) -> Optional[list[Vector]]:
    """Per coordinate, its values on x, A x, ..., A^(deg C) x; None if C(A) x != 0.

    ``rows`` are the rows of A.

    A polynomial P of degree at most deg C then gives P(A) x by ``_evaluate``.
    C(A) x = 0 exactly when x is periodic: the annihilator of x then divides
    the squarefree C, which divides x^L - 1 for L = lcm(n_i); conversely the
    annihilator of a periodic x divides x^r - 1 and chi_A, so it divides C.
    """
    krylov = [x]
    for _ in range(len(split.squarefree) - 1):
        y = krylov[-1]
        krylov.append(tuple(sum(map(mul, row, y)) for row in rows))
    coords = list(zip(*krylov))
    if any(sum(map(mul, split.squarefree, c)) for c in coords):
        return None
    return coords


def _evaluate(p: Poly, coords: list[Vector]) -> Vector:
    return tuple(sum(map(mul, p, c)) for c in coords)


def _period(split: _CyclotomicSplit, coords: list[Vector]) -> int:
    """Period of a periodic point: the lcm of the n_i where P_i(A) x != 0.

    On ker C(A), A is semisimple, and ker C(A) is the direct sum of the
    ker Phi_(n_i)(A).  P_i = C / Phi_(n_i) vanishes at A on every summand
    but the i-th and is injective there, so the n_i picked out are those
    of the summands where x has a nonzero component.
    """
    return math.lcm(*(
        n for n, p in zip(split.indices, split.parts)
        if any(sum(map(mul, p, c)) for c in coords)
    ))


def orbit_period(a: IntMatrix, x: Iterable[int]) -> Optional[int]:
    """Least r >= 1 with A^r x = x, or None when the orbit of x is unbounded.

    ``affine_period`` at x0 = 0: (x, 1) under [[A, 0], [0, 1]] has x's period.
    """
    return affine_period(a, zero_vector(a.k), as_vector(x))


def affine_period(a: IntMatrix, x0: Vector, x: Vector) -> Optional[int]:
    """Least r >= 1 with T^r x = x for T(y) = A y + x0, or None when unbounded.

    This is the period of (x, 1) under the lift [[A, x0], [0, 1]].  The
    lift's split is derived from A's cached one, so a new x0 costs no
    characteristic polynomial.
    """
    split = _lift_split(a)
    rows = tuple(row + (c,) for row, c in zip(a.rows, x0)) + ((0,) * a.k + (1,),)
    coords = _orbit_coords(rows, x + (1,), split)
    return None if coords is None else _period(split, coords)


def point_period(a: IntMatrix, x: Iterable[int]) -> int:
    """Least r with A^r x = x.  Defined only for finite-order matrices."""
    if matrix_order(a) is None:
        raise ValueError("point_period is undefined for infinite-order matrices")
    return orbit_period(a, x)


@dataclass(frozen=True)
class OrbitReport:
    """Summary of the orbit structure of a unimodular matrix on Z^k.

    ``realized`` lists each exactly-attained period together with a witness
    vector of that exact period; ``basis_periods`` holds the period of each
    standard basis vector (None when its orbit is unbounded).
    """

    order: Optional[int]
    realized: tuple[tuple[int, Vector], ...]
    basis_periods: tuple[Optional[int], ...]

    @property
    def periods(self) -> set[int]:
        return {r for r, _ in self.realized}

    def witness(self, period: int) -> Vector:
        for r, w in self.realized:
            if r == period:
                return w
        raise KeyError(period)


@lru_cache(maxsize=256)
def realized_periods(a: IntMatrix) -> OrbitReport:
    """Exact periods attained by lattice points under A, and the order of A.

    Let Phi_(n_1) .. Phi_(n_s) be the distinct cyclotomic factors of chi_A
    and C their product.  A has finite order exactly when every basis
    vector is periodic, that is when C(A) e_i = 0 for every i (see
    ``_orbit_coords``), and the order is then L = lcm(n_i).  If
    C(A) = 0, the minimal polynomial divides the squarefree C, which divides
    x^L - 1, so A^L = I; and each Phi_(n_i) divides chi_A, hence the minimal
    polynomial, hence x^r - 1 for any r with A^r = I, so L divides r.
    Conversely, if A^r = I, the minimal polynomial divides x^r - 1 and
    chi_A, so it divides C and C(A) = 0.  A non-cyclotomic cofactor of
    chi_A leaves some basis vector non-periodic, so no separate test of it
    is needed.

    For finite order, Q^k is the direct sum of the ker Phi_(n_i)(A), and a
    point has period lcm{n_i : its i-th component is nonzero}; every
    summand is a rational subspace with nonzero lattice points w_i, so the
    realized periods are exactly the lcms of subsets of the n_i, with
    witness the sum of the w_i over the subset.  For infinite order, only
    periods of standard basis vectors are collected and the order is
    reported as None.
    """
    split = _cyclotomic_split(a)
    if abs(split.cofactor[0]) != 1:  # |chi_A(0)| = |det A| and Phi_n(0) = +-1
        raise ValueError("realized_periods requires a unimodular matrix")
    k = a.k
    coords = [_orbit_coords(a.rows, unit_vector(k, i), split) for i in range(k)]
    basis = tuple(None if c is None else _period(split, c) for c in coords)
    realized: dict[int, Vector] = {1: zero_vector(k)}
    if None in basis:
        for i, per in enumerate(basis):
            if per is not None and per not in realized:
                realized[per] = unit_vector(k, i)
        return OrbitReport(None, tuple(sorted(realized.items())), basis)
    for n, p in zip(split.indices, split.parts):
        # (C / Phi_n)(A) != 0, and its columns lie in ker Phi_n(A)
        w = next(w for w in (_evaluate(p, c) for c in coords) if any(w))
        for r, v in list(realized.items()):
            realized.setdefault(math.lcm(r, n), vec_add(v, w))
    return OrbitReport(math.lcm(*split.indices), tuple(sorted(realized.items())), basis)


# ---------------------------------------------------------------------------
# coset enumeration


def coset_representatives(m: IntMatrix) -> tuple[Vector, ...]:
    """One representative per coset of M Z^k in Z^k, |det M| in total.

    Representatives are produced canonically from the Smith form: diagonal
    coordinates 0 <= c_i < d_i mapped back through U^{-1}.
    """
    dec = smith_normal_form(m)
    if 0 in dec.diagonal:
        raise ValueError("infinite index: det = 0")
    u_inv = dec.U.inverse()
    return tuple(
        u_inv.apply(combo) for combo in product(*(range(d) for d in dec.diagonal))
    )
