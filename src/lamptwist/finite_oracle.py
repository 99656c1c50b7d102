"""Ground truth on finite quotients Z_m wr (Z/n)^k.

Reducing lattice positions and translations mod n gives a finite group of
order m^(n^k) * n^k on which everything can be checked by force: twisted
class counts via union-find, irreducible representations via the
little-group construction for an abelian base acted on by the abelian
translation group, and the equality of the two counts (the twisted
Burnside-Frobenius identity for finite groups).  A third, independent
count, ``fibre_class_count``, reads the class number off the orbits of
positions under Burnside's lemma, without enumerating the group.

All counting is exact; groups above the element budget raise instead of
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd
from typing import Iterator, Optional, Sequence

from .lattice import IntMatrix, Vector, as_vector
from .wreath import WreathAutomorphism, WreathElement

DEFAULT_ELEMENT_BUDGET = 200_000

FiniteElement = tuple[tuple[int, ...], tuple[int, ...]]


class BudgetExceededError(RuntimeError):
    """The requested quotient is larger than the configured element budget."""


def _digit_table(
    m: int,
    dest: Sequence[int],
    shift: Optional[Sequence[int]] = None,
    unit: int = 1,
    scale: int = 1,
    offset: int = 0,
) -> list[int]:
    """Code table of a digit-wise affine map of base vectors.

    Entry fi is ``scale * code(g) + offset``, where f is the base vector
    with code fi and g[dest[j]] = unit * f[j] + shift[dest[j]] mod m.  The
    table is built one digit at a time, with no digit arithmetic per entry.
    """
    npk = len(dest)
    table = [offset]
    for j in reversed(range(npk)):
        i = dest[j]
        c = shift[i] if shift else 0
        weight = scale * m ** (npk - 1 - i)
        values = [(unit * d + c) % m * weight for d in range(m)]
        table = [v + x for v in values for x in table]
    return table


class FiniteWreathGroup:
    """The quotient Z_m wr (Z/n)^k with canonical element encoding.

    Elements are pairs (f, t): f is a tuple of n^k residues mod m indexed
    by the lexicographically ordered positions of (Z/n)^k, and t is a
    translation tuple mod n.  The oracle's loops work on integer codes
    fi * n^k + ti instead, where fi reads f as base-m digits (position 0
    most significant) and ti is the index of t among the positions, so
    code order is the order of ``elements()``.

    The order m^(n^k) * n^k is checked against ``budget`` from (m, n, k)
    alone, before anything is built.  Once n^k reaches the bit length of
    the budget, m^(n^k) >= 2^(n^k) already exceeds it, so that power is
    only formed when it is small.
    """

    def __init__(self, m: int, n: int, k: int, budget: int = DEFAULT_ELEMENT_BUDGET):
        if m < 2 or n < 1 or k < 1:
            raise ValueError("need m >= 2, n >= 1, k >= 1")
        npk = n ** k
        if npk >= budget.bit_length() or m ** npk * npk > budget:
            raise BudgetExceededError(
                f"group of order {m}^({n}^{k}) * {n}^{k} exceeds the element budget {budget}"
            )
        self.m, self.n, self.k = m, n, k
        self.size = m ** npk * npk
        self.positions: tuple[Vector, ...] = tuple(product(range(n), repeat=k))
        self.pos_index = {p: i for i, p in enumerate(self.positions)}
        self._trans_perms: dict[Vector, tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return f"FiniteWreathGroup(m={self.m}, n={self.n}, k={self.k})"

    def identity(self) -> FiniteElement:
        return (0,) * len(self.positions), (0,) * self.k

    def _perm(self, t: tuple[int, ...]) -> tuple[int, ...]:
        # permutation sending f to its translate by t: new[i] = f[pos_i - t]
        cached = self._trans_perms.get(t)
        if cached is None:
            n = self.n
            cached = tuple(
                self.pos_index[tuple((c - s) % n for c, s in zip(pos, t))]
                for pos in self.positions
            )
            self._trans_perms[t] = cached
        return cached

    def translate_f(self, f: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
        perm = self._perm(t)
        return tuple(f[i] for i in perm)

    def multiply(self, x: FiniteElement, y: FiniteElement) -> FiniteElement:
        fx, tx = x
        fy, ty = y
        shifted = self.translate_f(fy, tx)
        m, n = self.m, self.n
        return (
            tuple((a + b) % m for a, b in zip(fx, shifted)),
            tuple((a + b) % n for a, b in zip(tx, ty)),
        )

    def inverse(self, x: FiniteElement) -> FiniteElement:
        f, t = x
        neg_t = tuple((-c) % self.n for c in t)
        shifted = self.translate_f(f, neg_t)
        return tuple((-a) % self.m for a in shifted), neg_t

    def elements(self) -> Iterator[FiniteElement]:
        for f in product(range(self.m), repeat=len(self.positions)):
            for t in product(range(self.n), repeat=self.k):
                yield f, t

    def decode(self, index: int) -> FiniteElement:
        """The element with integer code ``index``, in 0..size-1."""
        fi, ti = divmod(index, len(self.positions))
        return self._f_digits(fi), self.positions[ti]

    def _f_digits(self, fi: int) -> tuple[int, ...]:
        digits = [0] * len(self.positions)
        for i in reversed(range(len(digits))):
            fi, digits[i] = divmod(fi, self.m)
        return tuple(digits)

    @cached_property
    def _character_orbits(self) -> tuple[list[int], dict[int, tuple[Vector, ...]]]:
        """Translation orbits of the base characters, over their codes.

        Returns ``(least, stabilizers)``: ``least[ci]`` is the least code
        in the orbit of ci, and ``stabilizers`` maps each least code, in
        increasing order, to its stabilizer in (Z/n)^k in position order.
        Orbits are walked with one translation table per unit vector.
        """
        n, k, positions = self.n, self.k, self.positions
        steps = [
            _digit_table(self.m, self._perm(tuple(-int(i == j) % n for j in range(k))))
            for i in range(k)
        ]
        least = [-1] * self.m ** len(positions)
        stabilizers: dict[int, tuple[Vector, ...]] = {}
        shared: dict[tuple[Vector, ...], tuple[Vector, ...]] = {}
        for ci in range(len(least)):
            if least[ci] >= 0:
                continue
            images = [ci]  # images[p] = code of chi translated by positions[p]
            for step in steps:
                row = []
                for y in images:
                    for _ in range(n):
                        row.append(y)
                        y = step[y]
                images = row
            for y in images:
                least[y] = ci
            stab = tuple(p for p, y in zip(positions, images) if y == ci)
            stabilizers[ci] = shared.setdefault(stab, stab)
        return least, stabilizers

    def project(self, g: WreathElement) -> FiniteElement:
        """Reduce an infinite-group element mod n; a group homomorphism."""
        if g.m != self.m or g.k != self.k:
            raise ValueError("element belongs to a different wreath product")
        vals = [0] * len(self.positions)
        for pos, val in g.f.items():
            idx = self.pos_index[tuple(c % self.n for c in pos)]
            vals[idx] = (vals[idx] + val) % self.m
        return tuple(vals), tuple(c % self.n for c in g.t)


class FiniteAutomorphism:
    """Automorphism of a finite quotient induced by a WreathAutomorphism.

    The standard part permutes positions by x -> (A x + x0) mod n and
    scales values by u; an optional inner part conjugates by a fixed finite
    element.  Well defined because the position map is translation
    equivariant mod n.
    """

    def __init__(
        self,
        group: FiniteWreathGroup,
        matrix: IntMatrix,
        u: int,
        x0: Vector,
        inner: Optional[FiniteElement] = None,
    ):
        if matrix.k != group.k:
            raise ValueError("matrix rank does not match the group")
        self.group = group
        self.matrix = matrix
        self.u = u % group.m
        self.x0 = as_vector(x0)
        n = group.n
        self.t_images = {
            t: tuple(c % n for c in matrix.apply(t)) for t in group.positions
        }
        # (A p mod n + x0) mod n = (A p + x0) mod n
        self.sigma = tuple(
            group.pos_index[tuple((c + o) % n for c, o in zip(self.t_images[p], self.x0))]
            for p in group.positions
        )
        self.inner = inner
        self.inner_inv = group.inverse(inner) if inner is not None else None

    def twist(self, gamma: FiniteElement) -> "FiniteAutomorphism":
        """Compose an inner twist on the left: conjugation by gamma after self."""
        inner = gamma if self.inner is None else self.group.multiply(gamma, self.inner)
        return FiniteAutomorphism(self.group, self.matrix, self.u, self.x0, inner)

    def apply(self, x: FiniteElement) -> FiniteElement:
        g = self.group
        f, t = x
        new_f = [0] * len(f)
        for i, val in enumerate(f):
            if val:
                new_f[self.sigma[i]] = (val * self.u) % g.m
        out = (tuple(new_f), self.t_images[t])
        if self.inner is not None:
            out = g.multiply(g.multiply(self.inner, out), self.inner_inv)
        return out


def induce_automorphism(
    phi: WreathAutomorphism, n: int, budget: int = DEFAULT_ELEMENT_BUDGET
) -> FiniteAutomorphism:
    """Automorphism of Z_m wr (Z/n)^k commuting with the projection."""
    group = FiniteWreathGroup(phi.m, n, phi.k, budget)
    inner = group.project(phi.inner) if phi.inner is not None else None
    return FiniteAutomorphism(group, phi.matrix, phi.u, phi.x0, inner)


def _generators(group: FiniteWreathGroup) -> list[FiniteElement]:
    gens = []
    base = [0] * len(group.positions)
    base[group.pos_index[(0,) * group.k]] = 1
    gens.append((tuple(base), (0,) * group.k))
    if group.n > 1:
        zero_f = (0,) * len(group.positions)
        for i in range(group.k):
            t = tuple(1 if j == i else 0 for j in range(group.k))
            gens.append((zero_f, t))
    return gens


def twisted_classes_bruteforce(
    group: FiniteWreathGroup, aut: FiniteAutomorphism
) -> tuple[int, list[FiniteElement]]:
    """Exact twisted-class count and canonical representatives.

    Union-find closes the moves g -> gamma * g * aut(gamma)^-1 over the
    generating set (base generator at position 0 plus the translation
    units); representatives are the least element of each class in the
    canonical tuple order.

    Elements are handled by their integer codes (``FiniteWreathGroup.decode``).
    With gamma = (a, s) and aut(gamma)^-1 = (b, v), the move sends (f, t)
    to (tr_s(f) + c_t, t + s + v) with c_t = a + tr_{s+t}(b), so for each
    generator and each t it is one lookup table over the base codes.
    Union keeps the smaller root, so every root is its class minimum.
    """
    n, npk, size = group.n, len(group.positions), group.size
    parent = list(range(size))
    for gen in _generators(group):
        a, s = gen
        b, v = group.inverse(aut.apply(gen))
        dest = group._perm(tuple(-c % n for c in s))  # tr_s moves position j to dest[j]
        for ti, t in enumerate(group.positions):
            st = tuple((x + y) % n for x, y in zip(s, t))
            shift = [x + y for x, y in zip(a, group.translate_f(b, st))]
            target = group.pos_index[tuple((x + y) % n for x, y in zip(st, v))]
            table = _digit_table(group.m, dest, shift, scale=npk, offset=target)
            for x, y in zip(range(ti, size, npk), table):
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
    roots = [i for i, p in enumerate(parent) if i == p]
    return len(roots), [group.decode(r) for r in roots]


@dataclass(frozen=True)
class IrrepLabel:
    """Little-group label of an irreducible representation.

    ``chi`` is the lexicographically least base character in its
    translation orbit; ``eta`` is a character of chi's stabilizer inside
    (Z/n)^k, encoded as the lex-least residue tuple of the full translation
    group restricting to it.  The dimension equals the orbit size.
    """

    chi: tuple[int, ...]
    eta: tuple[int, ...]
    dim: int


def _eta_key(group: FiniteWreathGroup, stab: tuple[Vector, ...], y: Vector) -> tuple[int, ...]:
    n = group.n
    return tuple(sum(a * b for a, b in zip(y, s)) % n for s in stab)


def _stabilizer_characters(group: FiniteWreathGroup, stab: tuple[Vector, ...]) -> list[Vector]:
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
    npk = len(group.positions)
    _, stabilizers = group._character_orbits
    characters: dict[tuple[Vector, ...], list[Vector]] = {}
    labels = []
    for ci, stab in stabilizers.items():
        etas = characters.get(stab)
        if etas is None:
            etas = characters[stab] = _stabilizer_characters(group, stab)
        chi = group._f_digits(ci)
        dim = npk // len(stab)
        for eta in etas:
            labels.append(IrrepLabel(chi, eta, dim))
    return tuple(labels)


def phi_hat_fixed_count(group: FiniteWreathGroup, aut: FiniteAutomorphism) -> int:
    """Number of irreducible representation classes fixed by pullback.

    The pullback of (chi, eta) has base character (chi o phi')_x =
    u * chi(sigma(x)), canonicalized to its orbit minimum, and stabilizer
    character eta pulled back through the transposed quotient matrix.
    Inner parts are ignored because conjugate representations are
    equivalent.  A label is fixed when the base orbit is the same and the
    two etas agree on the stabilizer.  Labels are not built: the count
    runs over the orbit codes of ``group._character_orbits``, and the
    number of fixed etas is worked out once per stabilizer.
    """
    least, stabilizers = group._character_orbits
    dest = [0] * len(aut.sigma)
    for i, j in enumerate(aut.sigma):
        dest[j] = i
    pulled_chi = _digit_table(group.m, dest, unit=aut.u)
    transpose = aut.matrix.transpose()
    n = group.n
    fixed_etas: dict[tuple[Vector, ...], int] = {}
    fixed = 0
    for ci, stab in stabilizers.items():
        if least[pulled_chi[ci]] != ci:
            continue
        count = fixed_etas.get(stab)
        if count is None:
            count = fixed_etas[stab] = sum(
                _eta_key(group, stab, tuple(c % n for c in transpose.apply(eta)))
                == _eta_key(group, stab, eta)
                for eta in _stabilizer_characters(group, stab)
            )
        fixed += count
    return fixed


def fibre_class_count(group: FiniteWreathGroup, aut: FiniteAutomorphism) -> int:
    """Exact twisted-class count, read off position orbits.

    Neither the group nor its base is enumerated, and no Smith form is
    taken.  A move by (a, s) shifts translations by (I - A)s, so the
    classes over the translations in one class of T / (I - A)T are the
    orbits of B x ker(I - A) on the fibre {(f, t)} over one representative
    t, where (a, s) sends f to a + tr_s(f) - P_t(a) - c.  Here P_t = tr_t o L,
    L is the monomial base part of aut (inner twist included), and
    c = tr_t(base part of aut((0, s))).  By Burnside's lemma the fibre
    holds (1/|ker|) * sum_s |coker M_s| classes, the sum over those s for
    which c lies in the image of M_s(f, a) = (tr_s - 1)f + (1 - P_t)a.

    As s is fixed by A, tr_s commutes with P_t, so M_s splits over the
    orbits O of <P_t, tr_s> on the positions.  P_t permutes O's tr_s-cycles
    in one cycle of some length l, so the cokernel on O is Z_m / (1 - u^l),
    and c lies in the image when sum_y c_y * u^(-j(y)) = 0 in it, j(y)
    being the number of P_t steps from O's first tr_s-cycle to y's.  For a
    consistent automorphism c = (1 - tr_s)(tr_t c0), with c0 the base part
    of the inner element, so the test only fails on automorphism data that
    do not fit together.  The work is O(|ker|^2 * n^k).
    """
    m, n, u = group.m, group.n, aut.u
    positions, index = group.positions, group.pos_index
    npk = len(positions)
    u_inv = pow(u, -1, m)
    images = aut.t_images
    kernel = [s for s in positions if images[s] == s]

    def plus(x: Vector, y: Vector) -> Vector:
        return tuple((a + b) % n for a, b in zip(x, y))

    image = {tuple((a - b) % n for a, b in zip(t, images[t])) for t in positions}
    covered = [False] * npk
    reps = []
    for ti, t in enumerate(positions):
        if not covered[ti]:
            reps.append(t)
            for v in image:
                covered[index[plus(t, v)]] = True

    zero_f = (0,) * npk
    # per s: the tr_s-cycle of each position, the number of cycles, and the
    # base part of aut((0, s))
    fibres = []
    for s in kernel:
        step = group._perm(s)
        cycle = [-1] * npk
        count = 0
        for i in range(npk):
            if cycle[i] < 0:
                j = i
                while cycle[j] < 0:
                    cycle[j] = count
                    j = step[j]
                count += 1
        fibres.append((cycle, count, aut.apply((zero_f, s))[0]))

    w = aut.inner[1] if aut.inner is not None else (0,) * group.k
    total = 0
    for t in reps:
        shift = group._perm(tuple(-c % n for c in plus(t, w)))  # x -> x + t + w
        p = [shift[j] for j in aut.sigma]  # the position permutation of P_t
        for cycle, count, d in fibres:
            c = group.translate_f(d, t)
            succ = [0] * count
            sums = [0] * count
            for i in range(npk):
                o = cycle[i]
                succ[o] = cycle[p[i]]
                sums[o] += c[i]
            seen = [False] * count
            size = 1
            for first in range(count):
                if seen[first]:
                    continue
                o, length, acc, weight = first, 0, 0, 1
                while not seen[o]:
                    seen[o] = True
                    acc += sums[o] * weight
                    weight = weight * u_inv % m
                    length += 1
                    o = succ[o]
                g = gcd(m, 1 - pow(u, length, m))
                if acc % g:
                    size = 0
                    break
                size *= g
            total += size
    classes, rest = divmod(total, len(kernel))
    assert rest == 0, "Burnside sum not divisible by the stabilizer order"
    return classes


def oracle_report(group: FiniteWreathGroup, aut: FiniteAutomorphism) -> dict:
    """JSON-ready summary of the full oracle pipeline on one quotient."""
    count, reps = twisted_classes_bruteforce(group, aut)
    fixed = phi_hat_fixed_count(group, aut)
    return {
        "group": {"m": group.m, "n": group.n, "k": group.k},
        "twisted_classes": count,
        "fixed_irreps": fixed,
        "tbft": count == fixed,
        "representatives": [
            {"f": list(f), "t": list(t)} for f, t in reps
        ],
    }
