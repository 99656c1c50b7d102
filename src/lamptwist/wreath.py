"""Exact arithmetic in the restricted wreath product Z_m wr Z^k.

An element is a pair (f, t): a finitely supported function f from the
lattice Z^k into residues mod m, together with a lattice translation t.
Multiplication shifts the right factor's support by the left factor's
translation.  Automorphisms are parametrized by a unimodular matrix A, a
unit u mod m and an offset x0 (the base generator at position x maps to
u copies of the generator at A x + x0), optionally composed with an inner
twist by a fixed group element.

For composite m this parametrization is taken as input data; it is
well-defined for every m >= 2 but is only known to exhaust the monomial
automorphisms of the base when m is prime.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .lattice import (
    IntMatrix,
    Vector,
    as_vector,
    is_unimodular,
    vec_add,
    vec_neg,
    zero_vector,
)


class FiniteSupportFunction:
    """Finitely supported function Z^k -> Z_m in canonical form.

    Stored values are residues in 1..m-1; zeros are dropped eagerly, so
    structural equality decides equality in the group.
    """

    __slots__ = ("m", "_entries", "_hash")

    def __init__(self, m: int, entries: Optional[Iterable] = None):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.m = int(m)
        accum: dict[Vector, int] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for pos, val in items:
                pos = as_vector(pos)
                accum[pos] = (accum.get(pos, 0) + int(val)) % self.m
        self._entries = {p: v for p, v in accum.items() if v}
        if len({len(p) for p in self._entries}) > 1:
            raise ValueError("support positions must share one dimension")
        self._hash: Optional[int] = None

    @classmethod
    def delta(cls, m: int, pos: Iterable[int], val: int = 1) -> "FiniteSupportFunction":
        return cls(m, [(as_vector(pos), val)])

    def support(self) -> tuple[Vector, ...]:
        return tuple(sorted(self._entries))

    def items(self) -> tuple[tuple[Vector, int], ...]:
        return tuple(sorted(self._entries.items()))

    def value_at(self, pos: Iterable[int]) -> int:
        return self._entries.get(as_vector(pos), 0)

    def translate(self, y: Iterable[int]) -> "FiniteSupportFunction":
        y = as_vector(y)
        return FiniteSupportFunction(
            self.m, [(vec_add(y, p), v) for p, v in self._entries.items()]
        )

    def scale(self, c: int) -> "FiniteSupportFunction":
        return FiniteSupportFunction(self.m, [(p, v * c) for p, v in self._entries.items()])

    def __add__(self, other: "FiniteSupportFunction") -> "FiniteSupportFunction":
        self._check_compatible(other)
        merged = dict(self._entries)
        for p, v in other._entries.items():
            merged[p] = merged.get(p, 0) + v
        return FiniteSupportFunction(self.m, merged)

    def __neg__(self) -> "FiniteSupportFunction":
        return self.scale(-1)

    def __sub__(self, other: "FiniteSupportFunction") -> "FiniteSupportFunction":
        return self + (-other)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSupportFunction):
            return NotImplemented
        return self.m == other.m and self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, frozenset(self._entries.items())))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(f"{p}:{v}" for p, v in self.items())
        return f"FiniteSupportFunction(m={self.m}, [{body}])"

    def _check_compatible(self, other: "FiniteSupportFunction") -> None:
        if self.m != other.m:
            raise ValueError("modulus mismatch")


@dataclass(frozen=True)
class WreathElement:
    """Group element (f, t) of Z_m wr Z^k."""

    f: FiniteSupportFunction
    t: Vector

    def __post_init__(self):
        object.__setattr__(self, "t", as_vector(self.t))
        for pos in self.f.support():
            if len(pos) != len(self.t):
                raise ValueError("support dimension differs from translation dimension")

    @property
    def m(self) -> int:
        return self.f.m

    @property
    def k(self) -> int:
        return len(self.t)

    @classmethod
    def identity(cls, m: int, k: int) -> "WreathElement":
        return cls(FiniteSupportFunction(m), zero_vector(k))

    @classmethod
    def delta(cls, m: int, pos: Iterable[int], val: int = 1) -> "WreathElement":
        pos = as_vector(pos)
        return cls(FiniteSupportFunction.delta(m, pos, val), zero_vector(len(pos)))

    @classmethod
    def translation(cls, m: int, t: Iterable[int]) -> "WreathElement":
        return cls(FiniteSupportFunction(m), as_vector(t))

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.m != other.m or self.k != other.k:
            raise ValueError("elements from different groups")
        return WreathElement(self.f + other.f.translate(self.t), vec_add(self.t, other.t))

    def inverse(self) -> "WreathElement":
        return WreathElement(-self.f.translate(vec_neg(self.t)), vec_neg(self.t))

    def is_identity(self) -> bool:
        return not self.f and not any(self.t)


@dataclass(frozen=True)
class WreathAutomorphism:
    """Automorphism of Z_m wr Z^k in standard-times-inner form.

    The standard part maps (f, t) to (f', A t) where f' sends u * f(x) to
    position A x + x0; an optional inner twist conjugates the result by the
    fixed element ``inner``.  On the base subgroup the inner twist acts as
    translation by its t-part only, so the effective offset seen by base
    computations is x0 + inner.t.
    """

    matrix: IntMatrix
    m: int
    u: int
    x0: Vector
    inner: Optional[WreathElement] = None

    def __post_init__(self):
        if self.m < 2:  # before u is reduced mod m
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "x0", as_vector(self.x0))
        object.__setattr__(self, "u", self.u % self.m)
        if math.gcd(self.u, self.m) != 1:
            raise ValueError("u must be a unit mod m")
        if not is_unimodular(self.matrix):
            raise ValueError("matrix must be unimodular")
        if len(self.x0) != self.matrix.k:
            raise ValueError("offset length does not match matrix size")
        if self.inner is not None and (self.inner.m != self.m or self.inner.k != self.matrix.k):
            raise ValueError("inner twist lives in a different group")

    @property
    def k(self) -> int:
        return self.matrix.k

    @classmethod
    def identity(cls, m: int, k: int) -> "WreathAutomorphism":
        return cls(IntMatrix.identity(k), m, 1, zero_vector(k))

    @property
    def is_standard(self) -> bool:
        return self.inner is None

    def standard(self) -> "WreathAutomorphism":
        return WreathAutomorphism(self.matrix, self.m, self.u, self.x0)

    @property
    def effective_x0(self) -> Vector:
        if self.inner is None:
            return self.x0
        return vec_add(self.x0, self.inner.t)

    def twist(self, gamma: WreathElement) -> "WreathAutomorphism":
        """Compose an extra inner twist on the left: tau_gamma o self."""
        inner = gamma if self.inner is None else gamma * self.inner
        return WreathAutomorphism(self.matrix, self.m, self.u, self.x0, inner)

    def apply_base(self, f: FiniteSupportFunction) -> FiniteSupportFunction:
        """Image of a base element; inner twists contribute their translation."""
        if f.m != self.m:
            raise ValueError("modulus mismatch")
        off = self.effective_x0
        return FiniteSupportFunction(
            self.m,
            [(vec_add(self.matrix.apply(p), off), v * self.u) for p, v in f.items()],
        )

    def apply(self, g: WreathElement) -> WreathElement:
        if g.m != self.m or g.k != self.k:
            raise ValueError("element from a different group")
        std = WreathElement(
            FiniteSupportFunction(
                self.m,
                [(vec_add(self.matrix.apply(p), self.x0), v * self.u) for p, v in g.f.items()],
            ),
            self.matrix.apply(g.t),
        )
        if self.inner is None:
            return std
        return self.inner * std * self.inner.inverse()

    def inverse(self) -> "WreathAutomorphism":
        a_inv = self.matrix.inverse()
        u_inv = pow(self.u, -1, self.m)
        x0_inv = vec_neg(a_inv.apply(self.x0))
        std_inv = WreathAutomorphism(a_inv, self.m, u_inv, x0_inv)
        if self.inner is None:
            return std_inv
        return std_inv.twist(std_inv.apply(self.inner.inverse()))


def twisted_transform(phi: WreathAutomorphism, g: WreathElement, h: WreathElement) -> WreathElement:
    """One twisted-conjugation step: h * g * phi(h)^-1."""
    return h * g * phi.apply(h).inverse()


# ---------------------------------------------------------------------------
# text grammar and JSON form
#
#   f=[(x1,...,xk):v; ...] t=(t1,...,tk)     with 1 <= v < m, distinct positions,
#                                             support sorted

_ELEMENT_RE = re.compile(r"^f=\[(?P<sup>[^\]]*)\]\s+t=\((?P<t>[^)]*)\)$")
_ENTRY_RE = re.compile(r"^\((?P<pos>[^)]*)\):(?P<val>\d+)$")


def _format_tuple(v: Vector) -> str:
    return f"({','.join(str(c) for c in v)})"


def format_element(g: WreathElement) -> str:
    body = "; ".join(f"{_format_tuple(pos)}:{val}" for pos, val in g.f.items())
    return f"f=[{body}] t={_format_tuple(g.t)}"


def _add_entry(entries: dict, pos: Vector, val: int, m: int, k: int) -> None:
    if not 1 <= val < m:
        raise ValueError(f"support value {val} out of range 1..{m - 1}")
    if len(pos) != k:
        raise ValueError("support dimension differs from translation dimension")
    if pos in entries:
        raise ValueError(f"support position {_format_tuple(pos)} appears twice")
    entries[pos] = val


def _parse_int_tuple(text: str) -> Vector:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty coordinate tuple")
    return tuple(int(p) for p in parts)


def parse_element(text: str, m: int) -> WreathElement:
    """Parse the element grammar; inverse of format_element."""
    match = _ELEMENT_RE.match(text.strip())
    if not match:
        raise ValueError(f"malformed element: {text!r}")
    t = _parse_int_tuple(match.group("t"))
    entries: dict = {}
    sup = match.group("sup").strip()
    if sup:
        for chunk in sup.split(";"):
            entry = _ENTRY_RE.match(chunk.strip())
            if not entry:
                raise ValueError(f"malformed support entry: {chunk!r}")
            pos = _parse_int_tuple(entry.group("pos"))
            _add_entry(entries, pos, int(entry.group("val")), m, len(t))
    return WreathElement(FiniteSupportFunction(m, entries), t)


def element_to_json(g: WreathElement) -> dict:
    return {
        "support": [{"pos": list(pos), "val": val} for pos, val in g.f.items()],
        "translation": list(g.t),
    }


def element_from_json(obj: dict, m: int) -> WreathElement:
    t = as_vector(obj["translation"])
    entries: dict = {}
    for item in obj.get("support", []):
        _add_entry(entries, as_vector(item["pos"]), int(item["val"]), m, len(t))
    return WreathElement(FiniteSupportFunction(m, entries), t)
