"""Semantic values and canonically enumerated lattices.

A denotation is a ground state set (bitmask over n states) or a finite
table mapping every canonical element of the argument lattice to a result
denotation.  The canonical order makes each lattice element the digits of
a number: ground sets are ordered by their bitmask, and a table is read as
a base-|result| numeral whose most significant digit sits at the
highest-indexed argument.  `number_repr`/`index_of` convert between
numbers and elements of the chain types used by the counter encodings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumLimitError, InternalError
from .types import Arrow, HflType, PrType, chain_type, full_space_cardinality

DEFAULT_ENUM_LIMIT = 10**6


@dataclass(frozen=True, slots=True)
class Denotation:
    pass


@dataclass(frozen=True, slots=True)
class Ground(Denotation):
    n: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n):
            raise InternalError(f"mask {self.mask} out of range for {self.n} states")

    def states(self):
        return [j for j in range(self.n) if self.mask >> j & 1]


@dataclass(frozen=True, slots=True)
class Func(Denotation):
    ty: Arrow
    n: int
    table: tuple  # one entry per canonical argument index


def ground(n: int, states) -> Ground:
    mask = 0
    for s in states:
        mask |= 1 << s
    return Ground(n, mask)


def full(n: int) -> Ground:
    return Ground(n, (1 << n) - 1)


def empty(n: int) -> Ground:
    return Ground(n, 0)


def cardinality(ty: HflType, n: int) -> int:
    return full_space_cardinality(ty, n)


def bottom(ty: HflType, n: int) -> Denotation:
    if isinstance(ty, PrType):
        return Ground(n, 0)
    dom = cardinality(ty.arg, n)
    entry = bottom(ty.result, n)
    return Func(ty, n, (entry,) * dom)


def top(ty: HflType, n: int) -> Denotation:
    if isinstance(ty, PrType):
        return full(n)
    dom = cardinality(ty.arg, n)
    entry = top(ty.result, n)
    return Func(ty, n, (entry,) * dom)


def leq(d1: Denotation, d2: Denotation) -> bool:
    """Pointwise order; both arguments must inhabit the same lattice."""
    if isinstance(d1, Ground) and isinstance(d2, Ground):
        if d1.n != d2.n:
            raise InternalError("comparing denotations over different systems")
        return d1.mask & ~d2.mask == 0
    if isinstance(d1, Func) and isinstance(d2, Func):
        if d1.ty != d2.ty or d1.n != d2.n:
            raise InternalError("comparing denotations of different types")
        return all(leq(a, b) for a, b in zip(d1.table, d2.table))
    raise InternalError("comparing denotations of different shapes")


def complement(d: Denotation) -> Denotation:
    if isinstance(d, Ground):
        return Ground(d.n, d.mask ^ ((1 << d.n) - 1))
    return Func(d.ty, d.n, tuple(complement(e) for e in d.table))


def join(d1: Denotation, d2: Denotation) -> Denotation:
    if isinstance(d1, Ground):
        return Ground(d1.n, d1.mask | d2.mask)
    return Func(d1.ty, d1.n, tuple(join(a, b) for a, b in zip(d1.table, d2.table)))


def element_at(ty: HflType, n: int, i: int) -> Denotation:
    """The i-th element of the lattice in canonical order."""
    if isinstance(ty, PrType):
        if not 0 <= i < (1 << n):
            raise IndexError(f"index {i} out of range for Pr over {n} states")
        return Ground(n, i)
    dom = cardinality(ty.arg, n)
    cod = cardinality(ty.result, n)
    if not 0 <= i < cod**dom:
        raise IndexError(f"index {i} out of range for {ty}")
    digits = []
    for _ in range(dom):
        i, d = divmod(i, cod)
        digits.append(d)
    return Func(ty, n, tuple(element_at(ty.result, n, d) for d in digits))


def index_of(d: Denotation) -> int:
    """Inverse of element_at: the canonical index of a denotation."""
    if isinstance(d, Ground):
        return d.mask
    cod = cardinality(d.ty.result, d.n)
    i = 0
    for entry in reversed(d.table):
        i = i * cod + index_of(entry)
    return i


def enumerate_lattice(ty: HflType, n: int,
                      limit: int = DEFAULT_ENUM_LIMIT) -> tuple:
    """Every element of the full lattice of `ty`, in canonical order."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    size = cardinality(ty, n)
    if size > limit:
        raise EnumLimitError(size, limit)
    return tuple(element_at(ty, n, i) for i in range(size))


def number_repr(i: int, k: int, p: int) -> Denotation:
    """The canonical element of the k-th chain type encoding the number i."""
    return element_at(chain_type(k), p, i)
