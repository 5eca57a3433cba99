"""Semantic values and canonically enumerated lattices.

A denotation is held as its canonical index `mask`.  A ground state set
is its bitmask over n states.  A table of type a -> r, whose result
lattice has 2^w elements (w = `bits(r, n)`), lays its entries' indices
side by side as w-bit fields, entry j at bits j*w ... (j+1)*w - 1: the
base-|r| numeral with the highest argument's digit most significant.  So
every lattice is the powerset of its bits: the pointwise order is bitwise
inclusion, complement flips every bit and join is bitwise or.
`number_repr`/`index_of` convert between numbers and elements of the
chain types used by the counter encodings.  Every lattice size comes
from `bits`, read off the type with no big integer and no cache; widths,
`cardinality` and `height` derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import BoundBudgetError, EnumLimitError, InternalError
from .types import BIT_BUDGET, Arrow, HflType, PrType, chain_type, format_type, uncurry

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
    mask: int
    width: int = field(compare=False, repr=False)  # bits(ty.result, n)

    @property
    def table(self) -> tuple:
        """The entries, for argument index 0 upward."""
        w = self.width
        end = w << bits(self.ty.arg, self.n)
        digits = format(self.mask, f"0{end}b")  # entry 0 last
        return _values(self.ty.result, self.n,
                       [int(digits[k - w:k], 2) for k in range(end, 0, -w)])


def full(n: int) -> Ground:
    return Ground(n, (1 << n) - 1)


def bits(ty: HflType, n: int) -> int:
    """log2 of the size of `ty`'s lattice: n at Pr, bits(r) << bits(a) at
    a -> r.  Refused (BoundBudgetError) where |a| * (bits(r) + 1) passes
    BIT_BUDGET, argument first, with |a| = 2^bits(a) never built."""
    if isinstance(ty, PrType):
        return n
    a = bits(ty.arg, n)
    r = bits(ty.result, n)
    if a >= BIT_BUDGET.bit_length() or (r + 1) << a > BIT_BUDGET:
        raise BoundBudgetError(f"|{format_type(ty)}| over {n} states")
    return r << a


def cardinality(ty: HflType, n: int) -> int:
    return 1 << bits(ty, n)


def height(ty: HflType, n: int) -> int:
    """The height of `ty`'s lattice: 1 + n * prod |a_i| over its argument
    types a_i, to which alone the budget applies."""
    return 1 + (n << sum([bits(a, n) for a in uncurry(ty)]))


def bottom(ty: HflType, n: int) -> Denotation:
    return element_at(ty, n, 0)


def leq(d1: Denotation, d2: Denotation) -> bool:
    """Pointwise order; both arguments must inhabit the same lattice."""
    if type(d1) is not type(d2):
        raise InternalError("comparing denotations of different shapes")
    if d1.n != d2.n:
        raise InternalError("comparing denotations over different systems")
    if type(d1) is Func and d1.ty != d2.ty:
        raise InternalError("comparing denotations of different types")
    return d1.mask & ~d2.mask == 0


def complement(d: Denotation) -> Denotation:
    ty = d.ty if type(d) is Func else PrType()
    return replace(d, mask=d.mask ^ cardinality(ty, d.n) - 1)


def element_at(ty: HflType, n: int, i: int) -> Denotation:
    """The i-th element of the lattice in canonical order."""
    if not 0 <= i < cardinality(ty, n):
        raise IndexError(f"index {i} out of range for {ty} over {n} states")
    return _values(ty, n, (i,))[0]


def index_of(d: Denotation) -> int:
    """Inverse of element_at: the canonical index of a denotation."""
    return d.mask


def entry_index(mask: int, i: int, width: int) -> int:
    """The index of entry i of the table with index `mask`, whose entries
    are `width` bits each."""
    return mask >> i * width & (1 << width) - 1


def pack(masks: list, width: int) -> int:
    """The table index whose entries, `width` bits each, are `masks`;
    their count is a power of two.  Adjacent fields are merged pairwise,
    doubling the field width each round, so each round is linear."""
    while len(masks) > 1:
        it = iter(masks)
        masks = [m | next(it) << width for m in it]
        width += width
    return masks[0]


def _values(ty: HflType, n: int, masks) -> tuple:
    """The elements of the lattice of `ty` with indices `masks`."""
    if isinstance(ty, PrType):
        return tuple([Ground(n, m) for m in masks])
    w = bits(ty.result, n)
    return tuple([Func(ty, n, m, w) for m in masks])


def enumerate_lattice(ty: HflType, n: int,
                      limit: int = DEFAULT_ENUM_LIMIT) -> tuple:
    """Every element of the full lattice of `ty`, in canonical order."""
    return _values(ty, n, range(lattice_size(ty, n, limit)))


def lattice_size(ty: HflType, n: int, limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """The cardinality of `ty`'s lattice, refused (EnumLimitError) past
    `limit` elements (every lattice, below a limit of 1)."""
    size = cardinality(ty, n)
    if size > limit:
        raise EnumLimitError(size, limit)
    return size


def number_repr(i: int, k: int, p: int) -> Denotation:
    """The canonical element of the k-th chain type encoding the number i."""
    return element_at(chain_type(k), p, i)
