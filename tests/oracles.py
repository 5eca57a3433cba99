"""Independent reference implementations the test suite checks against.

Everything here deliberately avoids the package's evaluator machinery:
plain frozensets, explicit iteration, direct graph walks.
"""

from __future__ import annotations

from hflcheck.denote import Ground, leq
from hflcheck.syntax import Dia, Mu, Neg, Or, Prop, Var
from hflcheck.types import PrType, full_space_cardinality


def mu_check(lts, formula, env=None) -> frozenset:
    """Brute-force modal fixpoint logic evaluator (no lambdas, no tables).

    Fixpoints iterate from the empty set until stable.  Only the ground
    fragment is supported; anything else is a test bug.
    """
    env = env or {}
    states = frozenset(range(lts.n))
    if isinstance(formula, Prop):
        return frozenset(s for s in states if formula.name in lts.labels[s])
    if isinstance(formula, Var):
        return env[formula.name]
    if isinstance(formula, Neg):
        return states - mu_check(lts, formula.body, env)
    if isinstance(formula, Or):
        return mu_check(lts, formula.left, env) | mu_check(lts, formula.right, env)
    if isinstance(formula, Dia):
        body = mu_check(lts, formula.body, env)
        out = set()
        for s, t in lts.edges.get(formula.action, ()):
            if t in body:
                out.add(s)
        return frozenset(out)
    if isinstance(formula, Mu):
        current = frozenset()
        while True:
            env2 = dict(env)
            env2[formula.var] = current
            new = mu_check(lts, formula.body, env2)
            if new == current:
                return current
            current = new
    raise AssertionError(f"not a ground-fragment formula: {formula!r}")


def is_monotone(d, args) -> bool:
    """Whether the table `d` is monotone in the pointwise order of its
    argument lattice, whose elements `args` lists in canonical order."""
    m = len(args)
    for i in range(m):
        for j in range(m):
            if leq(args[i], args[j]) and not leq(d.table[i], d.table[j]):
                return False
    return True


# Lattice elements as nested tuple tables: a state set is its bitmask and
# a function the tuple of its entries, argument index 0 first.  The
# canonical index reads a table as a base-|result| numeral whose most
# significant digit sits at the highest argument.


def tuple_element_at(ty, n, i):
    """The i-th element of the lattice of `ty` over n states."""
    if isinstance(ty, PrType):
        if not 0 <= i < 1 << n:
            raise IndexError(i)
        return i
    dom = full_space_cardinality(ty.arg, n)
    cod = full_space_cardinality(ty.result, n)
    if not 0 <= i < cod**dom:
        raise IndexError(i)
    digits = []
    for _ in range(dom):
        i, d = divmod(i, cod)
        digits.append(d)
    return tuple(tuple_element_at(ty.result, n, d) for d in digits)


def tuple_index_of(ty, n, t) -> int:
    """Inverse of tuple_element_at."""
    if isinstance(ty, PrType):
        return t
    cod = full_space_cardinality(ty.result, n)
    i = 0
    for entry in reversed(t):
        i = i * cod + tuple_index_of(ty.result, n, entry)
    return i


def tuple_leq(t1, t2) -> bool:
    if isinstance(t1, int):
        return t1 & ~t2 == 0
    return all(map(tuple_leq, t1, t2))


def tuple_complement(t, n):
    if isinstance(t, int):
        return t ^ ((1 << n) - 1)
    return tuple(tuple_complement(e, n) for e in t)


def tuple_join(t1, t2):
    if isinstance(t1, int):
        return t1 | t2
    return tuple(map(tuple_join, t1, t2))


def as_tuple(d):
    """A denotation as a tuple table, read through `Func.table`."""
    if isinstance(d, Ground):
        return d.mask
    return tuple(as_tuple(e) for e in d.table)


def underflow_word(word) -> bool:
    """Membership in the grammar X -> out | in X X over {in, out}.

    Exactly the words with one more out than in whose proper prefixes are
    never out-heavy.
    """
    if not word:
        return False
    balance = 0
    for a in word[:-1]:
        balance += 1 if a == "in" else -1
        if balance < 0:
            return False
    return balance + (1 if word[-1] == "in" else -1) == -1


def buffer_oracle(word) -> bool:
    """Some nonempty prefix of the word is an underflow word."""
    return any(underflow_word(word[:i]) for i in range(1, len(word) + 1))


def bisim_word_oracle(lts, start: int) -> bool:
    """Single-action-per-layer characterization of word-likeness.

    Walks the sets of states reachable by paths of each exact length; the
    model counts as word-like when no layer enables two distinct actions.
    Layer sets over a finite system eventually repeat, which bounds the
    walk.
    """
    layer = frozenset([start])
    seen = set()
    while layer and layer not in seen:
        seen.add(layer)
        enabled = set()
        nxt = set()
        for a, es in lts.edges.items():
            for s, t in es:
                if s in layer:
                    enabled.add(a)
                    nxt.add(t)
        if len(enabled) > 1:
            return False
        layer = frozenset(nxt)
    return True
