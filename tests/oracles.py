"""Independent reference implementations the test suite checks against.

Everything here deliberately avoids the package's evaluator machinery:
plain frozensets, explicit iteration, direct graph walks.
"""

from __future__ import annotations

from hflcheck.denote import leq
from hflcheck.syntax import Dia, Mu, Neg, Or, Prop, Var


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
