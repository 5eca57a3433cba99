"""Finite labeled transition systems: model, text format, generators."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LtsFormatError


@dataclass(frozen=True)
class Lts:
    """States are 0..n-1; edges is a per-action set of (src, dst) pairs."""

    n: int
    edges: dict  # action -> frozenset[(int, int)]
    labels: tuple  # state -> frozenset[str]
    _succ: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise LtsFormatError("a transition system needs at least one state")
        if len(self.labels) != self.n:
            raise LtsFormatError("labeling must cover every state")
        for a, es in self.edges.items():
            for s, t in es:
                if not (0 <= s < self.n and 0 <= t < self.n):
                    raise LtsFormatError(f"edge {s} -{a}-> {t} out of range")
        succ: dict = {}
        for a, es in self.edges.items():
            for s, t in es:
                succ.setdefault((s, a), []).append(t)
        object.__setattr__(
            self, "_succ", {k: tuple(sorted(ts)) for k, ts in succ.items()}
        )

    @property
    def actions(self):
        return tuple(sorted(self.edges))

    def successors(self, state: int, action: str) -> tuple:
        """Sorted `action`-successors of `state`, from a table built once."""
        return self._succ.get((state, action), ())

    def has_prop(self, state: int, prop: str) -> bool:
        return prop in self.labels[state]


def make_lts(n, trans=(), labels=()):
    """trans: iterable of (src, action, dst); labels: iterable of (state, prop)."""
    edges: dict = {}
    for s, a, t in trans:
        edges.setdefault(a, set()).add((s, t))
    lab = [set() for _ in range(n)]
    for s, p in labels:
        if not 0 <= s < n:
            raise LtsFormatError(f"label state {s} out of range")
        lab[s].add(p)
    return Lts(
        n,
        {a: frozenset(es) for a, es in edges.items()},
        tuple(frozenset(x) for x in lab),
    )


# ---------------------------------------------------------------------------
# Text format


def load(text: str) -> Lts:
    n = None
    trans = []
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        try:
            if head == "states":
                if n is not None:
                    raise LtsFormatError(f"line {lineno}: duplicate states header")
                if len(parts) != 2:
                    raise LtsFormatError(f"line {lineno}: states wants one number")
                n = int(parts[1])
            elif head == "label":
                if len(parts) < 2:
                    raise LtsFormatError(f"line {lineno}: label wants a state")
                s = int(parts[1])
                for p in parts[2:]:
                    labels.append((s, p))
            elif head == "trans":
                if len(parts) != 4:
                    raise LtsFormatError(
                        f"line {lineno}: trans wants src action dst"
                    )
                trans.append((int(parts[1]), parts[2], int(parts[3])))
            else:
                raise LtsFormatError(f"line {lineno}: unknown section {head!r}")
        except ValueError as e:
            raise LtsFormatError(f"line {lineno}: {e}") from e
    if n is None:
        raise LtsFormatError("missing states header")
    try:
        return make_lts(n, trans, labels)
    except LtsFormatError as e:
        raise LtsFormatError(str(e)) from e


def save(lts: Lts) -> str:
    out = [f"states {lts.n}"]
    for s in range(lts.n):
        if lts.labels[s]:
            out.append(f"label {s} " + " ".join(sorted(lts.labels[s])))
    for a in lts.actions:
        for s, t in sorted(lts.edges[a]):
            out.append(f"trans {s} {a} {t}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Generators


def gen_counter_lts(p: int) -> Lts:
    """p states; `lower` edges i->j for j<i, `test` edges everywhere."""
    if p < 1:
        raise ValueError("need p >= 1")
    trans = [(i, "lower", j) for i in range(p) for j in range(i)]
    trans += [(i, "test", j) for i in range(p) for j in range(p)]
    return make_lts(p, trans)


def gen_counter_lts_labeled(p: int, word) -> Lts:
    """Same graph as gen_counter_lts; state i labeled q iff word[i] is true.

    The word is carried by labels so formulas independent of it can rebuild
    the tape.  It must fit the states; the rebuild formula additionally
    assumes it is strictly shorter than p.
    """
    word = list(word)
    if len(word) > p:
        raise ValueError("word longer than the state count")
    base = gen_counter_lts(p)
    labels = [(i, "q") for i, bit in enumerate(word) if bit]
    return make_lts(p, [(s, a, t) for a, es in base.edges.items() for s, t in es],
                    labels)


def gen_chain(n: int, action: str = "a") -> Lts:
    if n < 1:
        raise ValueError("need n >= 1")
    return make_lts(n, [(i, action, i + 1) for i in range(n - 1)])


def gen_word_lts(actions) -> Lts:
    """Linear model whose i-th edge carries the i-th action."""
    actions = list(actions)
    return make_lts(
        len(actions) + 1, [(i, a, i + 1) for i, a in enumerate(actions)]
    )
