"""Generator library: counters over huge ranges, tape machinery, machines.

Numbers in 0..F_k(p)-1 live at the k-th chain type over the p-state
counter system; the formulas here do modular arithmetic and comparisons on
them, drive a space-bounded alternating Turing machine over tapes encoded
one type level up, and rebuild an input word from state labels.  Binders
carry variance 0 throughout: bodies use them under both polarities and
the counting arguments need the full function space.

`atm_accepts` is the independent acceptance oracle: a direct recursion
over machine configurations with the convention that revisiting a
configuration along the current path rejects.

`bit_formula`, `counter_formula` and `chi_formula` cache their formulas for
the life of the process (`lru_cache(maxsize=None)`), safely: the keys are
small ints and strings, formulas are frozen dataclasses, and fresh names
depend only on the formula, so an entry does not depend on when it is
made.  The tables grow only with the arguments a process asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AtmFormatError, SpaceBoundError
from .syntax import (
    App,
    Dia,
    Formula,
    Lam,
    Mu,
    MuVec,
    Neg,
    Or,
    Prop,
    Var,
    and_,
    and_all,
    apply_all,
    box,
    box_all,
    dia_all,
    ff,
    iff,
    implies,
    or_all,
    tt,
)
from .types import PR, Arrow, Variance, chain_type

ZERO = Variance.ZERO
PLUS = Variance.PLUS

LOWER = "lower"
TEST = "test"
WORD_PROP = "q"


def _lam(v, ty, body):
    return Lam(v, ZERO, ty, body)


def _pred_type(k):
    """Type of predicates over level-k numbers; also the level-(k+1) chain."""
    return Arrow(chain_type(k), ZERO, PR)


# ---------------------------------------------------------------------------
# Level-0 counter formulas and bit addressing


@lru_cache(maxsize=None)
def bit_formula(i: int, p: int) -> Formula:
    """Holds exactly at state i of the counter system (empty for i >= p).

    Indices at or above p are allowed: the word-rebuilding loop uses the
    out-of-range predicate as its termination sentinel.
    """
    if i < 0:
        raise ValueError("bit index must be nonnegative")
    if i == 0:
        return box(LOWER, ff())
    return and_(
        Dia(LOWER, bit_formula(i - 1, p)),
        box(LOWER, or_all([bit_formula(j, p) for j in range(i)])),
    )


@lru_cache(maxsize=None)
def counter_formula(name: str, k: int, p: int) -> Formula:
    """One of the arithmetic/comparison/quantifier formulas at level k."""
    if k < 0 or p < 1:
        raise ValueError("need k >= 0 and p >= 1")
    if name == "min":
        return ff() if k == 0 else _lam("X", chain_type(k - 1), ff())
    if name == "max":
        return tt() if k == 0 else _lam("X", chain_type(k - 1), tt())
    if name == "exists":
        return _exists(k, p)
    if name == "forall":
        return _forall(k, p)
    if k == 0:
        return _level0(name, p)
    return _levelk(name, k, p)


def _level0(name: str, p: int) -> Formula:
    x, i, j = Var("X"), Var("I"), Var("J")
    if name == "inc":
        return _lam("X", PR, iff(x, Dia(LOWER, Neg(x))))
    if name == "dec":
        return _lam("X", PR, iff(x, Dia(LOWER, x)))
    if name == "eq":
        return _lam("I", PR, _lam("J", PR, box(TEST, iff(i, j))))
    if name == "lt":
        disjuncts = []
        for b in range(p):
            higher = and_all([
                implies(bit_formula(h, p), iff(i, j)) for h in range(b + 1, p)
            ])
            witness = implies(bit_formula(b, p), and_(Neg(i), j))
            disjuncts.append(box(TEST, and_(witness, higher)))
        return _lam("I", PR, _lam("J", PR, or_all(disjuncts)))
    if name == "gt":
        return _lam(
            "I", PR,
            _lam("J", PR, apply_all(counter_formula("lt", 0, p), j, i)),
        )
    raise ValueError(f"unknown counter formula {name!r}")


def _exists(k: int, p: int) -> Formula:
    """Scans min, inc min, ... under a least fixpoint until the guest holds."""
    pred_ty = _pred_type(k)
    scan = Mu(
        "Z", pred_ty,
        _lam(
            "X", chain_type(k),
            Or(
                App(Var("P"), Var("X")),
                App(Var("Z"), App(counter_formula("inc", k, p), Var("X"))),
            ),
        ),
    )
    return _lam("P", pred_ty, App(scan, counter_formula("min", k, p)))


def _forall(k: int, p: int) -> Formula:
    pred_ty = _pred_type(k)
    return _lam(
        "P", pred_ty,
        Neg(App(counter_formula("exists", k, p), Neg(Var("P")))),
    )


def _levelk(name: str, k: int, p: int) -> Formula:
    ck = chain_type(k)
    ck1 = chain_type(k - 1)
    i, j, x, y = Var("I"), Var("J"), Var("X"), Var("Y")
    eq0 = counter_formula("eq", 0, p)
    if name == "eq":
        inner = _lam("X", ck1, apply_all(eq0, App(i, x), App(j, x)))
        body = App(counter_formula("forall", k - 1, p), inner)
        return _lam("I", ck, _lam("J", ck, body))
    if name == "lt":
        agree_above = App(
            counter_formula("forall", k - 1, p),
            _lam(
                "Y", ck1,
                implies(
                    apply_all(counter_formula("gt", k - 1, p), y, x),
                    apply_all(eq0, App(i, y), App(j, y)),
                ),
            ),
        )
        lower_digit = apply_all(counter_formula("lt", 0, p), App(i, x), App(j, x))
        witness = _lam("X", ck1, and_(lower_digit, agree_above))
        return _lam(
            "I", ck,
            _lam("J", ck, App(counter_formula("exists", k - 1, p), witness)),
        )
    if name == "gt":
        return _lam(
            "I", ck,
            _lam("J", ck, apply_all(counter_formula("lt", k, p), j, i)),
        )
    if name in ("inc", "dec"):
        edge = counter_formula("max" if name == "inc" else "min", 0, p)
        blocked = App(
            counter_formula("exists", k - 1, p),
            _lam(
                "Y", ck1,
                and_(
                    apply_all(counter_formula("lt", k - 1, p), y, x),
                    Neg(apply_all(eq0, App(i, y), edge)),
                ),
            ),
        )
        step = App(counter_formula(name, 0, p), App(i, x))
        return _lam(
            "I", ck,
            _lam("X", ck1, macro_if(blocked, App(i, x), step)),
        )
    raise ValueError(f"unknown counter formula {name!r}")


# ---------------------------------------------------------------------------
# Small-number addressing and case macros


@lru_cache(maxsize=None)
def chi_formula(i: int, k: int, p: int) -> Formula:
    """A closed formula denoting the level-k representation of i.

    Level 0 is the union of the set bits; higher levels embed i as the
    lowest digit, so i must stay below 2^p.
    """
    if not 0 <= i < 2**p:
        raise ValueError(f"chi index {i} out of range for p={p}")
    if k == 0:
        return or_all([bit_formula(j, p) for j in range(p) if i >> j & 1])
    return macro_case(
        k - 1, p,
        ((counter_formula("min", k - 1, p), chi_formula(i, 0, p)),),
        counter_formula("min", 0, p),
    )


def macro_if(guard: Formula, then: Formula, other: Formula) -> Formula:
    """(guard and then) or (not guard and other); exact when guard is 2-valued."""
    return Or(and_(guard, then), and_(Neg(guard), other))


def macro_case(k: int, p: int, pairs, default: Formula) -> Formula:
    """Case distinction over level-k numbers.

    `pairs` holds (guard value, body) formulas.  The result chains
    if-then-else over equality guards and meets the contract "body of the
    matching guard, else default" whenever guards denote pairwise distinct
    representations.
    """
    eqk = counter_formula("eq", k, p)
    arg = Var("I")
    body = default
    for guard, branch in reversed(tuple(pairs)):
        body = macro_if(apply_all(eqk, arg, guard), branch, body)
    return _lam("I", chain_type(k), body)


# ---------------------------------------------------------------------------
# Tape machinery


@dataclass(frozen=True)
class TapeFormulas:
    head0: Formula
    tape0: Formula
    tape_empty: Formula
    read: dict  # symbol (bool) -> Formula
    write: dict  # symbol (bool) -> Formula
    move: dict  # direction (-1, 0, +1) -> Formula


def tape_formulas(k: int, p: int, word=()) -> TapeFormulas:
    """Initial configuration and cell operations for level-k tapes.

    The tape is a level-(k+1) value whose digit at position h is the cell
    symbol; the head is a level-k number.  The word must be shorter than p.
    """
    word = tuple(bool(b) for b in word)
    if len(word) >= p:
        raise ValueError("word must be shorter than the state count")
    tape_ty = chain_type(k + 1)
    head_ty = chain_type(k)
    t, h, h2 = Var("T"), Var("H"), Var("H2")
    eqk = counter_formula("eq", k, p)
    read = {
        True: _lam("T", tape_ty, _lam("H", head_ty, App(t, h))),
        False: _lam("T", tape_ty, _lam("H", head_ty, Neg(App(t, h)))),
    }
    write = {
        sym: _lam(
            "T", tape_ty,
            _lam(
                "H", head_ty,
                _lam(
                    "H2", head_ty,
                    macro_if(
                        apply_all(eqk, h, h2),
                        tt() if sym else ff(),
                        App(t, h2),
                    ),
                ),
            ),
        )
        for sym in (True, False)
    }
    move = {
        -1: counter_formula("dec", k, p),
        0: _lam("H", head_ty, h),
        1: counter_formula("inc", k, p),
    }
    tape0 = macro_case(
        k, p,
        tuple(
            (chi_formula(i, k, p), tt() if sym else ff())
            for i, sym in enumerate(word)
        ),
        ff(),
    )
    return TapeFormulas(
        head0=counter_formula("min", k, p),
        tape0=tape0,
        tape_empty=_lam("X", head_ty, ff()),
        read=read,
        write=write,
        move=move,
    )


def build_formula(k: int, p: int) -> Formula:
    """Rebuilds the level-k input tape from the `q` labels of the model.

    Walks the counter states in bit order, writing one cell per state and
    advancing the head, until the position predicate falls off the end of
    the system.  The function-typed branches of the stop test are
    eta-expanded with one extra argument so every conditional stays at
    ground type.
    """
    tp = tape_formulas(k, p)
    tape_ty = chain_type(k + 1)
    head_ty = chain_type(k)
    build_ty = Arrow(
        tape_ty, ZERO,
        Arrow(head_ty, ZERO, Arrow(PR, ZERO, Arrow(PR, ZERO, tape_ty))),
    )
    b, t, h, c, y, v = (Var(x) for x in ("B", "T", "H", "C", "Y", "V"))
    next_c = and_(Dia(LOWER, c), box(LOWER, Or(c, y)))
    next_y = Or(c, y)
    inc_k = counter_formula("inc", k, p)

    def recurse(sym):
        return apply_all(
            b,
            apply_all(tp.write[sym], t, h),
            App(inc_k, h),
            next_c,
            next_y,
            v,
        )

    stop = box(TEST, iff(c, bit_formula(p, p)))
    labeled = box(TEST, implies(c, Prop(WORD_PROP)))
    body = _lam(
        "T", tape_ty,
        _lam(
            "H", head_ty,
            _lam(
                "C", PR,
                _lam(
                    "Y", PR,
                    _lam(
                        "V", head_ty,
                        macro_if(
                            stop,
                            App(t, v),
                            macro_if(labeled, recurse(True), recurse(False)),
                        ),
                    ),
                ),
            ),
        ),
    )
    return Mu("B", build_ty, body)


def tape_built_formula(k: int, p: int) -> Formula:
    tp = tape_formulas(k, p)
    return apply_all(
        build_formula(k, p),
        tp.tape_empty,
        counter_formula("min", k, p),
        bit_formula(0, p),
        ff(),
    )


# ---------------------------------------------------------------------------
# Alternating Turing machines


@dataclass
class Atm:
    """Space-bounded alternating machine over the two-symbol tape alphabet.

    Symbols are booleans (True prints as tt), blank is False.  `delta`
    maps (state, symbol) to a tuple of (state, symbol, move) with move in
    {-1, 0, +1}.  Halting states have no outgoing transitions.  The start
    state may be halting, in which case every word is decided immediately.
    """

    states: tuple
    exists: frozenset
    forall: frozenset
    accept: str
    reject: str
    start: str
    delta: dict

    def __post_init__(self):
        names = set(self.states)
        if len(names) != len(self.states):
            raise AtmFormatError("duplicate state names")
        for s in (self.accept, self.reject, self.start):
            if s not in names:
                raise AtmFormatError(f"unknown state {s!r}")
        halting = {self.accept, self.reject}
        branching = names - halting
        if (self.exists | self.forall) != branching or self.exists & self.forall:
            raise AtmFormatError(
                "exists/forall must partition the non-halting states"
            )
        for (q, sym), outs in self.delta.items():
            if q in halting:
                raise AtmFormatError("halting states cannot move")
            if q not in names or not isinstance(sym, bool):
                raise AtmFormatError(f"bad transition source ({q}, {sym})")
            for q2, sym2, move in outs:
                if q2 not in names or not isinstance(sym2, bool):
                    raise AtmFormatError(f"bad transition target {q2!r}")
                if move not in (-1, 0, 1):
                    raise AtmFormatError(f"bad move {move!r}")


def atm_accepts(atm: Atm, word, space_bound: int) -> bool:
    """Direct acceptance recursion; the word must fit the tape.

    A configuration met again along the current path rejects.  Results are
    memoized only when sound: accepting verdicts always, rejecting ones
    only when no path cut was involved.
    """
    word = tuple(bool(b) for b in word)
    if len(word) > space_bound:
        raise ValueError("word longer than the space bound")
    tape0 = word + (False,) * (space_bound - len(word))
    memo: dict = {}

    def go(cfg, path):
        if cfg in memo:
            return memo[cfg], False
        if cfg in path:
            return False, True
        q, h, tape = cfg
        if q == atm.accept:
            memo[cfg] = True
            return True, False
        if q == atm.reject:
            memo[cfg] = False
            return False, False
        path = path | {cfg}
        outs = atm.delta.get((q, tape[h]), ())
        universal = q in atm.forall
        value = universal
        dirty = False
        for q2, sym2, move in outs:
            h2 = h + move
            if not 0 <= h2 < space_bound:
                raise SpaceBoundError(
                    f"head moved to {h2} outside [0, {space_bound})"
                )
            tape2 = tape[:h] + (sym2,) + tape[h + 1:]
            sub, sub_dirty = go((q2, h2, tape2), path)
            dirty = dirty or sub_dirty
            if universal and not sub:
                value = False
                break
            if not universal and sub:
                value = True
                break
        if value or not dirty:
            memo[cfg] = value
            dirty = False
        return value, dirty

    value, _ = go((atm.start, 0, tape0), frozenset())
    return value


def _state_var(atm: Atm, q: str) -> str:
    return f"S{atm.states.index(q)}"


def machine_formula(atm: Atm, k: int, p: int, word=None) -> Formula:
    """The closed ground formula deciding acceptance over the counter system.

    One fixpoint component per machine state maps an encoded tape and head
    to whether the machine accepts from there; existential states take the
    union over transitions, universal ones the meet, guarded by the symbol
    read.  With a word the initial tape is spelled out; without one it is
    rebuilt from the model's labels, for the labeled system variant.
    """
    tp = tape_formulas(k, p, word or ())
    tape_ty = chain_type(k + 1)
    head_ty = chain_type(k)
    comp_ty = Arrow(tape_ty, ZERO, Arrow(head_ty, ZERO, PR))
    t, h = Var("T"), Var("H")

    bindings = []
    for q in atm.states:
        if q == atm.accept:
            inner = tt()
        elif q == atm.reject:
            inner = ff()
        else:
            cases = []
            for sym in (True, False):
                moves = [
                    apply_all(
                        Var(_state_var(atm, q2)),
                        apply_all(tp.write[sym2], t, h),
                        App(tp.move[move], h),
                    )
                    for q2, sym2, move in atm.delta.get((q, sym), ())
                ]
                combine = or_all if q in atm.exists else and_all
                cases.append(
                    and_(apply_all(tp.read[sym], t, h), combine(moves))
                )
            inner = or_all(cases)
        bindings.append(
            (_state_var(atm, q), comp_ty,
             _lam("T", tape_ty, _lam("H", head_ty, inner)))
        )
    system = MuVec(atm.states.index(atm.start) + 1, tuple(bindings))
    tape = tp.tape0 if word is not None else tape_built_formula(k, p)
    return apply_all(system, tape, tp.head0)


# ---------------------------------------------------------------------------
# Machine text format

_MOVE_NAMES = {"L": -1, "N": 0, "R": 1}
_MOVE_CHARS = {-1: "L", 0: "N", 1: "R"}


def parse_atm(text: str) -> Atm:
    header = None
    delta: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states"):
            if header is not None:
                raise AtmFormatError(f"line {lineno}: duplicate header")
            header = line
            continue
        if not line.startswith("delta"):
            raise AtmFormatError(f"line {lineno}: expected delta line")
        parts = line.split()
        if len(parts) != 7 or parts[3] != "->":
            raise AtmFormatError(f"line {lineno}: malformed delta line")
        _, q, sym, _, q2, sym2, move = parts
        if sym not in ("tt", "ff") or sym2 not in ("tt", "ff"):
            raise AtmFormatError(f"line {lineno}: symbols are tt or ff")
        if move not in _MOVE_NAMES:
            raise AtmFormatError(f"line {lineno}: move is L, N or R")
        delta.setdefault((q, sym == "tt"), []).append(
            (q2, sym2 == "tt", _MOVE_NAMES[move])
        )
    if header is None:
        raise AtmFormatError("missing states header")
    sections: dict = {}
    for chunk in header.split(";"):
        words = chunk.split()
        if not words:
            continue
        sections[words[0]] = words[1:]
    for need in ("states", "accept", "reject", "start"):
        if need not in sections:
            raise AtmFormatError(f"missing {need!r} section")
    for single in ("accept", "reject", "start"):
        if len(sections[single]) != 1:
            raise AtmFormatError(f"{single!r} wants exactly one state")
    return Atm(
        states=tuple(sections["states"]),
        exists=frozenset(sections.get("exists", ())),
        forall=frozenset(sections.get("forall", ())),
        accept=sections["accept"][0],
        reject=sections["reject"][0],
        start=sections["start"][0],
        delta={k: tuple(v) for k, v in delta.items()},
    )


def format_atm(atm: Atm) -> str:
    header = (
        f"states {' '.join(atm.states)} ; "
        f"exists {' '.join(sorted(atm.exists))} ; "
        f"forall {' '.join(sorted(atm.forall))} ; "
        f"accept {atm.accept} ; reject {atm.reject} ; start {atm.start}"
    )
    lines = [header]
    for (q, sym), outs in sorted(
        atm.delta.items(), key=lambda kv: (kv[0][0], not kv[0][1])
    ):
        for q2, sym2, move in outs:
            lines.append(
                f"delta {q} {'tt' if sym else 'ff'} -> "
                f"{q2} {'tt' if sym2 else 'ff'} {_MOVE_CHARS[move]}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Showcase formulas


def buffer_formula() -> Formula:
    """Some path spells a buffer-underflow word: one more out than in,
    with no out-heavy point before the end (the grammar X -> out | in X X)."""
    x, z = Var("X"), Var("Z")
    walk = Mu(
        "X", Arrow(PR, PLUS, PR),
        Lam(
            "Z", PLUS, PR,
            Or(Dia("out", z), Dia("in", App(x, App(x, z)))),
        ),
    )
    return App(walk, tt())


def bisim_word_formula(actions) -> Formula:
    """The model is bisimilar to a single word over the given actions."""
    actions = tuple(actions)
    f, x, y = Var("F"), Var("X"), Var("Y")
    pair_ty = Arrow(PR, PLUS, Arrow(PR, PLUS, PR))
    chase = Mu(
        "F", pair_ty,
        Lam(
            "X", PLUS, PR,
            Lam(
                "Y", PLUS, PR,
                Or(
                    and_(x, y),
                    apply_all(f, dia_all(actions, x), dia_all(actions, y)),
                ),
            ),
        ),
    )
    clashes = [
        apply_all(chase, Dia(a, tt()), Dia(b, tt()))
        for a in actions
        for b in actions
        if a != b
    ]
    return Neg(or_all(clashes))


def phi_m_formula(m: int, actions=("a",)) -> Formula:
    """A maximal path of tower(1,m) steps exists (iterated squaring)."""
    if m < 1:
        raise ValueError("need m >= 1")
    actions = tuple(actions)

    def pchain(i):
        ty = PR
        for _ in range(i):
            ty = Arrow(ty, PLUS, ty)
        return ty

    def psi(i):
        fv, xv = Var("F"), Var("X")
        return Lam(
            "F", PLUS, pchain(i),
            Lam("X", PLUS, pchain(i - 1), App(fv, App(fv, xv))),
        )

    step = Lam("X", PLUS, PR, dia_all(actions, Var("X")))
    dead_end = box_all(actions, ff())
    return apply_all(*[psi(i) for i in range(m, 0, -1)], step, dead_end)


def showcase_formula(name: str, **params) -> Formula:
    if name == "buffer":
        return buffer_formula(**params)
    if name == "bisim_word":
        return bisim_word_formula(**params)
    if name == "phi_m":
        return phi_m_formula(**params)
    raise ValueError(f"unknown showcase {name!r}")
