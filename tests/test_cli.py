"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hflcheck import denote, encodings, games, pipeline, semantics
from hflcheck.cli import main
from hflcheck.encodings import chi_formula, counter_formula, format_atm
from hflcheck.errors import HflError
from hflcheck.lts import (
    Lts,
    gen_chain,
    gen_counter_lts,
    gen_counter_lts_labeled,
    gen_word_lts,
    load,
    save,
)
from hflcheck.surface import parse_formula, print_formula
from hflcheck.syntax import apply_all
from hflcheck.types import typecheck

import machines
import oracles
import randgen


@pytest.fixture()
def files(tmp_path):
    chain = tmp_path / "chain.lts"
    chain.write_text("states 3\nlabel 2 q\ntrans 0 a 1\ntrans 1 a 2\n")
    reach = tmp_path / "reach.hfl"
    reach.write_text("mu (X:Pr). q | <a> X\n")
    falsum = tmp_path / "ff.hfl"
    falsum.write_text("ff\n")
    machine = tmp_path / "cell0.atm"
    machine.write_text(format_atm(machines.CELL0))
    return tmp_path, chain, reach, falsum, machine


def test_check_exit_codes(files, capsys):
    _, chain, reach, falsum, _ = files
    assert main(["check", "--lts", str(chain), "--formula", str(reach),
                 "--state", "0"]) == 0
    assert "state 0 is in" in capsys.readouterr().out
    assert main(["check", "--lts", str(chain), "--formula", str(falsum),
                 "--state", "0"]) == 1
    assert main(["check", "--lts", str(chain), "--formula", str(reach),
                 "--state", "9"]) == 2


def test_check_engines_agree(files):
    _, chain, reach, _, _ = files
    # The inner \X binds the X free in mu Y's approximants above Y, so
    # elimination must not rename it afresh at every unfolding.
    capture = chain.parent / "capture.hfl"
    capture.write_text("(\\(X:Pr)^+. mu (Y:Pr). X | (\\(X:Pr)^+. Y) p) q\n")
    for phi in (reach, capture):
        for state in (0, 1, 2):
            codes = {
                engine: main(["check", "--lts", str(chain), "--formula",
                              str(phi), "--state", str(state),
                              "--engine", engine])
                for engine in ("naive", "demand", "elim-game")
            }
            assert set(codes.values()) in ({0}, {1}), (phi, state, codes)


def test_check_typechecks_once(files, monkeypatch):
    from hflcheck import games, semantics, types

    _, chain, reach, _, _ = files
    calls = []
    real = types.typecheck

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(types, "typecheck", counting)
    for engine in ("naive", "demand"):
        calls.clear()
        assert main(["check", "--lts", str(chain), "--formula", str(reach),
                     "--state", "0", "--engine", engine]) == 0
        assert len(calls) == 1

    # The elim-game pipeline typechecks before elimination once and runs
    # every later stage once; the game builder's own typing of the
    # fixpoint-free formula is a stage of its own and is not counted.
    stages = []

    def counted(name, fn):
        def run(*args, **kwargs):
            stages.append(name)
            return fn(*args, **kwargs)
        return run

    for module, name in ((types, "typecheck"),
                         (semantics, "eliminate_fixpoints"),
                         (games, "build_game"), (games, "solve")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for command in (["check", "--engine", "elim-game"], ["game"]):
        stages.clear()
        assert main(command + ["--lts", str(chain), "--formula", str(reach),
                               "--state", "0"]) == 0
        assert stages == ["typecheck", "eliminate_fixpoints", "build_game",
                          "solve"]


def test_each_command_types_each_formula_once(files, monkeypatch, capsys):
    # An elim-game check types the formula and the fixpoint-free one; the
    # report's size bound reads the game builder's typing table, as the
    # typecheck command's order and arity read the one typing it makes.
    from hflcheck import games, types

    _, chain, reach, _, _ = files
    typed = []
    real = types.typecheck

    def counting(*args, **kwargs):
        typed.append(args[0])
        return real(*args, **kwargs)

    for module in (types, games):
        monkeypatch.setattr(module, "typecheck", counting)
    query = ["--lts", str(chain), "--formula", str(reach), "--state", "0"]
    for command, count in (
            (["check", "--engine", "elim-game", "--json"] + query, 2),
            (["check", "--engine", "naive"] + query, 1),
            (["game"] + query, 2),
            (["typecheck", "--json", "--formula", str(reach)], 1)):
        typed.clear()
        assert main(command) == 0
        capsys.readouterr()
        assert len(typed) == count == len(set(map(id, typed))), command


def test_check_computes_the_game_bound_only_for_its_report(
        files, monkeypatch, capsys):
    # The bound walks the whole closure; only the JSON report prints it.
    from hflcheck import games

    _, chain, reach, _, _ = files
    calls = []
    real = games.size_bound_for

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(games, "size_bound_for", counting)
    query = ["check", "--lts", str(chain), "--formula", str(reach),
             "--state", "0", "--engine", "elim-game"]
    assert main(query) == 0
    assert "state 0 is in" in capsys.readouterr().out
    assert calls == []
    assert main(query + ["--json"]) == 0
    assert "game_size_bound" in json.loads(capsys.readouterr().out)["bounds"]
    assert len(calls) == 1


def test_check_json_deterministic(files, capsys):
    _, chain, reach, _, _ = files
    args = ["check", "--lts", str(chain), "--formula", str(reach),
            "--state", "1", "--engine", "elim-game", "--json", "--no-timing"]
    assert main(args) == 0
    one = capsys.readouterr().out
    assert main(args) == 0
    two = capsys.readouterr().out
    assert one == two
    doc = json.loads(one)
    assert doc["schema"] == "hflcheck-check-v1"
    assert doc["verdict"] is True
    assert doc["stats"]["game_nodes"] >= 1
    assert doc["bounds"]["game_within_bound"] is True
    assert "wall_seconds" not in doc["stats"]


def test_check_json_reports_game_nodes_explored(files, capsys):
    _, chain, reach, _, _ = files
    query = ["check", "--lts", str(chain), "--formula", str(reach),
             "--state", "1", "--json", "--no-timing"]
    assert main(query + ["--engine", "elim-game"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert 1 <= stats["game_nodes_explored"] <= stats["game_nodes"]
    assert main(query + ["--engine", "demand"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"][
        "game_nodes_explored"] is None


def test_reports_do_not_depend_on_process_history(tmp_path, capsys):
    # The inner \X is renamed to avoid capture; the new name comes from
    # the formula, so the same command prints the same report every time
    # it runs in one process.
    model = tmp_path / "two.lts"
    model.write_text("states 2\nlabel 0 q\ntrans 0 a 1\n")
    capture = tmp_path / "capture.hfl"
    capture.write_text("(\\(X:Pr)^+. mu (Y:Pr). X | (\\(X:Pr)^+. Y) p) q\n")
    query = ["--lts", str(model), "--formula", str(capture), "--state", "0"]
    for args in (["game", *query, "--dump", "json"],
                 ["check", *query, "--engine", "elim-game", "--json",
                  "--no-timing"]):
        outs = []
        for _ in range(2):
            assert main(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], args


def test_check_parse_error_is_exit_2(files, capsys, tmp_path):
    _, chain, _, _, _ = files
    bad = tmp_path / "bad.hfl"
    bad.write_text("q | (p\n")
    assert main(["check", "--lts", str(chain), "--formula", str(bad),
                 "--state", "0"]) == 2
    assert "error[ParseError]:" in capsys.readouterr().err


# Connectives and atoms come twice as often as binders and bad fragments.
SOUP = ("p", "q", "X", "!", "<a>", "[a]", "&", "|", "->", "<->") * 2 + (
    "(", ")", "Y", "tt", "ff", "mu (X:Pr).", "nu (Y:Pr).", "\\(X:Pr).",
    "\\(X:Pr)^0.", "fix 1 (X:Pr.", ";", "Y:Pr.", "Pr", "<", "^", "#")


def test_check_token_soup_exits_cleanly_and_alike(files, capsys):
    # Seeded malformed input: every engine answers 0, 1 or 2, all alike,
    # and an error is reported as `error[...]`, never as a traceback.
    _, chain, _, _, _ = files
    soup = chain.parent / "soup.hfl"
    rng = random.Random(10)
    for _ in range(400):
        text = " ".join(rng.choice(SOUP) for _ in range(rng.randint(1, 10)))
        soup.write_text(text + "\n")
        codes = set()
        for engine in ("naive", "demand", "elim-game"):
            code = main(["check", "--lts", str(chain), "--formula", str(soup),
                         "--state", "0", "--engine", engine])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (text, engine)
            if code == 2:
                assert err.startswith("error[") and "Traceback" not in err, (
                    text, engine, err)
            codes.add(code)
        assert len(codes) == 1, text


def test_check_too_deep_is_exit_2_without_traceback(files, tmp_path):
    # 30,000 nested modalities parse, then pass the recursion limit while
    # typing (`types.typecheck`); that is an error (2), never a failing
    # property (1).
    _, chain, _, _, _ = files
    deep = tmp_path / "deep.hfl"
    deep.write_text("<a> " * 30_000 + "true\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hflcheck.cli import main; sys.exit(main(sys.argv[1:]))",
         "check", "--lts", str(chain), "--formula", str(deep), "--state", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "error[RecursionError]:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_typecheck_reports_measures(files, capsys, tmp_path):
    inc = tmp_path / "inc.hfl"
    inc.write_text("\\(X:Pr)^0. (X -> <lower> !X) & (<lower> !X -> X)\n")
    assert main(["typecheck", "--formula", str(inc), "--states", "2"]) == 0
    out = capsys.readouterr().out
    assert "Pr^0 -> Pr" in out
    assert "order=1 arity=1" in out
    # tower(2*(1+1)^1, 2) = 2^(2^4)
    assert "bound lattice_size (n=2): 65536" in out


def test_typecheck_shows_bounds_past_str(capsys, tmp_path):
    # The lattice-size bound tower(2n, 2) has 4,933 decimal digits at n = 7.
    ident = tmp_path / "id.hfl"
    ident.write_text("\\(X:Pr)^0. X\n")
    for n, b in ((7, 1 << 14), (8, 1 << 16)):
        query = ["typecheck", "--formula", str(ident), "--states", str(n)]
        assert main(query) == 0
        out = capsys.readouterr().out
        assert f"bound lattice_size (n={n}): 2^{b}\n" in out
        assert main(query + ["--json"]) == 0
        bounds = json.loads(capsys.readouterr().out)["bounds"]
        assert bounds["lattice_size"] == f"2^{b}"
        assert bounds["height"] == str((n + 1) * 2**n)


def test_typecheck_type_error_is_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.hfl"
    bad.write_text("\\(X:Pr)^+. !X\n")
    assert main(["typecheck", "--formula", str(bad)]) == 2


_TAPE = {"head0": lambda tp: tp.head0, "tape0": lambda tp: tp.tape0,
         "tape-empty": lambda tp: tp.tape_empty,
         "read-tt": lambda tp: tp.read[True],
         "read-ff": lambda tp: tp.read[False],
         "write-tt": lambda tp: tp.write[True],
         "write-ff": lambda tp: tp.write[False],
         "move-left": lambda tp: tp.move[-1],
         "move-none": lambda tp: tp.move[0],
         "move-right": lambda tp: tp.move[1]}


def _tape_case(which):
    return ["tape", "--k", "0", "--p", "2", "--word", "t", "--which", which], (
        lambda: _TAPE[which](encodings.tape_formulas(0, 2, (True,))))


_GEN_CASES = {
    "lts-counter": (["lts-counter", "--p", "4"],
                    lambda: gen_counter_lts(4)),
    "lts-counter-labeled": (
        ["lts-counter-labeled", "--p", "2", "--word", "tf"],
        lambda: gen_counter_lts_labeled(2, (True, False))),
    "lts-chain": (["lts-chain", "--n", "3", "--action", "b"],
                  lambda: gen_chain(3, "b")),
    "lts-word": (["lts-word", "--actions", "a,b,a"],
                 lambda: gen_word_lts(["a", "b", "a"])),
    "counter": (["counter", "--name", "lt", "--k", "0", "--p", "2"],
                lambda: encodings.counter_formula("lt", 0, 2)),
    "bit": (["bit", "--i", "1", "--p", "2"],
            lambda: encodings.bit_formula(1, 2)),
    "chi": (["chi", "--i", "2", "--k", "0", "--p", "2"],
            lambda: encodings.chi_formula(2, 0, 2)),
    **{f"tape-{which}": _tape_case(which) for which in _TAPE},
    "tape-tape-built": (
        ["tape", "--k", "0", "--p", "2", "--which", "tape-built"],
        lambda: encodings.tape_built_formula(0, 2)),
    "showcase-buffer": (["showcase", "--name", "buffer"],
                        lambda: encodings.showcase_formula("buffer")),
    "showcase-bisim_word": (
        ["showcase", "--name", "bisim_word", "--actions", "a,b"],
        lambda: encodings.showcase_formula("bisim_word", actions=("a", "b"))),
}


@pytest.mark.parametrize("case", list(_GEN_CASES))
def test_gen_matches_library(capsys, case):
    # Every family `gen` writes is the library constructor's value, saved
    # or printed; a formula re-parses to it and typechecks.
    argv, make = _GEN_CASES[case]
    assert main(["gen"] + argv) == 0
    out = capsys.readouterr().out
    want = make()
    if isinstance(want, Lts):
        assert out == save(want)
        assert load(out) == want
    else:
        assert out == print_formula(want) + "\n"
        assert parse_formula(out) == want
        typecheck(parse_formula(out))


def test_gen_showcase_and_repr(capsys):
    assert main(["gen", "showcase", "--name", "phi_m", "--m", "1",
                 "--actions", "a"]) == 0
    capsys.readouterr()
    assert main(["gen", "repr", "--i", "5", "--k", "0", "--p", "3"]) == 0
    assert "= 5" in capsys.readouterr().out


def test_gen_refuses_a_word_symbol_with_exit_2(capsys):
    assert main(["gen", "lts-counter-labeled", "--p", "2", "--word",
                 "tx"]) == 2
    assert capsys.readouterr().err == (
        "error[ValueError]: word symbols are t/f (or 1/0), got 'x'\n")


def test_atm_run(files, capsys):
    _, _, _, _, machine = files
    assert main(["atm", "run", "--machine", str(machine), "--word", "t",
                 "--space", "4"]) == 0
    assert capsys.readouterr().out.strip() == "accept"
    assert main(["atm", "run", "--machine", str(machine), "--word", "f",
                 "--space", "4"]) == 0
    assert capsys.readouterr().out.strip() == "reject"


def test_atm_run_start_accepting(capsys, tmp_path):
    machine = tmp_path / "acc.atm"
    machine.write_text(format_atm(machines.START_ACCEPT))
    assert main(["atm", "run", "--machine", str(machine), "--word", "ft",
                 "--space", "4"]) == 0
    assert capsys.readouterr().out.strip() == "accept"


def test_atm_compile_and_check(files, capsys, tmp_path):
    _, _, _, _, machine = files
    base = tmp_path / "compiled"
    assert main(["atm", "compile", "--machine", str(machine), "--word", "t",
                 "--k", "0", "--p", "2", "-o", str(base)]) == 0
    capsys.readouterr()
    code = main(["check", "--lts", f"{base}.lts", "--formula", f"{base}.hfl",
                 "--state", "0"])
    assert code == 0  # cell0 accepts the word "t"


def test_atm_compile_labeled_variant(files, capsys, tmp_path):
    _, _, _, _, machine = files
    base = tmp_path / "labeled"
    assert main(["atm", "compile", "--machine", str(machine),
                 "--k", "0", "--p", "2", "--labeled", "f",
                 "-o", str(base)]) == 0
    capsys.readouterr()
    code = main(["check", "--lts", f"{base}.lts", "--formula", f"{base}.hfl",
                 "--state", "0"])
    assert code == 1  # cell0 rejects a word starting with ff


def test_elim_game_enum_limit_refusal_is_exit_2(tmp_path, capsys):
    # The guessed argument has type Pr -> Pr: 4**4 = 256 tables over two
    # states.  `game` enumerates them, so it is refused below that limit
    # and dumps the game at it.  `check` forces its guess and sizes only
    # the 4 picks, so it is refused below 4 and decides from there, with
    # the demand engine's verdict.
    cycle = tmp_path / "cycle.lts"
    cycle.write_text("states 2\nlabel 0 q\ntrans 0 a 1\ntrans 1 a 0\n")
    phi = tmp_path / "apply.hfl"
    phi.write_text("(\\(F:Pr -> Pr). F q) (\\(Y:Pr). <a> Y)\n")
    query = ["--lts", str(cycle), "--formula", str(phi), "--state", "1"]
    game = ["game", *query, "-o", str(tmp_path / "game.dot"), "--enum-limit"]
    assert main(game + ["255"]) == 2
    err = capsys.readouterr().err
    assert "error[EnumLimitError]: lattice has 256 elements, over limit 255" in err
    assert main(game + ["256"]) == 0
    args = ["check", *query, "--engine", "elim-game", "--enum-limit"]
    assert main(args + ["3"]) == 2
    err = capsys.readouterr().err
    assert "error[EnumLimitError]: lattice has 4 elements, over limit 3" in err
    assert main(["check", *query, "--engine", "demand"]) == 0
    for limit in ("4", "255", "256"):
        assert main(args + [limit]) == 0


def test_game_limit_past_an_astronomical_bound_is_exit_2(tmp_path, capsys):
    # The formula has order 3, so the closed-form size bound is refused
    # even on one state; the game limit is still what stops the build.
    loop = tmp_path / "loop.lts"
    loop.write_text("states 1\nlabel 0 q\ntrans 0 a 0\n")
    phi = tmp_path / "order3.hfl"
    phi.write_text("(\\(K:(Pr -> Pr) -> Pr). K (\\(Y:Pr). <a> Y)) "
                   "(\\(F:Pr -> Pr). F q)\n")
    assert main(["check", "--lts", str(loop), "--formula", str(phi),
                 "--state", "0", "--engine", "elim-game",
                 "--game-limit", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[GameLimitError]: game grew past 5 (at 6); "
                          "closed-form estimate over budget (bound "
                          "astronomically large: tower(9,3)")


def test_check_report_shows_a_game_bound_over_budget(tmp_path, capsys):
    # The order-3 formula's closed-form bound is refused, and the report
    # says so in place of the bound; the game itself is small.
    model = tmp_path / "one.lts"
    model.write_text("states 1\nlabel 0 p\n")
    phi = tmp_path / "order3.hfl"
    phi.write_text("(\\(G:(Pr -> Pr) -> Pr). G (\\(X:Pr). X)) "
                   "(\\(H:Pr -> Pr). H p)\n")
    assert main(["check", "--lts", str(model), "--formula", str(phi),
                 "--state", "0", "--engine", "elim-game", "--json",
                 "--no-timing"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is True
    assert list(report["bounds"]) == ["game_size_bound"]
    assert report["bounds"]["game_size_bound"].startswith(
        "over budget (bound astronomically large: tower(9,3)")


def test_typecheck_report_shows_a_lattice_bound_over_budget(tmp_path, capsys):
    # tower(n, 1) = 2^n has 1.2 million decimal digits at n = 4,000,000,
    # over the digit budget; the height bound n + 1 is still shown.
    phi = tmp_path / "order3.hfl"
    phi.write_text("(\\(G:(Pr -> Pr) -> Pr). G (\\(X:Pr). X)) "
                   "(\\(H:Pr -> Pr). H p)\n")
    assert main(["typecheck", "--formula", str(phi), "--json",
                 "--states", "4000000"]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert bounds["lattice_size"].startswith("over budget (")
    assert bounds["height"] == "4000001"


def test_enumeration_refusal_prints_a_lattice_past_str(tmp_path, capsys):
    # |Pr^0 -> Pr| over 11 states is 2^(11 * 2^11), 6,782 decimal digits:
    # more than `str` writes, so the refusal shows it as a power of two.
    # The tabulating engine and `game` enumerate that lattice; `check
    # --engine elim-game` forces its guess, sizing only the 2^n picks: it
    # settles 45,071 nodes over 11 states (213,009 over 13, too slow here).
    phi = tmp_path / "apply.hfl"
    phi.write_text("(\\(F:Pr^0 -> Pr)^0. F q) (\\(X:Pr)^0. X)\n")
    for n, b, engines in ((11, 11 << 11, ("demand", "elim-game")),
                          (13, 13 << 13, ("demand",))):
        model = tmp_path / f"states{n}.lts"
        model.write_text(f"states {n}\n")
        query = ["--lts", str(model), "--formula", str(phi), "--state", "0"]
        for refused in (["check", *query, "--engine", "naive"],
                        ["game", *query, "-o", str(tmp_path / "game.dot")]):
            assert main(refused) == 2
            assert capsys.readouterr() == ("", (
                f"error[EnumLimitError]: lattice has 2^{b} elements, "
                "over limit 1000000\n"))
        for engine in engines:
            assert main(["check", *query, "--engine", engine]) == 1
            assert capsys.readouterr().out == (
                "state 0 is not in the denotation\n")


def test_game_bounds_past_str_are_shown_against_a_power_of_two(tmp_path, capsys):
    # Order 2, arity 4, five lambda variables over two states: the closed
    # form is 16 |phi|^2 (4 * 2^1024)^18, over 4,300 decimal digits.
    model = tmp_path / "two.lts"
    model.write_text("states 2\nlabel 0 q\n")
    phi = tmp_path / "wide.hfl"
    phi.write_text("(\\(F:Pr^0 -> Pr)^0. \\(A:Pr)^0. \\(B:Pr)^0. "
                   "\\(C:Pr)^0. F A) (\\(X:Pr)^0. X) q q q\n")
    query = ["check", "--lts", str(model), "--formula", str(phi),
             "--state", "0", "--engine", "elim-game"]
    assert main(query + ["--json", "--no-timing"]) == 0
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert bounds == {"game_size_bound": ">2^18480", "game_within_bound": True}
    assert main(query + ["--game-limit", "10"]) == 2
    assert capsys.readouterr().err == (
        "error[GameLimitError]: game grew past 10 (at 11); closed-form "
        "estimate >2^18480\n")


def test_unfolding_refusal_prints_a_height_past_str(tmp_path, capsys):
    # The height of (Pr^0 -> Pr)^+ -> Pr over 11 states is
    # 1 + 11 * 2^(11 * 2^11), not a power of two.
    model = tmp_path / "states11.lts"
    model.write_text("states 11\n")
    phi = tmp_path / "mu.hfl"
    phi.write_text("(mu (F:(Pr^0 -> Pr)^+ -> Pr). \\(G:Pr^0 -> Pr)^+. G q) "
                   "(\\(X:Pr)^0. X)\n")
    assert main(["check", "--lts", str(model), "--formula", str(phi),
                 "--state", "0", "--engine", "elim-game"]) == 2
    assert capsys.readouterr() == ("", (
        "error[UnfoldBudgetError]: fixpoint elimination of mu F needs "
        f">2^{(11 << 11) + 3} unfoldings, over budget 4096\n"))


def test_check_and_game_agree(files, tmp_path, capsys):
    _, chain, reach, falsum, _ = files
    for phi in (reach, falsum):
        for state in ("0", "1", "2"):
            query = ["--lts", str(chain), "--formula", str(phi),
                     "--state", state]
            code = main(["check", "--engine", "elim-game", "--json",
                         "--no-timing"] + query)
            report = json.loads(capsys.readouterr().out)
            assert main(["game", "--dump", "json"] + query) == 0
            doc = json.loads(capsys.readouterr().out)
            assert report["verdict"] == (code == 0)
            assert report["verdict"] == (doc["winner"] == "exists")
            stats = report["stats"]
            assert (stats["game_nodes_explored"] <= stats["game_nodes"]
                    <= len(doc["nodes"]))
            assert stats["game_edges"] <= len(doc["edges"])
    # A query neither can answer gets the same error line from both.
    lam = tmp_path / "lam.hfl"
    lam.write_text("\\(X:Pr)^+. X\n")
    for phi, state, line in (
        (lam, "0", "error[HflError]: formula has type Pr^+ -> Pr, not Pr\n"),
        (reach, "3", "error[HflError]: state 3 out of range\n"),
        (reach, "-1", "error[HflError]: state -1 out of range\n"),
    ):
        query = ["--lts", str(chain), "--formula", str(phi), "--state", state]
        for command in (["check", "--engine", "elim-game"], ["check"],
                        ["game"]):
            assert main(command + query) == 2
            assert capsys.readouterr().err == line


def test_check_counts_what_its_solve_makes(tmp_path, capsys):
    # `check` solves the game on demand and reports the nodes and edges it
    # made; `game --dump` builds the whole game, as `build_game` does once
    # its lists are read.
    model = gen_counter_lts(2)
    phi = apply_all(counter_formula("gt", 0, 2), chi_formula(1, 0, 2),
                    chi_formula(3, 0, 2))
    lts_path, phi_path = tmp_path / "counter.lts", tmp_path / "gt.hfl"
    lts_path.write_text(save(model))
    phi_path.write_text(print_formula(phi) + "\n")
    query = ["--lts", str(lts_path), "--formula", str(phi_path),
             "--state", "0"]
    assert main(["check", "--engine", "elim-game", "--json",
                 "--no-timing"] + query) == 1
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert main(["game", "--dump", "json"] + query) == 0
    doc = json.loads(capsys.readouterr().out)
    fp_free = pipeline.play(
        model, 0, parse_formula(phi_path.read_text()),
        games.DEFAULT_GAME_LIMIT, denote.DEFAULT_ENUM_LIMIT,
        semantics.DEFAULT_UNFOLD_BUDGET, semantics.DEFAULT_SIZE_BUDGET)[0]
    game = games.build_game(model, 0, fp_free)
    assert (game.node_count, game.edge_count) == (len(doc["nodes"]),
                                                  len(doc["edges"]))
    assert stats["game_nodes_explored"] <= stats["game_nodes"] < len(
        doc["nodes"])
    assert stats["game_edges"] < len(doc["edges"])


@pytest.mark.parametrize("state", ["5", "-1"])
def test_label_state_out_of_range_exits_2(tmp_path, capsys, state):
    model = tmp_path / "bad.lts"
    model.write_text(f"states 2\nlabel {state} q\n")
    phi = tmp_path / "q.hfl"
    phi.write_text("q\n")
    for engine in ("naive", "demand", "elim-game"):
        assert main(["check", "--engine", engine, "--lts", str(model),
                     "--formula", str(phi), "--state", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error[LtsFormatError]: label state {state} out of range\n")


def test_game_dump_formats(files, tmp_path, capsys):
    _, chain, reach, _, _ = files
    out = tmp_path / "game.json"
    assert main(["game", "--lts", str(chain), "--formula", str(reach),
                 "--state", "0", "--dump", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["winner"] == "exists"
    assert main(["game", "--lts", str(chain), "--formula", str(reach),
                 "--state", "0", "--dump", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


@pytest.fixture()
def two_states(tmp_path):
    model = tmp_path / "two.lts"
    model.write_text("states 2\ntrans 0 a 1\nlabel 1 q\n")
    return model


def test_non_monotone_vector_fixpoint_is_refused_everywhere(
        two_states, tmp_path, capsys):
    # Y occurs negatively in X's component.  Its Bekic form types, since
    # there Y's fixpoint is closed before the negation; the system as
    # written does not, and every command types it as written.
    phi = tmp_path / "antitone.hfl"
    phi.write_text("fix 1 (X:Pr. !Y; Y:Pr. q)\n")
    line = "error[VarianceError]: variable Y used at negative variance\n"
    query = ["--lts", str(two_states), "--formula", str(phi), "--state", "0"]
    for command in (["check", "--engine", "naive"],
                    ["check", "--engine", "demand"],
                    ["check", "--engine", "elim-game"],
                    ["game"]):
        assert main(command + query) == 2
        assert capsys.readouterr() == ("", line)
    assert main(["typecheck", "--formula", str(phi)]) == 2
    assert capsys.readouterr() == ("", line)


def test_size_limit_refusal_counts_distinct_nodes_of_a_named_fixpoint(
        two_states, tmp_path, capsys):
    phi = tmp_path / "reach.hfl"
    phi.write_text("mu (X:Pr). q | <a> X\n")
    query = ["check", "--lts", str(two_states), "--formula", str(phi),
             "--state", "0", "--engine", "elim-game"]
    assert main(query + ["--size-limit", "5"]) == 2
    assert capsys.readouterr().err == (
        "error[UnfoldBudgetError]: fixpoint elimination of mu X needs 12 "
        "distinct nodes, over budget 5\n")
    assert main(query + ["--unfold-limit", "2"]) == 2
    assert capsys.readouterr().err == (
        "error[UnfoldBudgetError]: fixpoint elimination of mu X needs 3 "
        "unfoldings, over budget 2\n")
    assert main(query + ["--size-limit", "12"]) == 0


def test_typecheck_json_types_a_vector_fixpoint_as_written(capsys, tmp_path):
    from hflcheck.surface import parse_formula
    from hflcheck.syntax import desugar_vec, measures

    text = "fix 1 (F:Pr^0 -> Pr. \\(Y:Pr)^0. Y | <a> F Y; X:Pr. F q | X)\n"
    phi = tmp_path / "vec.hfl"
    phi.write_text(text)
    assert main(["typecheck", "--formula", str(phi), "--json",
                 "--states", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    vec = parse_formula(text)
    size, lam_vars = measures(desugar_vec(vec))
    assert (doc["type"], doc["order"], doc["arity"]) == ("Pr^0 -> Pr", 1, 1)
    assert (doc["order"], doc["arity"]) == oracles.fragment_of(vec)
    assert (doc["closure_size"], doc["lambda_vars"]) == (size, lam_vars)
    assert doc["bounds"]["lattice_size"] == "65536"
    assert set(doc["bounds"]) == {"lattice_size", "height", "type_count"}


def test_check_of_a_missing_file_is_exit_2(two_states, tmp_path, capsys):
    missing = str(tmp_path / "missing.hfl")
    for query in (["--lts", str(two_states), "--formula", missing],
                  ["--lts", missing, "--formula", str(two_states)]):
        assert main(["check", "--state", "0"] + query) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[FileNotFoundError]:") and missing in err


@pytest.mark.parametrize("name", sorted(machines.CORPUS))
def test_engines_agree_on_compiled_machines(name, capsys, tmp_path):
    # A compiled machine is one vector fixpoint, which both evaluation
    # engines solve jointly: the tabulating one iterates every component's
    # table together, the demand one solves the components locally.  (The
    # game of these p = 2 instances, which spell the word out, outgrows the
    # default game limit; at p = 1 the game procedure decides the instances
    # that carry the word in state labels.)
    from hflcheck.encodings import atm_accepts

    machine = tmp_path / "m.atm"
    machine.write_text(format_atm(machines.CORPUS[name]))
    for word in ("t", "f"):
        base = tmp_path / f"{name}-{word}"
        assert main(["atm", "compile", "--machine", str(machine), "--k", "0",
                     "--p", "2", "--word", word, "-o", str(base)]) == 0
        capsys.readouterr()
        want = atm_accepts(machines.CORPUS[name], (word == "t",), 4)
        for engine in ("naive", "demand"):
            code = main(["check", "--lts", f"{base}.lts", "--formula",
                         f"{base}.hfl", "--state", "0", "--engine", engine])
            assert code == (0 if want else 1), (word, engine)


def _typed_errors():
    """The names of `HflError` and of every subclass of it."""
    names, todo = set(), [HflError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


_BUDGETS = (("--enum-limit", denote.DEFAULT_ENUM_LIMIT),
            ("--game-limit", games.DEFAULT_GAME_LIMIT),
            ("--unfold-limit", semantics.DEFAULT_UNFOLD_BUDGET),
            ("--size-limit", semantics.DEFAULT_SIZE_BUDGET))


def test_budget_flags_refuse_with_a_typed_error_or_keep_the_verdict(
        tmp_path, capsys):
    # A budget only ever refuses: under any limits at most the defaults,
    # a check exits 2 with a typed error and no traceback, or gives the
    # verdict it gives under the defaults.  It never exits 1 on a refusal.
    typed = _typed_errors()
    rng = random.Random(19)
    refused, kept = set(), 0
    for n in range(60):
        model = randgen.random_lts(rng, 3)
        if n % 3:
            phi = randgen.random_hfl_formula(
                rng, randgen.HoGenConfig(max_depth=3))
        else:
            phi = randgen.random_mu_formula(rng, 4)
        lts_path, phi_path = tmp_path / f"{n}.lts", tmp_path / f"{n}.hfl"
        lts_path.write_text(save(model))
        phi_path.write_text(print_formula(phi) + "\n")
        for engine in ("naive", "demand", "elim-game"):
            base = ["check", "--lts", str(lts_path), "--formula",
                    str(phi_path), "--state", str(rng.randrange(model.n)),
                    "--engine", engine]
            want = main(base)
            capsys.readouterr()
            for _ in range(4):
                flags = []
                for flag, default in _BUDGETS:
                    if rng.random() < 0.5:  # skewed to small limits, 0 too
                        limit = int(default ** rng.random() ** 2)
                        flags += [flag, str(limit - rng.randrange(2))]
                got = main(base + flags)
                err = capsys.readouterr().err
                assert "Traceback" not in err, (base, flags)
                if got == 2:
                    name = err[len("error["):err.find("]")]
                    assert err.startswith("error[") and name in typed, (
                        base, flags, err)
                    if want != 2:
                        refused.add(name)
                else:
                    assert got == want, (base, flags)
                    kept += 1
    assert kept
    assert refused == {"EnumLimitError", "GameLimitError",
                       "UnfoldBudgetError"}
