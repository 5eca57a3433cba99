"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hflcheck.cli import main
from hflcheck.encodings import format_atm
from hflcheck.lts import gen_counter_lts, load

import machines


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
    for state in (0, 1, 2):
        codes = {
            engine: main(["check", "--lts", str(chain), "--formula",
                          str(reach), "--state", str(state),
                          "--engine", engine])
            for engine in ("naive", "demand", "elim-game")
        }
        assert len(set(codes.values())) == 1


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


def test_check_parse_error_is_exit_2(files, capsys, tmp_path):
    _, chain, _, _, _ = files
    bad = tmp_path / "bad.hfl"
    bad.write_text("q | (p\n")
    assert main(["check", "--lts", str(chain), "--formula", str(bad),
                 "--state", "0"]) == 2
    assert "error[ParseError]:" in capsys.readouterr().err


def test_check_too_deep_is_exit_2_without_traceback(files, tmp_path):
    # 30,000 nested modalities pass the recursion limit while parsing; that
    # is an error (2), never a failing property (1).
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


def test_typecheck_type_error_is_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.hfl"
    bad.write_text("\\(X:Pr)^+. !X\n")
    assert main(["typecheck", "--formula", str(bad)]) == 2


def test_gen_counter_matches_library(capsys):
    assert main(["gen", "lts-counter", "--p", "4"]) == 0
    out = capsys.readouterr().out
    assert load(out) == gen_counter_lts(4)


def test_gen_formula_reparses(capsys):
    from hflcheck.encodings import counter_formula
    from hflcheck.surface import parse_formula

    assert main(["gen", "counter", "--name", "lt", "--k", "0", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert parse_formula(out) == counter_formula("lt", 0, 2)


def test_gen_showcase_and_repr(capsys):
    assert main(["gen", "showcase", "--name", "phi_m", "--m", "1",
                 "--actions", "a"]) == 0
    capsys.readouterr()
    assert main(["gen", "repr", "--i", "5", "--k", "0", "--p", "3"]) == 0
    assert "= 5" in capsys.readouterr().out


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
