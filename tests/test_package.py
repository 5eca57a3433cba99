"""The package's public export list, and the API the benchmark calls."""

import ast
import importlib
import inspect
import pathlib

import hflcheck
from hflcheck.lts import gen_chain
from hflcheck.semantics import Evaluator
from hflcheck.syntax import App, Dia, Lam, Neg, Or, Prop, Var
from hflcheck.types import PR, Variance

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The benchmark's modules that call the package; read here, never changed.
BENCH_SOURCES = ("perfbench/workloads.py", "perfbench/gen.py")
EVALUATOR_METHODS = ("eval_closed", "apply_value", "reify_value", "denotation")


def test_every_exported_name_resolves():
    assert len(set(hflcheck.__all__)) == len(hflcheck.__all__)
    for name in hflcheck.__all__:
        assert getattr(hflcheck, name, None) is not None, name


def _bench_uses():
    """(module, name) pairs the benchmark reads off hflcheck modules, and
    its calls of those names and of the Evaluator methods, as (callee,
    positional count, keyword names, where)."""
    names, calls = set(), []
    for rel in BENCH_SOURCES:
        tree = ast.parse((ROOT / rel).read_text(encoding="utf-8"))
        mods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "hflcheck":
                for alias in node.names:
                    mods[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in mods):
                names.add((mods[node.value.id], node.attr))
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                continue
            f = node.func
            if isinstance(f.value, ast.Name) and f.value.id in mods:
                callee = (mods[f.value.id], f.attr)
            elif f.attr in EVALUATOR_METHODS:
                callee = ("semantics.Evaluator", f.attr)
            else:
                continue
            calls.append((callee, len(node.args),
                          [k.arg for k in node.keywords],
                          f"{rel}:{node.lineno}"))
    return names, calls


def test_benchmark_api_resolves():
    names, calls = _bench_uses()
    assert ("semantics", "evaluate") in names and calls
    for mod, name in sorted(names):
        module = importlib.import_module(f"hflcheck.{mod}")
        assert hasattr(module, name), f"hflcheck.{mod}.{name}"
    for name in EVALUATOR_METHODS:
        assert callable(getattr(Evaluator, name, None)), name
    for (owner, name), nargs, keywords, where in calls:
        if owner == "semantics.Evaluator":
            fn = getattr(Evaluator, name)
            nargs += 1  # self
        else:
            fn = getattr(importlib.import_module(f"hflcheck.{owner}"), name)
        if not callable(fn):
            continue
        try:
            inspect.signature(fn).bind(*[None] * nargs,
                                       **dict.fromkeys(keywords))
        except TypeError as e:
            raise AssertionError(f"{where}: {owner}.{name}: {e}") from None


def _desugar_callers(tree, where):
    """Where `tree` calls desugar_vec: the innermost enclosing function,
    or `where` itself at module level."""
    out = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= _desugar_callers(node, node.name)
            continue
        if isinstance(node, ast.Call) and "desugar_vec" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            out.add(where)
        out |= _desugar_callers(node, where)
    return out


def test_only_elimination_and_the_closure_desugar_vector_fixpoints():
    # Every other stage types and evaluates a vector fixpoint as written;
    # typing its Bekic form instead would admit systems that are not
    # monotone, where the rewrite is unsound.
    callers = set()
    for path in sorted((ROOT / "src" / "hflcheck").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {f"{path.stem}.{fn}"
                    for fn in _desugar_callers(tree, "<module>")}
    assert callers == {"semantics.eliminate_fixpoints",
                       "syntax._closure_reps"}


def test_evaluator_keeps_no_further_tables():
    # Compiled closures carry folded constants themselves, and a closed
    # root is typechecked on every evaluation, so `_compiled` is the one
    # table keyed by node identity.
    ev = Evaluator(gen_chain(2))
    body = Neg(Or(Var("Y"), Neg(Dia("a", Prop("q")))))
    ev.denotation(App(Lam("Y", Variance.ZERO, PR, body), Prop("p")))
    assert set(vars(ev)) == {
        "lts", "n", "_full_mask", "cfg", "_prop_masks", "_pred_masks",
        "_compiled", "_grounds", "_enums"}


def _self_callers(tree):
    """The functions and methods that call their own name, from their
    own body or a function nested in it."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(sub, ast.Call) and node.name in (
                getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
                for sub in ast.walk(node))}


def test_syntax_walks_formulas_without_recursion():
    # Every formula walker in syntax.py is a `fold` step or a loop, so
    # nesting depth is bounded by memory.  Only the Bekic rewrite recurses,
    # once per binding of a vector fixpoint, and substitution, once per
    # binder it renames.
    tree = ast.parse((ROOT / "src" / "hflcheck" / "syntax.py")
                     .read_text(encoding="utf-8"))
    assert _self_callers(tree) == {"_bekic", "substitute"}


def _cache_uses(tree):
    """The functions decorated with a functools cache, and the count of
    every mention of one."""
    def is_cache(node):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return isinstance(node, (ast.Name, ast.Attribute)) and name in (
            "cache", "lru_cache")

    decorated = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and any(is_cache(sub) for dec in node.decorator_list
                         for sub in ast.walk(dec))}
    return decorated, sum(map(is_cache, ast.walk(tree)))


def test_no_process_wide_value_cache():
    # A functools cache outlives every evaluation.  Lattice sizes are read
    # off their types each time; only the formula constructors and the
    # argument parser keep what they build.
    found, mentions = set(), 0
    for path in sorted((ROOT / "src" / "hflcheck").glob("*.py")):
        decorated, count = _cache_uses(ast.parse(path.read_text(encoding="utf-8")))
        found |= {f"{path.stem}.{name}" for name in decorated}
        mentions += count
    assert found == {"encodings.bit_formula", "encodings.counter_formula",
                     "encodings.chi_formula", "cli.build_parser"}
    assert mentions == len(found)


def _is_counter(node):
    """Whether `node` calls `itertools.count` or a bare `count`."""
    f = getattr(node, "func", None)
    if isinstance(f, ast.Attribute):
        return f.attr == "count" and getattr(f.value, "id", None) == "itertools"
    return isinstance(f, ast.Name) and f.id == "count"


def test_no_process_wide_counter():
    # A module-level `itertools.count` makes what a call returns depend on
    # the calls made before it in the process; fresh names are derived
    # from the names at hand instead.
    found = []
    for path in sorted((ROOT / "src" / "hflcheck").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}:{node.lineno}" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and any(map(_is_counter, ast.walk(node)))]
    assert found == []


def _package_imports(stem):
    """The package modules that src/hflcheck/<stem>.py imports, at any
    depth of the file."""
    tree = ast.parse((ROOT / "src" / "hflcheck" / f"{stem}.py")
                     .read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("hflcheck.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "hflcheck":
                continue
            module = module.removeprefix("hflcheck").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import a, b
                found |= {alias.name for alias in node.names}
    return found


def test_no_procedure_imports_another():
    # The game procedure and the evaluator reach their verdicts
    # independently: neither imports the other, nor the pipeline that
    # runs elimination and the game together.
    assert not _package_imports("games") & {"semantics", "pipeline"}
    assert not _package_imports("semantics") & {"games", "pipeline"}
    assert {"games", "semantics"} <= _package_imports("pipeline")
