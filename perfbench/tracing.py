"""Per-layer call tracing installed from outside the program.

Every public function of the nine program modules, and every public method
of their classes (plus `__iter__`, which yields the lattice enumerations),
is replaced by a wrapper at each name it can be looked up
through: its own module, every module that imported it by name, and the
package namespace.  A wrapper counts every call.  A call that crosses into
a layer from another layer (or from the benchmark) is also timed; calls
inside one layer are only counted, so recursion costs one counter bump.

Timed calls keep a stack, from which each layer's self time follows: a
call's duration minus the time of the crossings it made into other layers.
Crossings of functions outside `HOT` are also kept as spans (name, start,
end, parent span, check id, self time) and written out when the pass ends.
`HOT` functions run millions of times per pass; they are timed and counted
but not stored one by one.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

from hflcheck.syntax import Formula

LAYERS = ("surface", "lts", "syntax", "types", "denote", "semantics",
          "games", "encodings", "cli")

HOT = frozenset({
    "semantics.Evaluator.eval",
    "semantics.Evaluator.apply_value",
    "semantics.Evaluator.reify_value",
    "semantics.Evaluator.complement_value",
    "semantics.Evaluator.prop_mask",
    "semantics.Evaluator.pre_image",
    "semantics.Evaluator.enum",
    "semantics.FixSolver.read",
    "denote.index_of",
    "denote.element_at",
    "denote.cardinality",
    "denote.complement",
    "denote.leq",
    "denote.enumerate_lattice",
    "denote.LatticeEnum.__iter__",
    "types.full_space_cardinality",
    "types.full_space_height",
    "types.uncurry",
    "syntax.free_vars",
    "syntax.children",
    "syntax.iter_nodes",
    "syntax.substitute",
    "lts.Lts.successors",
    "lts.Lts.has_prop",
})

def _dag_size(phi) -> int:
    """Distinct formula nodes reachable from phi (which holds no vector
    fixpoint), read off the node fields without calling into the program."""
    seen = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for field in dataclasses.fields(f):
            value = getattr(f, field.name)
            if isinstance(value, Formula):
                stack.append(value)
    return len(seen)


class Tracer:
    """Counts, layer self times and spans for one pass."""

    def __init__(self):
        self._cells: dict = {}  # key -> [calls]
        self.items: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.sums: Counter = Counter()
        self.spans: list = []
        self.stack: list = []
        self.check_id = None
        self._after = {
            "games.build_game": self._after_build,
            "semantics.eliminate_fixpoints": self._after_eliminate,
        }

    # -- result hooks, run outside the timed call

    def _after_build(self, game):
        self.sums["games.nodes"] += game.node_count
        self.sums["games.edges"] += game.edge_count

    def _after_eliminate(self, phi):
        self.sums["syntax.elim_dag_size"] += _dag_size(phi)

    # -- wrappers

    def _wrap(self, layer: str, key: str, fn):
        count = self._cells.setdefault(key, [0])
        stack, spans = self.stack, self.spans
        inclusive, self_s = self.inclusive, self.self_s
        keep = key not in HOT
        after = self._after.get(key)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count[0] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            if keep:
                sid = len(spans)
                spans.append([key, 0.0, 0.0, parent, tracer.check_id, 0.0])
            else:
                sid = parent
            # frame: layer, start, time spent in other layers, span id
            frame = [layer, clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                inclusive[key] += dur
                own = dur - frame[2]
                self_s[layer] += own
                if stack:
                    stack[-1][2] += dur
                if keep:
                    spans[sid][1:3] = frame[1], end
                    spans[sid][5] = own
            if after is not None:
                t0 = clock()
                after(result)
                if stack:
                    stack[-1][2] += clock() - t0
            return result

        return traced

    def _wrap_gen(self, key: str, fn):
        """Generators return before their work runs: count calls and the
        items they yield, leave the time to whoever iterates."""
        count = self._cells.setdefault(key, [0])
        items = self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count[0] += 1
            for item in fn(*args, **kwargs):
                items[key] += 1
                yield item

        return traced

    def install(self, package):
        """Replace every public function and method of the layer modules
        at every name in the package it is bound to."""
        modules = [importlib.import_module(f"{package.__name__}.{m}")
                   for m in LAYERS]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not any(b.__name__ == "Enum" for b in obj.__mro__):
                        self._wrap_methods(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = self._wrapper(layer, f"{layer}.{name}", obj)
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if not inspect.isfunction(attr):
                continue
            if name.startswith("_") and name != "__iter__":
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            setattr(cls, name, self._wrapper(layer, key, attr))

    def _wrapper(self, layer, key, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(key, fn)
        return self._wrap(layer, key, fn)

    # -- results

    def calls(self) -> dict:
        """Calls of every wrapped function, and items of every generator."""
        out = {key: cell[0] for key, cell in sorted(self._cells.items())}
        out.update((f"{key}.items", n) for key, n in sorted(self.items.items()))
        return out

    def layer_metrics(self, eval_stats: dict) -> dict:
        """The per-layer metrics of one traced pass, by name."""
        inc = self.inclusive
        calls = self.calls()
        elim = ("semantics.eliminate_fixpoints", "semantics.approximant")
        build_s = inc["games.build_game"]
        moves = self.sums["games.nodes"] + self.sums["games.edges"]
        out = {
            "surface.parse_s": inc["surface.parse_formula"],
            "lts.load_s": inc["lts.load"],
            "syntax.desugar_s": inc["syntax.desugar_vec"],
            "types.typecheck_s": inc["types.typecheck"] + inc["types.infer"],
            "semantics.eval_calls": calls.get("semantics.Evaluator.eval", 0),
            "semantics.evaluate_s": sum(
                t for k, t in inc.items()
                if k.startswith("semantics.") and k not in elim),
            "semantics.fixpoint_iterations": eval_stats.get("fixpoint_iterations", 0),
            "semantics.memo_hits": eval_stats.get("memo_hits", 0),
            "semantics.tabulated_lambdas": eval_stats.get("tabulated_lambdas", 0),
            "semantics.eliminate_s": inc["semantics.eliminate_fixpoints"],
            "denote.index_of_calls": calls.get("denote.index_of", 0),
            "denote.element_at_calls": calls.get("denote.element_at", 0),
            "denote.enumerate_calls": calls.get("denote.enumerate_lattice", 0),
            "denote.elements_enumerated": self.items["denote.LatticeEnum.__iter__"],
            "types.cardinality_calls": calls.get("types.full_space_cardinality", 0),
            "games.build_s": build_s,
            "games.nodes": self.sums["games.nodes"],
            "games.edges": self.sums["games.edges"],
            "games.build_rate": moves / build_s if build_s else 0.0,
            "games.solve_s": inc["games.solve"],
            "games.size_bound_s": inc["games.size_bound_for"],
            "lts.successors_calls": calls.get("lts.Lts.successors", 0),
            "lts.successors_s": inc["lts.Lts.successors"],
            "syntax.free_vars_calls": calls.get("syntax.free_vars", 0),
            "syntax.elim_dag_size": self.sums["syntax.elim_dag_size"],
            "encodings.generate_s": sum(
                t for k, t in inc.items()
                if k.startswith("encodings.") and k != "encodings.atm_accepts"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def dump_spans(self, origin: float) -> dict:
        """Spans as plain lists, times in seconds from `origin`."""
        return {
            "fields": ["name", "start_s", "end_s", "parent", "check", "self_s"],
            "spans": [[k, s - origin, e - origin, p, c, own]
                      for k, s, e, p, c, own in self.spans],
        }
