"""Span tracing of falsiflow's layers from outside the package.

The tracer wraps the public functions of every falsiflow module and records
one span per call: (function, start, end, parent span).  It patches every
module attribute that holds the original function, because `cli` and
`inference` import `maximize_dual`, `solve_zero_one` and `bootstrap_pvalue`
by name.  Spans stay in memory until the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter

LAYERS = ("cli", "models", "measure", "correspondence", "transport", "lp",
          "semiparametric", "inference")

# Methods traced beside the module-level functions.  Per-element helpers, such
# as FiniteDistribution.numerator and the functions in UNTRACED, are left out:
# they run once per grid node, and their time belongs to the loop that calls
# them, which is in the same layer.
UNTRACED = {"tuple_label", "entry_equilibria"}
METHODS = {
    "measure": {"FiniteDistribution": ("from_json",)},
    "correspondence": {"Correspondence": ("from_map", "from_json", "extend_outcomes",
                                          "adjacency_matrix", "labels_of", "bitset_of")},
}

CLI_LOADERS = {"load_model_spec", "build_model", "load_distribution", "load_data"}
CAPACITY = {"capacity", "capacity_fp"}
STATISTICS = {"statistic_tv_core", "statistic_tn_halflines", "statistic_semiparametric"}


def _grid_nodes(name, result):
    """Latent grid points a model builder discretizes (entry_game through its grid)."""
    if name == "uniform_grid_2d":
        return len(result.nodes)
    if name == "binary_response_pilot":
        return len(result.correspondence.latent_support)
    if name == "search_game":
        return len(result[1])
    return 0


def _count(counts: Counter, layer: str, name: str, args, result):
    """Work counters read off a call's arguments and result."""
    if layer == "models":
        counts["models.grid_nodes"] += _grid_nodes(name, result)
    elif layer == "transport" and name == "solve_zero_one":
        p, nu, g = args
        counts["transport.arcs"] += sum(bits.bit_count() for bits in g.image)
        counts["transport.latents"] += len(nu)
    elif layer == "lp" and name == "solve":
        entries = args[0].a.size
        counts["lp.entries"] += entries
        counts["lp.max_entries"] = max(counts["lp.max_entries"], entries)
    elif layer == "semiparametric" and name == "maximize_dual":
        counts["semi.ascent_iters"] += result.iterations
    elif layer == "inference" and name == "bootstrap_pvalue":
        counts["inference.replicates"] += len(result.replicates)


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []       # (layer, function) per name id
        self.spans: list[tuple | None] = []          # (name id, start, end, parent)
        self.stack: list[int] = []
        self.counts = Counter()
        self.rounds: list[tuple[int, int, float, Counter]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self, package):
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (not name.startswith("_") and name not in UNTRACED
                        and inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for name in methods:
                    raw = inspect.getattr_static(cls, name)
                    if isinstance(raw, staticmethod):
                        patched = staticmethod(self._wrap(layer, f"{cls_name}.{name}", raw.__func__))
                    else:
                        patched = self._wrap(layer, f"{cls_name}.{name}", raw)
                    self._patches.append((cls, name, raw))
                    setattr(cls, name, patched)
        for module in vars(package).values():
            if inspect.ismodule(module) and module.__name__.startswith(package.__name__):
                for name, value in list(vars(module).items()):
                    if inspect.isfunction(value) and id(value) in wrappers:
                        self._patches.append((module, name, value))
                        setattr(module, name, wrappers[id(value)])

    def remove(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        name_id = len(self.names)
        self.names.append((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            _count(counts, layer, name, args, result)
            return result

        return traced

    # -- rounds ---------------------------------------------------------------

    def start_round(self):
        self.counts.clear()
        self._round_start = (len(self.spans), time.process_time())

    def end_round(self):
        first, cpu0 = self._round_start
        self.rounds.append((first, len(self.spans), time.process_time() - cpu0, Counter(self.counts)))

    # -- metrics ------------------------------------------------------------------

    def _round_metrics(self, first, last, cpu, counts) -> dict:
        child = [0.0] * (last - first)
        for name_id, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child[parent - first] += end - start
        self_time, calls, outermost_models = Counter(), Counter(), 0
        for k, (name_id, start, end, parent) in enumerate(self.spans[first:last]):
            layer, name = self.names[name_id]
            self_time[layer, name] += end - start - child[k]
            calls[layer, name] += 1
            if layer == "models" and (parent < first or self.names[self.spans[parent][0]][0] != "models"):
                outermost_models += 1

        def time_of(layer, names=None):
            return sum((t for (lay, n), t in self_time.items()
                        if lay == layer and (names is None or n in names)), 0.0)

        def calls_of(layer, names=None):
            return sum(c for (lay, n), c in calls.items()
                       if lay == layer and (names is None or n in names))

        return {
            "cli.load_s": time_of("cli", CLI_LOADERS),
            "models.build_s": time_of("models"),
            "models.build_calls": outermost_models,
            "models.grid_nodes": counts["models.grid_nodes"],
            "measure.s": time_of("measure"),
            "measure.calls": calls_of("measure"),
            "correspondence.s": time_of("correspondence"),
            "correspondence.capacity_calls": calls_of("correspondence", CAPACITY),
            "transport.solve_s": time_of("transport"),
            "transport.solve_calls": calls_of("transport", {"solve_zero_one"}),
            "transport.arcs": counts["transport.arcs"],
            "transport.latents": counts["transport.latents"],
            "lp.solve_s": time_of("lp"),
            "lp.solve_calls": calls_of("lp", {"solve"}),
            "lp.entries": counts["lp.entries"],
            "lp.max_entries": counts["lp.max_entries"],
            "semi.dual_s": time_of("semiparametric"),
            "semi.dual_calls": calls_of("semiparametric", {"maximize_dual"}),
            "semi.ascent_iters": counts["semi.ascent_iters"],
            "inference.bootstrap_s": time_of("inference", {"bootstrap_pvalue"}),
            "inference.stat_s": time_of("inference", STATISTICS),
            "inference.replicates": counts["inference.replicates"],
            "run.cpu_s": cpu,
        }

    def metrics(self) -> tuple[dict, bool]:
        """Per-round metrics: medians of the times, counts of one round.

        The second value is False when a count differs between rounds.
        """
        per_round = [self._round_metrics(*r) for r in self.rounds]
        merged, repeat = {}, True
        for key, value in per_round[0].items():
            values = [m[key] for m in per_round]
            if isinstance(value, int):
                repeat &= len(set(values)) == 1
                merged[key] = value
            else:
                merged[key] = statistics.median(values)
        return merged, repeat

    def write(self, path):
        """Write every span as CSV: layer, function, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index,layer,function,start,end,parent\n")
            for k, (name_id, start, end, parent) in enumerate(self.spans):
                layer, name = self.names[name_id]
                fh.write(f"{k},{layer},{name},{start!r},{end!r},{parent}\n")
