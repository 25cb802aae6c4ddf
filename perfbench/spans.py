"""Spans around bipspec's public functions, for the traced benchmark run.

`Tracer.installed()` wraps every public function of the layer modules and
patches every attribute of a loaded bipspec module that is bound to one, so
`vsplit.edge_connectivity` is traced as well as `bigraph.edge_connectivity`.
Each call leaves a span in memory: name, start, end, parent span and the
instance id.  Work counts are computed from each call's arguments and
result; nothing is read from counters inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("bigraph", "spectra", "vsplit", "expansion", "eccode", "cli")

# name -> (unit, better); per-layer times are per pass over the pool
PER_LAYER = {
    "spectra.symmetric_eigenvalues.s": ("s", "lower"),
    "spectra.symmetric_eigenvalues.calls": ("count", "lower"),
    "spectra.symmetric_eigenvalues.sweeps": ("count", "lower"),
    "spectra.symmetric_eigenvalues.rotations_computed": ("count", "lower"),
    "spectra.symmetric_eigenvalues.repeat_ratio": ("ratio", "lower"),
    "spectra.bound_suite.self_s": ("s", "lower"),
    "vsplit.vertex_split.s": ("s", "lower"),
    "vsplit.criterion.self_s": ("s", "lower"),
    "bigraph.edge_connectivity.s": ("s", "lower"),
    "bigraph.edge_connectivity.flows_computed": ("count", "lower"),
    "bigraph.edge_connectivity.repeat_ratio": ("ratio", "lower"),
    "expansion.vertex_expansion.s": ("s", "lower"),
    "expansion.vertex_expansion.subset_space_computed": ("count", "lower"),
    "expansion.vertex_expansion.subsets_per_s": ("1/s", "higher"),
    "expansion.vertex_expansion.repeat_ratio": ("ratio", "lower"),
    "expansion.lossless_parameters.self_s": ("s", "lower"),
    "eccode.min_distance.s": ("s", "lower"),
    "eccode.min_distance.codewords_computed": ("count", "lower"),
    "eccode.bit_flip_decode.s": ("s", "lower"),
    "eccode.bit_flip_decode.calls": ("count", "lower"),
    "eccode.bit_flip_decode.decoded_ratio": ("ratio", "higher"),
    "eccode.bit_flip_decode.net_flips_computed": ("count", "lower"),
    "eccode.parity_check_from_graph.s": ("s", "lower"),
    "eccode.construct_expander_code.self_s": ("s", "lower"),
    "eccode.serialize.s": ("s", "lower"),
    "bigraph.read_edge_list.s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.run.calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str


class Tracer:
    """Collects the spans and work counts of one pass over a pool."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.instance = ""
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)

    def begin_instance(self, iid: str) -> None:
        self.instance = iid
        self._seen.clear()

    def add(self, key: str, value: int) -> None:
        self.counts[key] += value

    def repeat(self, name: str, key) -> None:
        """Count a call whose input was already handled in this instance."""
        if key in self._seen[name]:
            self.counts[f"{name}.repeats"] += 1
        else:
            self._seen[name].add(key)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # placeholder keeps span ids in call order
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.instance)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, list(bound.arguments.values()), result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every public layer function through every binding of it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bipspec.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname == "bipspec" or modname.startswith("bipspec."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
                        patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)


# ------------------------------------------------------- computed work counts
#
# Each takes the call's arguments in declaration order (defaults applied)
# and its result.


def _count_eigen(t: Tracer, args: list, report) -> None:
    M = args[0]
    n = M.order
    t.add("spectra.symmetric_eigenvalues.sweeps", report.iterations)
    t.add("spectra.symmetric_eigenvalues.rotations_computed", report.iterations * n * (n - 1) // 2)
    t.repeat("spectra.symmetric_eigenvalues", (M.data.shape, M.data.tobytes()))


def _count_edge_connectivity(t: Tracer, args: list, kappa: int) -> None:
    g = args[0]
    # one max-flow per sink unless the graph is disconnected (kappa = 0)
    t.add("bigraph.edge_connectivity.flows_computed", g.n - 1 if kappa > 0 else 0)
    t.repeat("bigraph.edge_connectivity", g)


def _count_vertex_expansion(t: Tracer, args: list, report) -> None:
    g, samples = args[0], args[5]
    side = g.n1 if report.side == "left" else g.n2
    if report.exhaustive:
        subsets = sum(math.comb(side, s) for s in range(1, report.subset_cap + 1))
    else:
        subsets = samples
    t.add("expansion.vertex_expansion.subset_space_computed", subsets)
    t.repeat("expansion.vertex_expansion", (g, report.side, report.subset_cap, report.exhaustive))


def _count_min_distance(t: Tracer, args: list, distance) -> None:
    k = args[0].dimension
    t.add("eccode.min_distance.codewords_computed", 2**k - 1 if k else 0)


def _count_bit_flip_decode(t: Tracer, args: list, result) -> None:
    word, status = result
    received = np.asarray(args[1], dtype=np.uint8) % 2
    t.add("eccode.bit_flip_decode.decoded", int(status == "decoded"))
    t.add("eccode.bit_flip_decode.net_flips_computed", int(np.count_nonzero(received != word)))


COUNTERS = {
    "spectra.symmetric_eigenvalues": _count_eigen,
    "bigraph.edge_connectivity": _count_edge_connectivity,
    "expansion.vertex_expansion": _count_vertex_expansion,
    "eccode.min_distance": _count_min_distance,
    "eccode.bit_flip_decode": _count_bit_flip_decode,
}


# ------------------------------------------------------------------ metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            a, b = max(c.start, reach), min(c.end, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
    c = tracer.counts
    eig, flow, vexp, dec = (
        "spectra.symmetric_eigenvalues",
        "bigraph.edge_connectivity",
        "expansion.vertex_expansion",
        "eccode.bit_flip_decode",
    )
    return {
        f"{eig}.s": total[eig],
        f"{eig}.calls": calls[eig],
        f"{eig}.sweeps": c[f"{eig}.sweeps"],
        f"{eig}.rotations_computed": c[f"{eig}.rotations_computed"],
        f"{eig}.repeat_ratio": _ratio(c[f"{eig}.repeats"], calls[eig]),
        "spectra.bound_suite.self_s": own["spectra.bound_suite"],
        "vsplit.vertex_split.s": total["vsplit.vertex_split"],
        "vsplit.criterion.self_s": own["vsplit.theorem_r1_check"] + own["vsplit.theorem_r2_check"],
        f"{flow}.s": total[flow],
        f"{flow}.flows_computed": c[f"{flow}.flows_computed"],
        f"{flow}.repeat_ratio": _ratio(c[f"{flow}.repeats"], calls[flow]),
        f"{vexp}.s": total[vexp],
        f"{vexp}.subset_space_computed": c[f"{vexp}.subset_space_computed"],
        f"{vexp}.subsets_per_s": _ratio(c[f"{vexp}.subset_space_computed"], total[vexp]),
        f"{vexp}.repeat_ratio": _ratio(c[f"{vexp}.repeats"], calls[vexp]),
        "expansion.lossless_parameters.self_s": own["expansion.lossless_parameters"],
        "eccode.min_distance.s": total["eccode.min_distance"],
        "eccode.min_distance.codewords_computed": c["eccode.min_distance.codewords_computed"],
        f"{dec}.s": total[dec],
        f"{dec}.calls": calls[dec],
        f"{dec}.decoded_ratio": _ratio(c[f"{dec}.decoded"], calls[dec]),
        f"{dec}.net_flips_computed": c[f"{dec}.net_flips_computed"],
        "eccode.parity_check_from_graph.s": total["eccode.parity_check_from_graph"],
        "eccode.construct_expander_code.self_s": own["eccode.construct_expander_code"],
        "eccode.serialize.s": total["eccode.write_pchk"] + total["eccode.write_alist"],
        "bigraph.read_edge_list.s": total["bigraph.read_edge_list"],
        "cli.run.self_s": own["cli.run"],
        "cli.run.calls": calls["cli.run"],
    }
