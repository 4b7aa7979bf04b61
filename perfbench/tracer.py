"""Span tracer for the per-layer metrics, installed from outside the library.

``Tracer.install`` wraps the public functions and class methods listed
below (and ``numpy.fft.fft``, which extraction calls) in place: in every
``casualstable`` module namespace that holds the function, and on the
class that defines each method.  Each call records a span (name, layer,
parent span, operation index, start, end) in memory; ``uninstall``
restores the originals.  Nothing under ``src/`` is changed, and
untraced runs never see a wrapper.

Every listed function, class and method must exist: a missing one makes
``Tracer()`` raise ``MissingTarget``, so that a renamed or removed layer
stops the traced run instead of reading as a layer that takes no time.
A change that renames or adds a layer's functions updates the lists here.

A layer's self time is the sum over its spans of the span's duration
minus the time covered by its direct children.  A child covers its
whole wrapper, from entry to exit, including the bookkeeping before the
call and after it returned (counting draws, reading certificates), so
that cost lands in no layer; what remains of the tracing cost shows in
the traced batch's wall time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

KERNEL = "families.kernel"
LAPLACE = "families.laplace"
EXTRACT = "extraction.extract"
FFT = "extraction.fft"
RESIDUAL = "stability.residual"
GOLDEN = "stability.golden"
SIBUYA = "samplers.sibuya"
AUTHORS = "citations.author_rvs"
FIELD_TOTALS = "citations.field_totals"
SIMULATE = "citations.simulate_field"
SUMMARY = "citations.summary"
G_INVERSE = "convergence.g_inverse"
CONDITION_B = "convergence.condition_b"
CURVE = "convergence.curve"
CLI = "cli"
OP = "bench.op"

# (classes in casualstable.families, layer, method -> position of the point
# array in (self, ...) arguments); each class must define or inherit each method
METHOD_TARGETS = (
    (("SvhStable", "Example1", "Example2", "Geometric", "Sibuya", "AuthorCitations", "FieldCitations"),
     KERNEL, {"pgf": 1, "pgf_from_complement": 1}),
    (("Bernoulli", "Example1Thin", "Example2Thin"), KERNEL, {"thin": 2, "complement_map": 2}),
    (("Gamma", "TemperedStable"), LAPLACE, {"log_laplace": 1, "laplace": 1, "neg_log_gfun": 2, "gfun": 2}),
)
# the Sibuya sampler's table covers 1..8192; larger draws take the tail bisection
SIBUYA_TAIL_START = 8192


def _points_at(position: int, keyword: str | None = None, default: int = 0):
    def points(args, kwargs):
        if len(args) > position:
            value = args[position]
        else:
            value = kwargs.get(keyword) if keyword else None
        return default if value is None else int(np.size(value))

    return points


def _table_facts(args, kwargs, table):
    source = args[0] if args else kwargs.get("pgf")
    return (float(table.tol_neg), hasattr(source, "pgf"))


def _draw_facts(args, kwargs, draws):
    draws = np.asarray(draws)
    return (int(draws.size), int(np.count_nonzero(draws > SIBUYA_TAIL_START)), int(np.count_nonzero(draws == 1)))


def _size(args, kwargs, result):
    return int(np.size(result))


class MissingTarget(RuntimeError):
    """A function, class or method the tracer must wrap no longer exists."""


def _function_targets(cs):
    """(module, attribute, layer, points, facts) for the traced functions."""
    z_points = int(np.size(cs.stability.default_z_grid()))
    s_points = int(np.size(cs.stability.default_s_grid()))
    targets = [
        (cs.extraction, "extract_pmf", EXTRACT, None, _table_facts),
        (cs.stability, "discrete_stability_residual", RESIDUAL, _points_at(4, "z_grid", z_points), None),
        (cs.stability, "casual_stability_residual", RESIDUAL, _points_at(2, "s_grid", s_points), None),
        (cs.stability, "commutativity_residual", RESIDUAL, _points_at(3, "z_grid", z_points), None),
        (cs.stability, "compose_thinning", GOLDEN, None, None),
        (cs.samplers, "sibuya_rvs", SIBUYA, None, _draw_facts),
        (cs.citations, "author_rvs", AUTHORS, None, _size),
        (cs.citations, "field_totals", FIELD_TOTALS, None, None),
        (cs.citations, "simulate_field", SIMULATE, None, None),
        (cs.convergence, "g_inverse", G_INVERSE, None, None),
        (cs.convergence, "condition_b", CONDITION_B, None, None),
        (cs.convergence, "convergence_curve", CURVE, None, None),
        (cs.cli, "main", CLI, None, None),
        (np.fft, "fft", FFT, _points_at(0), None),
    ]
    for name in ("lower_median", "empirical_mode", "top_share", "tail_exponent"):
        targets.append((cs.citations, name, SUMMARY, None, None))
    return targets


def _method_targets(families):
    """(owner class, method, layer, points) for the traced methods, each owner once.

    The owner is the class in the method resolution order that defines
    the method, so an inherited method is wrapped where it lives.
    """
    targets, seen, missing = [], set(), []
    for class_names, layer, methods in METHOD_TARGETS:
        for class_name in class_names:
            cls = getattr(families, class_name, None)
            if not isinstance(cls, type):
                missing.append(f"{families.__name__}.{class_name}")
                continue
            for method, position in methods.items():
                owner = next((base for base in cls.__mro__ if method in vars(base)), None)
                if owner is None or not inspect.isfunction(vars(owner)[method]):
                    missing.append(f"{families.__name__}.{class_name}.{method}")
                elif (owner, method) not in seen:
                    seen.add((owner, method))
                    targets.append((owner, method, layer, _points_at(position)))
    return targets, missing


class Tracer:
    """Records spans while installed; aggregates them into layer metrics."""

    def __init__(self):
        import casualstable.cli
        import casualstable.convergence
        import casualstable.samplers

        # [name, layer, parent, op, entry, start, end, exit, points, facts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        try:
            self._functions = _function_targets(casualstable)
        except AttributeError as error:  # a module or grid helper is gone
            raise MissingTarget(f"not found, cannot trace: {error}") from error
        missing = [f"{module.__name__}.{attribute}" for module, attribute, *_ in self._functions
                   if not callable(getattr(module, attribute, None))]
        self._methods, missing_methods = _method_targets(casualstable.families)
        if missing + missing_methods:
            raise MissingTarget("not found, cannot trace: " + ", ".join(missing + missing_methods))

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, points=None, facts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            index = len(spans)
            record = [name, layer, stack[-1] if stack else -1, self._op, entry, 0.0, 0.0, 0.0,
                      points(args, kwargs) if points else 0, None]
            spans.append(record)
            stack.append(index)
            record[5] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[6] = clock()
                stack.pop()
            if facts is not None:
                record[9] = facts(args, kwargs, result)
            record[7] = clock()
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        modules = [module for key, module in sys.modules.items()
                   if key == "casualstable" or key.startswith("casualstable.")]
        for module, attribute, layer, points, facts in self._functions:
            original = getattr(module, attribute)
            wrapper = self._wrap(original, f"{module.__name__}.{attribute}", layer, points, facts)
            self._patch(module, attribute, wrapper)
            for other in modules:  # names imported with "from .x import f"
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)
        for owner, method, layer, points in self._methods:
            self._patch(owner, method, self._wrap(vars(owner)[method], f"{owner.__name__}.{method}", layer, points))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def run_op(self, index: int, fn):
        """Run one benchmark operation under a root span."""
        self._op = index
        return self._wrap(fn, "op", OP)()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, batches: int) -> dict[str, float]:
        """Per-batch layer metrics over every span recorded so far."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, layer, parent, op, entry, start, end, exit_, points, facts in spans:
            if parent >= 0:
                covered[parent] += exit_ - entry
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        points_total: dict[str, int] = defaultdict(int)
        golden_evals = bisect_evals = 0
        tables = family_tables = 0
        max_tol_neg = 0.0
        draws = tail = ones = authors = 0
        for index, (name, layer, parent, op, entry, start, end, exit_, points, facts) in enumerate(spans):
            self_time[layer] += (end - start) - covered[index]
            calls[layer] += 1
            ancestors = self._ancestor_layers(parent)
            if layer not in ancestors:  # count points once per outermost call
                points_total[layer] += points
            if name.endswith(".complement_map") and GOLDEN in ancestors:
                golden_evals += 1
            if name.endswith(".neg_log_gfun") and G_INVERSE in ancestors:
                bisect_evals += 1
            if layer == EXTRACT and facts is not None:
                tables += 1
                family_tables += facts[1]
                max_tol_neg = max(max_tol_neg, facts[0])
            elif layer == SIBUYA and facts is not None:
                draws += facts[0]
                tail += facts[1]
                ones += facts[2]
            elif layer == AUTHORS and facts is not None:
                authors += facts
        per = 1.0 / batches
        return {
            "families.kernel_s": self_time[KERNEL] * per,
            "families.kernel_points": points_total[KERNEL] * per,
            "families.laplace_s": self_time[LAPLACE] * per,
            "families.laplace_points": points_total[LAPLACE] * per,
            "extraction.extract_self_s": self_time[EXTRACT] * per,
            "extraction.fft_s": self_time[FFT] * per,
            "extraction.tables": tables * per,
            "extraction.fft_points": points_total[FFT] * per,
            "extraction.family_table_share": family_tables / tables if tables else 0.0,
            "extraction.max_tol_neg": max_tol_neg,
            "stability.residual_s": self_time[RESIDUAL] * per,
            "stability.residual_calls": calls[RESIDUAL] * per,
            "stability.grid_points": points_total[RESIDUAL] * per,
            "stability.golden_s": self_time[GOLDEN] * per,
            "stability.golden_evals": golden_evals * per,
            "samplers.sibuya_s": self_time[SIBUYA] * per,
            "samplers.sibuya_draws": draws * per,
            "samplers.sibuya_tail_share": tail / draws if draws else 0.0,
            "samplers.sibuya_k1_share": ones / draws if draws else 0.0,
            "citations.author_rvs_self_s": self_time[AUTHORS] * per,
            "citations.field_totals_self_s": self_time[FIELD_TOTALS] * per,
            "citations.summary_s": self_time[SUMMARY] * per,
            "citations.authors": authors * per,
            "convergence.g_inverse_s": self_time[G_INVERSE] * per,
            "convergence.g_inverse_calls": calls[G_INVERSE] * per,
            "convergence.bisect_evals": bisect_evals * per,
            "convergence.condition_b_s": self_time[CONDITION_B] * per,
            "convergence.curve_s": self_time[CURVE] * per,
            "cli.self_s": self_time[CLI] * per,
            "trace.spans": len(spans) * per,
        }

    def _ancestor_layers(self, parent: int) -> set[str]:
        layers = set()
        while parent >= 0:
            record = self.spans[parent]
            layers.add(record[1])
            parent = record[2]
        return layers

    def write(self, path: Path, first: int = 0) -> None:
        """Write spans[first:] as gzipped JSON lines (ids are span indices)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for index in range(first, len(self.spans)):
                name, layer, parent, op, _, start, end, _, points, _ = self.spans[index]
                handle.write(json.dumps({"id": index, "parent": parent, "op": op, "name": name,
                                         "layer": layer, "start": start, "end": end,
                                         "points": points}) + "\n")
