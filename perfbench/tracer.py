"""Per-layer spans recorded from outside the esss package.

Each traced function is replaced, in every loaded esss module that holds
it under some name, by a wrapper that records a span (id, parent id, name,
start, end).  Rebinding at each lookup site is what makes internal calls
count: homalg's own functions look `snf` up in the homalg module, the
engine looks `homology_group` up in the engine module, and so on.  Spans
stay in memory and are written out by `dump` when the process ends.

Self time is a span's duration minus the time of the traced spans it
caused.  Functions called about a million times per pass would add tens of
percent of overhead as spans, so they are counted only.
"""
from __future__ import annotations

import importlib
import sys
import time

clock = time.perf_counter

# <module>.<function> under esss, as the per-layer metric prefix
SPANNED = (
    "slices.e1_kq_basis",
    "rules.d1_matrix",
    "engine.build_page1",
    "engine.turn_page",
    "engine.degree_vanishing",
    "engine.run",
    "homalg.snf",
    "homalg.integer_kernel",
    "homalg.mat_inverse_unimodular",
    "homalg.kernel_cokernel",
    "homalg.homology_group",
    "homalg.express_in_group",
    "homalg.mat_mul",
    "basechange.compare_e1",
    "basechange.compare_e2",
    "pitable.compute_pi_group",
    "pitable.assemble_pi",
    "serialize.page_document",
    "serialize.document_json",
    "serialize.page_markdown",
    "serialize.pi_markdown",
    "charts.chart_svg",
    "cli.main",
    "oracles.mass_hz2n_oracle",
    "oracles.les_oracle",
    "dvrlin.snf_dvr",
    "dvrlin.dvr_homology",
)
COUNTED = ("coefficients.coeff_classes",)
SERIALIZERS = ("serialize.document_json", "serialize.page_markdown",
               "serialize.pi_markdown", "charts.chart_svg")


def _cells(M):
    return len(M) * len(M[0]) if M else 0


def layer_metrics():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SPANNED:
        out[f"{name}.calls"] = "count"
        out[f"{name}.total_s"] = "s"
        out[f"{name}.self_s"] = "s"
        if name == "homalg.snf":
            out[f"{name}.cells_total"] = "count"
            out[f"{name}.max_cells"] = "count"
        if name == "rules.d1_matrix":
            out[f"{name}.cells"] = "count"
            out[f"{name}.nnz"] = "count"
    for name in COUNTED:
        out[f"{name}.calls"] = "count"
    out["serialize.output_bytes"] = "bytes"
    out["process.cpu_s"] = "s"
    out["process.start_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.names = []
        self.spans = []          # (id, parent id or -1, name index, start, end, self)
        self.stack = []          # [id, time of traced children]
        self.counts = {}
        self.extra = {"homalg.snf.cells_total": 0, "homalg.snf.max_cells": 0,
                      "rules.d1_matrix.cells": 0, "rules.d1_matrix.nnz": 0,
                      "serialize.output_bytes": 0}
        self.missing = []

    def install(self):
        """Wrap every traced name; names that no longer exist are reported."""
        for name in SPANNED + COUNTED:
            mod_name, func = name.split(".")
            try:
                mod = importlib.import_module(f"esss.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            orig = getattr(mod, func, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = (self._counter(name, orig) if name in COUNTED
                       else self._span(name, orig))
            for m_name, m in list(sys.modules.items()):
                if m_name != "esss" and not m_name.startswith("esss."):
                    continue
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, extra = self.spans, self.stack, self.extra
        observe = None
        if name == "homalg.snf":
            def observe(args, result):
                cells = _cells(args[0])
                extra["homalg.snf.cells_total"] += cells
                if cells > extra["homalg.snf.max_cells"]:
                    extra["homalg.snf.max_cells"] = cells
        elif name == "rules.d1_matrix":
            def observe(args, result):
                extra["rules.d1_matrix.cells"] += _cells(result)
                extra["rules.d1_matrix.nnz"] += sum(1 for row in result for v in row if v)
        elif name in SERIALIZERS:
            def observe(args, result):
                extra["serialize.output_bytes"] += len(result.encode())

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, parent, index, t0, t1, t1 - t0 - frame[1]))
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def aggregate(self) -> dict:
        """Per-layer totals: calls, total_s and self_s per traced name."""
        out = {}
        for name in SPANNED:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for _, _, index, t0, t1, self_s in self.spans:
            name = self.names[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += t1 - t0
            out[f"{name}.self_s"] += self_s
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        out.update(self.extra)
        return out

    def dump(self, path: str):
        """Write the spans as tab-separated lines: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, index, t0, t1, _ in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{self.names[index]}\t{t0:.9f}\t{t1:.9f}\n")


def merge(totals: list) -> dict:
    """Sum the aggregates of several processes (maxima stay maxima)."""
    out = {}
    for agg in totals:
        for key, val in agg.items():
            if key.endswith(".max_cells"):
                out[key] = max(out.get(key, 0), val)
            else:
                out[key] = out.get(key, 0) + val
    return out
