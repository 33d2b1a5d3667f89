"""Outside-in span recorder for one exchgraph CLI process.

The recorder wraps public functions (and a few methods) of the package from
the outside: each wrapper is bound in place of the original in *every*
exchgraph module that holds it, because most modules import names with
``from .x import y`` and would otherwise keep calling the unwrapped function.

Spans keep (id, parent, name, start, end, counts) in memory and are folded
into per-name totals when the process ends:

* ``<span>.calls``  number of calls;
* ``<span>.s``      summed duration of the outermost calls of that name
                    (threaded calls are summed, so this can exceed wall time);
* ``<span>.self_s`` duration minus the union of its child intervals;
* ``<span>.<count>`` work counts taken from the arguments or result.

``<span>`` is ``<module>.<function>`` with a leading underscore dropped, so
``_numerics.checked_quad`` reports as ``numerics.checked_quad``.

Spans opened in ``map_replicas``' pool threads are parented to the span that
submitted them, through a pool subclass bound as ``ensemble.ThreadPoolExecutor``.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import wraps


def _edge_file_counts(args, kwargs, result):
    sample, path = args[0], args[2]
    return {"edges": sample.matrix.count_ones(), "bytes": os.path.getsize(path)}


def _graph_counts(args, kwargs, result):
    return {"edges": result.matrix.count_ones(),
            "cells": result.matrix.m * result.matrix.n}


def _theta_draws(args, kwargs, result):
    return {"draws": len(result)}


def _bias_draws(args, kwargs, result):
    return {"draws": int(result.size)}


def _rank_bits(args, kwargs, result):
    return {"bits": result.rows * result.cols}


def _config_replicas(args, kwargs, result):
    return {"replicas": args[0].replicas}


def _arg_replicas(args, kwargs, result):
    return {"replicas": int(args[1] if len(args) > 1 else kwargs["replicas"])}


# span name <module>.<function> -> (work-count names, function computing them
# from the call's arguments and result)
SPANS = {
    "cli.main": ((), None),
    "cli.cmd_sample": ((), None),
    "cli.cmd_degrees": ((), None),
    "cli.cmd_motifs": ((), None),
    "cli.cmd_hub": ((), None),
    "cli.cmd_gf2": ((), None),
    "cli.cmd_report": ((), None),
    "cli.cmd_mc": ((), None),
    "ensemble.write_edge_list": (("bytes", "edges"), _edge_file_counts),
    "ensemble.sample_graph": (("cells", "edges"), _graph_counts),
    "ensemble.map_replicas": ((), None),
    "ensemble.sample_bias_matrix": (("draws",), _bias_draws),
    "mixing.sample_thetas": (("draws",), _theta_draws),
    "mixing.log_row_prob": ((), None),
    "mixing.xi": ((), None),
    "mixing.moment": ((), None),
    "_numerics.log_quad": ((), None),
    "_numerics.checked_quad": ((), None),
    "degrees.out_pmf_exact": ((), None),
    "degrees.in_pmf_exact": ((), None),
    "degrees.limit_pmf": ((), None),
    "motifs.var_feedback_loops": ((), None),
    "motifs.var_feedforward_loops": ((), None),
    "motifs.mc_motifs": (("replicas",), _arg_replicas),
    "motifs.mc_roots_leaves": (("replicas",), _arg_replicas),
    "seeds.PowerLawSeed.laplace": ((), None),
    "seeds.PowerLawSeed.t_laplace": ((), None),
    "gf2.log_expected_solutions": ((), None),
    "gf2.rate_sup": ((), None),
    "gf2.threshold_bisection": ((), None),
    "gf2.rank_gf2": (("bits",), _rank_bits),
    "gf2.mc_kernel_mean": (("replicas",), _config_replicas),
    "hub.mc_hub": ((), None),
    "hub.mc_hub_values": (("replicas",), _config_replicas),
}


def span_name(target: str) -> str:
    """Metric prefix of a wrapped function; metric names may not start with _."""
    return target.lstrip("_")


def metric_names() -> list[str]:
    """Every per-span metric name, in a fixed order."""
    names = []
    for target, (keys, _) in SPANS.items():
        span = span_name(target)
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
        names += [f"{span}.{key}" for key in keys]
    return names


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.records = []   # (id, parent, name, start, end, nested, counts)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Innermost open span of this thread, else the span it was handed."""
        stack = self._stack()
        return stack[-1][0] if stack else getattr(self._local, "base", None)

    def adopt(self, parent, fn, *args, **kwargs):
        """Run ``fn`` in a pool thread with ``parent`` as its root span."""
        saved = getattr(self._local, "base", None)
        self._local.base = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.base = saved

    def wrap(self, name, fn, count):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current()
            stack = self._stack()
            nested = any(open_name == name for _, open_name in stack)
            sid = next(self._ids)
            stack.append((sid, name))
            record = [sid, parent, name, time.perf_counter(), None, nested, None]
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
                self.records.append(record)
            if count is not None:
                # counted after the span closed, so counting is not span time
                record[6] = count(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Bind a wrapper over every SPANS function in every exchgraph module."""
        import exchgraph.cli  # noqa: F401  (loads every submodule)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "exchgraph" or key.startswith("exchgraph.")]
        for target, (_, count) in SPANS.items():
            module_name, *classes, func_name = target.split(".")
            owner = sys.modules["exchgraph." + module_name]
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = getattr(owner, func_name)
            wrapper = self.wrap(span_name(target), original, count)
            setattr(owner, func_name, wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        recorder = self

        class ParentingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(recorder.adopt, recorder.current(), fn,
                                      *args, **kwargs)

        sys.modules["exchgraph.ensemble"].ThreadPoolExecutor = ParentingPool

    def totals(self) -> dict:
        """Fold the spans into the per-name metrics listed by metric_names()."""
        children: dict = {}
        for rec in self.records:
            children.setdefault(rec[1], []).append((rec[3], rec[4]))
        out = {name: 0 for name in metric_names()}
        for sid, _, name, start, end, nested, counts in self.records:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - covered
            if not nested:
                out[f"{name}.s"] += end - start
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        return out
