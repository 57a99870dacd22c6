"""Spans around nuframes' public functions, installed from outside.

``Tracer.install()`` replaces each traced function, in every nuframes module
namespace that holds it, by a wrapper that records a span: name, start, end,
parent span and job id.  ``math.fsum`` is traced only where ``analysis``
calls it, by giving that module a ``math`` namespace whose ``fsum`` is
wrapped.  Spans stay in memory until ``write()``.  ``uninstall()`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import types

import numpy as np

# (defining module, function name) -> span name; the span name is also the
# per-layer metric prefix.
TRACED = {
    ("nuframes.symfunc", "evaluate"): "symfunc.evaluate",
    ("nuframes.analysis", "lattice_sum_parseval"): "analysis.lattice_sum_parseval",
    ("nuframes.analysis", "norm_sq"): "analysis.norm_sq",
    ("nuframes.analysis", "parseval_report"): "analysis.parseval_report",
    ("nuframes.analysis", "lattice_sum_direct_detail"):
        "analysis.lattice_sum_direct_detail",
    ("nuframes.analysis", "telescoping_residual"): "analysis.telescoping_residual",
    ("nuframes.analysis", "level_profile"): "analysis.level_profile",
    ("nuframes.setups", "validate_setup"): "setups.validate_setup",
    ("nuframes.setups", "uep_residual"): "setups.uep_residual",
    ("nuframes.setups", "oep_check"): "setups.oep_check",
    ("nuframes.cli", "main"): "cli.main",
}
FSUM = "analysis.fsum"

# name -> fields reported per job (calls/busy_ms/self_ms come from spans;
# points/nonzero_ratio/items/report_bytes from the counts spans carry).
PER_LAYER = {
    "symfunc.evaluate": ("calls", "points", "busy_ms", "nonzero_ratio"),
    FSUM: ("calls", "items", "busy_ms"),
    "analysis.lattice_sum_parseval": ("calls", "busy_ms", "self_ms"),
    "analysis.norm_sq": ("calls", "busy_ms"),
    "analysis.parseval_report": ("calls", "self_ms"),
    "analysis.lattice_sum_direct_detail": ("calls", "busy_ms", "self_ms"),
    "analysis.telescoping_residual": ("calls", "busy_ms"),
    "analysis.level_profile": ("calls", "busy_ms"),
    "setups.validate_setup": ("calls", "busy_ms", "self_ms", "points"),
    "setups.uep_residual": ("calls", "busy_ms"),
    "setups.oep_check": ("calls", "busy_ms"),
    "cli.main": ("calls", "busy_ms", "self_ms", "report_bytes"),
}
UNITS = {"calls": "count", "points": "count", "items": "count",
         "report_bytes": "bytes", "busy_ms": "ms", "self_ms": "ms",
         "nonzero_ratio": "ratio"}


def _evaluate_counts(args, kwargs, result):
    n = int(np.size(result))
    return {"points": n, "nonzero": int(np.count_nonzero(result))}


def _main_counts(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        return {"report_bytes": os.path.getsize(path)}
    return {}


# span name -> counts recorded after the call, outside the span's time
COUNTS = {"symfunc.evaluate": _evaluate_counts, "cli.main": _main_counts}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.job = None

    def _wrap(self, name, fn, counts=None, materialize=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize and args and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            span = {"name": name, "job": tracer.job, "post": 0.0,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if materialize:
                span["items"] = len(args[0])
            if counts is not None:
                span.update(counts(args, kwargs, result))
            # Time spent here counting belongs to no layer; the parent's
            # self time excludes it.
            span["post"] = time.perf_counter() - span["end"]
            return result

        return wrapper

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "nuframes" or n.startswith("nuframes.")]
        for (modname, attr), name in TRACED.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, COUNTS.get(name))
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)
        analysis = sys.modules["nuframes.analysis"]
        proxy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                         if not k.startswith("__")})
        proxy.fsum = self._wrap(FSUM, math.fsum, materialize=True)
        self._patched.append((analysis, "math", analysis.math))
        analysis.math = proxy

    def uninstall(self):
        while self._patched:
            m, key, original = self._patched.pop()
            setattr(m, key, original)

    def _covered(self) -> list:
        """Per span, the time its child spans cover, counting included."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"] + s["post"]
        return covered

    def per_job_metrics(self, jobs: int) -> dict:
        """Every per-layer metric, summed over spans and divided by jobs."""
        covered = self._covered()
        # Parents precede their children in self.spans.
        under_validate = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s["parent"]
            if p is not None:
                under_validate[i] = under_validate[p] or (
                    self.spans[p]["name"] == "setups.validate_setup")
        agg = {name: {"calls": 0, "busy": 0.0, "self": 0.0, "points": 0,
                      "nonzero": 0, "items": 0, "report_bytes": 0}
               for name in PER_LAYER}
        validate_points = 0
        for i, s in enumerate(self.spans):
            a = agg[s["name"]]
            dur = s["end"] - s["start"]
            a["calls"] += 1
            a["busy"] += dur
            a["self"] += dur - covered[i]
            for key in ("points", "nonzero", "items", "report_bytes"):
                a[key] += s.get(key, 0)
            if under_validate[i]:
                validate_points += s.get("points", 0)
        agg["setups.validate_setup"]["points"] = validate_points
        out = {}
        for name, fields in PER_LAYER.items():
            a = agg[name]
            for field in fields:
                if field == "nonzero_ratio":
                    v = a["nonzero"] / a["points"] if a["points"] else 0.0
                elif field in ("busy_ms", "self_ms"):
                    v = 1e3 * a[field.split("_")[0]] / jobs
                else:
                    v = a[field] / jobs
                out[f"{name}.{field}"] = {"value": v, "unit": UNITS[field]}
        return out

    def layer_shares(self, job_seconds: float) -> dict:
        """Self time of each layer as a share of traced job time."""
        covered = self._covered()
        shares = {}
        for i, s in enumerate(self.spans):
            shares[s["name"]] = shares.get(s["name"], 0.0) + (
                s["end"] - s["start"] - covered[i])
        return {k: v / job_seconds for k, v in sorted(shares.items())}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
