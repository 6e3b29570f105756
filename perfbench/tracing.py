"""Per-layer spans recorded from outside the cvbench package.

`Tracer.install` wraps each listed function and puts the wrapper in place of
the original in every ``cvbench`` module namespace that holds it, so calls
through ``from .bounds import classical_bound`` style imports are caught as
well as module-attribute calls.  `Tracer.uninstall` puts the originals back.

Each call records a span (name, start, end, parent span, job id), timed by
the process's CPU clock like the jobs themselves.  Spans stay in memory in
flat arrays (a sweep job alone makes some 2 x 10^4); `summary` turns them
into per-function call counts, busy time and self time, and `dump` writes
them out once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, layers: dict):
        """`layers` maps a cvbench module name to the functions to trace."""
        self.layers = layers
        self.labels = [f"{m}.{f}" for m, fs in layers.items() for f in fs]
        self.raised = {module: 0 for module in layers}
        self.job = -1
        self.name, self.parent, self.job_id = array("l"), array("l"), array("l")
        self.start, self.end = array("d"), array("d")
        self._stack = []
        self._patches = []

    def _wrap(self, module: str, label_id: int, fn):
        names, parents, jobs = self.name, self.parent, self.job_id
        starts, ends, stack, raised = self.start, self.end, self._stack, self.raised
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(label_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
        return traced

    def install(self):
        if self._patches:
            return
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "cvbench" or n.startswith("cvbench."))]
        for module, names in self.layers.items():
            home = sys.modules[f"cvbench.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(module, self.labels.index(f"{module}.{name}"),
                                     original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches = []

    def summary(self, job_scale: dict) -> dict:
        """Per-function calls, busy_s and self_s per traced job.

        `job_scale` maps each traced job id to the factor that takes its CPU
        seconds to reference speed; every span of the job is scaled by it.
        Busy time counts only the outermost span of a recursive function, so
        it is the time the function was on the stack; self time is a span's
        duration minus the time its direct children cover.
        """
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        job = np.asarray(self.job_id, dtype=np.int64)
        scale = np.array([job_scale.get(j, 1.0) for j in range(job.max(initial=0) + 1)])
        dur = (np.asarray(self.end) - np.asarray(self.start)) * scale[job]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        # a span is nested in its own function when an ancestor has its name
        nested = np.zeros(dur.size, dtype=bool)
        ancestor = parent.copy()
        while (ancestor >= 0).any():
            live = ancestor >= 0
            nested[live] |= name[ancestor[live]] == name[live]
            ancestor[live] = parent[ancestor[live]]
        n = len(self.labels)
        calls = np.bincount(name, minlength=n)
        busy = np.bincount(name[~nested], weights=dur[~nested], minlength=n)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        jobs = max(len(job_scale), 1)
        out = {}
        for i, label in enumerate(self.labels):
            out[f"{label}.calls"] = calls[i] / jobs
            out[f"{label}.busy_s"] = busy[i] / jobs
            out[f"{label}.self_s"] = self_s[i] / jobs
        for module, count in self.raised.items():
            out[f"{module}.raised"] = count / jobs
        return {k: float(v) for k, v in out.items()}

    def dump(self, path: str):
        """Write the spans as flat arrays to a numpy .npz file."""
        np.savez(path, labels=np.array(self.labels), name=np.array(self.name),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), job=np.array(self.job_id))
