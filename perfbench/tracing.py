"""Spans around noisy_control's public functions, recorded from outside the package.

``Tracer.install`` wraps each listed function at every place it is bound:
module attributes (``simulate_state`` is bound in ``dynamics``,
``maxprinciple``, ``verification`` and ``cli``), the class attribute for a
method, and the scenario catalog's factory entries.  Calls made inside the
package go through those same bindings, so spans nest: each span knows its
parent, and a function's self time is its busy time minus the time its
traced children cover.  Spans stay in memory until ``summary`` aggregates
them.  Nothing in the package waits on another thread, so no wait time is
recorded.
"""

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

from noisy_control import scenarios


def _sample_counts(result):
    marks = sum(int(np.size(m)) for m in result.jump_marks)
    return {"path_steps": result.n_paths * result.grid.n_steps, "jump_marks": marks}


def _state_counts(result):
    return {"path_steps": result.n_paths * result.grid.n_steps}


def _tangent_counts(result):
    return {"path_steps": result.k.shape[0] * result.grid.n_horizon_steps}


def _absde_counts(result):
    return {"path_steps": result.p1.shape[0] * result.grid.n_horizon_steps}


# traced name -> counter of the work a call did (path-steps: paths x grid
# steps the call sweeps)
TARGETS = {
    "paths.sample_ensemble": _sample_counts,
    "paths.NoiseEnsemble.step_mark_sums": None,
    "dynamics.simulate_state": _state_counts,
    "dynamics.reduce_2d": None,
    "dynamics.evaluate_performance": None,
    "adjoint.solve_linear_closed_form": None,
    "adjoint.solve_absde_2d": _absde_counts,
    "adjoint.bsde_residual_1d": None,
    "adjoint.mu_generalized": None,
    "malliavin.duality_check": None,
    "maxprinciple.derivative_process": _tangent_counts,
    "maxprinciple.directional_derivative_K": None,
    "maxprinciple.directional_derivative_H": None,
    "maxprinciple.finite_difference_derivative": None,
    "maxprinciple.solve_foc": None,
    "maxprinciple.check_necessary_I": None,
    "maxprinciple.check_sufficient": None,
    "scenarios.linear_noisy_memory": None,
    "scenarios.consumption": None,
    "scenarios.generalized_memory": None,
    "scenarios.custom_affine": None,
    "scenarios.duality_battery": None,
    "cli.load_config": None,
    "cli.sample_noise": None,
    "cli.run_scenario": None,
    "cli.write_outputs": None,
}

MODULES = ("paths", "dynamics", "adjoint", "malliavin", "maxprinciple", "scenarios", "cli")


def _resolve(name):
    owner = importlib.import_module("noisy_control." + name.split(".")[0])
    for part in name.split(".")[1:-1]:
        owner = getattr(owner, part)
    return owner, name.split(".")[-1]


class Tracer:
    """Records one span per call of a traced function, plus one per task."""

    def __init__(self):
        self.spans = []  # [task, name, parent index, start, end, counts]
        self._stack = []
        self._patches = []
        self.task = None

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [self.task, name, parent, time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def run_task(self, name, fn, *args):
        """Call fn(*args) as the root span of task `name`."""
        self.task = name
        span = self._enter("task")
        try:
            return fn(*args)
        finally:
            self._exit(span)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every binding of every target for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        package = [m for k, m in sorted(sys.modules.items())
                   if k.startswith("noisy_control.") and m is not None]
        for name, count in TARGETS.items():
            owner, attr = _resolve(name)
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn, count)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, traced)
            for entry in scenarios.CATALOG.values():
                if entry["factory"] is fn:
                    self._patch(entry, "factory", traced)

    def _patch(self, owner, key, new):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def _uninstall(self):
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches = []

    def summary(self):
        """Per traced name: calls, busy and self seconds, summed counts.

        Busy time counts only the outermost span of a name, so recursion
        through the same function is not counted twice.  Self time is the
        span's duration minus its direct children's durations.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[2] is not None:
                child[span[2]] += span[4] - span[3]
        out = {}
        for i, (_, name, parent, start, end, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            if not self._inside(i, name):
                row["busy_s"] += end - start
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def _inside(self, i, name):
        parent = self.spans[i][2]
        while parent is not None:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][2]
        return False
