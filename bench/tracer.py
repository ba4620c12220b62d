"""Spans around the calls into each kdvrmt layer, recorded from outside.

The tracer replaces the public functions named in ``GROUPS`` by timing
wrappers in every ``kdvrmt`` module namespace that binds them (``from
.core import newton_solve`` binds the same object into ``kdv_asym``,
``rmt_eq`` and ``toda``).  No file of the package is changed.

Spans are kept in memory as records ``[name, start, end, parent, run_id,
count, duration, self]`` and written out once at the end.  Spans of hot
kernels are aggregated per (parent, name): one record holds their count
and summed duration and self time.  Self time is a span's duration minus
the time its child spans cover; the program is single-threaded, so the
children of one span never overlap.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# layer group -> (module, attribute) pairs it wraps, and whether its spans
# are aggregated per parent
GROUPS = {
    "core.newton_solve": ([("core", "newton_solve")], False),
    "hopf.theta": (
        [("hopf", "theta_of"), ("hopf", "theta_v"), ("hopf", "theta_vv"), ("hopf", "theta_many")],
        True,
    ),
    "hopf.breaking_point": ([("hopf", "breaking_point")], False),
    "hopf.hopf_solve": ([("hopf", "hopf_solve")], True),
    # kdv_phase_diagram calls the private _solve_edge directly; the two
    # public solvers go through it, so wrapping it alone counts each solve once
    "kdv_asym.edge": ([("kdv_asym", "_solve_edge")], False),
    "kdv_asym.trailing_integral": ([("kdv_asym", "trailing_integral")], True),
    "kdv_asym.approx": (
        [
            ("kdv_asym", "leading_edge_approx"),
            ("kdv_asym", "trailing_edge_approx"),
            ("kdv_asym", "elliptic_approx"),
            ("kdv_asym", "catastrophe_approx"),
        ],
        True,
    ),
    "kdv_direct.solve_kdv": ([("kdv_direct", "solve_kdv")], False),
    "kdv_direct.probe": ([("kdv_direct", "probe")], False),
    "painleve.solve_pi2": ([("painleve", "solve_pi2")], False),
    "painleve.pi2_cache": ([("painleve", "pi2_solution_cached")], True),
    "painleve.solve_hastings_mcleod": ([("painleve", "solve_hastings_mcleod")], False),
    "rmt_eq.log_potential": ([("rmt_eq", "log_potential")], True),
    "rmt_eq.classify": ([("rmt_eq", "classify")], False),
    "rmt_eq.make_onecut_measure": ([("rmt_eq", "make_onecut_measure")], False),
    "orthopoly.compute_recurrence": ([("orthopoly", "compute_recurrence")], False),
    "orthopoly.asym": (
        [("orthopoly", "asym_onecut"), ("orthopoly", "asym_interior"), ("orthopoly", "asym_edge")],
        True,
    ),
    "toda.flow_hierarchy": ([("toda", "flow_hierarchy")], False),
    "cli.main": ([("cli", "main")], False),
}


def _count_newton(counters, args, kwargs, out, exc):
    if exc is None:
        counters["iterations"] += out.iterations
    else:
        counters["iterations"] += getattr(exc, "iterations", None) or 0
        counters["failed"] += 1


def _count_kdv(counters, args, kwargs, out, exc):
    if exc is None:
        counters["steps"] += out.n_steps
        counters["drift_max"] = max(counters["drift_max"], out.mass_drift, out.l2_drift)


def _count_probe(counters, args, kwargs, out, exc):
    import numpy as np

    counters["points"] += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _count_pi2(counters, args, kwargs, out, exc):
    if exc is None:
        counters["nodes"] += int(out.x_grid.size)
        counters["residual_max"] = max(counters["residual_max"], out.residual_norm)


def _count_recurrence(counters, args, kwargs, out, exc):
    if exc is None:
        counters["nodes"] += int(out.n_nodes)


def _count_flow(counters, args, kwargs, out, exc):
    counters["steps"] += int(args[3] if len(args) > 3 else kwargs["steps"])


# group -> (counter hook, the counters it fills)
HOOKS = {
    "core.newton_solve": (_count_newton, ("iterations", "failed")),
    "kdv_direct.solve_kdv": (_count_kdv, ("steps", "drift_max")),
    "kdv_direct.probe": (_count_probe, ("points",)),
    "painleve.solve_pi2": (_count_pi2, ("nodes", "residual_max")),
    "orthopoly.compute_recurrence": (_count_recurrence, ("nodes",)),
    "toda.flow_hierarchy": (_count_flow, ("steps",)),
}


RECORD_FIELDS = ("name", "start", "end", "parent", "run_id", "count", "duration_s", "self_s")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list = []
        self.agg: dict = {}
        self.stack: list = []  # [record index, child coverage] per open span
        self.counters = {
            group: {name: 0 for name in HOOKS.get(group, (None, ()))[1]} for group in GROUPS
        }
        self.overhead_s = 0.0
        self.absent: list = []

    def _wrap(self, group: str, hot: bool, fn):
        clock = time.perf_counter
        records, agg, stack = self.records, self.agg, self.stack
        hook = HOOKS.get(group, (None,))[0]
        counters = self.counters[group]
        run_id = self.run_id
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            parent = stack[-1][0] if stack else None
            if hot:
                rec_id = agg.get((parent, group))
                if rec_id is None:
                    rec_id = agg[(parent, group)] = len(records)
                    records.append([group, t0, t0, parent, run_id, 0, 0.0, 0.0])
            else:
                rec_id = len(records)
                records.append([group, t0, t0, parent, run_id, 0, 0.0, 0.0])
            frame = [rec_id, 0.0]
            stack.append(frame)
            out = exc = None
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as err:
                exc = err
                raise
            finally:
                t2 = clock()
                stack.pop()
                rec = records[rec_id]
                duration = t2 - t1
                rec[2] = t2
                rec[5] += 1
                rec[6] += duration
                rec[7] += duration - frame[1]
                if hook is not None:
                    hook(counters, args, kwargs, out, exc)
                exc = None  # break the exception -> traceback -> frame cycle
                t3 = clock()
                if stack:
                    stack[-1][1] += t3 - t0
                tracer.overhead_s += (t1 - t0) + (t3 - t2)

        return traced

    def install(self) -> None:
        """Wrap every function in GROUPS wherever a kdvrmt module binds it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kdvrmt" and m]
        for group, (targets, hot) in GROUPS.items():
            found = False
            for mod_name, attr in targets:
                home = sys.modules.get(f"kdvrmt.{mod_name}")
                orig = getattr(home, attr, None) if home is not None else None
                if orig is None:
                    continue
                found = True
                wrapper = self._wrap(group, hot, orig)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)
            if not found:
                self.absent.append(group)

    def group_totals(self) -> dict:
        totals = {group: {"calls": 0, "self_s": 0.0} for group in GROUPS}
        for rec in self.records:
            totals[rec[0]]["calls"] += rec[5]
            totals[rec[0]]["self_s"] += rec[7]
        return totals

    def cache_misses(self, cache_group: str, solver_group: str) -> int:
        """Solver calls made from inside a cache lookup span."""
        return sum(
            rec[5]
            for rec in self.records
            if rec[0] == solver_group and rec[3] is not None and self.records[rec[3]][0] == cache_group
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.records):
                fh.write(json.dumps({"id": i, **dict(zip(RECORD_FIELDS, rec))}) + "\n")
