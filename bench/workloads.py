"""The benchmark workloads: seeded inputs, execution and output checks.

Inputs depend on the seed only through ``variant = seed % N_VARIANTS``;
``refs/`` holds a reference for every variant, so every seed the
benchmark accepts is covered.  Each workload is a list of operations
(CLI rows, cells and eps entries, or oracle checks); ``check`` returns
one ``(name, ok, detail)`` triple per operation, so a wrong value, an
unexpected exit code or a missing row counts as a failed operation
instead of a crash.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

N_VARIANTS = 8
NAMES = ("edge_sweep", "dispersive_compare", "rmt_sweep")

# Catastrophe time of the sech^2 data u0 = -sech^2 x: t_c = sqrt(3)/8.
T_C = math.sqrt(3.0) / 8.0
# End of the trailing-edge validity window; rows past it must come back marked.
TRAILING_WINDOW_END = 0.2989

# Tolerances, each taken from what the code under test states for itself.
TOL = {
    # edge Newton: residual 1e-11 on a 1e-10 theta quadrature; the tests
    # hold chained and cold edge solves to 1e-8
    "edge_x": 1e-8,
    # pseudospectral solver at rtol 1e-10 against a tightened solve
    "kdv_error": 1e-6,
    "kdv_drift": 1e-8,
    # rmt-phase classification tolerance (classify_tol = 1e-6 in the CLI)
    "margin": 1e-6,
    # recurrence tables against a 100-digit, finer-rule table
    "recurrence": 1e-12,
    # asymptotic formulas: PI2 replay residual bound
    "asym": 1e-8,
    # Toda flow: drift_tol of flow_hierarchy, for the spectrum and for the
    # state against a flow with a four times smaller step
    "toda": 1e-6,
}


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def variant_of(seed: int, size: str) -> int:
    """The smoke size has a single variant."""
    return 0 if size == "smoke" else seed % N_VARIANTS


def make_inputs(name: str, size: str, variant: int) -> dict:
    """The generated configs; the program receives only these."""
    rng = random.Random(f"{name}/{size}/{variant}")

    def jit(center, width):
        return round(center + rng.uniform(-width, width), 4)

    if name == "edge_sweep":
        # The grid does not move with the seed: a jitter of +-0.002 in t
        # changed how far the theta quadrature doubles its nodes and how
        # often the continuation halves, moving peak RSS between 110 and
        # 173 MB from one seed to the next.
        # The row next to the fold is its own sweep: warm-starting the
        # later rows from it puts their continuation on a wrong branch
        # (see test_chained_sweep_from_the_fold in test_bench.py), and
        # every operation a workload times has to come back right.
        if size == "smoke":
            sweeps = [[0.22, 0.24]]
        else:
            sweeps = [[round(T_C + 1e-6, 12)], [0.22, 0.24, 0.26, 0.28, 0.30]]
        return {
            "steps": [
                _step("kdv-phase", {"initial_data": "sech2", "t_grid": _floats(t_grid)}, len(t_grid))
                for t_grid in sweeps
            ]
        }
    if name == "dispersive_compare":
        steps = []
        if size == "full":
            steps.append(
                _step(
                    "kdv-compare",
                    {"window": "leading", "t": repr(jit(0.4, 0.002)), "eps_list": "0.1"},
                    1,
                )
            )
        eps_hopf = "0.2" if size == "smoke" else "0.2,0.1,0.05"
        steps.append(
            _step(
                "kdv-compare",
                {"window": "hopf", "t": repr(jit(0.1, 0.002)), "eps_list": eps_hopf},
                len(eps_hopf.split(",")),
            )
        )
        return {"steps": steps}
    if name == "rmt_sweep":
        x_off, t_off = jit(0.0, 0.02), jit(0.0, 0.01)
        if size == "smoke":
            x_grid, t_grid = [-1.0 + x_off], [0.5 + t_off]
            n_regular, n_edge = [8, 16], [8]
        else:
            # (0, 1) is the edge-critical cell and stays on the grid
            x_grid, t_grid = [-1.0 + x_off, 0.0], [1.0]
            n_regular, n_edge = [8, 16, 24, 32], [8, 16, 24]
        return {
            "steps": [
                _step("rmt-phase", {"x_grid": _floats(x_grid), "t_grid": _floats(t_grid)}, len(x_grid) * len(t_grid)),
                _step(
                    "op-table",
                    {"which": "regular", "x": repr(-1.0 + x_off), "t": repr(0.5 + t_off), "n_range": ",".join(map(str, n_regular))},
                    len(n_regular),
                ),
                _step(
                    "op-table",
                    {"which": "edge", "x": "0.0", "t": repr(jit(0.9, 0.005)), "n_range": ",".join(map(str, n_edge))},
                    len(n_edge),
                ),
                _step("toda-run", {"N": "20", "n_max": "32", "flow_k": "1", "dt": "0.005", "steps": "2000"}, 32),
            ]
        }
    raise ValueError(f"unknown workload {name!r}")


def _step(command: str, config: dict, rows: int) -> dict:
    return {"command": command, "config": config, "rows": rows}


def expected_exit(step: dict) -> int:
    """kdv-phase marks rows past the trailing window and exits 2."""
    if step["command"] == "kdv-phase":
        t_grid = [float(v) for v in step["config"]["t_grid"].split(",")]
        return 2 if any(t > TRAILING_WINDOW_END for t in t_grid) else 0
    return 0


# ----------------------------------------------------------------------
# execution (inside the fresh interpreter)
# ----------------------------------------------------------------------

def write_configs(inputs: dict, out: Path) -> list:
    paths = []
    for i, step in enumerate(inputs["steps"]):
        path = out / f"step{i}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in step["config"].items()))
        paths.append(path)
    return paths


def run_cli(inputs: dict, config_paths: list, out: Path) -> list:
    """Each step as one ``kdvrmt`` subcommand; returns the exit codes."""
    from kdvrmt import cli

    exits = []
    for i, (step, cfg) in enumerate(zip(inputs["steps"], config_paths)):
        argv = [step["command"], "--config", str(cfg), "--out", str(out / f"out{i}"), "--jobs", "1"]
        exits.append(cli.main(argv))
    return exits


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _read_csv(path: Path):
    if not path.exists():
        return []
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        parsed = {}
        for key, val in row.items():
            try:
                parsed[key] = float(val)
            except (TypeError, ValueError):
                parsed[key] = val
        out.append(parsed)
    return out


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _close(value, ref, tol) -> bool:
    return value is not None and ref is not None and math.isfinite(value) and abs(value - ref) <= tol


CSV_NAMES = {
    "kdv-phase": ("kdv_phase.csv", "kdv_phase.json"),
    "kdv-compare": ("kdv_compare.csv", "kdv_compare.json"),
    "rmt-phase": ("rmt_phase.csv", "rmt_phase.json"),
    "op-table": ("op_table.csv", "op_table.json"),
    "toda-run": ("toda_state.csv", "toda_run.json"),
}


def check(name: str, inputs: dict, ref: dict | None, exits: list, out: Path, captured: list) -> tuple[list, dict]:
    """Operations with their outcome, plus error figures for the trace."""
    ops: list = []
    observed: dict = {}
    if ref is None or ref.get("inputs") != inputs:
        # no reference for these inputs: every operation misses
        n_ops = sum(s["rows"] + 1 for s in inputs["steps"])
        return [(f"{name}/op{i}", False, "no reference for these inputs") for i in range(n_ops)], observed
    kdv_fields = iter(captured)
    for i, step in enumerate(inputs["steps"]):
        csv_name, manifest_name = CSV_NAMES[step["command"]]
        rows = _read_csv(out / f"out{i}" / csv_name)
        manifest = _read_json(out / f"out{i}" / manifest_name)
        refs = ref["steps"][i]
        want_exit = expected_exit(step)
        got_exit = exits[i] if i < len(exits) else None
        label = f"{step['command']}#{i}"
        ops.append((f"{label}/exit", got_exit == want_exit, f"exit {got_exit}, expected {want_exit}"))
        for j in range(step["rows"]):
            row = rows[j] if j < len(rows) else None
            if row is None:
                ops.append((f"{label}/row{j}", False, "missing row"))
                continue
            ok, detail = _check_row(step, row, refs["rows"][j], manifest, kdv_fields, observed)
            ops.append((f"{label}/row{j}", ok, detail))
        if len(rows) > step["rows"]:
            ops.append((f"{label}/extra", False, f"{len(rows) - step['rows']} unexpected rows"))
    return ops, observed


def _bump(observed: dict, key: str, value: float) -> None:
    if value is not None and math.isfinite(value):
        observed[key] = max(observed.get(key, 0.0), value)


def _check_row(step, row, ref, manifest, kdv_fields, observed):
    cmd = step["command"]
    if cmd == "kdv-phase":
        ok = row["t"] == ref["t"] and _close(row["x_minus"], ref["x_minus"], TOL["edge_x"])
        if ref["x_plus"] is None:  # past the window: must be marked
            ok = ok and math.isnan(row["x_plus"]) and manifest.get("failed_rows", 0) >= 1
        else:
            ok = ok and _close(row["x_plus"], ref["x_plus"], TOL["edge_x"])
        return ok, f"row {row} vs {ref}"
    if cmd == "kdv-compare":
        field = next(kdv_fields, None)
        drift = max(field.mass_drift, field.l2_drift) if field is not None else math.inf
        ok = row["eps"] == ref["eps"] and _close(row["max_error"], ref["max_error"], TOL["kdv_error"])
        ok = ok and drift < TOL["kdv_drift"]
        if math.isfinite(row["max_error"]):
            _bump(observed, "kdv_direct.solve_kdv.err_max", abs(row["max_error"] - ref["max_error"]))
        return ok, f"max_error {row['max_error']!r} vs {ref['max_error']!r}, drift {drift:.2e}"
    if cmd == "rmt-phase":
        ok = row["class"] == ref["class"] and _close(row["margin"], ref["margin"], TOL["margin"])
        return ok, f"{row['class']} {row['margin']!r} vs {ref['class']} {ref['margin']!r}"
    if cmd == "op-table":
        ok = row["n"] == ref["n"]
        for key in ("gamma_num", "beta_num"):
            ok = ok and _close(row[key], ref[key], TOL["recurrence"])
            if math.isfinite(row[key]):
                _bump(observed, "orthopoly.compute_recurrence.err_max", abs(row[key] - ref[key]))
        for key in ("gamma_asym", "beta_asym"):
            ok = ok and _close(row[key], ref[key], TOL["asym"])
        ok = ok and row["err_gamma"] == abs(row["gamma_num"] - row["gamma_asym"])
        ok = ok and row["err_beta"] == abs(row["beta_num"] - row["beta_asym"])
        return ok, f"row {row} vs {ref}"
    if cmd == "toda-run":
        drift = manifest.get("spectrum_drift", math.inf)
        _bump(observed, "toda.flow_hierarchy.spectrum_drift", drift)
        ok = row["n"] == ref["n"] and drift < TOL["toda"]
        ok = ok and _close(row["gamma"], ref["gamma"], TOL["toda"]) and _close(row["beta"], ref["beta"], TOL["toda"])
        return ok, f"row {row} vs {ref}, drift {drift!r}"
    return False, f"unknown command {cmd}"


def out_digests(out: Path) -> dict:
    """sha256 of every file the program wrote under the --out directories."""
    digests = {}
    for path in sorted(out.glob("out*/*")):
        digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def out_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.glob("out*/*"))
