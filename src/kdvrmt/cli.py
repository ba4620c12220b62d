"""Command-line front end: deterministic sweeps and table emission.

Subcommands: kdv-phase, kdv-compare, rmt-phase, op-table, toda-run.
Each reads a flat key=value config file (``#`` comments allowed), applies
flag overrides, writes CSV tables with fixed 17-significant-digit
scientific formatting plus a JSON manifest carrying the config hash, and
exits 0 on success, 1 on validation errors, 2 on partial failures, 3 on
internal errors.  Re-running a command with the same inputs produces
byte-identical files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import hopf, kdv_asym, kdv_direct, orthopoly, rmt_eq, toda
from .errors import KdvrmtError

__all__ = ["main"]

_FMT = "%.17e"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return _FMT % float(value)


def _parse_config(path: str | None) -> dict:
    cfg: dict = {}
    if path is None:
        return cfg
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise ValueError(f"{path}:{line_no}: duplicate key {key!r}")
        cfg[key] = val
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _finite(key: str, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text.strip()}")
    return value


def _float(cfg: dict, key: str, default: str) -> float:
    return _finite(key, cfg.get(key, default))


def _floats(cfg: dict, key: str, default: str) -> list[float]:
    return [_finite(key, tok) for tok in cfg.get(key, default).split(",") if tok.strip()]


def _ints(cfg: dict, key: str, default: str) -> list[int]:
    return [int(tok) for tok in cfg.get(key, default).split(",") if tok.strip()]


def _initial_data(cfg: dict):
    selector = cfg.get("initial_data", "sech2")
    if selector == "sech2":
        return hopf.make_sech2_data()
    if selector.startswith("csv:"):
        return hopf.load_initial_data_csv(selector[4:])
    raise ValueError(f"unknown initial_data selector {selector!r}")


def _map_jobs(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def cmd_kdv_phase(cfg: dict):
    data = _initial_data(cfg)
    cp = hopf.breaking_point(data)
    t_grid = _floats(cfg, "t_grid", "")
    if any(t <= cp.t_c for t in t_grid):
        raise ValueError(f"all t must exceed t_c = {cp.t_c:.10g}")
    rows = kdv_asym.kdv_phase_diagram(data, t_grid)
    failed = sum(bool(r["error"]) for r in rows)
    return rows, {"t_c": cp.t_c, "x_c": cp.x_c, "rows": len(rows), "failed_rows": failed}


def cmd_kdv_compare(cfg: dict, jobs: int):
    window = cfg.get("window", "hopf")
    if window not in ("hopf", "leading"):
        raise ValueError(f"unknown window {window!r}")
    unread = set(cfg) & {"hopf": {"halfwidth_scale"}, "leading": {"x_lo", "x_hi"}}[window]
    if unread:
        raise ValueError(f"window = {window} does not read {', '.join(sorted(unread))}")
    data = _initial_data(cfg)
    eps_list = _floats(cfg, "eps_list", "0.2,0.1")
    t = _float(cfg, "t", "0.1")
    n_probe = int(cfg.get("n_probe", "41"))
    if n_probe < 1:
        raise ValueError(f"n_probe must be >= 1, got {n_probe}")

    # points(eps) -> (probe abscissae, the asymptotic values there)
    if window == "hopf":
        xs = np.linspace(_float(cfg, "x_lo", "-3.0"), _float(cfg, "x_hi", "-1.0"), n_probe)
        reference = np.asarray([hopf.hopf_solve(x, t, data) for x in xs])

        def points(eps):
            return xs, reference

    else:
        edge = kdv_asym.solve_leading_edge(t, data)
        half = _float(cfg, "halfwidth_scale", "5.0")

        def points(eps):
            width = half * eps ** (2.0 / 3.0)
            xs = np.linspace(edge.x_edge - width, edge.x_edge + width, n_probe)
            return xs, np.asarray([kdv_asym.leading_edge_approx(x, t, eps, edge, data) for x in xs])

    def run_eps(eps):
        row = {"eps": eps, "max_error": math.nan, "error": ""}
        try:
            field = kdv_direct.solve_kdv(data, eps=eps, t_final=t)
            xs, reference = points(eps)
            row["max_error"] = float(np.max(np.abs(kdv_direct.probe(field, xs) - reference)))
        except KdvrmtError as exc:
            row["error"] = str(exc)
        return row

    return _map_jobs(run_eps, eps_list, jobs), {"window": window, "t": t}


def cmd_rmt_phase(cfg: dict):
    x_grid = _floats(cfg, "x_grid", "-4.0,-3.0,-2.0,-1.0,0.0")
    t_grid = _floats(cfg, "t_grid", "0.5,1.0")
    rows = rmt_eq.rmt_phase_diagram(x_grid, t_grid)
    return rows, {"rows": len(rows), "failed_cells": sum(bool(r["error"]) for r in rows)}


def cmd_op_table(cfg: dict):
    which = cfg.get("which", "regular")
    field = rmt_eq.QuarticField(x=_float(cfg, "x", "0.0"), t=_float(cfg, "t", "0.0"))
    rows, slope = orthopoly.compare_asymptotics(field, _ints(cfg, "n_range", "4,8,12,16"), which)
    return rows, {"which": which, "fitted_exponent": slope}


def cmd_toda_run(cfg: dict):
    n_weight = int(cfg.get("N", "20"))
    n_max = int(cfg.get("n_max", "32"))
    k = int(cfg.get("flow_k", "1"))
    dt = _float(cfg, "dt", "0.005")
    steps = int(cfg.get("steps", "0"))
    state = toda.gaussian_state(n_weight, n_max)
    spec0 = np.linalg.eigvalsh(toda.jacobi_matrix(state))
    state = toda.flow_hierarchy(state, k, dt, steps)
    spec1 = np.linalg.eigvalsh(toda.jacobi_matrix(state))
    rows = [{"n": n + 1, "gamma": g, "beta": b} for n, (g, b) in enumerate(zip(state.gamma, state.beta[1:]))]
    times = {str(kk): vv for kk, vv in state.times.items()}
    extra = {"N": n_weight, "n_max": n_max, "flow_k": k, "dt": dt, "steps": steps, "times": times}
    return rows, {**extra, "spectrum_drift": float(np.max(np.abs(spec1 - spec0)))}


# subcommand -> (handler, the config keys it reads, CSV name, manifest name,
# CSV header, the columns that name a marked row; None: no row is marked).
# A handler returns (rows, extra): rows keyed by CSV column, plus ``error``
# where a row can be marked, and the manifest fields of its own.
_COMMANDS = {
    "kdv-phase": (
        cmd_kdv_phase, {"initial_data", "t_grid"},
        "kdv_phase.csv", "kdv_phase.json", ("t", "x_minus", "x_plus"), ("t",),
    ),
    "kdv-compare": (
        cmd_kdv_compare,
        {"initial_data", "eps_list", "window", "t", "n_probe", "x_lo", "x_hi", "halfwidth_scale"},
        "kdv_compare.csv", "kdv_compare.json", ("eps", "max_error"), ("eps",),
    ),
    "rmt-phase": (
        cmd_rmt_phase, {"x_grid", "t_grid"},
        "rmt_phase.csv", "rmt_phase.json", ("x", "t", "class", "margin"), ("x", "t"),
    ),
    "op-table": (
        cmd_op_table, {"which", "x", "t", "n_range"},
        "op_table.csv", "op_table.json",
        ("n", "gamma_num", "gamma_asym", "err_gamma", "beta_num", "beta_asym", "err_beta"), ("n",),
    ),
    "toda-run": (
        cmd_toda_run, {"N", "n_max", "flow_k", "dt", "steps"},
        "toda_state.csv", "toda_run.json", ("n", "gamma", "beta"), None,
    ),
}


def _run(name: str, cfg: dict, out: Path, jobs: int) -> int:
    """Validate, run one subcommand, write its table and manifest; the exit code."""
    handler, keys, csv_name, manifest_name, header, key_columns = _COMMANDS[name]
    unknown = sorted(set(cfg) - keys)
    if unknown:
        raise ValueError(f"unknown config key(s) for {name}: {', '.join(unknown)}")
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    # kdv-compare alone maps its rows on threads
    threaded = name == "kdv-compare"
    if jobs != 1 and not threaded:
        raise ValueError(f"--jobs applies to kdv-compare only; {name} runs serially")
    out.mkdir(parents=True, exist_ok=True)
    rows, extra = handler(cfg, jobs) if threaded else handler(cfg)
    lines = [",".join(header)] + [",".join(_fmt(r[c]) for c in header) for r in rows]
    (out / csv_name).write_text("\n".join(lines) + "\n")
    doc = {"command": name, "config": cfg, "config_sha256": _config_hash(cfg), **extra}
    failures = []
    if key_columns is not None:
        failures = [{**{c: r[c] for c in key_columns}, "error": r["error"]} for r in rows if r["error"]]
        doc["failures"] = failures
    (out / manifest_name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kdvrmt",
        description="Dispersive-asymptotics and recurrence-coefficient sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        code = _run(args.command, _parse_config(args.config), Path(args.out), args.jobs)
    except (ValueError, KdvrmtError) as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal guard
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
