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
import functools
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


def _floats(cfg: dict, key: str, default: str) -> list[float]:
    return [float(tok) for tok in cfg.get(key, default).split(",") if tok.strip()]


def _ints(cfg: dict, key: str, default: str) -> list[int]:
    return [int(tok) for tok in cfg.get(key, default).split(",") if tok.strip()]


def _initial_data(cfg: dict):
    selector = cfg.get("initial_data", "sech2")
    if selector == "sech2":
        return hopf.make_sech2_data()
    if selector.startswith("csv:"):
        return hopf.load_initial_data_csv(selector[4:])
    raise ValueError(f"unknown initial_data selector {selector!r}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(path: Path, command: str, cfg: dict, extra: dict) -> None:
    doc = {
        "command": command,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        **extra,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _map_jobs(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def cmd_kdv_phase(cfg: dict, out: Path) -> int:
    data = _initial_data(cfg)
    cp = hopf.breaking_point(data)
    t_grid = _floats(cfg, "t_grid", "")
    if any(t <= cp.t_c for t in t_grid):
        print(f"validation: all t must exceed t_c = {cp.t_c:.10g}", file=sys.stderr)
        return 1
    rows = kdv_asym.kdv_phase_diagram(data, t_grid)
    table = [[r["t"], r["x_minus"], r["x_plus"]] for r in rows]
    _write_csv(out / "kdv_phase.csv", ["t", "x_minus", "x_plus"], table)
    failures = [{"t": r["t"], "error": r["error"]} for r in rows if r["error"]]
    _write_manifest(
        out / "kdv_phase.json",
        "kdv-phase",
        cfg,
        {
            "t_c": cp.t_c,
            "x_c": cp.x_c,
            "rows": len(rows),
            "failed_rows": len(failures),
            "failures": failures,
        },
    )
    return 2 if failures else 0


def cmd_kdv_compare(cfg: dict, out: Path, jobs: int) -> int:
    window = cfg.get("window", "hopf")
    unread = set(cfg) & {"hopf": {"halfwidth_scale"}, "leading": {"x_lo", "x_hi"}}.get(window, set())
    if unread:
        raise ValueError(f"window = {window} does not read {', '.join(sorted(unread))}")
    data = _initial_data(cfg)
    eps_list = _floats(cfg, "eps_list", "0.2,0.1")
    t = float(cfg.get("t", "0.1"))
    n_probe = int(cfg.get("n_probe", "41"))
    if n_probe < 1:
        raise ValueError(f"n_probe must be >= 1, got {n_probe}")
    if window == "hopf":
        x_lo = float(cfg.get("x_lo", "-3.0"))
        x_hi = float(cfg.get("x_hi", "-1.0"))
        reference = [hopf.hopf_solve(x, t, data) for x in np.linspace(x_lo, x_hi, n_probe)]
        probes = np.linspace(x_lo, x_hi, n_probe)
    elif window == "leading":
        edge = kdv_asym.solve_leading_edge(t, data)
        half = float(cfg.get("halfwidth_scale", "5.0"))
    else:
        print(f"validation: unknown window {window!r}", file=sys.stderr)
        return 1

    rows = []
    errors = []

    def run_eps(eps):
        try:
            field = kdv_direct.solve_kdv(data, eps=eps, t_final=t)
            if window == "hopf":
                vals = kdv_direct.probe(field, probes)
                err = float(np.max(np.abs(vals - np.asarray(reference))))
            else:
                width = half * eps ** (2.0 / 3.0)
                xs = np.linspace(edge.x_edge - width, edge.x_edge + width, n_probe)
                approx = [kdv_asym.leading_edge_approx(x, t, eps, edge, data) for x in xs]
                direct = kdv_direct.probe(field, xs)
                err = float(np.max(np.abs(np.asarray(approx) - direct)))
            return (eps, err, "")
        except KdvrmtError as exc:
            return (eps, math.nan, str(exc))

    for eps, err, msg in _map_jobs(run_eps, eps_list, jobs):
        rows.append([eps, err])
        if msg:
            errors.append({"eps": eps, "error": msg})
    _write_csv(out / "kdv_compare.csv", ["eps", "max_error"], rows)
    _write_manifest(
        out / "kdv_compare.json",
        "kdv-compare",
        cfg,
        {"window": window, "t": t, "failures": errors},
    )
    return 2 if errors else 0


def cmd_rmt_phase(cfg: dict, out: Path) -> int:
    x_grid = _floats(cfg, "x_grid", "-4.0,-3.0,-2.0,-1.0,0.0")
    t_grid = _floats(cfg, "t_grid", "0.5,1.0")
    rows = rmt_eq.rmt_phase_diagram(x_grid, t_grid)
    table = [[r["x"], r["t"], r["class"], r["margin"]] for r in rows]
    _write_csv(out / "rmt_phase.csv", ["x", "t", "class", "margin"], table)
    failures = [{"x": r["x"], "t": r["t"], "error": r["error"]} for r in rows if r["class"] == "failed"]
    _write_manifest(
        out / "rmt_phase.json",
        "rmt-phase",
        cfg,
        {"rows": len(rows), "failed_cells": len(failures), "failures": failures},
    )
    return 2 if failures else 0


def cmd_op_table(cfg: dict, out: Path) -> int:
    which = cfg.get("which", "regular")
    x = float(cfg.get("x", "0.0"))
    t = float(cfg.get("t", "0.0"))
    n_range = _ints(cfg, "n_range", "4,8,12,16")
    field = rmt_eq.QuarticField(x=x, t=t)
    rows, slope = orthopoly.compare_asymptotics(field, n_range, which)
    table = [
        [r["n"], r["gamma_num"], r["gamma_asym"], r["err_gamma"], r["beta_num"], r["beta_asym"], r["err_beta"]]
        for r in rows
    ]
    _write_csv(
        out / "op_table.csv",
        ["n", "gamma_num", "gamma_asym", "err_gamma", "beta_num", "beta_asym", "err_beta"],
        table,
    )
    failures = [{"n": r["n"], "error": r["error"]} for r in rows if r["error"]]
    _write_manifest(
        out / "op_table.json",
        "op-table",
        cfg,
        {"which": which, "fitted_exponent": slope, "failures": failures},
    )
    return 2 if failures else 0


def cmd_toda_run(cfg: dict, out: Path) -> int:
    n_weight = int(cfg.get("N", "20"))
    n_max = int(cfg.get("n_max", "32"))
    k = int(cfg.get("flow_k", "1"))
    dt = float(cfg.get("dt", "0.005"))
    steps = int(cfg.get("steps", "0"))
    state = toda.gaussian_state(n_weight, n_max)
    spec0 = np.linalg.eigvalsh(toda.jacobi_matrix(state))
    state = toda.flow_hierarchy(state, k, dt, steps) if steps else state
    spec1 = np.linalg.eigvalsh(toda.jacobi_matrix(state))
    drift = float(np.max(np.abs(spec1 - spec0)))
    table = [
        [n + 1, g, b]
        for n, (g, b) in enumerate(zip(state.gamma, state.beta[1:]))
    ]
    _write_csv(out / "toda_state.csv", ["n", "gamma", "beta"], table)
    _write_manifest(
        out / "toda_run.json",
        "toda-run",
        cfg,
        {
            "N": n_weight,
            "n_max": n_max,
            "flow_k": k,
            "dt": dt,
            "steps": steps,
            "times": {str(kk): vv for kk, vv in state.times.items()},
            "spectrum_drift": drift,
        },
    )
    return 0


# subcommand -> (handler, the config keys it reads)
_COMMANDS = {
    "kdv-phase": (cmd_kdv_phase, {"initial_data", "t_grid"}),
    "kdv-compare": (
        cmd_kdv_compare,
        {"initial_data", "eps_list", "window", "t", "n_probe", "x_lo", "x_hi", "halfwidth_scale"},
    ),
    "rmt-phase": (cmd_rmt_phase, {"x_grid", "t_grid"}),
    "op-table": (cmd_op_table, {"which", "x", "t", "n_range"}),
    "toda-run": (cmd_toda_run, {"N", "n_max", "flow_k", "dt", "steps"}),
}


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

    out = Path(args.out)
    try:
        cfg = _parse_config(args.config)
        command, keys = _COMMANDS[args.command]
        unknown = sorted(set(cfg) - keys)
        if unknown:
            raise ValueError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        if args.command == "kdv-compare":
            command = functools.partial(command, jobs=args.jobs)
        elif args.jobs != 1:
            raise ValueError(f"--jobs applies to kdv-compare only; {args.command} runs serially")
        out.mkdir(parents=True, exist_ok=True)
        code = command(cfg, out)
    except (ValueError, KdvrmtError) as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal guard
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
