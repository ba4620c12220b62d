"""One workload pass in a fresh interpreter, the way a CLI call runs.

Started by ``run.py``; writes its timings, operation outcomes and (when
traced) per-layer figures to the ``--result`` JSON file.  The spawn time
is the parent's ``time.perf_counter()`` reading (CLOCK_MONOTONIC, shared
by all processes), so ``setup_s`` includes interpreter start.
"""
from __future__ import annotations

import argparse
import json
import time
from pathlib import Path


def layer_metrics(tracer, observed: dict, out_bytes: int) -> dict:
    totals = tracer.group_totals()
    c = tracer.counters
    m = {}

    def calls_self(group):
        m[f"{group}.calls"] = totals[group]["calls"]
        m[f"{group}.self_s"] = totals[group]["self_s"]

    newton = totals["core.newton_solve"]
    calls_self("core.newton_solve")
    m["core.newton_solve.iterations"] = c["core.newton_solve"]["iterations"]
    m["core.newton_solve.failed"] = c["core.newton_solve"]["failed"]
    m["core.newton_solve.ok_ratio"] = (
        (newton["calls"] - c["core.newton_solve"]["failed"]) / newton["calls"] if newton["calls"] else 0.0
    )
    for group in ("hopf.theta", "hopf.breaking_point", "hopf.hopf_solve", "kdv_asym.edge",
                  "kdv_asym.trailing_integral", "kdv_asym.approx"):
        calls_self(group)
    kdv = totals["kdv_direct.solve_kdv"]
    calls_self("kdv_direct.solve_kdv")
    m["kdv_direct.solve_kdv.steps"] = c["kdv_direct.solve_kdv"]["steps"]
    m["kdv_direct.solve_kdv.steps_per_s"] = (
        c["kdv_direct.solve_kdv"]["steps"] / kdv["self_s"] if kdv["self_s"] > 0 else 0.0
    )
    m["kdv_direct.solve_kdv.err_max"] = observed.get("kdv_direct.solve_kdv.err_max", 0.0)
    m["kdv_direct.solve_kdv.drift_max"] = c["kdv_direct.solve_kdv"]["drift_max"]
    m["kdv_direct.probe.points"] = c["kdv_direct.probe"]["points"]
    m["kdv_direct.probe.self_s"] = totals["kdv_direct.probe"]["self_s"]
    calls_self("painleve.solve_pi2")
    m["painleve.solve_pi2.nodes"] = c["painleve.solve_pi2"]["nodes"]
    m["painleve.solve_pi2.residual_max"] = c["painleve.solve_pi2"]["residual_max"]
    lookups = totals["painleve.pi2_cache"]["calls"]
    misses = tracer.cache_misses("painleve.pi2_cache", "painleve.solve_pi2")
    m["painleve.pi2_cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    m["painleve.solve_hastings_mcleod.self_s"] = totals["painleve.solve_hastings_mcleod"]["self_s"]
    calls_self("rmt_eq.log_potential")
    calls_self("rmt_eq.classify")
    m["rmt_eq.make_onecut_measure.self_s"] = totals["rmt_eq.make_onecut_measure"]["self_s"]
    calls_self("orthopoly.compute_recurrence")
    m["orthopoly.compute_recurrence.nodes"] = c["orthopoly.compute_recurrence"]["nodes"]
    m["orthopoly.compute_recurrence.err_max"] = observed.get("orthopoly.compute_recurrence.err_max", 0.0)
    m["orthopoly.asym.self_s"] = totals["orthopoly.asym"]["self_s"]
    calls_self("toda.flow_hierarchy")
    m["toda.flow_hierarchy.steps"] = c["toda.flow_hierarchy"]["steps"]
    m["toda.flow_hierarchy.spectrum_drift"] = observed.get("toda.flow_hierarchy.spectrum_drift", 0.0)
    m["cli.main.self_s"] = totals["cli.main"]["self_s"]
    m["cli.out_bytes"] = out_bytes
    m["trace.overhead_s"] = tracer.overhead_s
    # a layer whose functions a refactor removed has no metrics
    return {k: v for k, v in m.items() if k.rsplit(".", 1)[0] not in tracer.absent}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the imports (numpy, scipy, mpmath and every layer) belong to set-up
    import kdvrmt  # noqa: F401
    from kdvrmt import cli, kdv_direct  # noqa: F401

    import workloads

    out = Path(args.out)
    inputs = workloads.make_inputs(args.workload, args.size, args.variant)
    config_paths = workloads.write_configs(inputs, out)
    t_first = time.perf_counter()
    result = {"setup_s": t_first - args.spawn_time}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}/{args.size}/{args.variant}")
        tracer.install()

    # keep the dispersive fields for the mass/L2 drift check
    captured = []
    solve_kdv = kdv_direct.solve_kdv

    def capture(*a, **kw):
        try:
            field = solve_kdv(*a, **kw)
        except BaseException:
            captured.append(None)
            raise
        captured.append(field)
        return field

    kdv_direct.solve_kdv = capture

    t_first = time.perf_counter()
    exits = workloads.run_cli(inputs, config_paths, out)
    ref_file = Path(args.refs) / f"{args.workload}.json"
    refs = json.loads(ref_file.read_text()) if ref_file.is_file() else {}
    ref = refs.get(args.size, {}).get(str(args.variant))
    ops, observed = workloads.check(args.workload, inputs, ref, exits, out, captured)
    result["wall_s"] = time.perf_counter() - t_first
    result["ops"] = ops
    result["digests"] = workloads.out_digests(out)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, observed, workloads.out_bytes(out))
        result["absent"] = tracer.absent
        totals = tracer.group_totals()
        result["layer_self_s"] = {g: v["self_s"] for g, v in totals.items()}
        tracer.dump(out / "trace.jsonl")
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
