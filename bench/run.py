"""kdvrmt benchmark: time to a checked result for three CLI-shaped workloads.

Usage (from the repository root):

    python3 bench/run.py --workload edge_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one table

Each pass runs the workload in a fresh interpreter (``bench/child.py``)
against ``src/`` with BLAS/OpenMP pools capped at ``nproc``; passes repeat
while the next one is expected to end within ``--seconds`` (at least
one).  A few extra set-up-only interpreters give ``setup_s`` its median.
Outputs are checked against ``bench/refs/``; an operation that misses
its reference counts in ``failed``.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Per-run details (all samples, percentiles, environment,
failed operations) go to ``.bench_out/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 4
PASS_TIMEOUT_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int, variant: int, threads: str) -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas_threads": threads,
        "seed": seed,
        "variant": variant,
    }


def child_env(threads: str) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args: list, env: dict, result: Path) -> dict:
    """Run one child; CPU time and peak RSS come from wait4 on it."""
    if result.exists():
        result.unlink()
    spawn_time = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), "--spawn-time", repr(spawn_time), "--result", str(result), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(PASS_TIMEOUT_S, lambda: proc.send_signal(signal.SIGKILL))
    killer.start()
    try:
        stderr = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stderr.close()
    out = {
        "exit": proc.returncode,
        "stderr": stderr[-2000:],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if proc.returncode == 0 and result.exists():
        out.update(json.loads(result.read_text()))
    return out


def summarize(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    doc = {"median": statistics.median(values), "n": n}
    if n >= 20:
        doc[f"p{100 * (n - 10) // n}"] = values[n - 11]
    return doc


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, refs: Path) -> dict:
    variant = workloads.variant_of(seed, size)
    threads = str(os.cpu_count() or 1)
    env = child_env(threads)
    base = ROOT / ".bench_out" / name
    base.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--size", size, "--variant", str(variant), "--refs", str(refs)]

    digest_path = ROOT / ".bench_out" / "digests.json"
    digests = json.loads(digest_path.read_text()) if digest_path.exists() else {}
    inputs = workloads.make_inputs(name, size, variant)
    # Byte-identical reruns are asked of the same code only: the key holds
    # the package sources, so a change that moves results in the last bit
    # starts a new entry instead of failing against the old code's bytes.
    key = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "kdvrmt").glob("*.py")):
        key.update(path.name.encode() + b"\0" + path.read_bytes())
    digest_key = key.hexdigest()

    passes, setups, ops = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["elapsed"] <= seconds:
        out = base / f"pass{len(passes)}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        res = spawn([*common, "--trace", str(trace), "--out", str(out)], env, base / "result.json")
        res["elapsed"] = time.perf_counter() - t0
        passes.append(res)
        if res["exit"] != 0 or "ops" not in res:
            ops.append([f"pass{len(passes) - 1}", False, f"child exit {res['exit']}: {res['stderr']}"])
            break
        ops.extend(res["ops"])
        setups.append(res["setup_s"])
        # reruns of the same inputs must write byte-identical --out files
        previous = digests.get(digest_key)
        if previous is not None:
            ops.append(["rerun byte-identical", previous == res["digests"], "--out digests vs earlier run"])
        digests[digest_key] = res["digests"]
    for i in range(SETUP_PROBES):
        out = base / f"setup{i}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        res = spawn([*common, "--setup-only", "--out", str(out)], env, base / "result.json")
        if res["exit"] == 0 and "setup_s" in res:
            setups.append(res["setup_s"])
    tmp = digest_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True, indent=1))
    tmp.replace(digest_path)

    good = [p for p in passes if "wall_s" in p]
    samples = {
        "wall_s": [p["wall_s"] for p in good],
        "setup_s": setups,
        "cpu_s": [p["cpu_s"] for p in good],
        "peak_rss_mb": [p["peak_rss_mb"] for p in good],
    }
    attempted = len(ops)
    failed = sum(1 for op in ops if not op[1])
    doc = {
        "workload": name,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, variant, threads),
        "inputs": inputs,
        "passes": len(passes),
        "samples": samples,
        "summary": {k: summarize(v) for k, v in samples.items() if v},
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "failed_ops": [op for op in ops if not op[1]],
    }
    if trace and good:
        layers = [p["layers"] for p in good]
        doc["layers"] = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        doc["absent"] = good[0]["absent"]
        doc["layer_self_s"] = good[0]["layer_self_s"]
        doc["traced_wall_s"] = good[0]["wall_s"]
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-{size}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def metrics_of(doc: dict, trace: int, spec: dict) -> dict:
    if trace:
        layers = doc.get("layers", {})
        # metrics of a layer whose functions are gone are left out, not 0
        return {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"] if m["name"] in layers
        }
    return {
        m["name"]: {"value": doc["summary"][m["name"]]["median"], "unit": m["unit"]}
        for m in spec["end_to_end"]
        if m["name"] in doc["summary"]
    }


def report(doc: dict, spec: dict) -> None:
    """Human-readable lines: every end-to-end metric with unit and samples."""
    parts = []
    for m in spec["end_to_end"]:
        s = doc["summary"].get(m["name"])
        if s:
            tail = "".join(f" {k}={v:.4g}" for k, v in s.items() if k.startswith("p"))
            parts.append(f"{m['name']}={s['median']:.4g} {m['unit']} (median, n={s['n']}{tail})")
    parts.append(f"ops_failed_frac={doc['ops_failed_frac']:.4g} ratio ({doc['failed']}/{doc['attempted']})")
    print(f"{doc['workload']} [seed {doc['environment']['seed']}]: " + "; ".join(parts))
    for op in doc["failed_ops"][:10]:
        print(f"  FAILED {op[0]}: {op[2][:300]}")
    if doc.get("absent"):
        print(f"  absent layers: {', '.join(doc['absent'])}")
    if "layer_self_s" in doc:
        wall = doc["traced_wall_s"]
        top = sorted(doc["layer_self_s"].items(), key=lambda kv: -kv[1])[:5]
        print(f"  self time of the traced pass ({wall:.4g} s): " + ", ".join(f"{k} {v:.3g} s ({100 * v / wall:.0f}%)" for k, v in top))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="workload name or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--refs", default=str(BENCH / "refs"), help="reference directory")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kdvrmt" / "__init__.py").is_file():
        print(f"error: no kdvrmt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(workloads.NAMES) if args.workload == "all" else [args.workload]
    if any(n not in workloads.NAMES for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2

    docs = [run_workload(n, args.seed, seconds, args.trace, args.size, Path(args.refs)) for n in names]
    for doc in docs:
        report(doc, spec)
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    if len(docs) == 1:
        metrics = metrics_of(docs[0], args.trace, spec)
    else:
        metrics = {
            f"{d['workload']}.{k}": v for d in docs for k, v in metrics_of(d, args.trace, spec).items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
