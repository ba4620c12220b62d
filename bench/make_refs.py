"""Generate the benchmark references in ``bench/refs/<workload>.json``.

    PYTHONPATH=src python3 bench/make_refs.py [workload ...]

Every reference comes from an independent or tightened route, never from
the code under test at its own tolerance:

* edge_sweep: the edge systems re-solved with scipy's hybrid Powell root
  finder on a separate theta quadrature (substitution m = 1 - tau^2 and a
  fixed Gauss-Legendre rule, converged to 1e-14), with its own continuation.
* dispersive_compare: the pseudospectral solve at rtol 1e-12 / atol 1e-14
  instead of 1e-10 / 1e-12.
* rmt_sweep: recurrence tables at 100 digits with a 96-node panel rule
  (60 digits, 48 nodes in the CLI); phase-cell margins with h sampled on
  200,001 points and the log potential from the dense-sum oracle of
  ``tests/oracles.py``; one-cut endpoints polished by scipy's root finder
  at xtol 1e-15; edge asymptotics on a PI2 mesh four times finer; the
  Toda state with a four times smaller RK4 step.

Each file stores, per size and input variant, the inputs it was made for;
the benchmark counts an operation as failed when its inputs differ.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import root
from scipy.special import roots_legendre

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402

# ----------------------------------------------------------------------
# edge systems by an independent quadrature and root finder
# ----------------------------------------------------------------------

_TAU_N = 200


def _tau_rule(n):
    x, w = roots_legendre(n)
    half = math.sqrt(2.0) / 2.0
    return half * (x + 1.0), half * w


_TAU, _WTAU = _tau_rule(_TAU_N)
_TAU2, _WTAU2 = _tau_rule(2 * _TAU_N)
_S, _WS = roots_legendre(160)
_S, _WS = 0.5 * (_S + 1.0), 0.5 * _WS


def _theta(lam, u, data, deriv, tau=_TAU, wtau=_WTAU):
    """theta(lam; u) (deriv=0) or d/dlam (deriv=1); lam may be an array."""
    lam = np.asarray(lam, dtype=float)[..., None]
    m = 1.0 - tau**2
    z = 0.5 * (1.0 + m) * lam + 0.5 * (1.0 - m) * u
    g = data.f_L_prime(z) if deriv == 0 else 0.5 * (1.0 + m) * data.f_L_second(z)
    return (2.0 * np.asarray(g)) @ wtau / (2.0 * math.sqrt(2.0))


def _edge_system(kind, t, data):
    def fun(w):
        u, g = w
        if not (-1.0 < u < 0.0 and g < 0.0):
            return [1e3, 1e3]  # outside the chart; hybr shortens the step
        if kind == "leading":
            v = u - math.exp(g)
            return [6.0 * t + _theta(v, u, data, 0), _theta(v, u, data, 1)]
        v = u + math.exp(g)
        lam = u + (v - u) * _S**2
        integral = (6.0 * t + _theta(lam, u, data, 0)) @ (2.0 * _S**2 * _WS)
        return [6.0 * t + _theta(v, u, data, 0), 2.0**1.5 * integral]

    return fun


def _edge_seed(kind, t, cp):
    delta = 6.0 * (t - cp.t_c)
    if kind == "leading":
        du = math.sqrt(12.0 * delta / cp.k)
        return np.array([cp.u_c + du, math.log(1.25 * du)])
    du = -math.sqrt(20.0 * delta / (3.0 * cp.k))
    return np.array([cp.u_c + du, math.log(-1.75 * du)])


def edge_positions(t_grid, data, cp):
    """x^-(t), x^+(t) along t_grid; None past the trailing window."""
    out = {}
    for kind in ("leading", "trailing"):
        w, t_now = None, None
        for t in t_grid:
            if kind == "trailing" and t > workloads.TRAILING_WINDOW_END:
                out[(kind, t)] = None
                continue
            if w is None or t - cp.t_c < 1e-4:
                t_now = cp.t_c + min(1e-4, 0.5 * (t - cp.t_c))
                w = _edge_seed(kind, t_now, cp)
            # geometric steps away from the fold at t_c, then steps of 0.002
            path, d = [], t_now - cp.t_c
            while cp.t_c + 2.0 * d < min(t, cp.t_c + 0.004):
                d *= 2.0
                path.append(cp.t_c + d)
            start = path[-1] if path else t_now
            path += list(np.linspace(start, t, max(2, int(math.ceil((t - start) / 0.002)) + 1)))
            for t_i in path:
                sol = root(_edge_system(kind, t_i, data), w, method="hybr", options={"xtol": 1e-15})
                w = sol.x
            res = np.max(np.abs(_edge_system(kind, t, data)(w)))
            if not sol.success and res > 1e-13:
                raise RuntimeError(f"{kind} edge reference failed at t={t}: {sol.message} |F|={res:.2e}")
            u, g = w
            v = u - math.exp(g) if kind == "leading" else u + math.exp(g)
            # the quadrature is converged: a doubled rule moves theta by < 1e-14
            drift = abs(_theta(v, u, data, 0) - _theta(v, u, data, 0, _TAU2, _WTAU2))
            assert drift < 1e-13, drift
            out[(kind, t)] = 6.0 * t * u + float(data.f_L(u))
            t_now = t
    return out


def ref_edge_sweep(inputs):
    from kdvrmt import hopf

    data = hopf.make_sech2_data()
    cp = hopf.breaking_point(data)
    steps = []
    for step in inputs["steps"]:
        t_grid = [float(v) for v in step["config"]["t_grid"].split(",")]
        pos = edge_positions(t_grid, data, cp)
        steps.append({"rows": [{"t": t, "x_minus": pos[("leading", t)], "x_plus": pos[("trailing", t)]} for t in t_grid]})
    return {"steps": steps}


# ----------------------------------------------------------------------
# dispersive comparison with a tightened pseudospectral solve
# ----------------------------------------------------------------------

def ref_dispersive_compare(inputs):
    from kdvrmt import hopf, kdv_asym, kdv_direct

    data = hopf.make_sech2_data()
    steps = []
    for step in inputs["steps"]:
        cfg = step["config"]
        t = float(cfg["t"])
        rows = []
        for eps in (float(e) for e in cfg["eps_list"].split(",")):
            field = kdv_direct.solve_kdv(data, eps=eps, t_final=t, rtol=1e-12, atol=1e-14)
            if cfg["window"] == "hopf":
                xs = np.linspace(-3.0, -1.0, 41)
                exact = np.array([hopf.hopf_solve(x, t, data) for x in xs])
            else:
                edge = kdv_asym.solve_leading_edge(t, data)
                width = 5.0 * eps ** (2.0 / 3.0)
                xs = np.linspace(edge.x_edge - width, edge.x_edge + width, 41)
                exact = np.array([kdv_asym.leading_edge_approx(x, t, eps, edge, data) for x in xs])
            err = float(np.max(np.abs(kdv_direct.probe(field, xs) - exact)))
            rows.append({"eps": eps, "max_error": err})
            print(f"  eps={eps} t={t} max_error={err!r} steps={field.n_steps}", flush=True)
        steps.append({"rows": rows})
    return {"steps": steps}


# ----------------------------------------------------------------------
# RMT side
# ----------------------------------------------------------------------

def _cell(x, t):
    import oracles
    from kdvrmt import rmt_eq

    f = rmt_eq.QuarticField(x=x, t=t)
    mu = rmt_eq.make_onecut_measure(f)
    a, b = mu.support
    dense = np.linspace(a, b, 200001)
    h = np.asarray(mu.h(dense), dtype=float)
    h_norm = h / np.max(np.abs(h))
    margins = {
        "interior_II": float(np.min(h_norm[2000:-2000])),
        "edge_III": float(min(h_norm[0], h_norm[-1])),
    }
    interior, exterior = rmt_eq._default_probes(mu, f)

    def lhs(s):
        return 2.0 * oracles.log_potential_oracle(mu, s) - float(rmt_eq.field_eval(f, s)[0])

    ell_hat = float(np.mean([lhs(s) for s in interior]))
    margins["exterior_I"] = float(min(ell_hat - lhs(s) for s in exterior))
    triggered = {k: v for k, v in margins.items() if v < 1e-6}
    kind = min(triggered, key=triggered.get) if triggered else "none"
    return {"x": x, "t": t, "class": kind, "margin": min(margins.values())}


def _endpoints(f):
    from kdvrmt import rmt_eq

    a, b = rmt_eq.solve_onecut_endpoints(f)
    sol = root(
        lambda p: rmt_eq._endpoint_conditions(f, p[0], math.exp(p[1])),
        [0.5 * (a + b), math.log(0.5 * (b - a))],
        method="hybr",
        options={"xtol": 1e-15},
    )
    c, w = sol.x[0], math.exp(sol.x[1])
    return c - w, c + w


def ref_rmt_sweep(inputs):
    from kdvrmt import orthopoly, rmt_eq, toda

    steps = []
    for step in inputs["steps"]:
        cfg = step["config"]
        if step["command"] == "rmt-phase":
            xs = [float(v) for v in cfg["x_grid"].split(",")]
            ts = [float(v) for v in cfg["t_grid"].split(",")]
            rows = [_cell(x, t) for t in ts for x in xs]
        elif step["command"] == "op-table":
            x, t = float(cfg["x"]), float(cfg["t"])
            f = rmt_eq.QuarticField(x=x, t=t)
            if cfg["which"] == "regular":
                g_lim, b_lim = orthopoly.asym_onecut(*_endpoints(f))
            rows = []
            for n in (int(v) for v in cfg["n_range"].split(",")):
                table = orthopoly.compute_recurrence(f, n, n, dps=100, nodes_per_panel=96)
                if cfg["which"] == "regular":
                    g_asym, b_asym = g_lim, b_lim
                else:
                    g_asym, b_asym = orthopoly.asym_edge(x, t, n, n_points=48001)
                rows.append(
                    {
                        "n": n,
                        "gamma_num": float(table.gamma[n - 1]),
                        "beta_num": float(table.beta[n - 1]),
                        "gamma_asym": g_asym,
                        "beta_asym": b_asym,
                    }
                )
        else:
            state = toda.gaussian_state(int(cfg["N"]), int(cfg["n_max"]))
            dt, steps_n = float(cfg["dt"]), int(cfg["steps"])
            state = toda.flow_hierarchy(state, int(cfg["flow_k"]), dt / 4.0, 4 * steps_n)
            rows = [
                {"n": n + 1, "gamma": float(g), "beta": float(b)}
                for n, (g, b) in enumerate(zip(state.gamma, state.beta[1:]))
            ]
        steps.append({"rows": rows})
        print(f"  {step['command']}: {len(rows)} rows", flush=True)
    return {"steps": steps}


MAKERS = {
    "edge_sweep": ref_edge_sweep,
    "dispersive_compare": ref_dispersive_compare,
    "rmt_sweep": ref_rmt_sweep,
}


def main(names) -> None:
    out_dir = BENCH / "refs"
    out_dir.mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        doc = {"generated_by": "PYTHONPATH=src python3 bench/make_refs.py " + name}
        for size, variants in (("smoke", [0]), ("full", range(workloads.N_VARIANTS))):
            doc[size] = {}
            for variant in variants:
                inputs = workloads.make_inputs(name, size, variant)
                print(f"{name} {size} variant {variant}", flush=True)
                doc[size][str(variant)] = {"inputs": inputs, **MAKERS[name](inputs)}
        (out_dir / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
