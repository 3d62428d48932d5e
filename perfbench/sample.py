"""One benchmark sample: set up, solve and check one workload in this process.

run.py starts a fresh interpreter per sample, one at a time:

    python3 perfbench/sample.py --kind uzawa|study --config CFG --setup-reps R \
        --trace 0|1 --out DIR --result FILE

Imports are done before any clock starts.  Times are read on the process's
CPU clock and scaled to reference seconds by the CPU speed that
calibrate.py measures around set-up and during the solve; the unscaled CPU
and wall times are kept beside them.  The sample writes one JSON object to FILE: its timings, whether the result
passed the check, the exact work counts, and (traced) the per-layer totals
of every span.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext

import numpy as np
import scipy
import scipy.sparse.linalg  # noqa: F401  (import cost stays outside set-up)

from calibrate import Calibrator, speed
from psaddle import cli, riesz, spaces, uzawa as uz
from psaddle import monotone as mo
from psaddle import system as sy

# Reference solves for the Uzawa check are converged to this product dual
# residual, so they sit within L_Ninv * REF_TOL of the exact discrete solution.
REF_TOL = 1e-12
# calibration kernel runs just before and just after set-up: about 0.1 s each
CAL_REPS = 50


class Problem:
    """Everything one Uzawa solve needs, built by psaddle's public functions."""

    def __init__(self, config_path: str):
        cfg = cli.parse_config(config_path)
        self.mu = validated_mu(cfg)
        if cfg["problem.mu"] == "constant" and cfg["problem.mu_c"] == 1.0:
            data = sy.heat_problem().data
        else:
            data = sy.quasilinear_problem(cfg["problem.mu"]).data
        mesh_t = spaces.Mesh1D(_floats(cfg["disc.t_breakpoints"]))
        mesh_x = spaces.Mesh1D(_floats(cfg["disc.x_breakpoints"]))
        self.pair = spaces.assemble_matrices(
            (mesh_t, spaces.CONT_P1), (mesh_t, spaces.DISC_P1),
            (mesh_x, spaces.CONT_P1_DIRICHLET),
        )
        self.ctx = riesz.RieszContext(self.pair)
        self.op_Y = mo.GalerkinOperator(self.pair, "Y", self.mu)
        self.op_X = mo.GalerkinOperator(self.pair, "X", self.mu)
        self.rhs = sy.assemble_rhs(data, self.pair)
        c = mo.constants_from_mu(self.mu)
        self.bundle = sy.derive_constants(c.L, c.m)
        sig = cfg["solver.sigma_hat"]
        self.ucfg = uz.make_config(
            self.bundle, sigma_hat_S=None if math.isnan(sig) else sig,
            tol=cfg["solver.tol"], max_outer=cfg["solver.max_outer"],
            L_practical=cfg["solver.L_practical"] or None,
        )
        # the trial-space factorization is lazy; force it so that work moved
        # into or out of set-up shows in setup_s
        self.ctx.riesz_X_solve(np.zeros(self.pair.dim_X))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def validated_mu(cfg):
    """The configured mu, its declared bounds checked against sampled slopes."""
    params = {"c": cfg["problem.mu_c"]} if cfg["problem.mu"] == "constant" else {}
    mu = mo.make_mu(cfg["problem.mu"], **params)
    m_hat, M_hat = mo.empirical_mu_bounds(lambda s: mu.fn(0.0, 0.0, s), r_max=50.0, n=20_000)
    if m_hat < mu.m_mu - 1e-6 or M_hat > mu.M_mu + 1e-6:
        raise ValueError(f"mu bounds ({mu.m_mu}, {mu.M_mu}) violated: ({m_hat}, {M_hat})")
    return mu


def timed(fn, tracer, name: str, cal):
    """fn(), its CPU time and its wall time (calibration ticks left out),
    inside a benchmark span when traced."""
    with tracer.span(name) if tracer is not None else nullcontext():
        c0, w0 = cal.clock(), cal.wall()
        out = fn()
        return out, cal.clock() - c0, cal.wall() - w0


def timed_setups(make, reps: int, tracer, cal):
    """Run set-up `reps` times between two calibrations; return the last
    result, the median CPU and wall times and the CPU speed around them."""
    cpu, wall = [], []
    before = cal.measure(CAL_REPS)
    for _ in range(reps):
        obj, c, w = timed(make, tracer, "bench.setup", cal)
        cpu.append(c)
        wall.append(w)
    after = cal.measure(CAL_REPS)
    return obj, statistics.median(cpu), statistics.median(wall), speed(before + after)


def timed_solve(fn, tracer, cal):
    """fn(), its CPU and wall times and the CPU speed from the ticks in it."""
    with cal.ticking():
        out, cpu, wall = timed(fn, tracer, "bench.solve", cal)
    return out, cpu, wall, speed(cal.ticks or cal.measure(CAL_REPS))


def scaled(tts, setup_s, tts_wall, setup_wall, solve_speed, setup_speed) -> dict:
    """The CPU times in reference seconds, with the unscaled times beside them."""
    return {
        "time_to_solution_s": tts * solve_speed, "setup_s": setup_s * setup_speed,
        "cpu": {"time_to_solution_s": tts, "setup_s": setup_s},
        "wall": {"time_to_solution_s": tts_wall, "setup_s": setup_wall},
        "speed": {"setup": setup_speed, "solve": solve_speed},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_uzawa(args, tracer, cal) -> dict:
    prob, setup_s, setup_wall, setup_speed = timed_setups(
        lambda: Problem(args.config), args.setup_reps, tracer, cal)
    (state, trace), tts, tts_wall, solve_speed = timed_solve(
        lambda: uz.run_inexact_uzawa(prob.rhs, prob.pair, prob.op_Y, prob.op_X, prob.ctx, prob.ucfg),
        tracer, cal,
    )
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.active = False

    # the paper's a posteriori guarantee: product error <= L_Ninv * eta
    eta = trace.eta[-1]
    ref = sy.solve_reference(prob.rhs, prob.pair, prob.op_Y, prob.op_X, prob.ctx, tol=REF_TOL)
    err = prob.ctx.norm_Y(state.lam - ref.lam) + prob.ctx.norm_X_delta(state.u - ref.u)
    bound = prob.bundle.L_Ninv * (eta + REF_TOL)
    checks = {
        "converged": bool(trace.converged),
        "eta_final_le_tol": eta <= prob.ucfg.tol,
        "error_le_L_Ninv_eta": err <= bound,
    }
    steps = len(trace.k)
    rate = (trace.eta[-1] / trace.eta[0]) ** (1.0 / (steps - 1)) if steps > 1 else 0.0
    return {
        **scaled(tts, setup_s, tts_wall, setup_wall, solve_speed, setup_speed),
        "peak_rss_mb": rss,
        "checks": checks,
        "detail": {"eta_final": eta, "product_error": err, "bound": bound,
                   "dim_Y": prob.pair.dim_Y, "dim_X": prob.pair.dim_X},
        "counts": {
            "uzawa.outer_steps": steps,
            "uzawa.napply": int(sum(trace.napply)),
            "uzawa.inner_count": int(sum(trace.inner_count)),
        },
        "values": {"uzawa.observed_rate": rate, "uzawa.sigma_hat_S": prob.ucfg.sigma_hat_S},
    }


def run_study(args, tracer, cal) -> dict:
    def setup():
        cfg = cli.parse_config(args.config)
        validated_mu(cfg)
        return cfg

    cfg, setup_s, setup_wall, setup_speed = timed_setups(setup, args.setup_reps, tracer, cal)
    out_dir = os.path.join(args.out, "convergence")
    status, tts, tts_wall, solve_speed = timed_solve(
        lambda: cli.run_subcommand("convergence", cfg, out_dir), tracer, cal)
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.active = False

    # the acceptance suite's criteria: rate >= 0.9 after the first level and
    # the measured quasi-optimality ratio within the theory bound
    with open(os.path.join(out_dir, "convergence.csv")) as fh:
        rows = list(csv.DictReader(fh))
    checks = {
        "exit_status_0": status == 0,
        "all_levels": len(rows) == cfg["disc.levels"],
        "rate_ge_0.9": all(float(r["rate"]) >= 0.9 for r in rows[1:]),
        "quasi_opt_ratio_le_bound": all(
            float(r["quasi_opt_ratio"]) <= float(r["quasi_opt_bound"]) for r in rows
        ),
    }
    return {
        **scaled(tts, setup_s, tts_wall, setup_wall, solve_speed, setup_speed),
        "peak_rss_mb": rss,
        "checks": checks,
        "detail": {"rates": [float(r["rate"]) for r in rows[1:]],
                   "quasi_opt_ratio": [float(r["quasi_opt_ratio"]) for r in rows]},
        "counts": {},
        "values": {},
    }


def _aslr_off() -> bool:
    with open("/proc/self/personality") as fh:
        return bool(int(fh.read(), 16) & 0x0040000)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "aslr": "off" if _aslr_off() else "on",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("uzawa", "study"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--setup-reps", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    cal = Calibrator()
    cal.measure(2)  # warm-up: first calls pay for lazy imports and caches
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id="/".join(os.path.normpath(args.out).split(os.sep)[-2:]), clock=cal.clock)
        tracer.install()
        tracer.active = True
        args.setup_reps = 1  # per-layer counts describe one set-up and one solve

    result = {"ok": False, "traced": bool(args.trace)}
    try:
        result.update((run_uzawa if args.kind == "uzawa" else run_study)(args, tracer, cal))
        result["ok"] = all(result["checks"].values())
    except Exception:  # a failed sample is counted by run.py, not fatal
        result["error"] = traceback.format_exc()
    result["env"] = environment()
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counts"] = {**result.get("counts", {}), **{
            f"{name}.calls": int(rec["calls"]) for name, rec in result["spans"].items()
        }, **{k: int(v) for k, v in tracer.counters.items()}}
        spans_path = os.path.join(args.out, "spans.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
        result["spans_file"] = spans_path
        result["untraced_callables"] = tracer.missing
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
