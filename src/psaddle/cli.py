"""Experiment CLI: config parsing, study orchestration, CSV emission.

Config files are flat ``dotted.key = value`` text; ``#`` starts a comment.
Unknown keys, bad types, and inconsistent values are all reported together.
Every study writes CSV with a header row and 17-significant-digit floats,
atomically (temp file + rename), so identical configs reproduce identical
bytes.

Exit codes: 0 success, 2 config error, 3 solver non-convergence, 4 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import math
import os
import sys
import tempfile

import numpy as np

from psaddle import monotone as mo
from psaddle import precond as pc
from psaddle import quality as ql
from psaddle import system as sy
from psaddle import uzawa as uz
from psaddle.errors import ConfigError, NotConvergedError, PsaddleError
from psaddle.riesz import RieszContext
from psaddle.rng import SplitMix64

SUBCOMMANDS = ("solve", "convergence", "uzawa-trace", "infsup", "pjotr", "precond", "constants")

_SCHEMA = {
    "problem.mu": (str, "constant", ("constant", "one-plus-inv", "bounded-ramp")),
    "problem.mu_c": (float, 1.0, None),
    "problem.mu_a": (float, 1.0, None),
    "problem.mu_b": (float, 1.0, None),
    "problem.forcing": (str, "manufactured", ("manufactured", "zero")),
    "problem.u0": (str, "sine", ("sine", "zero")),
    "problem.T": (float, 1.0, None),
    "disc.nt": (int, 8, None),
    "disc.nx": (int, 8, None),
    "disc.t_breakpoints": (str, "", None),  # comma-separated, overrides disc.nt
    "disc.x_breakpoints": (str, "", None),  # comma-separated, overrides disc.nx
    "disc.levels": (int, 4, None),
    "solver.sigma_hat": (float, float("nan"), None),  # nan: use the midpoint default
    "solver.tol": (float, 1e-8, None),
    "solver.max_outer": (int, 100, None),
    "solver.L_practical": (int, 0, None),             # 0: theoretical L
    "quality.rho": (float, 1.0, None),
    "quality.max_enrich": (int, 4, None),
    "output.dir": (str, "out", None),
    "seed": (int, 20260808, None),
}


def parse_config(path: str) -> dict:
    """Parse and fully validate a config file; report every violation.
    Returns the value of every schema key, by key."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {k: v[1] for k, v in _SCHEMA.items()}
    problems = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _SCHEMA:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            typ, _, allowed = _SCHEMA[key]
            try:
                parsed = typ(val)
            except ValueError:
                problems.append(f"line {lineno}: key {key!r} expects {typ.__name__}, got {val!r}")
                continue
            if allowed is not None and parsed not in allowed:
                problems.append(f"line {lineno}: key {key!r} must be one of {allowed}, got {parsed!r}")
                continue
            # nan in solver.sigma_hat selects the default
            if typ is float and not math.isfinite(parsed) and not (
                key == "solver.sigma_hat" and math.isnan(parsed)
            ):
                problems.append(f"line {lineno}: key {key!r} must be finite, got {val!r}")
                continue
            values[key] = parsed

    # the spatial trial space needs an interior node: two elements at least
    for key, lo in (("disc.nt", 1), ("disc.nx", 2), ("disc.levels", 1), ("solver.max_outer", 1),
                    ("solver.L_practical", 0), ("quality.max_enrich", 0)):
        if values[key] < lo:
            problems.append(f"{key} must be >= {lo}")
    for key, lo, hi, n_min in (
        ("disc.t_breakpoints", 0.0, values["problem.T"], 2),
        ("disc.x_breakpoints", 0.0, 1.0, 3),
    ):
        if values[key]:
            try:
                pts = [float(v) for v in values[key].split(",")]
            except ValueError:
                problems.append(f"key {key!r} expects comma-separated floats")
                continue
            if not all(map(math.isfinite, pts)):
                problems.append(f"key {key!r} must be finite, got {values[key]!r}")
            elif len(pts) < n_min or any(b <= a for a, b in zip(pts, pts[1:])):
                problems.append(f"key {key!r} must be strictly increasing with >= {n_min} entries")
            elif abs(pts[0] - lo) > 1e-12 or abs(pts[-1] - hi) > 1e-12:
                problems.append(f"key {key!r} must span [{lo}, {hi}]")
    if values["solver.tol"] < 0:
        problems.append("solver.tol must be >= 0")
    if values["problem.T"] <= 0:
        problems.append("problem.T must be > 0")
    if values["quality.rho"] < 0:
        problems.append("quality.rho must be >= 0")
    if values["problem.mu"] == "constant" and values["problem.mu_c"] <= 0:
        problems.append("problem.mu_c must be > 0")
    if values["problem.mu"] == "bounded-ramp":
        if values["problem.mu_a"] <= 0:
            problems.append("problem.mu_a must be > 0")
        if values["problem.mu_b"] < 0:
            problems.append("problem.mu_b must be >= 0")
    sigma_hat = values["solver.sigma_hat"]
    if not math.isnan(sigma_hat):
        try:
            c = mo.constants_from_mu(_mu_from_config(values))
            bundle = sy.derive_constants(c.L, c.m)
        except PsaddleError:
            pass  # refused above, or by the subcommand's constant calculus (exit 4)
        else:
            try:
                uz.check_rate_target(bundle, sigma_hat)
            except PsaddleError as exc:
                problems.append(f"solver.sigma_hat: {exc}")
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
    return values


def _mu_params(cfg: dict) -> dict:
    """The keyword parameters of the configured mu for `make_mu`."""
    name = cfg["problem.mu"]
    if name == "constant":
        return {"c": cfg["problem.mu_c"]}
    if name == "bounded-ramp":
        return {"a": cfg["problem.mu_a"], "b": cfg["problem.mu_b"]}
    return {}


def _mu_from_config(cfg: dict) -> mo.MuCoefficient:
    return mo.make_mu(cfg["problem.mu"], **_mu_params(cfg))


def _problem_from_config(cfg: dict):
    """(mu, data) for the configured problem.

    Startup validation: the registry bounds are checked against the sampled
    extremal slopes before anything downstream uses them, at a slack
    relative to M_mu, since the rounding of a finite-difference slope grows
    with its size; a mu whose sampled slopes are not finite or not
    positive is refused alike (`ConfigError`).  `problem.u0` applies under
    either forcing: `zero` drops the initial value.
    """
    mu = _mu_from_config(cfg)
    try:
        m_hat, M_hat = mo.empirical_mu_bounds(lambda s: mu.fn(0.0, 0.0, s), r_max=50.0, n=20_000)
    except PsaddleError as exc:
        raise ConfigError(f"declared mu bounds ({mu.m_mu}, {mu.M_mu}) unchecked: {exc}") from exc
    slack = 1e-6 * mu.M_mu
    if m_hat < mu.m_mu - slack or M_hat > mu.M_mu + slack:
        raise ConfigError(
            f"declared mu bounds ({mu.m_mu}, {mu.M_mu}) are violated by sampled "
            f"slopes ({m_hat:.6g}, {M_hat:.6g})"
        )
    if cfg["problem.forcing"] == "zero":
        data = sy.ProblemData(u0=lambda x: np.sin(np.pi * x))
    elif cfg["problem.mu"] == "constant" and cfg["problem.mu_c"] == 1.0:
        data = sy.heat_problem().data  # exact zero forcing for the heat case
    else:
        data = sy.quasilinear_problem(cfg["problem.mu"], **_mu_params(cfg)).data
    if cfg["problem.u0"] == "zero":
        data = dataclasses.replace(data, u0=None)
    return mu, data


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path: str, header: tuple, rows) -> None:
    """Atomic CSV write: header row, 17-significant-digit floats."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pair_from_config(cfg: dict):
    """Tensor pair from either explicit breakpoints or uniform element counts."""
    from psaddle.spaces import CONT_P1, CONT_P1_DIRICHLET, DISC_P1, Mesh1D, assemble_matrices

    if cfg["disc.t_breakpoints"]:
        mesh_t = Mesh1D(tuple(float(v) for v in cfg["disc.t_breakpoints"].split(",")))
    else:
        mesh_t = Mesh1D.uniform(cfg["disc.nt"], length=cfg["problem.T"])
    if cfg["disc.x_breakpoints"]:
        mesh_x = Mesh1D(tuple(float(v) for v in cfg["disc.x_breakpoints"].split(",")))
    else:
        mesh_x = Mesh1D.uniform(cfg["disc.nx"])
    return assemble_matrices(
        (mesh_t, CONT_P1), (mesh_t, DISC_P1), (mesh_x, CONT_P1_DIRICHLET)
    )


def _discretization(cfg: dict) -> sy.Discretization:
    mu, data = _problem_from_config(cfg)
    return sy.Discretization(_pair_from_config(cfg), mu, data)


def _uzawa_config(cfg: dict, bundle) -> uz.UzawaConfig:
    sig = cfg["solver.sigma_hat"]
    return uz.make_config(
        bundle, sigma_hat_S=None if math.isnan(sig) else sig, tol=cfg["solver.tol"],
        max_outer=cfg["solver.max_outer"], L_practical=cfg["solver.L_practical"] or None,
    )


def cmd_constants(cfg: dict, out: str) -> int:
    c = mo.constants_from_mu(_mu_from_config(cfg))
    bundle = sy.derive_constants(c.L, c.m)
    ucfg = _uzawa_config(cfg, bundle)
    cA, cS = bundle.A_constants, bundle.S_constants
    fields = [
        ("L_A", bundle.L_A), ("m_A", bundle.m_A),
        ("L_N", bundle.L_N), ("L_S", bundle.L_S), ("m_S", bundle.m_S),
        ("L_Ninv", bundle.L_Ninv), ("L_Beinv", bundle.L_Beinv),
        ("C_1", bundle.C_1), ("C_PF", bundle.C_PF),
        ("theta_star_A", cA.theta_star), ("sigma_A", cA.sigma),
        ("theta_star_S", cS.theta_star), ("sigma_S", cS.sigma),
        ("sigma_hat_S", ucfg.sigma_hat_S), ("C_3", ucfg.C_3), ("L", ucfg.L),
    ]
    for name, value in fields:
        print(f"{name} = {_fmt(value)}")
    write_csv(os.path.join(out, "constants.csv"),
              tuple(n for n, _ in fields), [tuple(v for _, v in fields)])
    return 0


def _run_uzawa(cfg: dict, disc: sy.Discretization, out: str,
               reference: sy.SaddleState | None = None) -> int:
    pair = disc.pair
    ucfg = _uzawa_config(cfg, disc.bundle)
    state, trace = uz.run_inexact_uzawa(
        disc.rhs, pair, disc.op_Y, disc.op_X, disc.ctx, ucfg, reference=reference
    )
    write_csv(os.path.join(out, "uzawa_trace.csv"), uz.UzawaTrace.COLUMNS, trace.rows())
    write_csv(
        os.path.join(out, "solve_summary.csv"),
        ("dim_Y", "dim_X", "outer_iterations", "inner_count", "eta_final", "converged"),
        [(pair.dim_Y, pair.dim_X, len(trace.k), ucfg.L, trace.eta[-1], trace.converged)],
    )
    if not trace.converged:
        raise NotConvergedError(
            f"uzawa stopped at eta={trace.eta[-1]:.3e} > tol={ucfg.tol} "
            f"after {ucfg.max_outer} outer iterations",
            best=state, iterations=len(trace.k),
        )
    return 0


def cmd_solve(cfg: dict, out: str) -> int:
    return _run_uzawa(cfg, _discretization(cfg), out)


def cmd_uzawa_trace(cfg: dict, out: str) -> int:
    disc = _discretization(cfg)
    status = _run_uzawa(cfg, disc, out, reference=disc.reference(1e-12))
    _aposteriori_band(cfg, disc, out)
    return status


def _aposteriori_band(cfg: dict, disc: sy.Discretization, out: str) -> None:
    """Twenty seeded perturbations of the reference: true error over eta per sample."""
    pair, ctx = disc.pair, disc.ctx
    reference = disc.reference(1e-12)
    gen = SplitMix64(cfg["seed"])
    rows = []
    for i in range(20):
        scale = 10.0 ** gen.uniform(-3.0, 0.0)
        dlam = scale * gen.normal_vector(pair.dim_Y)
        du = scale * gen.normal_vector(pair.dim_X)
        state = sy.SaddleState(reference.lam + dlam, reference.u + du)
        eta, _, _ = sy.aposteriori_estimate(state, disc.rhs, disc.op_Y, disc.op_X, ctx)
        true = ctx.norm_Y(dlam) + ctx.norm_X_delta(du)
        rows.append((i, eta, true, true / eta))
    write_csv(
        os.path.join(out, "aposteriori_band.csv"), ("sample", "eta", "true_error", "ratio"), rows
    )


def _ladder(cfg: dict, make, row):
    """row(l, make(pair_l), make(pair_{l+k})) for l < disc.levels, in order,
    with k = SURROGATE_REFINEMENTS: row l against its surrogate pair.

    The meshes 0 ... disc.levels + k - 1 are walked once, in order: pair 0
    is the configured pair and each next pair one uniform refinement of the
    one before, so pair l+k is bit for bit the surrogate pair of row l.
    Each pair is made once, and row l is emitted as soon as pair l+k is
    made.  A made item is dropped as soon as no pending row needs it, so
    the finest step holds only the two items of its own row.
    """
    k, levels = ql.SURROGATE_REFINEMENTS, cfg["disc.levels"]
    pending = collections.deque()  # items of the rows' coarse pairs, and the newest
    pair = _pair_from_config(cfg)
    for m in range(levels + k):
        pair = ql._surrogate_pair(pair, 1) if m else pair
        pending.append(make(pair))
        if m >= k:
            yield row(m - k, pending.popleft(), pending[-1])
        if m >= levels:
            pending.pop()  # no pending row has pair m as its coarse pair


def cmd_convergence(cfg: dict, out: str) -> int:
    """Per level: the error against the surrogate two refinements finer,
    the quasi-optimality ratio and bound, and ||lambda - u||_Y.  Each pair
    of the ladder (`_ladder`) is solved once, to 1e-11, starting from the
    solution on the pair one refinement coarser prolonged; only that pair
    and its u are kept for the next start, and dropped once prolonged."""
    mu, data = _problem_from_config(cfg)
    last = {}  # the pair and u of the last solve, until they start the next
    errs = []

    def solve(pair):
        disc = sy.Discretization(pair, mu, data)
        x0 = ql.TwoLevel(last.pop("pair"), pair).prolong_X(last.pop("u")) if last else None
        last.update(pair=pair, u=disc.reference(1e-11, x0=x0).u)
        return disc

    def row(level, disc, fine):
        state = disc.reference(1e-11)
        two = ql.TwoLevel(disc.pair, fine.pair, ctx_coarse=disc.ctx, ctx_fine=fine.ctx)
        ratio, bound, err = ql.quasi_opt_ratio(fine.reference(1e-11).u, state, two, disc.bundle,
                                               ql.infsup_report(two))
        lam_u, _ = ql.estimator_terms(state, disc)
        errs.append(err)
        rate = math.log2(errs[-2] / errs[-1]) if level > 0 else float("nan")
        return (level, disc.pair.mesh_t_X.n_elements, disc.pair.mesh_x.n_elements,
                err, rate, ratio, bound, lam_u)

    write_csv(
        os.path.join(out, "convergence.csv"),
        ("level", "nt", "nx", "err_X", "rate", "quasi_opt_ratio", "quasi_opt_bound", "lambda_minus_u_Y"),
        list(_ladder(cfg, solve, row)),
    )
    return 0


def cmd_infsup(cfg: dict, out: str) -> int:
    """The inf-sup factors per level against the surrogate pair, each pair
    of the ladder (`_ladder`) with its one `RieszContext`."""
    _problem_from_config(cfg)  # validates the configured mu

    def row(level, ctx, fine):
        report = ql.infsup_report(ql.TwoLevel(ctx.pair, fine.pair, ctx, fine))
        return (level, ctx.pair.mesh_t_X.n_elements, ctx.pair.mesh_x.n_elements,
                report.gamma_t, report.gamma_x, report.gamma_lower, report.gamma_direct)

    write_csv(
        os.path.join(out, "infsup.csv"),
        ("level", "nt", "nx", "gamma_t", "gamma_x", "gamma_lower", "gamma_direct"),
        list(_ladder(cfg, RieszContext, row)),
    )
    return 0


def cmd_pjotr(cfg: dict, out: str) -> int:
    mu, data = _problem_from_config(cfg)
    reports = ql.enrich_until_pjotr(
        _pair_from_config(cfg), data, mu, rho=cfg["quality.rho"],
        max_levels=cfg["quality.max_enrich"],
    )
    write_csv(
        os.path.join(out, "pjotr.csv"), ("level", "lhs", "rhs", "satisfied"),
        [(r.level, r.lhs, r.rhs, r.satisfied) for r in reports],
    )
    if reports and not reports[-1].satisfied:
        raise NotConvergedError(
            f"a posteriori condition unsatisfied up to enrichment level {reports[-1].level}"
        )
    return 0


def cmd_precond(cfg: dict, out: str) -> int:
    results = pc.kappa_study(cfg["disc.levels"], n_x=cfg["disc.nx"], T=cfg["problem.T"])
    write_csv(os.path.join(out, "precond.csv"), ("level", "dim", "kappa"), results)
    return 0


_DISPATCH = {
    "constants": cmd_constants,
    "solve": cmd_solve,
    "uzawa-trace": cmd_uzawa_trace,
    "convergence": cmd_convergence,
    "infsup": cmd_infsup,
    "pjotr": cmd_pjotr,
    "precond": cmd_precond,
}


def run_subcommand(name: str, cfg: dict, out_dir: str | None = None) -> int:
    if name not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {name!r}; choose from {SUBCOMMANDS}")
    return _DISPATCH[name](cfg, out_dir or cfg["output.dir"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="psaddle",
        description="Space-time saddle-point parabolic solver experiments",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        return run_subcommand(args.subcommand, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotConvergedError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except (PsaddleError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
