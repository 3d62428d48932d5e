import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest

from psaddle import cli
from psaddle import monotone as mo
from psaddle import quality as ql
from psaddle import riesz
from psaddle import system as sy
from psaddle.errors import ConfigError, NotConvergedError
from psaddle.rng import SplitMix64


def write_config(tmp_path, text):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


MINIMAL = """
problem.mu = constant
disc.nt = 2
disc.nx = 2
disc.levels = 2
"""


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, MINIMAL))
        assert cfg["problem.mu"] == "constant"
        assert cfg["problem.T"] == 1.0
        assert cfg["solver.tol"] == 1e-8
        assert cfg["seed"] == 20260808

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config("/nonexistent/exp.cfg")

    def test_unknown_mu_name(self, tmp_path):
        with pytest.raises(ConfigError, match="problem.mu"):
            cli.parse_config(write_config(tmp_path, "problem.mu = pepper\n"))

    def test_negative_tolerance(self, tmp_path):
        with pytest.raises(ConfigError, match="solver.tol"):
            cli.parse_config(write_config(tmp_path, "solver.tol = -1e-8\n"))

    def test_unknown_key(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config(write_config(tmp_path, "problem.nu = 3\n"))
        # the retired preconditioned trial Riesz switch is refused like any other
        path = write_config(tmp_path, "solver.use_precond = 0\n")
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'solver.use_precond'" in capsys.readouterr().err

    def test_all_violations_reported(self, tmp_path):
        bad = "problem.nu = 3\nsolver.tol = -1\ndisc.nt = zero\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_config(tmp_path, bad))
        msg = str(err.value)
        assert "problem.nu" in msg and "solver.tol" in msg and "disc.nt" in msg

    def test_comments_and_blanks(self, tmp_path):
        cfg = cli.parse_config(
            write_config(tmp_path, "# heat\n\nproblem.mu = constant  # default\n")
        )
        assert cfg["problem.mu"] == "constant"


class TestSubcommands:
    def test_constants_heat(self, tmp_path, capsys):
        cfg = cli.parse_config(write_config(tmp_path, MINIMAL))
        status = cli.run_subcommand("constants", cfg, str(tmp_path / "out"))
        assert status == 0
        out = capsys.readouterr().out
        assert "L_A = 3" in out
        assert "m_A = 1" in out
        assert "L_N = 4" in out
        assert "m_S = 0.1111111111111111" in out
        assert os.path.exists(tmp_path / "out" / "constants.csv")

    def test_constants_bounded_ramp(self, tmp_path, capsys):
        # bounds (a, a + 9b/8) = (2, 11); a and b swapped would give 30.75 and 8
        text = MINIMAL + "problem.mu = bounded-ramp\nproblem.mu_a = 2\nproblem.mu_b = 8\n"
        cfg = cli.parse_config(write_config(tmp_path, text))
        assert cli.run_subcommand("constants", cfg, str(tmp_path / "out")) == 0
        out = capsys.readouterr().out
        assert "L_A = 33\n" in out
        assert "m_A = 2\n" in out

    def test_unknown_subcommand(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError):
            cli.run_subcommand("sing", cfg, str(tmp_path / "out"))

    def test_zero_data_uzawa_trace_single_row(self, tmp_path):
        text = MINIMAL + "problem.forcing = zero\nproblem.u0 = zero\n"
        cfg = cli.parse_config(write_config(tmp_path, text))
        out = str(tmp_path / "out")
        assert cli.run_subcommand("uzawa-trace", cfg, out) == 0
        lines = Path(out, "uzawa_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "k,eta,res_Y,res_X,err_u,err_lambda,inner_count"
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "0"

    def test_u0_applies_under_manufactured_forcing(self, tmp_path):
        # the manufactured forcing of one-plus-inv assumes a sine initial
        # value; problem.u0 = zero must still drop it
        traces = []
        for u0 in ("sine", "zero"):
            text = MINIMAL.replace("constant", "one-plus-inv") + (
                "problem.forcing = manufactured\n"
                f"problem.u0 = {u0}\nsolver.tol = 0\nsolver.max_outer = 3\n"
                "solver.L_practical = 2\n"
            )
            cfg = cli.parse_config(write_config(tmp_path, text))
            out = str(tmp_path / u0)
            with pytest.raises(NotConvergedError):
                cli.run_subcommand("solve", cfg, out)
            traces.append(Path(out, "uzawa_trace.csv").read_text())
        assert traces[0] != traces[1]

    def test_uzawa_trace_solves_reference_once(self, tmp_path, monkeypatch):
        calls = []
        solve = sy.solve_reference

        def counting(*args, **kwargs):
            calls.append(kwargs["tol"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(sy, "solve_reference", counting)
        text = MINIMAL + "solver.tol = 1e-1\nsolver.max_outer = 500\nsolver.L_practical = 4\n"
        cfg = cli.parse_config(write_config(tmp_path, text))
        out = str(tmp_path / "out")
        assert cli.run_subcommand("uzawa-trace", cfg, out) == 0
        assert calls == [1e-12]
        assert os.path.exists(os.path.join(out, "aposteriori_band.csv"))

    def test_uzawa_cap_raises_with_best_state(self, tmp_path):
        # the error carries the last monitored pair, the one the trace's
        # last eta belongs to
        text = MINIMAL + "solver.tol = 1e-13\nsolver.max_outer = 3\nsolver.L_practical = 2\n"
        cfg = cli.parse_config(write_config(tmp_path, text))
        out = str(tmp_path / "out")
        with pytest.raises(NotConvergedError) as err:
            cli.run_subcommand("solve", cfg, out)
        with open(os.path.join(out, "uzawa_trace.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert err.value.iterations == len(rows) == 3
        disc = cli._discretization(cfg)
        eta, _, _ = sy.aposteriori_estimate(err.value.best, disc.rhs, disc.op_Y, disc.op_X,
                                            disc.ctx)
        assert abs(eta - float(rows[-1]["eta"])) <= 1e-12 * eta

    def test_convergence_csv_decreasing(self, tmp_path):
        text = MINIMAL.replace("disc.nt = 2", "disc.nt = 4").replace(
            "disc.nx = 2", "disc.nx = 4"
        )
        cfg = cli.parse_config(write_config(tmp_path, text))
        out = str(tmp_path / "out")
        assert cli.run_subcommand("convergence", cfg, out) == 0
        rows = np.genfromtxt(
            os.path.join(out, "convergence.csv"), delimiter=",", names=True
        )
        errs = rows["err_X"]
        assert errs[1] < errs[0]
        assert rows["quasi_opt_ratio"][0] <= rows["quasi_opt_bound"][0]

    def test_convergence_ladder_matches_per_level_loop(self, tmp_path):
        # the ladder solves each pair once, warm from the pair one refinement
        # coarser; the per-level loop solves each level cold and its own
        # surrogate warm from the level
        configs = {
            "quasilinear": cli.parse_config(
                os.path.join(os.path.dirname(__file__), "..", "configs", "quasilinear.cfg")),
            "heat": cli.parse_config(write_config(tmp_path, MINIMAL)),
        }
        configs["quasilinear"]["disc.levels"] = 2
        for name, cfg in configs.items():
            out = str(tmp_path / name)
            assert cli.run_subcommand("convergence", cfg, out) == 0
            with open(os.path.join(out, "convergence.csv")) as fh:
                got = list(csv.DictReader(fh))
            expected = _per_level_convergence(cfg)
            assert len(got) == len(expected) == cfg["disc.levels"]
            for row, ref in zip(got, expected):
                assert list(row) == list(ref)
                for key in ("level", "nt", "nx"):
                    assert int(row[key]) == ref[key]
                for key in list(ref)[3:]:
                    a, b = float(row[key]), ref[key]
                    assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-10 * abs(b), (
                        name, row["level"], key)

    @pytest.mark.parametrize("subcommand", ["convergence", "infsup"])
    def test_ladder_builds_each_pair_once(self, subcommand, tmp_path, monkeypatch):
        # levels + 2 pairs, one Riesz context each; in the study also one
        # right-hand side and one solve each, every solve but the first warm
        calls = {"solve": [], "rhs": 0, "ctx": 0}
        solve, rhs, ctx_init = sy.solve_reference, sy.assemble_rhs, riesz.RieszContext.__post_init__

        def counting_solve(*args, **kwargs):
            calls["solve"].append(kwargs["x0"] is not None)
            return solve(*args, **kwargs)

        def counting_rhs(*args):
            calls["rhs"] += 1
            return rhs(*args)

        def counting_ctx(self):
            calls["ctx"] += 1
            ctx_init(self)

        monkeypatch.setattr(sy, "solve_reference", counting_solve)
        monkeypatch.setattr(sy, "assemble_rhs", counting_rhs)
        monkeypatch.setattr(riesz.RieszContext, "__post_init__", counting_ctx)
        cfg = cli.parse_config(write_config(tmp_path, MINIMAL))
        assert cli.run_subcommand(subcommand, cfg, str(tmp_path / "out")) == 0
        n = cfg["disc.levels"] + ql.SURROGATE_REFINEMENTS
        assert calls["ctx"] == n
        if subcommand == "convergence":
            assert calls["solve"] == [False] + [True] * (n - 1)
            assert calls["rhs"] == n

    def test_precond_csv(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, MINIMAL))
        out = str(tmp_path / "out")
        assert cli.run_subcommand("precond", cfg, out) == 0
        rows = np.genfromtxt(os.path.join(out, "precond.csv"), delimiter=",", names=True)
        assert np.all(rows["kappa"] >= 1.0)

    def test_infsup_gamma_direct_on_every_level(self, tmp_path):
        # level 4 (64 x 64, dim_X 4095) once fell to a dense-size threshold
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "heat.cfg")
        cfg = cli.parse_config(config)
        cfg["disc.levels"] = 5
        out = str(tmp_path / "out")
        assert cli.run_subcommand("infsup", cfg, out) == 0
        rows = np.genfromtxt(os.path.join(out, "infsup.csv"), delimiter=",", names=True)
        assert rows.size == 5
        assert np.all(np.isfinite(rows["gamma_direct"]))
        assert np.all(rows["gamma_direct"] >= rows["gamma_lower"] - 1e-8)

    def test_pjotr_csv(self, tmp_path):
        text = MINIMAL + "problem.forcing = manufactured\n"
        cfg = cli.parse_config(write_config(tmp_path, text))
        out = str(tmp_path / "out")
        assert cli.run_subcommand("pjotr", cfg, out) == 0
        lines = Path(out, "pjotr.csv").read_text().strip().splitlines()
        assert lines[0] == "level,lhs,rhs,satisfied"
        assert lines[-1].endswith(",1")


def _per_level_convergence(cfg):
    """The rows of `psaddle convergence` by the per-level loop: level l
    solved cold on the configured pair refined l times, and its surrogate
    solved from the level's solution prolonged."""
    mu, data = cli._problem_from_config(cfg)
    rows, errs = [], []
    for level in range(cfg["disc.levels"]):
        disc = sy.Discretization(ql._surrogate_pair(cli._pair_from_config(cfg), level), mu, data)
        state = disc.reference(1e-11)
        fine, two = ql.surrogate(disc)
        fstate = fine.reference(1e-11, x0=two.prolong_X(state.u))
        report = ql.infsup_report(two)
        ratio, bound, err = ql.quasi_opt_ratio(fstate.u, state, two, disc.bundle, report)
        lam_u, _ = ql.estimator_terms(state, disc)
        errs.append(err)
        rows.append({
            "level": level, "nt": disc.pair.mesh_t_X.n_elements,
            "nx": disc.pair.mesh_x.n_elements, "err_X": err,
            "rate": math.log2(errs[-2] / errs[-1]) if level else math.nan,
            "quasi_opt_ratio": ratio, "quasi_opt_bound": bound, "lambda_minus_u_Y": lam_u,
        })
    return rows


class TestMainEntry:
    def test_exit_code_config_error(self, tmp_path):
        path = write_config(tmp_path, "problem.mu = pepper\n")
        assert cli.main(["constants", "--config", path]) == 2

    def test_exit_code_missing_config(self):
        assert cli.main(["constants", "--config", "/nope.cfg"]) == 2

    def test_exit_code_nonconvergence(self, tmp_path):
        text = MINIMAL + "solver.tol = 1e-13\nsolver.max_outer = 2\nsolver.L_practical = 1\n"
        path = write_config(tmp_path, text)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 3

    def test_exit_code_pjotr_unsatisfied(self, tmp_path, capsys):
        # with rho = 0 the right-hand side is 0 and the defect is positive,
        # so the condition fails at the only level allowed
        text = MINIMAL + "quality.rho = 0.0\nquality.max_enrich = 0\n"
        path = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert cli.main(["pjotr", "--config", path, "--out", str(out)]) == 3
        assert "unsatisfied up to enrichment level 0" in capsys.readouterr().err
        with open(out / "pjotr.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["level"] == "0" and rows[0]["satisfied"] == "0"
        assert float(rows[0]["rhs"]) == 0.0 and float(rows[0]["lhs"]) > 0.0

    def test_exit_code_precond_oversize_level(self, tmp_path, capsys):
        # level 13 at disc.nx = 8 is refused before the first level runs
        path = write_config(tmp_path, "problem.mu = constant\ndisc.nx = 8\ndisc.levels = 13\n")
        out = tmp_path / "o"
        assert cli.main(["precond", "--config", path, "--out", str(out)]) == 4
        assert "kappa temporal arrays" in capsys.readouterr().err
        assert not os.path.exists(out / "precond.csv")

    def test_exit_code_success(self, tmp_path):
        text = MINIMAL + "solver.tol = 1e-1\nsolver.max_outer = 2000\nsolver.L_practical = 4\n"
        path = write_config(tmp_path, text)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("subcommand,line", [
        ("solve", "solver.max_outer = 0"),
        ("solve", "solver.L_practical = -1"),
        ("pjotr", "quality.max_enrich = -1"),
        # the key in question leads: its name is what the error must carry
        ("solve", "problem.mu_a = -1.0\nproblem.mu = bounded-ramp"),
        ("solve", "problem.mu_b = -1.0\nproblem.mu = bounded-ramp"),
        ("solve", "disc.nx = 1"),
        ("infsup", "disc.x_breakpoints = 0,1"),
        # nan breakpoints, inside or at an end of the list
        ("solve", "disc.t_breakpoints = 0, nan, 1"),
        ("constants", "disc.t_breakpoints = 0, nan, 1"),
        ("solve", "disc.x_breakpoints = 0, 0.5, nan"),
        ("constants", "disc.x_breakpoints = 0, nan, 1"),
        # non-finite floats; nan stays the default of solver.sigma_hat
        ("solve", "solver.tol = nan"),
        ("solve", "problem.T = nan"),
        ("solve", "problem.mu_c = inf"),
        ("constants", "quality.rho = inf"),
        ("solve", "solver.sigma_hat = inf"),
        # sigma_hat outside (sigma_S, 1) for the configured mu
        ("solve", "solver.sigma_hat = 0.5"),
        ("constants", "solver.sigma_hat = 1.0"),
        ("solve", "solver.sigma_hat = 0.9995\nproblem.mu = one-plus-inv"),
        ("solve", "problem.T = 0"),
        ("pjotr", "quality.rho = -1"),
        ("solve", "problem.mu_c = 0"),
        # a line without '=' is named as it stands
        ("constants", "disc.nt 4"),
    ])
    def test_exit_code_value_out_of_range(self, subcommand, line, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + line + "\n")
        assert cli.main([subcommand, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")


    def test_large_constant_mu_passes_startup_check(self, tmp_path):
        # the finite-difference slopes of mu = 1e6 round by about 2e-6
        path = write_config(tmp_path, MINIMAL + "problem.mu_c = 1e6\n")
        assert cli.main(["infsup", "--config", path, "--out", str(tmp_path / "o")]) == 0

    def test_violated_mu_bounds_leave_no_output_dir(self, tmp_path, monkeypatch, capsys):
        # one-plus-inv has slopes up to 2; declare 1.5
        def understated(name, **params):
            return mo.MuCoefficient(fn=lambda t, x, s: 1.0 + 1.0 / (1.0 + s), m_mu=0.875, M_mu=1.5)

        monkeypatch.setattr(mo, "make_mu", understated)
        path = write_config(tmp_path, MINIMAL)
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "declared mu bounds" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("mu_c, subcommand, code, message", [
        # constants the calculus cannot represent: exit 4
        ("1e160", "constants", 4, "not representable"),
        ("1e160", "solve", 4, "not representable"),
        ("1e-300", "constants", 4, "not representable"),
        ("1e-300", "solve", 4, "not representable"),
        ("1e308", "constants", 4, "not representable"),
        # mu(r^2) r overflows on the startup grid: refused before the
        # constants are derived, exit 2
        ("1e308", "solve", 2, "not finite"),
        ("1e308", "infsup", 2, "not finite"),
    ])
    def test_exit_code_extreme_mu(self, mu_c, subcommand, code, message, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + f"problem.mu_c = {mu_c}\n")
        assert cli.main([subcommand, "--config", path, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "o")

    def test_unrepresentable_default_sigma_hat(self, tmp_path, capsys):
        # sigma_S = 1 - 2^-53 here, so the midpoint default rounds to 1
        path = write_config(tmp_path, MINIMAL + "problem.mu_c = 1e-4\n")
        assert cli.main(["constants", "--config", path, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "no outer-rate target" in err
        assert "sigma_hat_S=1.0" not in err


# `psaddle constants` on the shipped configs, to the last bit
_CONSTANTS_PIN = {
    "heat.cfg": """\
L_A = 3
m_A = 1
L_N = 4
L_S = 3
m_S = 0.1111111111111111
L_Ninv = 19
L_Beinv = 18
C_1 = 50.249223594996216
C_PF = 0.31830988618379069
theta_star_A = 0.1111111111111111
sigma_A = 0.94280904158206336
theta_star_S = 0.012345679012345678
sigma_S = 0.99931389357274381
sigma_hat_S = 0.99965694678637185
C_3 = 1.0281400170407771
L = 6
""",
    "quasilinear.cfg": """\
L_A = 6
m_A = 0.875
L_N = 7
L_S = 6
m_S = 0.024305555555555556
L_Ninv = 101.9008746355685
L_Beinv = 88.16326530612244
C_1 = 422.18914205503967
C_PF = 0.31830988618379069
theta_star_A = 0.024305555555555556
sigma_A = 0.98930917254864714
theta_star_S = 0.00067515432098765428
sigma_S = 0.99999179496591006
sigma_hat_S = 0.99999589748295503
C_3 = 1.1489382702134416
L = 10
""",
}


@pytest.mark.parametrize("cfg_name", sorted(_CONSTANTS_PIN))
def test_constants_output_pinned(cfg_name, tmp_path, capsys):
    # every line of stdout, and constants.csv holding the same values
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", cfg_name)
    out = str(tmp_path / "o")
    assert cli.main(["constants", "--config", cfg, "--out", out]) == 0
    expected = _CONSTANTS_PIN[cfg_name]
    assert capsys.readouterr().out == expected
    names, values = zip(*(line.split(" = ") for line in expected.splitlines()))
    with open(os.path.join(out, "constants.csv")) as fh:
        assert fh.read() == ",".join(names) + "\n" + ",".join(values) + "\n"


def _solve_summary(cfg_name, tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", cfg_name)
    out = str(tmp_path / "o")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "solve_summary.csv")) as fh:
        return next(csv.DictReader(fh))


class TestHeatConfigPin:
    def test_heat_cfg_outer_iterations(self, tmp_path):
        # eta/tol is 1.008 after step 703 and 0.9955 after step 704, so the
        # count moves only if the operator kernels change the iterates
        row = _solve_summary("heat.cfg", tmp_path)
        assert int(row["outer_iterations"]) == 704
        assert int(row["converged"]) == 1

    def test_quasilinear_cfg_outer_iterations(self, tmp_path):
        # eta/tol is 1.00034 after step 2884 and 0.99967 after step 2885
        row = _solve_summary("quasilinear.cfg", tmp_path)
        assert int(row["outer_iterations"]) == 2885
        assert int(row["converged"]) == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        text = MINIMAL + "solver.tol = 1e-1\nsolver.max_outer = 500\nsolver.L_practical = 4\n"
        cfg = cli.parse_config(write_config(tmp_path, text))
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            cli.run_subcommand("uzawa-trace", cfg, out)
            outs.append({
                f: Path(out, f).read_bytes()
                for f in sorted(os.listdir(out))
            })
        assert outs[0].keys() == outs[1].keys()
        for f in outs[0]:
            assert outs[0][f] == outs[1][f], f

    def test_seed_changes_band_output(self, tmp_path):
        base = MINIMAL + "solver.tol = 1e-1\nsolver.max_outer = 500\nsolver.L_practical = 4\n"
        paths = []
        for seed in (1, 2):
            cfg = cli.parse_config(write_config(tmp_path, base + f"seed = {seed}\n"))
            out = str(tmp_path / f"s{seed}")
            cli.run_subcommand("uzawa-trace", cfg, out)
            paths.append(Path(out, "aposteriori_band.csv").read_bytes())
        assert paths[0] != paths[1]

    def test_float_formatting_17_digits(self, tmp_path):
        assert cli._fmt(1.0 / 3.0) == "0.33333333333333331"
        assert cli._fmt(np.float64(2.0)) == "2"
        assert cli._fmt(7) == "7"
        assert cli._fmt(True) == "1"


class TestSplitMix:
    def test_reference_sequence(self):
        # splitmix64 finalizer on seed 0: known reference outputs of the
        # recurrence
        g = SplitMix64(0)
        first = [g.next_u64() for _ in range(3)]
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_uniform_in_range(self):
        g = SplitMix64(42)
        vals = [g.uniform(-1.0, 1.0) for _ in range(1000)]
        assert all(-1.0 <= v < 1.0 for v in vals)

    def test_normals_reasonable(self):
        g = SplitMix64(7)
        vals = np.array([g.normal() for _ in range(4000)])
        assert abs(vals.mean()) < 0.1
        assert abs(vals.std() - 1.0) < 0.1


class TestExplicitBreakpoints:
    def test_nonuniform_meshes_accepted(self, tmp_path):
        text = (
            "problem.mu = constant\n"
            "disc.t_breakpoints = 0, 0.1, 0.4, 1.0\n"
            "disc.x_breakpoints = 0, 0.3, 0.5, 0.8, 1.0\n"
            "solver.tol = 5e-1\nsolver.max_outer = 500\nsolver.L_practical = 4\n"
        )
        cfg = cli.parse_config(write_config(tmp_path, text))
        out = str(tmp_path / "out")
        assert cli.run_subcommand("solve", cfg, out) == 0
        pair = cli._pair_from_config(cfg)
        assert pair.mesh_t_X.breakpoints == (0.0, 0.1, 0.4, 1.0)
        assert pair.mesh_x.n_elements == 4

    def test_bad_breakpoints_rejected(self, tmp_path):
        for bad in ("0, 0.5", "0, 0.5, 0.4, 1", "0.1, 0.5, 1", "a, b"):
            with pytest.raises(ConfigError, match="breakpoints"):
                cli.parse_config(
                    write_config(tmp_path, f"disc.t_breakpoints = {bad}\n")
                )
