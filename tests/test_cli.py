import hashlib
import json

import numpy as np
import pytest

import riccati_place
from riccati_place import cli, devices, dual, linalg, optimize, riccati, semigroup
from riccati_place.cli import (
    build_model,
    load_matrix,
    main,
    parse_config,
    resolve_weight,
    save_matrix,
)
from riccati_place.errors import ConfigError

from conftest import convdiff1d, count_calls, count_computed, gram_members


def base_config(**overrides):
    raw = {
        "model": {"kind": "heat1d", "n": 8, "diffusivity": 1.0, "domain_length": 1.0},
        "device": {"kind": "gaussian_actuator", "sigma": 0.15},
        "problem": {"variant": 1, "beta": 10.0, "W": "identity", "Q": "identity"},
        "solver": {"tol": 1e-8, "max_iter": 200, "seed": 1, "damping": 1.0},
    }
    for section, fields in overrides.items():
        raw.setdefault(section, {}).update(fields)
    return raw


def readme_config(tmp_path, variant):
    """The README example config (heat1d n = 16, sigma = 0.12, gamma = 2.6,
    W = rank1:4) with the given problem variant; returns its path."""
    path = tmp_path / "readme.json"
    path.write_text(json.dumps({
        "model": {"kind": "heat1d", "n": 16, "diffusivity": 1.0, "domain_length": 1.0},
        "device": {"kind": "gaussian_actuator", "sigma": 0.12},
        "problem": {"variant": variant, "beta": 10.0, "gamma": 2.6, "W": "rank1:4",
                    "Q": "identity"},
        "solver": {"tol": 1e-6, "max_iter": 500, "quadrature": {"nodes": 200}, "seed": 0,
                   "damping": 1.0},
    }))
    return str(path)


def convdiff16_config(tmp_path):
    """Problem 2 on the non-normal convection-diffusion model u_t = nu u_xx -
    c u_x (nu = 1, c = 10, n = 16, central differences, Dirichlet ends) as
    a ``matrix_file`` config, W = rank1:4, Q = identity."""
    n, nu, c = 16, 1.0, 10.0
    h = 1.0 / (n + 1)
    A = nu * (np.diag(np.ones(n - 1), -1) + np.diag(np.full(n, -2.0))
              + np.diag(np.ones(n - 1), 1)) / h**2
    A = A + (c / (2.0 * h)) * (np.diag(np.ones(n - 1), -1) - np.diag(np.ones(n - 1), 1))
    model = tmp_path / "convdiff16.txt"
    model.write_text(f"{n}\n" + "".join(
        " ".join(format(x, ".17g") for x in row) + "\n" for row in A))
    path = tmp_path / "convdiff16.json"
    path.write_text(json.dumps({
        "model": {"kind": "matrix_file", "file_path": str(model)},
        "device": {"kind": "gaussian_actuator", "sigma": 0.12,
                   "grid": (h * np.arange(1, n + 1)).tolist()},
        "problem": {"variant": 2, "beta": 10.0, "gamma": 2.6, "W": "rank1:4", "Q": "identity"},
        "solver": {"tol": 1e-6, "max_iter": 500},
    }))
    return str(path)


class TestBuildModel:
    def test_two_node_stencil(self):
        cfg = parse_config(base_config(model={"n": 2, "domain_length": 3.0}))
        A, grid = build_model(cfg)
        np.testing.assert_allclose(A, [[-2.0, 1.0], [1.0, -2.0]])
        np.testing.assert_allclose(grid, [1.0, 2.0])

    def test_single_interior_node(self):
        cfg = parse_config(base_config(model={"n": 1, "domain_length": 2.0}))
        A, grid = build_model(cfg)
        np.testing.assert_allclose(A, [[-2.0]])
        np.testing.assert_allclose(grid, [1.0])

    def test_spectrum_closed_form(self):
        n, nu, length = 12, 0.7, 2.0
        cfg = parse_config(base_config(model={"n": n, "diffusivity": nu,
                                              "domain_length": length}))
        A, _ = build_model(cfg)
        h = length / (n + 1)
        expected = sorted(-(2 * nu / h**2) * (1 - np.cos(k * np.pi / (n + 1)))
                          for k in range(1, n + 1))
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(A)), expected,
                                   rtol=1e-10, atol=1e-10)

    def test_matrix_file_model(self, tmp_path):
        A = np.array([[-3.0, 0.5], [0.5, -2.0]])
        path = tmp_path / "A.txt"
        save_matrix(path, A)
        raw = base_config(model={"kind": "matrix_file", "file_path": str(path)},
                          device={"grid": [0.0, 1.0]})
        del raw["model"]["n"], raw["model"]["diffusivity"], raw["model"]["domain_length"]
        cfg = parse_config(raw)
        A2, grid = build_model(cfg)
        np.testing.assert_array_equal(A2, A)
        assert grid is None  # the devices sit on device.grid


class TestConfigValidation:
    def test_unknown_key_has_field_path(self):
        raw = base_config()
        raw["solver"]["typo_field"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert "typo_field" in str(exc.value) and "solver" in str(exc.value)

    def test_variant_2_requires_gamma(self):
        raw = base_config(problem={"variant": 2})
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert "gamma" in str(exc.value)

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(model={"n": "eight"}))
        with pytest.raises(ConfigError):
            parse_config(base_config(problem={"beta": -1.0}))
        with pytest.raises(ConfigError):
            parse_config(base_config(solver={"damping": 1.5}))

    def test_rank1_weight(self):
        W = resolve_weight("rank1:3", 8, "problem.W")
        assert W[2, 2] == 1.0 and W.sum() == 1.0
        with pytest.raises(ConfigError):
            resolve_weight("rank1:9", 8, "problem.W")
        with pytest.raises(ConfigError):
            resolve_weight("rank1:x", 8, "problem.W")


class TestMatrixFiles:
    def test_round_trip_is_exact(self, tmp_path, rng):
        T = rng.standard_normal((5, 5)) * np.exp(rng.uniform(-20, 20, (5, 5)))
        path = tmp_path / "m.txt"
        save_matrix(path, T)
        back = load_matrix(path, "test")
        assert np.array_equal(back, T)  # 17 significant digits round-trip doubles

    def test_dimension_line_enforced(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3 4\n")
        with pytest.raises(ConfigError):
            load_matrix(path, "test")


class TestCommands:
    def write_cfg(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_certify(self, tmp_path):
        cfg = self.write_cfg(tmp_path, base_config())
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["alpha"] > 0 and payload["M"] >= 1.0
        assert payload["method"] == "log_norm"  # the heat generator is symmetric

    # sha256 of certificate.json: the symmetric and the non-symmetric
    # log-norm proof, and a sampled certificate
    CERTIFICATES = {
        "heat1d": "ed499c92ad5f8486ad27f6ba64a881ca601193702c67995f9c47ab9a7aeb2c59",
        "skew": "8f16de0a6afda89b910225c5abd3a98369f195e6fb0b171d33b25772efdf2e4e",
        "convdiff": "ecce98b26692474f0f21a44b110b49a3afd48efc5f2558a89331b0a495a5cce9"}

    @pytest.mark.parametrize("model", sorted(CERTIFICATES))
    def test_certificate_bytes(self, tmp_path, model):
        raw = base_config()
        A = {"heat1d": None, "skew": np.array([[-1.0, 0.1], [-0.1, -2.0]]),
             "convdiff": convdiff1d(16)[0]}[model]
        if A is not None:
            save_matrix(tmp_path / "A.txt", A)
            raw["model"] = {"kind": "matrix_file", "file_path": str(tmp_path / "A.txt")}
            raw["device"]["grid"] = np.linspace(0.1, 0.9, len(A)).tolist()
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        data = (tmp_path / "out" / "certificate.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.CERTIFICATES[model]

    def test_solve_are_report(self, tmp_path):
        cfg = self.write_cfg(tmp_path, base_config())
        code = main(["solve-are", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["trace_bound_holds"] and payload["X_psd"]
        assert payload["strong_residual"] <= 1e-9

    def test_solve_are_takes_one_svd_of_the_residual(self, monkeypatch, tmp_path):
        # the report's strong residual is verify_are's: the solution's own
        # is never read, so the residual's SVD is taken once
        residuals = count_calls(monkeypatch, "riccati_residual", riccati)
        norms = count_calls(monkeypatch, "operator_norm", riccati)
        cfg = self.write_cfg(tmp_path, base_config())
        assert main(["solve-are", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(residuals) == 1
        # verify_are: the residual and X - X_quad; ||X|| is read off the
        # eigvalsh(X) of the PSD test
        assert len(norms) == 2

    def test_solve_are_takes_one_svd_of_the_dual_residual(self, monkeypatch, tmp_path):
        # the report's dual residual and verify_dual's are the solution's own
        residuals = count_calls(monkeypatch, "dual_residual", dual)
        cfg = self.write_cfg(tmp_path, base_config())
        assert main(["solve-are", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(residuals) == 1

    @pytest.mark.parametrize("command,variant", [
        ("certify", 2), ("solve-are", 2), ("optimize", 1), ("optimize", 2),
        ("sweep-beta", 2), ("verify-bounds", 2)])
    def test_optimize_solves_riccati_only_in_state_pairs(self, monkeypatch, tmp_path,
                                                         command, variant):
        # every command, the ledger and the reported cost included, solves
        # the Riccati and dual equations only inside solve_state_pair or the
        # batches of solve_state_pairs
        depth, outside = [0], []

        def solve_state_pair(*args, _original=optimize.solve_state_pair, **kwargs):
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        def solve_state_pairs(*args, _original=optimize.solve_state_pairs, **kwargs):
            depth[0] += 1
            try:
                yield from _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        def outside_state_pairs(name, original):
            def routed(*args, **kwargs):
                if not depth[0]:
                    outside.append(name)
                return original(*args, **kwargs)
            return routed

        monkeypatch.setattr(optimize, "solve_state_pair", solve_state_pair)
        monkeypatch.setattr(optimize, "solve_state_pairs", solve_state_pairs)
        for name, original in (("solve_are", riccati.solve_are),
                               ("solve_dual", dual.solve_dual)):
            routed = outside_state_pairs(name, original)
            for owner in (riccati_place, cli, devices, dual, optimize, riccati):
                if getattr(owner, name, None) is original:
                    monkeypatch.setattr(owner, name, routed)
        cfg = readme_config(tmp_path, variant)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert outside == []

    def test_optimize_w_zero_gives_origin(self, tmp_path):
        Wpath = tmp_path / "Wzero.txt"
        save_matrix(Wpath, np.zeros((8, 8)))
        raw = base_config(problem={"W": str(Wpath)})
        cfg = self.write_cfg(tmp_path, raw)
        code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["converged"] and payload["mode"] == "newton"
        assert abs(payload["p"][0]) <= 1e-8

    def test_sweep_beta_csv(self, tmp_path):
        raw = base_config(problem={"variant": 2, "gamma": 1.9, "W": "rank1:2"},
                          solver={"tol": 1e-6})
        cfg = self.write_cfg(tmp_path, raw)
        code = main(["sweep-beta", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--betas", "10,100,1000"])
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("beta,trace_gap,cost,k,converged,iters,p_0")
        assert len(lines) == 4
        gaps = [float(line.split(",")[1]) for line in lines[1:]]
        assert gaps[0] > gaps[1] > gaps[2]
        assert code in (0, 2)

    def test_determinism_byte_identical(self, tmp_path):
        raw = base_config(problem={"variant": 2, "gamma": 1.9, "W": "rank1:2"},
                          solver={"tol": 1e-6, "seed": 42})
        cfg = self.write_cfg(tmp_path, raw)
        for out in ("r1", "r2"):
            assert main(["optimize", "--config", cfg,
                         "--out", str(tmp_path / out)]) in (0, 2)
        b1 = (tmp_path / "r1" / "report.json").read_bytes()
        b2 = (tmp_path / "r2" / "report.json").read_bytes()
        assert b1 == b2
        assert json.loads(b1)["mode"] == "newton"

    def test_verify_bounds(self, tmp_path):
        cfg = self.write_cfg(tmp_path, base_config())
        code = main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["are_trace_bound_pass"] and payload["dual_norm_bound_pass"]
        assert payload["x_passing_readings"] and payload["lambda_passing_readings"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        raw = base_config()
        raw["problem"]["variant"] = 3
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,entry,message", [
        ("problem.Q", (0, 0, -1.0), "Q is not PSD: lambda_min = -1.000e+00 < -2.000e-10"),
        ("problem.W", (1, 2, 1.0), "W is not symmetric: max|T - T.T| = 1.000e+00 > 2.618e-12"),
        ("model.file_path", (0, 0, np.nan), "non-finite entry nan at row 1, column 1")])
    def test_matrix_rejected_by_the_problem_is_a_config_error(self, tmp_path, capsys,
                                                              field, entry, message):
        # a matrix file the problem config rejects: exit code 1 and the
        # config's own text under the file's field, no traceback
        A = build_model(parse_config(base_config()))[0]
        i, j, value = entry
        T = A.copy() if field == "model.file_path" else np.eye(8)
        T[i, j] = value
        save_matrix(tmp_path / "T.txt", T)
        if field == "model.file_path":
            raw = base_config(model={"kind": "matrix_file", "file_path": str(tmp_path / "T.txt")},
                              device={"grid": np.linspace(0.1, 0.9, 8).tolist()})
            del raw["model"]["n"], raw["model"]["diffusivity"], raw["model"]["domain_length"]
        else:
            raw = base_config(problem={field.split(".")[1]: str(tmp_path / "T.txt")})
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["solve-are", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {field}: {message}\n"

    @pytest.mark.parametrize("field", ["model.file_path", "problem.Q", "problem.W"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_file_is_a_config_error(self, tmp_path, capsys, field, value):
        # a nan or inf token in a matrix file, for a 2 x 2 model (certify
        # reads no Q or W) or for Q or W: exit code 1 and the entry under
        # the file's field, no traceback
        T = np.array([[-2.0, 0.5], [0.5, -3.0]]) if field == "model.file_path" else np.eye(2)
        T[1, 0] = value
        save_matrix(tmp_path / "T.txt", T)
        save_matrix(tmp_path / "A.txt", np.array([[-2.0, 0.5], [0.5, -3.0]]))
        raw = base_config(model={"kind": "matrix_file", "file_path": str(tmp_path / "A.txt")},
                          device={"grid": [0.3, 0.6]})
        del raw["model"]["n"], raw["model"]["diffusivity"], raw["model"]["domain_length"]
        section, key = field.split(".")
        raw[section][key] = str(tmp_path / "T.txt")
        cfg = self.write_cfg(tmp_path, raw)
        command = "certify" if field == "model.file_path" else "solve-are"
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: {field}: non-finite entry {value} at row 2, column 1\n")

    def test_int_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys):
        # json reads "sigma": 1 followed by 400 zeros as an int that float()
        # cannot convert: exit code 1 and the field, no OverflowError
        path = tmp_path / "config.json"
        raw = json.dumps(base_config()).replace('"sigma": 0.15', '"sigma": 1' + "0" * 400)
        path.write_text(raw)
        assert main(["solve-are", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: device.sigma: integer beyond the float range\n")

    @pytest.mark.parametrize("field", [
        "model.diffusivity", "model.domain_length", "device.sigma", "device.r_weight",
        "problem.beta", "problem.gamma", "solver.tol", "solver.damping",
        "solver.quadrature.horizon"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_field_is_a_config_error(self, tmp_path, capsys, field, value):
        # JSON's Infinity, -Infinity and NaN: exit code 1 and the field, not
        # a converged report, a later numerical error or another field
        raw = base_config(problem={"variant": 2, "gamma": 1.9}, solver={"quadrature": {}})
        *sections, key = field.split(".")
        section = raw
        for name in sections:
            section = section[name]
        section[key] = value
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {field}: non-finite value {value}\n"

    @pytest.mark.parametrize("betas", ["100,10", "10,10", "nan", "inf", "10,inf", "-1,10",
                                       ",", "", "10,x"])
    def test_bad_betas_are_a_config_error(self, tmp_path, capsys, betas):
        # not finite, positive and strictly ascending, or no value at all:
        # exit code 1 under betas, no traceback, no row and no default schedule
        cfg = self.write_cfg(tmp_path, base_config(problem={"variant": 2, "gamma": 1.9}))
        assert main(["sweep-beta", "--config", cfg, "--out", str(tmp_path / "out"),
                     f"--betas={betas}"]) == 1
        assert capsys.readouterr().err.startswith("config error: betas: ")
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        # numpy's generators take no negative seed: exit code 1 and the
        # field, from the command line or from the config
        cfg = self.write_cfg(tmp_path, base_config())
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "config error: seed: invalid value -1\n"
        cfg = self.write_cfg(tmp_path, base_config(solver={"seed": -1}))
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: solver.seed: invalid value -1\n"

    @pytest.mark.parametrize("model,grid,message", [
        ("heat1d", [0.1] * 8, "grid must be finite and strictly increasing"),
        ("heat1d", [0.2, 0.5, 0.8], "grid has 3 nodes but the matrix is 8x8"),
        ("heat1d", ["a"] * 8,
         "grid entries must be numbers: could not convert string to float: 'a'"),
        ("matrix_file", [0.1] * 8, "grid must be finite and strictly increasing"),
        ("matrix_file", [0.2, 0.5, 0.8], "grid has 3 nodes but the matrix is 8x8")])
    def test_bad_device_grid_is_a_config_error(self, tmp_path, capsys, model, grid, message):
        # a grid that is not strictly increasing, not one node per row of A,
        # or not numbers: exit code 1 and the message under device.grid, no
        # traceback
        raw = base_config(device={"grid": grid})
        if model == "matrix_file":
            save_matrix(tmp_path / "A.txt", build_model(parse_config(base_config()))[0])
            raw["model"] = {"kind": "matrix_file", "file_path": str(tmp_path / "A.txt")}
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["solve-are", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: device.grid: {message}\n"

    @pytest.mark.parametrize("p0", [["x"], [None], [[0.3]], [float("nan")], [True], [10**400]])
    def test_bad_device_p0_is_a_config_error(self, tmp_path, capsys, p0):
        # every entry must be a number that is finite as a float, and a bool
        # is not one: exit code 1 and the message under device.p0, no
        # traceback
        cfg = self.write_cfg(tmp_path, base_config(device={"p0": p0}))
        assert main(["solve-are", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: device.p0: ")

    def test_nonconvergence_exit_code_still_writes_report(self, tmp_path):
        raw = base_config(solver={"max_iter": 1, "tol": 1e-14})
        cfg = self.write_cfg(tmp_path, raw)
        code = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert (tmp_path / "out" / "report.json").exists()


class TestVerifyBoundsConvDiff16:
    """verify-bounds on a non-normal generator: 220 cold state solves at
    scattered placements, each in A's real eigenbasis."""

    # sha256 of report.json for --seed 0, 1, 2
    REPORTS = {
        0: "b51426ccda06abdc4303ab6aacf7ef61f616b09eea9e899d202c592b3f6b5aff",
        1: "8d7e18583579a67c088b579abb46ac4322898243b944dac224c0338b763dc2ad",
        2: "b2f557b37503d7cfc2b1043f9320688068460d444fa2cf99952cfae82ea0aa42",
    }

    def test_cold_solves_share_one_schur_form_of_A(self, monkeypatch, tmp_path):
        # the 877 Newton steps and the 220 closed-loop duals all run on
        # capacitance systems in A's eigenbasis, so no cold start reads the
        # Schur-form X1 of Q's weight: no Schur form at all.  The 220 state
        # pairs (100 ledger points, 50 Lipschitz pairs, 20 spot checks) are
        # solved in batches, and none leaves its batch for a single solve
        cfg = convdiff16_config(tmp_path)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        batches = count_calls(monkeypatch, "solve_are_batch", optimize)
        ares = count_calls(monkeypatch, "solve_are", optimize)
        duals = count_calls(monkeypatch, "solve_dual", optimize)
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == 0
        assert len(schur) == 0
        assert [len(args[1]) for args in batches] == [16] * 6 + [4] + [16] * 6 + [4, 16, 4]
        assert len(ares) == len(duals) == 0

    def test_svds_are_stacked(self, monkeypatch, tmp_path):
        # every SVD of a seed-0 run, operator_norm's through np.linalg.norm
        # included: the ledger's norms (G, dG, Gram matrices, differences,
        # ||X L X||) and the Lipschitz check's differences come in stacks of
        # STACK_CHUNK, and two single ones are left: cond(V) of A's
        # eigenbasis and the config's ||W||, which the ledger and every
        # multiplier bound read.  Each ||Lambda|| is decided under the floor
        # ||W||/(2 alpha) by norm bounds, with no closed-loop certificate.
        # Each sampling direction is read once up to sign.  (Unstacked, with
        # both signs: 1004 calls, 983 matrices.)
        svd = count_calls(monkeypatch, "svd", np.linalg, np.linalg._linalg)
        assert main(["verify-bounds", "--config", convdiff16_config(tmp_path),
                     "--out", str(tmp_path / "out"), "--seed", "0"]) == 0
        sizes = [len(args[0]) if args[0].ndim == 3 else 1 for args in svd]
        assert sum(args[0].ndim == 2 for args in svd) == 2
        assert (len(svd), sum(sizes)) == (54, 703)

    @pytest.mark.parametrize("seed", sorted(REPORTS))
    def test_spot_checks_build_no_closed_loop_certificate(self, monkeypatch, tmp_path, seed):
        # every spot check's ||Lambda|| sits under the floor ||W||/(2 alpha)
        # of its bound, so no closed loop is certified
        certificates = count_calls(monkeypatch, "certify_stability", dual)
        decided = count_computed(monkeypatch, dual.DualSolution, "norm_bound_holds")
        assert main(["verify-bounds", "--config", convdiff16_config(tmp_path),
                     "--out", str(tmp_path / "out"), "--seed", str(seed)]) == 0
        assert len(decided) == 20 and len(certificates) == 0

    def test_spot_check_certificates_settle_their_grids_with_norm_bounds(
            self, monkeypatch, tmp_path):
        # certified directly, each of the 20 spot checks' closed loops has
        # its 1500 grid points settled by norm bounds, not bracketed by
        # power steps, and one grid SVD each finds M
        decided = count_computed(monkeypatch, dual.DualSolution, "norm_bound_holds")
        assert main(["verify-bounds", "--config", convdiff16_config(tmp_path),
                     "--out", str(tmp_path / "out"), "--seed", "0"]) == 0
        power_bounds = count_calls(monkeypatch, "_power_bounds", semigroup, linalg,
                                   keywords=True)
        svds = count_calls(monkeypatch, "operator_norm", semigroup, linalg)
        certificates = [semigroup.certify_stability(sol.closed_loop) for sol in decided]
        assert len(certificates) == 20
        assert all(cert.method == "sampled" for cert in certificates)
        assert gram_members(power_bounds) <= 100 and sum(len(S) for (S,) in svds) <= 20

    @pytest.mark.parametrize("seed", sorted(REPORTS))
    def test_report_bytes(self, tmp_path, seed):
        cfg = convdiff16_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify-bounds", "--config", cfg, "--out", str(out),
                     "--seed", str(seed)]) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == self.REPORTS[seed]


class TestReadmeReports:
    """The README example config's reports, pinned byte for byte."""

    # sha256 of each file
    REPORTS = {
        ("optimize", 1): {
            "report.json": "a0e2a362b482615ab8db4d364aa045ba48fe406c36d32f55e1b89d228a7427ad"},
        ("optimize", 2): {
            "report.json": "facff7324d82d18f120cf7334794c056864abfad125d31058b1f919bec45ae3a"},
        ("solve-are", 2): {
            "report.json": "286eb6b6acc1d43cb45ffd8a982fb2020c51621405dceb92135cc918b111120c"},
        ("sweep-beta", 2): {
            "report.json": "4dc285c53b99b19699e5015a200752e4851aedeb3ef351ecfb182a30cc9a51c8",
            "sweep.csv": "d1b8e4e6557f048ecf5ad07c4c488c5d70e896e4ae22bc0280be7ffdc85db624"},
    }

    @pytest.mark.parametrize("command,variant", sorted(REPORTS))
    def test_report_bytes(self, tmp_path, command, variant):
        out = tmp_path / "out"
        assert main([command, "--config", readme_config(tmp_path, variant),
                     "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.REPORTS[command, variant]}
        assert digests == self.REPORTS[command, variant]

    @pytest.mark.parametrize("variant", [1, 2])
    def test_triple_says_whether_p_lies_in_the_domain(self, tmp_path, variant):
        # problem 1 runs on no box: at beta = 10 its stationary point
        # p ~ 1.5e-6 lies below the domain's lower end 1/17, and is reported
        # converged; problem 2's box is the domain
        with open(readme_config(tmp_path, variant)) as f:
            cfg = parse_config(json.load(f))
        problem, family = cli.build_problem(cfg)
        solve = optimize.solve_p1 if variant == 1 else optimize.solve_p2
        triple = solve(problem, cli._initial_p(cfg, family))
        assert triple.converged
        assert triple.in_domain is (variant == 2)
        assert bool(triple.p[0] < family.domain()[0, 0]) is (variant == 1)


class TestInputErrors:
    """Config, matrix-file and command errors that reach ``main``: exit code
    1 and the field path on stderr, or exit code 2 on a numerical failure,
    never a traceback."""

    @staticmethod
    def run(tmp_path, raw, command="solve-are"):
        path = tmp_path / "cfg.json"
        path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        return main([command, "--config", str(path), "--out", str(tmp_path / "out")])

    @staticmethod
    def matrix_file_config(tmp_path, A):
        save_matrix(tmp_path / "A.txt", A)
        raw = base_config(model={"kind": "matrix_file", "file_path": str(tmp_path / "A.txt")},
                          device={"grid": np.linspace(0.1, 0.9, len(A)).tolist()})
        del raw["model"]["n"], raw["model"]["diffusivity"], raw["model"]["domain_length"]
        return raw

    @pytest.mark.parametrize("edit,err", [
        (lambda raw: raw.pop("device"), "device: missing section"),
        (lambda raw: raw.update(model=3), "model: expected an object"),
        (lambda raw: raw["solver"].update(quadrature=[200]),
         "solver.quadrature: expected an object"),
        (lambda raw: raw["device"].update(param_dim=2),
         "device.param_dim: gaussian_actuator has param_dim 1"),
        (lambda raw: raw["problem"].update(W=3),
         "problem.W: expected a string preset or file path"),
        (lambda raw: raw["device"].update(p0=[0.3, 0.4]), "device.p0: p0 must have 1 entries")])
    def test_config_field_errors(self, tmp_path, capsys, edit, err):
        raw = base_config()
        edit(raw)
        assert self.run(tmp_path, raw) == 1
        assert capsys.readouterr().err == f"config error: {err}\n"

    def test_config_root_must_be_an_object(self, tmp_path, capsys):
        assert self.run(tmp_path, "[1, 2]") == 1
        assert capsys.readouterr().err == "config error: config root must be an object\n"

    @pytest.mark.parametrize("text,start", [(None, "config: [Errno 2]"),
                                            ("{model", "config: invalid JSON: ")])
    def test_unreadable_or_non_json_config(self, tmp_path, capsys, text, start):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert main(["certify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {start}")

    @pytest.mark.parametrize("text,message", [
        (None, None),
        ("", "empty matrix file"),
        ("2\n1 x\n0 1\n", "bad matrix file: could not convert string to float: 'x'"),
        ("two\n1 0\n0 1\n", "bad matrix file: invalid literal for int() with base 10: 'two'"),
        ("2\n1 0 0\n", "dimension line says 2 but file has 3 entries"),
        ("2\n1 0\n0 1\n", "matrix is 2x2, expected 8")])
    def test_bad_weight_file(self, tmp_path, capsys, text, message):
        # unreadable (missing), empty, non-numeric, wrongly sized, or of
        # another order than the model's
        path = tmp_path / "W.txt"
        if text is not None:
            path.write_text(text)
        assert self.run(tmp_path, base_config(problem={"W": str(path)})) == 1
        err = capsys.readouterr().err
        if message is None:
            assert err.startswith("config error: problem.W: [Errno 2]")
        else:
            assert err == f"config error: problem.W: {message}\n"

    def test_matrix_file_model_needs_a_device_grid(self, tmp_path, capsys):
        raw = self.matrix_file_config(tmp_path, -np.eye(2))
        del raw["device"]["grid"]
        assert self.run(tmp_path, raw) == 1
        assert capsys.readouterr().err == (
            "config error: device.grid: matrix_file models must supply device.grid\n")

    def test_sweep_beta_needs_variant_2(self, tmp_path, capsys):
        assert self.run(tmp_path, base_config(), command="sweep-beta") == 1
        assert capsys.readouterr().err == (
            "config error: problem.variant: sweep-beta requires problem.variant = 2\n")
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        # an unstable model has no decay certificate: UnstableGenerator, a
        # RiccatiPlaceError that is not a ConfigError
        raw = self.matrix_file_config(tmp_path, np.array([[1.0, 0.5], [0.5, -3.0]]))
        assert self.run(tmp_path, raw, command="certify") == 2
        assert capsys.readouterr().err == "error: spectral abscissa 1.062e+00 >= 0\n"
