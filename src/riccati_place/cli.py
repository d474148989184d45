"""Batch front door: config ingestion, 1-D heat-equation Galerkin surrogate,
experiment orchestration, and bit-stable report emission.

Usage:
    riccati-place <command> --config <path> --out <dir> [--seed N] [--betas a,b,c]

commands: certify, solve-are, optimize, sweep-beta, verify-bounds.
Exit codes: 0 success, 1 config error, 2 non-convergence / numerical failure.

Reports are deterministic: a fixed config + seed produces byte-identical
files (floats are serialized with shortest round-trip repr in JSON and 17
significant digits in matrix files).
"""

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import devices, optimize
from .dual import verify_dual
from .errors import ConfigError, MaxIterExceeded, RiccatiPlaceError
from .riccati import TRACE_SLACK, verify_are
from .semigroup import certify_stability

LEDGER_SAMPLES = 100
DEFAULT_BETAS = (10.0, 100.0, 1000.0)


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are hard errors)
# ---------------------------------------------------------------------------

def _section(raw, key, path, required=True):
    if key not in raw:
        if required:
            raise ConfigError("missing section", f"{path}{key}")
        return {}
    value = raw.pop(key)
    if not isinstance(value, dict):
        raise ConfigError("expected an object", f"{path}{key}")
    return dict(value)


def _take(section, key, path, kind, required=True, default=None, check=None):
    if key not in section:
        if required:
            raise ConfigError("missing field", f"{path}.{key}")
        return default
    value = section.pop(key)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError("integer beyond the float range", f"{path}.{key}") from None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}",
                          f"{path}.{key}")
    if kind is float and not math.isfinite(value):  # JSON's NaN and Infinity
        raise ConfigError(f"non-finite value {value!r}", f"{path}.{key}")
    if check is not None and not check(value):
        raise ConfigError(f"invalid value {value!r}", f"{path}.{key}")
    return value


def _reject_unknown(section, path):
    if section:
        raise ConfigError(f"unknown keys {sorted(section)}", path)


def parse_config(raw):
    """Validate a config dict (parsed JSON) into a plain attribute namespace."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    raw = dict(raw)
    cfg = argparse.Namespace()

    model = _section(raw, "model", "")
    cfg.model_kind = _take(model, "kind", "model", str,
                           check=lambda v: v in ("heat1d", "matrix_file"))
    cfg.n = _take(model, "n", "model", int, required=cfg.model_kind == "heat1d",
                  default=0, check=lambda v: v >= 1)
    cfg.diffusivity = _take(model, "diffusivity", "model", float,
                            required=cfg.model_kind == "heat1d", default=1.0,
                            check=lambda v: v > 0)
    cfg.domain_length = _take(model, "domain_length", "model", float,
                              required=cfg.model_kind == "heat1d", default=1.0,
                              check=lambda v: v > 0)
    cfg.model_file = _take(model, "file_path", "model", str,
                           required=cfg.model_kind == "matrix_file", default=None)
    _reject_unknown(model, "model")

    device = _section(raw, "device", "")
    cfg.device_kind = _take(device, "kind", "device", str,
                            check=lambda v: v in ("gaussian_actuator", "multi_gaussian"))
    cfg.param_dim = _take(device, "param_dim", "device", int, required=False,
                          default=1, check=lambda v: v >= 1)
    if cfg.device_kind == "gaussian_actuator" and cfg.param_dim != 1:
        raise ConfigError("gaussian_actuator has param_dim 1", "device.param_dim")
    cfg.sigma = _take(device, "sigma", "device", float, check=lambda v: v > 0)
    cfg.r_weight = _take(device, "r_weight", "device", float, required=False,
                         default=1.0, check=lambda v: v > 0)
    cfg.device_grid = _take(device, "grid", "device", list, required=False)
    cfg.p0 = _take(device, "p0", "device", list, required=False)
    _reject_unknown(device, "device")

    problem = _section(raw, "problem", "")
    cfg.variant = _take(problem, "variant", "problem", int,
                        check=lambda v: v in (1, 2))
    cfg.beta = _take(problem, "beta", "problem", float, check=lambda v: v > 0)
    cfg.gamma = _take(problem, "gamma", "problem", float,
                      required=cfg.variant == 2, default=None,
                      check=lambda v: v > 0)
    cfg.W_spec = problem.pop("W", "identity")
    cfg.Q_spec = problem.pop("Q", "identity")
    for name, spec in (("W", cfg.W_spec), ("Q", cfg.Q_spec)):
        if not isinstance(spec, str):
            raise ConfigError("expected a string preset or file path", f"problem.{name}")
    _reject_unknown(problem, "problem")

    solver = _section(raw, "solver", "", required=False)
    cfg.tol = _take(solver, "tol", "solver", float, required=False,
                    default=1e-9, check=lambda v: v > 0)
    cfg.max_iter = _take(solver, "max_iter", "solver", int, required=False,
                         default=500, check=lambda v: v >= 1)
    quad = _section(solver, "quadrature", "solver.", required=False)
    cfg.horizon = _take(quad, "horizon", "solver.quadrature", float,
                        required=False, default=None, check=lambda v: v > 0)
    cfg.nodes = _take(quad, "nodes", "solver.quadrature", int, required=False,
                      default=200, check=lambda v: v >= 1)
    _reject_unknown(quad, "solver.quadrature")
    cfg.seed = _take(solver, "seed", "solver", int, required=False, default=0,
                     check=lambda v: v >= 0)
    # accepted so that existing configs parse; nothing reads it
    _take(solver, "damping", "solver", float, required=False, check=lambda v: 0 < v <= 1)
    _reject_unknown(solver, "solver")

    _reject_unknown(raw, "")
    return cfg


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(str(err), "config") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}", "config") from err
    return parse_config(raw)


# ---------------------------------------------------------------------------
# matrix file I/O (leading dimension line, row-major, 17 significant digits)
# ---------------------------------------------------------------------------

def load_matrix(path, field):
    try:
        tokens = Path(path).read_text().split()
    except OSError as err:
        raise ConfigError(str(err), field) from err
    if not tokens:
        raise ConfigError("empty matrix file", field)
    try:
        n = int(tokens[0])
        entries = [float(t) for t in tokens[1:]]
    except ValueError as err:
        raise ConfigError(f"bad matrix file: {err}", field) from err
    if n < 1 or len(entries) != n * n:
        raise ConfigError(
            f"dimension line says {n} but file has {len(entries)} entries", field)
    T = np.array(entries).reshape(n, n)
    if not np.isfinite(T).all():
        i, j = np.argwhere(~np.isfinite(T))[0]
        raise ConfigError(f"non-finite entry {T[i, j]} at row {i + 1}, column {j + 1}", field)
    return T


def save_matrix(path, T):
    T = np.asarray(T, dtype=float)
    lines = [str(T.shape[0])]
    lines += [" ".join(format(x, ".17g") for x in row) for row in T]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def build_model(cfg):
    """Return (A, grid) for the configured model.

    heat1d is the standard Dirichlet second-difference surrogate
    A = (diffusivity / h^2) tridiag(1, -2, 1) with h = domain_length/(n+1)
    and interior nodes x_i = i h.  A matrix_file model has no grid of its
    own (None): its devices sit on ``device.grid``, which it must supply.
    """
    if cfg.model_kind == "heat1d":
        n = cfg.n
        h = cfg.domain_length / (n + 1)
        A = (cfg.diffusivity / h**2) * (
            np.diag(np.full(n - 1, 1.0), -1)
            + np.diag(np.full(n, -2.0))
            + np.diag(np.full(n - 1, 1.0), 1))
        grid = h * np.arange(1, n + 1)
        return A, grid
    A = load_matrix(cfg.model_file, "model.file_path")
    if cfg.device_grid is None:
        raise ConfigError("matrix_file models must supply device.grid", "device.grid")
    return A, None


def build_family(cfg, A, grid):
    """The device family on ``device.grid``, or on the model's own ``grid``
    when the config gives none; raises ConfigError unless that grid holds
    finite numbers, strictly increasing, one per row of A."""
    if cfg.device_grid is not None:
        try:
            grid = np.asarray(cfg.device_grid, dtype=float)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"grid entries must be numbers: {err}", "device.grid") from err
    n = A.shape[0]
    if grid.shape != (n,):
        raise ConfigError(f"grid has {grid.size} nodes but the matrix is {n}x{n}", "device.grid")
    if not (np.isfinite(grid).all() and (np.diff(grid) > 0).all()):
        raise ConfigError("grid must be finite and strictly increasing", "device.grid")
    return devices.GaussianActuators(grid=grid, sigma=cfg.sigma,
                                     r_weight=cfg.r_weight,
                                     param_dim=cfg.param_dim)


def resolve_weight(spec, n, field):
    """'identity', 'rank1:<node>' (1-based grid node), or a matrix file path."""
    if spec == "identity":
        return np.eye(n)
    if spec.startswith("rank1:"):
        try:
            node = int(spec.split(":", 1)[1])
        except ValueError as err:
            raise ConfigError(f"bad rank1 node: {spec!r}", field) from err
        if not 1 <= node <= n:
            raise ConfigError(f"rank1 node {node} outside 1..{n}", field)
        z = np.zeros(n)
        z[node - 1] = 1.0
        return np.outer(z, z)
    M = load_matrix(spec, field)
    if M.shape[0] != n:
        raise ConfigError(f"matrix is {M.shape[0]}x{M.shape[0]}, expected {n}", field)
    return M


def build_problem(cfg):
    A, grid = build_model(cfg)
    family = build_family(cfg, A, grid)
    n = A.shape[0]
    W = resolve_weight(cfg.W_spec, n, "problem.W")
    Q = resolve_weight(cfg.Q_spec, n, "problem.Q")
    kwargs = dict(A=A, Q=Q, W=W, family=family, beta=cfg.beta,
                  tol=cfg.tol, max_iter=cfg.max_iter)
    try:
        if cfg.variant == 2:
            problem = optimize.Problem2Config(gamma=cfg.gamma, **kwargs)
        else:
            problem = optimize.Problem1Config(**kwargs)
    except ValueError as err:  # the test of a matrix names it first (see check_psd)
        fields = {"A": "model.file_path", "Q": "problem.Q", "W": "problem.W"}
        field = fields.get(str(err).split()[0])
        if field is None:
            raise
        raise ConfigError(str(err), field) from err
    return problem, family


def _initial_p(cfg, family):
    if cfg.p0 is not None:
        # JSON numbers are int or float (a bool is not one); NaN, infinities
        # and ints beyond the float range fail the bound
        for x in cfg.p0:
            if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
                raise ConfigError(f"p0 entries must be finite numbers, got {x!r}", "device.p0")
        p0 = np.asarray([float(x) for x in cfg.p0])
        if p0.shape != (family.param_dim,):
            raise ConfigError(f"p0 must have {family.param_dim} entries", "device.p0")
        return p0
    box = family.domain()
    return 0.5 * (box[:, 0] + box[:, 1])


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        # keep the report strict JSON: "nan" / "inf" / "-inf" as strings
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def write_report(out_dir, name, payload):
    path = Path(out_dir) / name
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_certify(cfg, out_dir):
    A, _ = build_model(cfg)
    cert = certify_stability(A)
    write_report(out_dir, "certificate.json", {
        "M": cert.M,
        "alpha": cert.alpha,
        "sample_horizon": cert.sample_horizon,
        "sample_count": cert.sample_count,
        "method": cert.method,
        "n": A.shape[0],
    })
    return 0


def _cmd_solve_are(cfg, out_dir):
    problem, family = build_problem(cfg)
    p0 = _initial_p(cfg, family)
    state = optimize.solve_state_pair(problem, p0)
    horizon = cfg.horizon if cfg.horizon is not None else 20.0 / problem.cert.alpha
    ver = verify_are(problem.A, state.G, problem.Q, state.sol, problem.cert, horizon, cfg.nodes)
    dver = verify_dual(state.dsol, nodes=cfg.nodes)
    write_report(out_dir, "report.json", {
        "placement": p0,
        "newton_iters": state.sol.newton_iters,
        "strong_residual": ver.strong_residual,
        "bochner_residual": ver.bochner_residual,
        "trace_X": ver.trace_X,
        "trace_bound": ver.trace_bound,
        "trace_bound_holds": ver.trace_bound_holds,
        "X_symmetric": ver.symmetric,
        "X_psd": ver.psd,
        "dual_residual": state.dsol.residual,
        "dual_norm_bound_holds": dver.norm_bound_holds,
        "dual_psd": dver.psd,
    })
    return 0


def _build_ledger(problem, family, seed):
    return devices.estimate_constants(family, family.domain(), LEDGER_SAMPLES, seed,
                                      cfg=problem)


def _cmd_optimize(cfg, out_dir):
    problem, family = build_problem(cfg)
    p0 = _initial_p(cfg, family)
    ledger = _build_ledger(problem, family, cfg.seed)
    contraction = (optimize.contraction_constant_p1(ledger) if cfg.variant == 1
                   else optimize.contraction_constant_p2(ledger))
    exit_code = 0
    try:
        solve = optimize.solve_p1 if cfg.variant == 1 else optimize.solve_p2
        triple = solve(problem, p0)
        cost = triple.state.cost(problem)
    except MaxIterExceeded as err:
        triple = err.best
        cost = math.nan
        exit_code = 2
    if not triple.converged:
        exit_code = 2
    write_report(out_dir, "report.json", {
        "p": triple.p,
        "converged": triple.converged,
        "iterations": triple.iterations,
        "residual_primal": triple.state.sol.strong_residual,
        "residual_dual": triple.state.dsol.residual,
        "residual_stationarity": triple.residual_stationarity,
        "trace_gap": triple.trace_gap,
        "trace_constraint_residual": triple.trace_constraint_residual,
        "fixed_point_residual": triple.fixed_point_residual,
        "mode": "newton",
        "cost": cost,
        "contraction_k": contraction.k,
        "is_contraction": contraction.is_contraction,
        "beta_threshold": contraction.beta_threshold,
        "term_breakdown": [[label, value] for label, value in contraction.term_breakdown],
    })
    return exit_code


def _cmd_sweep_beta(cfg, out_dir, betas):
    if cfg.variant != 2:
        raise ConfigError("sweep-beta requires problem.variant = 2", "problem.variant")
    problem, family = build_problem(cfg)
    p0 = _initial_p(cfg, family)
    ledger = _build_ledger(problem, family, cfg.seed)
    report = optimize.beta_sweep(problem, betas, p0, ledger=ledger)

    csv_path = Path(out_dir) / "sweep.csv"
    d = family.param_dim
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "trace_gap", "cost", "k", "converged", "iters"]
                        + [f"p_{i}" for i in range(d)])
        for row in report.rows:
            p_cols = (["" for _ in range(d)] if row.p is None
                      else [format(x, ".17g") for x in row.p])
            writer.writerow([
                format(row.beta, ".17g"),
                format(row.trace_gap, ".17g"),
                format(row.cost, ".17g"),
                "" if row.k is None else format(row.k, ".17g"),
                str(row.converged).lower(),
                row.iterations,
            ] + p_cols)

    write_report(out_dir, "report.json", {
        "gamma": report.gamma,
        "sup_xlx_recorded": report.sup_xlx_recorded,
        "gap_law_holds": report.gap_law_holds,
        "rows": [dataclasses.asdict(r) for r in report.rows],
    })
    return 0 if all(not r.failed and r.converged for r in report.rows) else 2


def _cmd_verify_bounds(cfg, out_dir):
    problem, family = build_problem(cfg)
    ledger = _build_ledger(problem, family, cfg.seed)
    lip = optimize.lipschitz_bound_check(problem, ledger, family.domain(),
                                         pairs=50, seed=cfg.seed + 1)
    # spot-check the solution bounds on fresh sampled placements
    rng = np.random.default_rng(cfg.seed + 2)
    points = devices.sample_box(family.domain(), 20, rng)
    trace_ok, dual_ok = True, True
    for state in optimize.solve_state_pairs(problem, points):
        trace_ok &= state.sol.trace_bound_slack >= -TRACE_SLACK
        dual_ok &= state.dsol.norm_bound_holds
    payload = {
        "x_lipschitz_pass": lip.x_pass,
        "lambda_lipschitz_pass": lip.lambda_pass,
        "x_passing_readings": lip.x_passing_readings,
        "lambda_passing_readings": lip.lambda_passing_readings,
        "worst_x_ratio": lip.worst_x_ratio,
        "worst_lambda_ratio": lip.worst_lambda_ratio,
        "are_trace_bound_pass": bool(trace_ok),
        "dual_norm_bound_pass": bool(dual_ok),
        "ledger": {
            "g": ledger.g, "g_op": ledger.g_op, "L_G": ledger.L_G,
            "L_dG": ledger.L_dG, "C_dG": ledger.C_dG, "K": ledger.K,
            "mu": ledger.mu, "M": ledger.M, "alpha": ledger.alpha,
            "trQ": ledger.trQ, "normW": ledger.normW,
            "sup_xlx": ledger.sup_xlx,
        },
    }
    write_report(out_dir, "report.json", payload)
    all_pass = (any(lip.x_pass.values()) and any(lip.lambda_pass.values())
                and trace_ok and dual_ok)
    return 0 if all_pass else 2


COMMANDS = ("certify", "solve-are", "optimize", "sweep-beta", "verify-bounds")


def run(cfg, command, out_dir, betas=None):
    """Execute one command against a parsed config; returns the exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if command == "certify":
        return _cmd_certify(cfg, out)
    if command == "solve-are":
        return _cmd_solve_are(cfg, out)
    if command == "optimize":
        return _cmd_optimize(cfg, out)
    if command == "sweep-beta":
        return _cmd_sweep_beta(cfg, out, betas or list(DEFAULT_BETAS))
    if command == "verify-bounds":
        return _cmd_verify_bounds(cfg, out)
    raise ConfigError(f"unknown command {command!r}", "command")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="riccati-place",
        description="Penalized trace-minimization experiments for control-device placement.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None, help="override solver.seed")
    parser.add_argument("--betas", default=None,
                        help="comma-separated ascending penalty values for sweep-beta")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"invalid value {args.seed!r}", "seed")
            cfg.seed = args.seed
        betas = None
        if args.betas is not None:
            try:
                betas = optimize._beta_schedule(tok for tok in args.betas.split(",") if tok)
            except ValueError as err:
                raise ConfigError(f"bad --betas: {err}", "betas") from err
        return run(cfg, args.command, args.out, betas=betas)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except RiccatiPlaceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
