"""The one admission rule for operands: every public entry point admits the
matrices it reads with ``linalg.ensure_operator`` (square, then finite,
then of A's shape) and raises a ValueError naming the operand before any
factorization, quadrature or family evaluation runs."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from riccati_place import dual, linalg, optimize, riccati, semigroup
from riccati_place.devices import CallableFamily, GaussianActuators
from riccati_place.linalg import SylvesterFactor, bochner_quadrature, ensure_operator
from riccati_place.optimize import Problem1Config, critical_cone_basis, hessian_p1_full
from riccati_place.riccati import solve_are, solve_are_hamiltonian, verify_are
from riccati_place.semigroup import certify_stability, perturbed_certificate

from conftest import heat1d

N = 4
BAD = np.eye(3)  # an operand on another space than the 4 x 4 generator's


def forbid(monkeypatch, owner, name):
    """Make ``owner.name`` fail the test if anything calls it."""
    def ran(*args, **kwargs):
        raise AssertionError(f"{name} ran before the operands were admitted")

    monkeypatch.setattr(owner, name, ran)


@pytest.fixture(scope="module")
def model():
    """heat1d n = 4 with one Gaussian actuator: A, G at p = 0.3, Q = I, and
    the Riccati solution and certificate of (A, G, Q)."""
    A, grid = heat1d(N)
    family = GaussianActuators(grid=grid, sigma=0.3)
    G, Q = family.G([0.3]), np.eye(N)
    cert = certify_stability(A)
    return dict(A=A, family=family, G=G, Q=Q, cert=cert, sol=solve_are(A, G, Q, cert=cert))


@pytest.fixture(scope="module")
def p1_triple(model):
    cfg = Problem1Config(A=model["A"], Q=model["Q"], W=np.eye(N), family=model["family"],
                         beta=10.0, tol=1e-8)
    return cfg, optimize.solve_p1(cfg, np.array([0.4]))


def solve_dual_case(m, mp):
    forbid(mp, dual, "check_psd")
    forbid(mp, dual, "closed_loop")
    dual.solve_dual(m["A"], m["G"], m["sol"], BAD)


def verify_are_case(operand, value):
    def case(m, mp):
        forbid(mp, riccati, "riccati_residual")
        forbid(mp, riccati, "bochner_quadrature")
        operands = {"G": m["G"], "Q": m["Q"], "X": m["sol"].X, operand: value}
        sol = dataclasses.replace(m["sol"], X=operands["X"])
        verify_are(m["A"], operands["G"], operands["Q"], sol, m["cert"], 10.0, 32)
    return case


def solve_sylvester_case(m, mp):
    forbid(mp, linalg, "_real_schur")
    linalg.solve_sylvester(m["A"], BAD)


def factor_solve_case(m, mp):
    factor = SylvesterFactor(m["A"])
    forbid(mp, SylvesterFactor, "_trsyl")
    factor.solve(BAD)


def quadrature_case(m, mp):
    forbid(mp, semigroup, "certify_stability")
    forbid(mp, linalg, "matrix_exponential")
    bochner_quadrature(m["A"], BAD, 10.0, 32)


def hamiltonian_case(m, mp):
    forbid(mp, scipy.linalg, "schur")
    solve_are_hamiltonian(m["A"], BAD, m["Q"])


def hessian_case(m, mp):
    cfg, triple = m["p1_triple"]
    forbid(mp, GaussianActuators, "dG")
    forbid(mp, GaussianActuators, "d2G")
    hessian_p1_full(cfg, triple, np.zeros((N, N)), [1.0], BAD, [1.0])


def cone_case(m, mp):
    forbid(mp, GaussianActuators, "dG")
    critical_cone_basis(m["family"], [0.3], BAD)


def callable_dG_case(m, mp):
    family = CallableFamily(param_dim=1, state_dim=16, g_fn=lambda p: np.eye(16),
                            dg_fn=lambda p, q: BAD)
    family.dG([0.3], [1.0])


NAN = np.full((N, N), np.nan)
CASES = {
    "solve_dual": (solve_dual_case, r"W has shape \(3, 3\), A has shape \(4, 4\)"),
    "verify_are G": (verify_are_case("G", BAD), r"G has shape \(3, 3\), A has shape \(4, 4\)"),
    "verify_are Q": (verify_are_case("Q", BAD), r"Q has shape \(3, 3\), A has shape \(4, 4\)"),
    "verify_are non-finite G": (verify_are_case("G", NAN), "G has non-finite entries"),
    "verify_are non-finite Q": (verify_are_case("Q", NAN), "Q has non-finite entries"),
    "verify_are X": (verify_are_case("X", BAD), r"X has shape \(3, 3\), A has shape \(4, 4\)"),
    "verify_are non-finite X": (verify_are_case("X", NAN), "X has non-finite entries"),
    "solve_sylvester": (solve_sylvester_case, r"P has shape \(3, 3\), A has shape \(4, 4\)"),
    "SylvesterFactor.solve": (factor_solve_case, r"P has shape \(3, 3\), A has shape \(4, 4\)"),
    "bochner_quadrature": (quadrature_case, r"P has shape \(3, 3\), A has shape \(4, 4\)"),
    "solve_are_hamiltonian": (hamiltonian_case, r"G has shape \(3, 3\), A has shape \(4, 4\)"),
    "hessian_p1_full": (hessian_case, r"Psi has shape \(3, 3\), A has shape \(4, 4\)"),
    "critical_cone_basis": (cone_case, r"X has shape \(3, 3\), expected \(4, 4\)"),
    "CallableFamily.dG": (callable_dG_case, r"dG\(p, q\) has shape \(3, 3\), expected \(16, 16\)"),
}


@pytest.mark.parametrize("entry", list(CASES))
def test_entry_point_names_the_operand_before_any_work(monkeypatch, model, p1_triple, entry):
    case, message = CASES[entry]
    with pytest.raises(ValueError, match=f"^{message}$"):
        case(dict(model, p1_triple=p1_triple), monkeypatch)


class TestEnsureOperator:
    def test_checks_square_then_finite_then_shape(self):
        # _operand's order: a non-square T is reported as such even when it
        # is non-finite and of another shape, a non-finite one before its shape
        with pytest.raises(ValueError, match=r"^T must be square, got shape \(2, 3\)$"):
            ensure_operator(np.full((2, 3), np.nan), "T", np.eye(4))
        with pytest.raises(ValueError, match="^T has non-finite entries$"):
            ensure_operator(np.full((2, 2), np.inf), "T", np.eye(4))
        with pytest.raises(ValueError, match=r"^T has shape \(2, 2\), A has shape \(4, 4\)$"):
            ensure_operator(np.eye(2), "T", np.eye(4))
        with pytest.raises(ValueError, match=r"^T has shape \(2, 2\), expected \(4, 4\)$"):
            ensure_operator(np.eye(2), "T", (4, 4))

    def test_an_admitted_operand_is_returned_as_it_is(self):
        A = np.eye(4)
        assert ensure_operator(A, "A", A) is A
        assert ensure_operator(A, "A", (4, 4)) is A
        np.testing.assert_array_equal(ensure_operator([[1, 2], [3, 4]], "T", (2, 2)),
                                      [[1.0, 2.0], [3.0, 4.0]])


class TestFormerInlineChecks:
    def test_problem_config_names_the_operand_of_another_shape(self, model):
        common = dict(family=model["family"], beta=10.0)
        with pytest.raises(ValueError, match=r"^W has shape \(3, 3\), A has shape \(4, 4\)$"):
            Problem1Config(A=model["A"], Q=model["Q"], W=BAD, **common)
        with pytest.raises(ValueError, match=r"^Q has shape \(3, 3\), A has shape \(4, 4\)$"):
            Problem1Config(A=model["A"], Q=BAD, W=np.eye(N), **common)
        # a generator on another space than the family's grid
        with pytest.raises(ValueError, match=r"^A has shape \(3, 3\), expected \(4, 4\)$"):
            Problem1Config(A=-BAD, Q=BAD, W=BAD, **common)

    def test_perturbed_certificate_names_K(self, model, monkeypatch):
        forbid(monkeypatch, semigroup, "check_psd")
        with pytest.raises(ValueError, match=r"^K has shape \(3, 3\), A has shape \(4, 4\)$"):
            perturbed_certificate(model["cert"], model["A"], BAD)

    @pytest.mark.parametrize("hook", ["g_fn", "dg_fn", "d2g_fn"])
    def test_callable_family_admits_each_callable_at_the_state_shape(self, hook):
        names = {"g_fn": "G\\(p\\)", "dg_fn": "dG\\(p, q\\)", "d2g_fn": "d2G\\(p, q, r\\)"}
        hooks = dict(g_fn=lambda p: np.eye(2), dg_fn=lambda p, q: np.eye(2),
                     d2g_fn=lambda p, q, r: np.eye(2))
        hooks[hook] = lambda *args: BAD
        family = CallableFamily(param_dim=1, state_dim=2, **hooks)
        calls = {"g_fn": lambda: family.G([0.3]), "dg_fn": lambda: family.dG([0.3], [1.0]),
                 "d2g_fn": lambda: family.d2G([0.3], [1.0], [1.0])}
        with pytest.raises(ValueError, match=rf"^{names[hook]} has shape \(3, 3\), "
                                             r"expected \(2, 2\)$"):
            calls[hook]()
