import numpy as np
import pytest

from saddlereg import (
    NumericalError,
    OptimizerConfig,
    get_objective,
    run_regularized_gd,
    spectral_norm,
    sym_eigen,
)

from oracles import fd_gradient, fd_hessian, third_directional


def test_sym_eigen_diagonal():
    dec = sym_eigen(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])


def test_sym_eigen_offdiagonal():
    dec = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_sym_eigen_zero_matrix():
    # Hessian of x^3/3 + x*y^2 at the origin: [[2x, 2y], [2y, 2x]] = 0
    dec = sym_eigen(np.zeros((2, 2)))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 0.0])


def test_sym_eigen_1x1():
    dec = sym_eigen(np.array([[3.5]]))
    np.testing.assert_allclose(dec.eigenvalues, [3.5])
    np.testing.assert_allclose(dec.eigenvectors, [[1.0]])


def test_sym_eigen_random_invariants():
    # reconstruction, orthonormality, and ordering over many random matrices
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        b = rng.standard_normal((n, n))
        a = 0.5 * (b + b.T)
        dec = sym_eigen(a)
        v, lam = dec.eigenvectors, dec.eigenvalues
        assert np.all(np.diff(lam) >= 0)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(v @ np.diag(lam) @ v.T - a) <= 1e-10 * scale
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10
        assert np.all(np.abs(np.linalg.norm(v, axis=0) - 1.0) <= 1e-12)


def test_sym_eigen_against_numpy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        b = rng.standard_normal((n, n))
        a = 0.5 * (b + b.T)
        np.testing.assert_allclose(
            sym_eigen(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-9 * max(1, np.linalg.norm(a))
        )


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        sym_eigen(np.ones((2, 3)))


def test_spectral_norm():
    assert spectral_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)


def _symmetric_stack(rng, m, n):
    b = rng.standard_normal((m, n, n))
    return 0.5 * (b + b.mT)


@pytest.mark.parametrize("shape", [(7, 1), (30, 2), (5, 3), (4, 20), (2, 114), (0, 2)])
def test_sym_eigen_stack_equals_single_solves(shape):
    # one LAPACK routine per matrix, stacked or not: every result bit for bit
    A = _symmetric_stack(np.random.default_rng(shape[1]), *shape)
    dec = sym_eigen(A)
    assert dec.eigenvalues.shape == shape and dec.eigenvectors.shape == A.shape
    for a, lam, v in zip(A, dec.eigenvalues, dec.eigenvectors):
        single = sym_eigen(a)
        assert lam.tobytes() == single.eigenvalues.tobytes()
        assert v.tobytes() == single.eigenvectors.tobytes()
    if len(A):
        assert spectral_norm(A) == max(spectral_norm(a) for a in A)


@pytest.mark.parametrize("entry, value, match", [
    ((2, 0, 1), 5.0, "not symmetric"),
    ((3, 1, 1), np.nan, "non-finite"),
    ((0, 0, 0), np.inf, "non-finite"),
])
def test_sym_eigen_rejects_stack_with_one_bad_matrix(entry, value, match):
    A = _symmetric_stack(np.random.default_rng(3), 4, 2)
    sym_eigen(A)
    A[entry] = value
    with pytest.raises(ValueError, match=match):
        sym_eigen(A)
    with pytest.raises(ValueError, match=match):
        spectral_norm(A)


def _valley(x):
    return x[0] ** 3 / 3.0 + x[1] ** 2 / 2.0


def test_fd_gradient_valley():
    # analytic gradient (x^2, y) = (2.25, 0.5) at (1.5, 0.5)
    g = fd_gradient(_valley, [1.5, 0.5], 1e-5)
    np.testing.assert_allclose(g, [2.25, 0.5], atol=1e-8)


def test_fd_gradient_at_critical_points():
    for fn, x in [
        (_valley, [0.0, 0.0]),
        (lambda x: (x[0] ** 2 - 1.0) ** 3, [1.0]),
        (lambda x: x[0] * x[1] ** 3 / 3.0, [2.0, 0.0]),
    ]:
        assert np.linalg.norm(fd_gradient(fn, x, 1e-5)) <= 1e-8


def test_fd_gradient_sextic():
    # f = (x^2-1)^3, f' = 6x(x^2-1)^2 = 108 at x = 2
    g = fd_gradient(lambda x: (x[0] ** 2 - 1.0) ** 3, [2.0], 1e-5)
    np.testing.assert_allclose(g, [108.0], atol=1e-6)


def test_fd_gradient_halving_h_quarters_error():
    # truncation error is O(h^2): halving h shrinks it by about 4x
    x = np.array([1.3, 0.7])
    exact = np.array([x[0] ** 2, x[1]])
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        errs.append(np.linalg.norm(fd_gradient(_valley, x, h) - exact))
    for big, small in zip(errs, errs[1:]):
        assert 3.0 <= big / small <= 5.0


def test_fd_hessian_valley():
    H = fd_hessian(_valley, [1.0, 0.0])
    np.testing.assert_allclose(H, np.diag([2.0, 1.0]), atol=1e-6)


def test_fd_hessian_bowl_identity():
    H = fd_hessian(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2), [0.7, -1.2])
    np.testing.assert_allclose(H, np.eye(2), atol=1e-6)


def test_fd_hessian_monkey():
    # analytic Hessian of x*y^3/3 is [[0, y^2], [y^2, 2xy]] = [[0,1],[1,3]] at (-1.5,-1)
    H = fd_hessian(lambda x: x[0] * x[1] ** 3 / 3.0, [-1.5, -1.0])
    np.testing.assert_allclose(H, [[0.0, 1.0], [1.0, 3.0]], atol=1e-4)
    assert np.array_equal(H, H.T)


def test_third_directional_sextic():
    # f''' of (x^2-1)^3 is 120x^3 - 72x: +48 at x=1, -48 at x=-1
    f = lambda x: (x[0] ** 2 - 1.0) ** 3
    assert third_directional(f, [1.0], [1.0]) == pytest.approx(48.0, rel=1e-4)
    assert third_directional(f, [-1.0], [1.0]) == pytest.approx(-48.0, rel=1e-4)


def test_third_directional_quadratic_is_zero():
    # truncation vanishes for a quadratic; h large enough keeps the stencil's
    # cancellation noise (~eps |f| / 2h^3) below the tolerance
    f = lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2)
    v = np.array([0.6, 0.8])
    assert abs(third_directional(f, [0.3, -0.4], v, h=1e-2)) <= 1e-9


def test_third_directional_requires_unit_direction():
    with pytest.raises(ValueError):
        third_directional(_valley, [0.0, 0.0], [1.0, 1.0])


def test_fd_rejects_bad_h():
    with pytest.raises(ValueError):
        fd_gradient(_valley, [1.0, 1.0], h=0.0)
    with pytest.raises(ValueError):
        fd_hessian(_valley, [1.0, 1.0], h=-1e-5)


def test_fd_propagates_nonfinite_evaluation():
    with pytest.raises(NumericalError):
        fd_gradient(lambda x: float("inf"), [1.0])


@pytest.mark.parametrize("x0, match", [
    ([[1.0, 0.0]], r"expected a vector, got array of shape \(1, 2\)"),
    ([np.nan, 0.0], "vector has non-finite entries"),
], ids=["matrix", "nan"])
def test_a_point_must_be_a_finite_vector(x0, match):
    # as_vector, which every library entry point runs on its points
    with pytest.raises(ValueError, match=match):
        run_regularized_gd(get_objective("cubic_valley"), x0, OptimizerConfig())


def test_sym_eigen_turns_a_lapack_failure_into_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError,
                       match="symmetric eigensolver failed: Eigenvalues did not converge"):
        sym_eigen(np.eye(2))
