import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlereg import (
    NumericalError,
    OptimizerConfig,
    get_objective,
    run_regularized_gd,
    spectral_norm,
    sym_eigen,
)
from saddlereg.linalg import _det_and_solve

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


_U = np.finfo(float).eps / 2  # unit roundoff


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


@st.composite
def _small_systems(draw):
    """A stack of 1x1 or 2x2 systems, each matrix scaled by 1e-150, 1 or 1e150; a 2x2
    one is R(alpha) diag(+-1, sigma) R(beta)^T with condition number 1/sigma up to 1e14.
    Right-hand sides are 0 or at least 1e-3 in magnitude, so that every product of
    Cramer's rule stays above the subnormal range (see the underflow test below)."""
    n, m = draw(st.sampled_from([1, 2])), draw(st.integers(1, 6))
    H, B = np.empty((m, n, n)), np.empty((m, n))
    for i in range(m):
        scale = 10.0 ** draw(st.sampled_from([-150, 0, 150]))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        if n == 1:
            H[i] = scale * sign * draw(st.floats(0.5, 2.0))
        else:
            sigma = 10.0 ** -draw(st.floats(0.0, 14.0))
            alpha, beta = draw(st.floats(0.0, 7.0)), draw(st.floats(0.0, 7.0))
            H[i] = scale * _rotation(alpha) @ np.diag([sign, sigma]) @ _rotation(beta).T
        B[i] = [draw(st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3))
                for _ in range(n)]
    return H, B


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_small_systems())
def test_det_and_solve_agrees_with_lapack_within_the_condition_number(case):
    # the closed forms are not LAPACK's bits, but each row's solution lies within a
    # small multiple of kappa(H) u of LAPACK's, and its determinant within
    # 4u (|ad| + |bc|) of the exact one
    H, B = case
    det, X = _det_and_solve(H, B)
    X_ref = np.linalg.solve(H, B[..., None])[..., 0]
    for h, b, d, x, x_ref in zip(H, B, det, X, X_ref):
        bound = 16.0 * np.linalg.cond(h) * _U * np.max(np.abs(x_ref))
        assert np.max(np.abs(x - x_ref)) <= bound
        if len(h) == 1:
            assert d == h[0, 0]
            continue
        (a, b_), (c, d_) = [[Fraction(v) for v in row] for row in h.tolist()]
        # three roundings, and the absolute spacing 2^-1074 of a product that is subnormal
        bound = 4 * Fraction(_U) * (abs(a * d_) + abs(b_ * c)) + Fraction(2) ** -1074
        assert abs(Fraction(d) - (a * d_ - b_ * c)) <= bound


def test_det_and_solve_rows_are_independent_of_the_stack():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        H, B = rng.standard_normal((7, n, n)), rng.standard_normal((7, n))
        det, X = _det_and_solve(H, B)
        for i in range(7):
            det_i, X_i = _det_and_solve(H[i:i + 1], B[i:i + 1])
            assert det_i.tobytes() == det[i:i + 1].tobytes()
            assert X_i.tobytes() == X[i:i + 1].tobytes()


@pytest.mark.parametrize("singular", [[[1.0, 2.0], [2.0, 4.0]], [[0.0]], np.zeros((3, 3)),
                                      [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]],
                         ids=["2x2", "1x1", "3x3-zero", "3x3-rank-2"])
def test_det_and_solve_gives_a_singular_row_a_non_finite_solution(singular):
    # no exception and no warning; the regular row beside it is solved as on its own
    singular = np.asarray(singular)
    n = len(singular)
    H = np.stack([singular, np.eye(n) + np.ones((n, n))])
    B = np.ones((2, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, X = _det_and_solve(H, B)
    assert det[0] == 0.0 and not np.isfinite(X[0]).all()
    assert X[1].tobytes() == _det_and_solve(H[1:], B[1:])[1][0].tobytes()


def test_det_and_solve_is_lapack_above_two():
    rng = np.random.default_rng(3)
    for n in (3, 5):
        H, B = rng.standard_normal((9, n, n)), rng.standard_normal((9, n))
        det, X = _det_and_solve(H, B)
        assert det.tobytes() == np.linalg.det(H).tobytes()
        assert X.tobytes() == np.linalg.solve(H, B[..., None])[..., 0].tobytes()


def test_det_and_solve_loses_what_underflows_or_overflows():
    # ad - bc of diag(1e-200, 1e-200) underflows to 0, so the closed form gives a
    # non-finite row where LAPACK's pivots, each 1e-200, solve it
    H, B = np.diag([1e-200, 1e-200])[None], np.ones((1, 2))
    det, X = _det_and_solve(H, B)
    assert det[0] == 0.0 and not np.isfinite(X).any()
    assert np.linalg.solve(H, B[..., None])[0, :, 0].tolist() == [1e200, 1e200]
    # and Cramer's product 1e-150 * 1e-311 underflows to 0, where LAPACK divides
    H, B = np.diag([1e-150, 1e-150])[None], np.array([[0.0, 1e-311]])
    assert _det_and_solve(H, B)[1][0, 1] == 0.0
    assert np.linalg.solve(H, B[..., None])[0, 1, 0] == 1e-311 / 1e-150
    # ad - bc of diag(1e200, 1e200) overflows to inf, giving a zero step, with no warning
    H, B = np.diag([1e200, 1e200])[None], np.ones((1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, X = _det_and_solve(H, B)
    assert det[0] == np.inf and X.tolist() == [[0.0, 0.0]]
    assert np.linalg.solve(H, B[..., None])[0, :, 0].tolist() == [1e-200, 1e-200]
