"""The library's argument contract: points, counts, and a sweep of every public entry point.

Each point or regularizer goes through `as_vector(x, f.dim, name)`, each count through
`_check_count`, and each box through `_as_box` (tested with the box checks in
test_critical). In the sweep, each entry point in `saddlereg.__all__` (its functions,
and the constructors of the classes that validate, those with a __post_init__) is
called from a valid base call with one parameter at a time set to each bad value
below. Only a ValueError (its subclasses included), a NumericalError, or a TypeError
for a value of the wrong Python type may escape: a string, None or a complex vector
anywhere, a float where an int goes, or a value of another rank. A bad value that is
accepted quietly passes the sweep; the tests beside each module pin the ones that
must raise.
"""

import inspect
import warnings

import numpy as np
import pytest

import saddlereg
from saddlereg import (
    MlpSpec,
    NumericalError,
    OptimizerConfig,
    boundary_classify,
    check_boundary_assumption,
    continuation_trace,
    find_critical_points,
    get_objective,
    halfspace_check,
    make_blobs,
    make_objective,
    milnor_sample,
    pl_error_check,
    psi_witness_check,
    quadratic_bowl,
    sample_in_box,
    stable_set_fraction,
    theta_region,
)
from saddlereg.critical import solve_gradient_equation

BAD_VALUES = {
    "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "-1": -1, "0": 0, "1e30": 1e30,
    "1e-320": 1e-320, "str": "abc", "empty": [], "nan_vector": [np.nan, 0.0],
    "wrong_length": [0.0, 0.0, 0.0], "matrix": [[0.0, 0.0], [0.0, 0.0]], "None": None,
    "True": True, "complex_vector": [1j, 0.0],
}

# parameters that take objects, callables or per-layer lists of arrays, not values: the
# sweep leaves them at their base
OBJECTS = {"f", "cfg", "spec", "dataset", "region", "rng", "exclude", "value", "gradient",
           "hessian", "Ws", "bs"}

_VALLEY = get_objective("cubic_valley")
_BOWL = quadratic_bowl()
_REGION = theta_region(_VALLEY, [0.0, 0.0], 1.0, resolution=20)
_CFG = OptimizerConfig(gamma=0.1, max_iters=20)
_SPEC = MlpSpec((2, 3, 3, 2))
_BOX = [[-1.0, 1.0], [-1.0, 1.0]]

# a valid call of each entry point: every parameter without a default, and small counts
BASE_CALLS = {
    "Dataset": {"inputs": np.zeros((4, 2)), "labels": [0, 1, 0, 1]},
    "MlpSpec": {"layer_widths": (2, 3, 3, 2)},
    "OptimizerConfig": {"gamma": 0.1},
    "boundary_classify": {"f": _VALLEY, "x": [0.5, 0.5], "l": [0.1, 0.0]},
    "check_assumption_separation": {"f": _VALLEY, "theta": 1.0, "box": _BOX, "resolution": 20,
                                    "points": [[0.0, 0.0]], "grid_density": 3},
    "check_boundary_assumption": {"f": _VALLEY, "region": _REGION, "l": [0.1, 0.0]},
    "classify_eigenvalues": {"eigenvalues": [1.0, 2.0]},
    "classify_point": {"f": _VALLEY, "x": [0.5, 0.5]},
    "continuation_trace": {"f": _BOWL, "x_at_mu1": [-0.5, 0.0], "l": [0.5, 0.0], "steps": 3},
    "escape_fraction": {"f": _VALLEY, "x0_batch": [[0.5, 0.5]], "cfg": _CFG},
    "find_critical_points": {"f": _VALLEY, "box": _BOX, "grid_density": 3},
    "get_objective": {"name": "cubic_valley"},
    "halfspace_check": {"f": _VALLEY, "region": _REGION, "v": [0.0, 1.0]},
    "init_params": {"spec": _SPEC, "seed": 0},
    "make_blobs": {"n_per_class": 2, "classes": 2, "dim": 2, "separation": 1.0, "seed": 0},
    "make_objective": {"name": "bowl", "dim": 2, "value": _BOWL.value,
                       "gradient": _BOWL.gradient, "hessian": _BOWL.hessian,
                       "domain_box": _BOX, "lipschitz_hint": 1.0},
    "make_regularized": {"f": _VALLEY, "l": [0.1, 0.0]},
    "milnor_sample": {"f": _VALLEY, "box": _BOX, "n_l": 2, "grid_density": 3},
    "pl_error_check": {"f": _BOWL, "xstar": [0.0, 0.0], "theta": 0.5, "n_l": 2},
    "psi_witness_check": {"f": _VALLEY, "region": _REGION, "x0": [0.0, 0.0], "max_seeds": 3},
    "quadratic_bowl": {"c": 1.0, "dim": 2},
    "run_gd_batch": {"f": _VALLEY, "x0_batch": [[0.5, 0.5]], "cfg": _CFG},
    "run_plain_gd": {"f": _VALLEY, "x0": [0.5, 0.5], "cfg": _CFG, "record_stride": 1},
    "run_regularized_gd": {"f": _VALLEY, "x0": [0.5, 0.5], "cfg": _CFG, "record_stride": 1},
    "sample_in_box": {"rng": np.random.default_rng(0), "box": _BOX, "n_samples": 3},
    "sample_in_region": {"rng": np.random.default_rng(0), "region": _REGION, "n_samples": 3},
    "spectral_norm": {"a": np.eye(2)},
    "stable_set_fraction": {"f": _VALLEY, "target": [0.0, 0.0], "box": _BOX, "n_samples": 4,
                            "cfg": _CFG, "seed": 0},
    "sym_eigen": {"a": np.eye(2)},
    "theta_region": {"f": _VALLEY, "seed": [0.0, 0.0], "theta": 1.0, "box": _BOX,
                     "resolution": 20},
    "unpack_params": {"spec": _SPEC, "params": np.zeros(_SPEC.n_params)},
}


def _entry_points():
    """Public functions and validating constructors that take at least one value."""
    for name in saddlereg.__all__:
        obj = getattr(saddlereg, name)
        if (inspect.isfunction(obj) or inspect.isclass(obj) and hasattr(obj, "__post_init__")) \
                and set(inspect.signature(obj).parameters) - OBJECTS:
            yield name


def _wrong_type(bad, base):
    """Whether `bad` has another Python type than the parameter's base value."""
    return (bad is None or isinstance(bad, str) or np.iscomplexobj(bad)
            or isinstance(base, int) and not isinstance(bad, int)
            or np.ndim(bad) != np.ndim(base))


def test_every_entry_point_has_a_base_call():
    assert sorted(_entry_points()) == sorted(BASE_CALLS)


@pytest.mark.parametrize("name", sorted(BASE_CALLS))
def test_bad_values_raise_value_errors(name):
    fn = getattr(saddlereg, name)
    params = inspect.signature(fn).parameters
    base = {p: BASE_CALLS[name].get(p, params[p].default) for p in params}
    fn(**base)  # the base call itself is valid
    escaped = []
    for param in [p for p in params if p not in OBJECTS]:
        for label, bad in BAD_VALUES.items():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fn(**{**base, param: bad})
            except (ValueError, NumericalError):
                pass
            except TypeError as exc:
                if not _wrong_type(bad, base[param]):
                    escaped.append(f"{param}={label}: TypeError: {exc}")
            except Exception as exc:  # every other escape is a finding
                escaped.append(f"{param}={label}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)


@pytest.mark.parametrize("call, match", [
    (lambda: boundary_classify(_VALLEY, [0.5, 0.5, 0.5], [0.1, 0.0]), "x has dimension 3"),
    (lambda: boundary_classify(_VALLEY, [0.5, 0.5], [0.1]), "l has dimension 1"),
    (lambda: check_boundary_assumption(_VALLEY, _REGION, [0.1]), "l has dimension 1"),
    (lambda: halfspace_check(_VALLEY, _REGION, [1.0]), "v has dimension 1"),
    (lambda: stable_set_fraction(_VALLEY, [0.0], n_samples=4, cfg=_CFG), "target has dimension 1"),
    (lambda: pl_error_check(_BOWL, [0.0], theta=0.5, n_l=2), "xstar has dimension 1"),
    (lambda: psi_witness_check(_VALLEY, _REGION, [0.0]), "x0 has dimension 1"),
    (lambda: solve_gradient_equation(_VALLEY, [0.0], np.zeros((1, 2))), "rhs has dimension 1"),
    (lambda: theta_region(_VALLEY, [0.0], 1.0, resolution=10), "seed has dimension 1"),
], ids=["boundary_classify_x", "boundary_classify_l", "check_boundary_assumption_l",
        "halfspace_check_v", "stable_set_fraction_target", "pl_error_check_xstar",
        "psi_witness_check_x0", "solve_gradient_equation_rhs", "theta_region_seed"])
def test_a_point_of_the_wrong_dimension_is_named(call, match):
    # a short vector used to broadcast against the objective's points, or a long one to
    # read a planar gradient's unset third entry
    with pytest.raises(ValueError, match=match + ", objective has 2"):
        call()


# the counts that no other test holds to _check_count (record_stride and max_iters do)
_COUNTS = [
    pytest.param("steps", lambda n: continuation_trace(_BOWL, [-0.5, 0.0], [0.5, 0.0], steps=n),
                 id="continuation_trace"),
    pytest.param("grid_density", lambda n: find_critical_points(_VALLEY, grid_density=n),
                 id="find_critical_points"),
    pytest.param("resolution", lambda n: theta_region(_VALLEY, [0.0, 0.0], 1.0, resolution=n),
                 id="theta_region"),
    pytest.param("n_samples", lambda n: sample_in_box(np.random.default_rng(0), _BOX, n),
                 id="sample_in_box"),
    pytest.param("n_l", lambda n: milnor_sample(_VALLEY, n_l=n, grid_density=3),
                 id="milnor_sample"),
    pytest.param("n_l", lambda n: pl_error_check(_BOWL, [0.0, 0.0], 0.5, n_l=n),
                 id="pl_error_check"),
    pytest.param("max_seeds", lambda n: psi_witness_check(_VALLEY, _REGION, [0.0, 0.0],
                                                          max_seeds=n), id="psi_witness_check"),
    pytest.param("dim", lambda n: quadratic_bowl(1.0, n), id="quadratic_bowl"),
    pytest.param("dim", lambda n: make_objective("bowl", n, _BOWL.value, _BOWL.gradient,
                                                 _BOWL.hessian), id="make_objective"),
    pytest.param("n_per_class", lambda n: make_blobs(n, 2, 2, 1.0, seed=0), id="make_blobs"),
    pytest.param("a layer width", lambda n: MlpSpec((2, n, 3, 2)), id="MlpSpec"),
]


@pytest.mark.parametrize("name, call", _COUNTS)
@pytest.mark.parametrize("count", [0, 2.5, True, np.nan])
def test_a_count_must_be_an_integer_of_at_least_1(name, call, count):
    # a float count used to raise numpy's TypeError or run truncated, True to count as 1,
    # and sample_in_box, quadratic_bowl and make_objective to take 0
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        call(count)
