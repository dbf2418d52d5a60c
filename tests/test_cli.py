import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import saddlereg
from saddlereg import cli, region
from saddlereg.cli import MLP_MAX_SAMPLES, MLP_MAX_TRIALS, _compare_trials, main, write_json
from saddlereg.linalg import NumericalError


def _read_json(path):
    return json.loads(Path(path).read_text())


def test_run_cone_escape(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--objective", "cubic_cone", "--x0", "1.5,0.5",
                 "--theta", "3", "--out", str(out)])
    assert code == 0
    summary = _read_json(out / "summary.json")
    assert summary["objective"] == "cubic_cone"
    assert len(summary["events"]) == 1
    ev = summary["events"][0]
    assert ev["l"] == [2.5, 1.5]
    assert ev["k_exit"] is not None and ev["k_exit"] <= 50
    # summary cross-checks against the trajectory file
    traj = _read_json(out / "trajectory.json")
    assert traj["final_value"] == summary["final_value"]
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    np.testing.assert_allclose(
        [float(rows[-1][1]), float(rows[-1][2])], summary["final_x"]
    )


def test_run_bowl_error_bound(tmp_path):
    out = tmp_path / "bowl"
    code = main(["run", "--objective", "quadratic_bowl", "--x0", "2,0",
                 "--theta", "0.5", "--out", str(out)])
    assert code == 0
    summary = _read_json(out / "summary.json")
    assert summary["status"] == "converged"
    assert summary["final_value"] <= 0.5 ** 2 / 2.0 + 1e-9


def test_critical_start_outside_the_escape_ball_converges_at_k_0(tmp_path):
    # (2, 0) is on monkey_line's critical line and 2 from its box center: the escape
    # ball is not tested at k = 0, so the start converges before any step
    out = tmp_path / "run"
    assert main(["run", "--objective", "monkey_line", "--x0", "2,0", "--escape-radius", "1",
                 "--out", str(out)]) == 0
    summary = _read_json(out / "summary.json")
    assert (summary["status"], summary["n_iters"]) == ("converged", 0)
    assert summary["final_x"] == [2.0, 0.0]


def test_run_default_start_point(tmp_path):
    # without --x0 the run starts from a deterministic point in the domain box
    out = tmp_path / "bowl_default"
    code = main(["run", "--objective", "quadratic_bowl", "--theta", "0.5",
                 "--out", str(out)])
    assert code == 0
    summary = _read_json(out / "summary.json")
    assert summary["status"] == "converged"
    assert summary["final_value"] <= 0.5 ** 2 / 2.0 + 1e-9
    assert len(summary["events"]) == 1


def test_run_unknown_objective_writes_nothing(tmp_path, capsys):
    out = tmp_path / "none"
    code = main(["run", "--objective", "nope", "--x0", "1,1", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "unknown objective" in capsys.readouterr().err


def test_config_error_exit_codes(tmp_path):
    assert main(["run", "--out", str(tmp_path)]) == 1  # missing objective
    assert main(["run", "--objective", "cubic_valley", "--x0", "1,2,3",
                 "--out", str(tmp_path)]) == 1
    assert main(["run", "--objective", "cubic_valley", "--x0", "1,0",
                 "--gamma", "-0.5", "--out", str(tmp_path)]) == 1


def test_numerical_failure_exit_code(tmp_path):
    code = main(["run", "--objective", "cubic_valley", "--x0", "1e200,0",
                 "--out", str(tmp_path / "nf")])
    assert code == 2


@pytest.mark.parametrize("objective, x0", [("cubic_valley", "1e308,0"),
                                           ("double_degenerate", "1e160")])
def test_run_default_gamma_with_overflowing_hessian(tmp_path, capsys, objective, x0):
    # the default gamma reads the Hessian at x0, which overflows at these starts
    out = tmp_path / "none"
    code = main(["run", "--objective", objective, "--x0", x0, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1, err
    assert "finite Hessian" in err and "gamma" in err
    assert not out.exists()


def test_analyze_valley(tmp_path):
    out = tmp_path / "an"
    code = main(["analyze", "--objective", "cubic_valley", "--box", "-2,2",
                 "--out", str(out)])
    assert code == 0
    data = _read_json(out / "critical_points.json")
    assert len(data["critical_points"]) == 1
    rep = data["critical_points"][0]
    np.testing.assert_allclose(rep["location"], [0.0, 0.0], atol=1e-6)
    assert rep["classification"] == "non_strict_or_degenerate"


def test_analyze_with_regularizer(tmp_path):
    out = tmp_path / "anreg"
    code = main(["analyze", "--objective", "cubic_valley", "--regularizer", "-1,0",
                 "--out", str(out)])
    assert code == 0
    data = _read_json(out / "critical_points.json")
    classes = sorted(r["classification"] for r in data["critical_points"])
    assert classes == ["local_min", "strict_saddle"]


def test_analyze_milnor(tmp_path):
    out = tmp_path / "mil"
    code = main(["analyze", "--objective", "cubic_valley", "--milnor", "50",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    data = _read_json(out / "milnor.json")
    assert data["fraction_degenerate"] <= 0.01


def test_analyze_region_export(tmp_path):
    out = tmp_path / "anreg2"
    code = main(["analyze", "--objective", "cubic_cone", "--x0", "0,0",
                 "--theta", "3", "--resolution", "80", "--out", str(out)])
    assert code == 0
    assert (out / "region.csv").exists()
    assert (out / "separation.json").exists()


def test_analyze_region_reads_the_separation_grid(tmp_path, monkeypatch):
    # the separation check and the region through x0 share one gradient-norm grid
    grids, build = [], region._grad_norm_grid
    monkeypatch.setattr(region, "_grad_norm_grid", lambda f, box, resolution: grids.append(
        (f.name, resolution, box.tolist())) or build(f, box, resolution))
    flags = ["--objective", "cubic_cone", "--theta", "3", "--x0", "0,0", "--resolution", "150"]
    assert main(["analyze", *flags, "--out", str(tmp_path / "analyze")]) == 0
    assert grids == [("cubic_cone", 150, [[-3.0, 3.0], [-3.0, 3.0]])]
    # the region from the shared grid is the region subcommand's, byte for byte
    assert main(["region", *flags, "--out", str(tmp_path / "region")]) == 0
    for name in ("region.csv", "region.json"):
        assert (tmp_path / "analyze" / name).read_bytes() == \
            (tmp_path / "region" / name).read_bytes()


def test_bifurcate_default_sweep(tmp_path):
    out = tmp_path / "bif"
    code = main(["bifurcate", "--out", str(out)])
    assert code == 0
    data = _read_json(out / "bifurcation.json")
    assert data["objective"] == "double_degenerate"
    sweeps = {tuple(s["l"]): s for s in data["sweeps"]}
    plus = sweeps[(0.01,)]["critical_points"]
    near_m1 = [r for r in plus if abs(r["location"][0] + 1) < 0.3]
    near_p1 = [r for r in plus if abs(r["location"][0] - 1) < 0.3]
    assert sorted(r["classification"] for r in near_m1) == ["local_max", "local_min"]
    assert near_p1 == []
    zero = sweeps[(0.0,)]["critical_points"]
    assert len(zero) == 3
    # continuations from the shifted critical points reach mu = 0
    conts = sweeps[(0.01,)]["continuations"]
    assert conts and all(c["reached_mu0"] for c in conts)


def test_stable_set_command(tmp_path):
    out = tmp_path / "ss"
    code = main(["stable-set", "--objective", "cubic_valley", "--x0", "0,0",
                 "--box", "-2,2", "--trials", "300", "--gamma", "0.15",
                 "--eps", "1e-6", "--max-iters", "1500", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    data = _read_json(out / "stable_set.json")
    assert data["method"] == "plain"
    assert 0.4 <= data["fraction"] <= 0.6


def test_region_command(tmp_path):
    out = tmp_path / "rg"
    code = main(["region", "--objective", "cubic_cone", "--x0", "0,0",
                 "--theta", "3", "--resolution", "60", "--out", str(out)])
    assert code == 0
    meta = _read_json(out / "region.json")
    assert meta["n_inside"] > 0 and meta["n_boundary"] > 0
    with open(out / "region.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 60 * 60


def test_region_seed_outside_is_config_error(tmp_path):
    code = main(["region", "--objective", "cubic_valley", "--x0", "2,2",
                 "--theta", "0.5", "--out", str(tmp_path / "bad")])
    assert code == 1


def test_mlp_compare_quick(tmp_path):
    out = tmp_path / "mlp"
    code = main(["mlp-compare", "--trials", "3", "--max-iters", "150",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    summary = _read_json(out / "mlp_summary.json")
    assert summary["trials"] == 3
    assert all(summary["prefix_equal"])
    for t in range(3):
        with open(out / f"trial_{t:03d}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss_plain", "gnorm_plain", "loss_reg", "gnorm_reg"]
        assert len(rows) > 100


def _prefix_equal(plain, reg, theta):
    """Bit-identical iterates up to and including the plain run's first one inside the region."""
    k_stop = None
    for k, gn in zip(plain.ks, plain.grad_norms):
        if gn <= theta:
            k_stop = k
            break
    if k_stop is None:
        k_stop = plain.ks[-1]
    for k, xp, xr in zip(plain.ks, plain.iterates, reg.iterates):
        if k > k_stop:
            break
        if not np.array_equal(xp, xr):
            return False
    return True


def _mlp_compare_oracle(out, trials, seed, gamma=0.5, theta=0.04, max_iters=800):
    """mlp-compare's files and stdout from one recorded run per row and one
    loss evaluation per stored iterate."""
    out.mkdir()
    spec = saddlereg.MlpSpec((2, 8, 8, 2))
    f = saddlereg.mlp_objective(spec, saddlereg.make_blobs(50, 2, 2, 1.0, seed=seed))
    cfg = saddlereg.OptimizerConfig(gamma=gamma, theta=theta, eps_converge=1e-10,
                                    max_iters=max_iters, escape_radius=1e6)
    triggered, prefix_equal, finals_plain, finals_reg = [], [], [], []
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        params0 = saddlereg.init_params(spec, child)
        plain = saddlereg.run_plain_gd(f, params0, cfg)
        reg = saddlereg.run_regularized_gd(f, params0, cfg)
        triggered.append(len(reg.events) > 0)
        prefix_equal.append(_prefix_equal(plain, reg, theta))
        finals_plain.append(plain.final_value)
        finals_reg.append(reg.final_value)
        with open(out / f"trial_{t:03d}.csv", "w", newline="") as fh, np.errstate(all="ignore"):
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss_plain", "gnorm_plain", "loss_reg", "gnorm_reg"])
            for i in range(max(len(plain.ks), len(reg.ks))):
                row = [i]
                for rec in (plain, reg):
                    if i < len(rec.ks):
                        row += [repr(float(f.value(rec.iterates[i]))),
                                repr(float(rec.grad_norms[i]))]
                    else:
                        row += ["", ""]
                writer.writerow(row)
    trig = [i for i, t in enumerate(triggered) if t]
    summary = {
        "trials": trials, "widths": [2, 8, 8, 2], "theta": theta, "gamma": gamma,
        "max_iters": max_iters, "seed": seed, "triggered": triggered,
        "prefix_equal": prefix_equal, "final_loss_plain": finals_plain,
        "final_loss_reg": finals_reg, "fraction_triggered": len(trig) / trials,
        "mean_final_plain": float(np.mean(finals_plain)),
        "mean_final_reg": float(np.mean(finals_reg)),
        "mean_final_plain_triggered":
            float(np.mean([finals_plain[i] for i in trig])) if trig else None,
        "mean_final_reg_triggered":
            float(np.mean([finals_reg[i] for i in trig])) if trig else None,
    }
    write_json(out / "mlp_summary.json", summary)
    stdout = (f"mlp-compare: {len(trig)}/{trials} trials triggered, "
              f"prefix equality {'holds' if all(prefix_equal) else 'VIOLATED'}\n")
    if trig:
        stdout += (f"  mean final loss (triggered trials): plain "
                   f"{summary['mean_final_plain_triggered']:.6f}, "
                   f"regularized {summary['mean_final_reg_triggered']:.6f}\n")
    return stdout


@pytest.mark.parametrize("flags, oracle", [
    (["--trials", "3", "--seed", "1"], dict(trials=3, seed=1)),
    # a step size this large sends rows out of the escape ball at different k
    (["--trials", "4", "--seed", "2", "--gamma", "80", "--theta", "0.5", "--max-iters", "200"],
     dict(trials=4, seed=2, gamma=80.0, theta=0.5, max_iters=200)),
    (["--trials", "3", "--seed", "1", "--theta", "0", "--max-iters", "200"],
     dict(trials=3, seed=1, theta=0.0, max_iters=200)),
])
def test_mlp_compare_batch_equals_recorded_runs(tmp_path, capsys, flags, oracle):
    # the batched command against its trials run one recorded row at a time
    assert main(["mlp-compare", *flags, "--out", str(tmp_path / "batch")]) == 0
    stdout = capsys.readouterr().out
    assert stdout == _mlp_compare_oracle(tmp_path / "oracle", **oracle)
    names = sorted(p.name for p in (tmp_path / "oracle").iterdir())
    assert sorted(p.name for p in (tmp_path / "batch").iterdir()) == names
    for name in names:
        assert (tmp_path / "batch" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
    if oracle.get("gamma"):
        lengths = set()
        for t in range(oracle["trials"]):
            with open(tmp_path / "batch" / f"trial_{t:03d}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            lengths.add(rows[-1].count(""))
        assert lengths != {0}, "every trial's two rows stopped at the same k"


def test_prefix_equality_sees_a_row_that_halts_unobserved():
    # A gradient that depends on the row's position in the batch (never true of
    # a real objective) makes trial 0's plain row step twice as far as its
    # regularized row; at k = 1 the plain row leaves the escape ball, and the
    # observer sees both rows at that step, so their k = 1 iterates are compared there.
    def gradient(X):
        return np.asarray(X) * np.arange(1, len(X) + 1)[::-1, None]

    f = saddlereg.make_objective(
        "position_dependent", 1,
        value=lambda x: 0.5 * np.asarray(x, dtype=float)[..., 0] ** 2,
        gradient=lambda X: gradient(X) if np.ndim(X) == 2 else np.asarray(X, dtype=float),
        hessian=lambda x: np.ones(np.shape(x) + (1,)),
        domain_box=[[-2.0, 2.0]])
    cfg = saddlereg.OptimizerConfig(gamma=2.0, theta=1e-3, max_iters=5, escape_radius=2.5)
    res, finals, loss, gnorm, prefix_equal = _compare_trials(f, np.array([[1.0]]), cfg)
    assert list(res["k"]) == [1, 5] and res["status"][0] == "diverged"
    assert prefix_equal == [False]


def test_mlp_compare_keeps_no_iterates(tmp_path):
    # 40 recorded runs of 801 iterates with 114 parameters would need about 30 MiB
    tracemalloc.start()
    try:
        assert main(["mlp-compare", "--trials", "20", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


_REGION_600 = ["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3",
               "--resolution", "600"]


@pytest.mark.parametrize("build", [
    lambda out: saddlereg.theta_region(saddlereg.get_objective("cubic_cone"), [0.0, 0.0], 3.0,
                                       resolution=600),
    lambda out: main(_REGION_600 + ["--out", str(out)]),
], ids=["theta_region", "region"])
def test_region_peak_memory_per_cell(tmp_path, build):
    # a one-shot (cells, 2) mesh with its float and int64 temporaries took 64 bytes a cell
    tracemalloc.start()
    try:
        build(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 600 ** 2, f"peak {peak / 600 ** 2:.1f} bytes per cell"


def test_outputs_are_deterministic(tmp_path):
    args = ["run", "--objective", "cubic_cone", "--x0", "1.5,0.5", "--theta", "3"]
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("summary.json", "trajectory.json", "trajectory.csv", "events.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "objective": "cubic_cone", "x0": "1.5,0.5", "theta": 3.0,
    }))
    out = tmp_path / "cfgout"
    code = main(["run", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    summary = _read_json(out / "summary.json")
    assert summary["objective"] == "cubic_cone"
    # a flag overrides the file value
    out2 = tmp_path / "cfgout2"
    code = main(["run", "--config", str(cfg_file), "--objective", "quadratic_bowl",
                 "--x0", "2,0", "--theta", "0.5", "--out", str(out2)])
    assert code == 0
    assert _read_json(out2 / "summary.json")["objective"] == "quadratic_bowl"


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"objective": "cubic_valley", "bogus": 1}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path)]) == 1


def test_config_key_that_names_no_flag_is_unknown(tmp_path, capsys):
    # `command` and `func` are namespace attributes, not flags of run
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"objective": "quadratic_bowl", "x0": "2,1", "theta": 0.5,
                                    "command": "analyze", "func": 3}))
    out = tmp_path / "none"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert _one_line_error(capsys) == "error: unknown config key 'command'\n"
    assert not out.exists()


# every subcommand's flags, as build_parser builds them
_SUBPARSERS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
_FLAGS = {command: [a for a in p._actions if a.option_strings[0] not in ("-h", "--config")]
          for command, p in _SUBPARSERS.items()}


@pytest.mark.parametrize("command, action", [
    pytest.param(command, action, id=f"{command}{action.option_strings[0]}")
    for command, actions in _FLAGS.items() for action in actions])
def test_config_key_parses_as_its_flag(tmp_path, command, action):
    flag = action.option_strings[0]
    if isinstance(action, argparse._AppendAction):
        cases = [(["1,2", "-3,4"], [flag, "1,2", flag, "-3,4"])]
    else:
        # a JSON integer for a float flag gives the float that its text after the flag gives
        values = {int: [7], float: [2, 0.25, 10**400]}.get(action.type, ["-1,2"])
        cases = [(value, [flag, str(value)]) for value in values]
    for value, argv in cases:
        expected = vars(cli.build_parser().parse_args([command, *argv]))
        for key in (flag[2:], action.dest):  # a key may spell the flag with - or _
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({key: value}))
            args = cli.build_parser().parse_args([command, "--config", str(cfg_file)])
            cli._apply_config_file(args)
            # repr tells 2 from 2.0
            assert repr({**vars(args), "config": None}) == repr(expected)


@pytest.mark.parametrize("source", ["flags", "config"])
def test_descent_flags_set_their_optimizer_fields(tmp_path, source):
    fields = {"theta": 0.5, "gamma": 0.125, "eps_converge": 1e-7, "max_iters": 50,
              "escape_radius": 1e5}
    flags = {"theta": "0.5", "gamma": "0.125", "eps": "1e-7", "max-iters": "50",
             "escape-radius": "1e5"}
    argv = ["run", "--objective", "quadratic_bowl", "--x0", "2,1", "--out", str(tmp_path)]
    if source == "flags":
        argv += [arg for flag, text in flags.items() for arg in ("--" + flag, text)]
    else:
        numbers = {flag: json.loads(text) for flag, text in flags.items()}
        (tmp_path / "cfg.json").write_text(json.dumps(numbers))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 0
    config = _read_json(tmp_path / "summary.json")["config"]
    assert {k: config[k] for k in fields} == fields


@pytest.mark.parametrize("command", list(_FLAGS))
def test_config_key_of_another_subcommands_flag_is_unknown(tmp_path, capsys, command):
    own = {a.dest for a in _FLAGS[command]}
    foreign = sorted({a.dest for actions in _FLAGS.values() for a in actions} - own)
    assert foreign
    cfg_file = tmp_path / "cfg.json"
    for key in foreign:
        cfg_file.write_text(json.dumps({key: None}))
        out = tmp_path / "none"
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 1
        assert _one_line_error(capsys) == f"error: unknown config key {key!r}\n"
        assert not out.exists()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("argv", [
    ["stable-set", "--objective", "cubic_valley", "--x0", "0,0", "--gamma", "0.15",
     "--trials", str(10**18)],
    ["analyze", "--objective", "cubic_valley", "--milnor", str(10**18)],
])
def test_library_rejection_is_one_line_error_and_writes_nothing(tmp_path, capsys, argv):
    # numpy rejects the (10**18, 2) sample array's size before allocating anything;
    # no CLI check wraps that ValueError, so only main's boundary reports it
    out = tmp_path / "none"
    assert main(argv + ["--out", str(out)]) == 1
    assert "array is too big" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv, call", [
    (["run", "--objective", "cubic_valley", "--x0", "1,0"], "run_regularized_gd"),
    (["analyze", "--objective", "cubic_valley"], "find_critical_points"),
    (["bifurcate"], "find_critical_points"),
    (["stable-set", "--objective", "cubic_valley", "--x0", "0,0", "--gamma", "0.15"],
     "stable_set_fraction"),
    (["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3"], "theta_region"),
    (["mlp-compare", "--trials", "1", "--max-iters", "2"], "_descend"),
])
def test_memory_error_is_one_line_error_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           argv, call):
    # an array that passes numpy's size check but does not fit in memory
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (200000000, 2)")

    monkeypatch.setattr(cli, call, out_of_memory)
    out = tmp_path / "none"
    assert main(argv + ["--out", str(out)]) == 1
    assert _one_line_error(capsys) == (
        "error: out of memory: Unable to allocate 2.98 GiB for an array with shape "
        "(200000000, 2)\n")
    assert not out.exists()


# every library call each subcommand makes, with flags under which all of them are reached
LIBRARY_CALLS = [
    (["run", "--objective", "cubic_valley", "--x0", "1,0"], ["run_regularized_gd"]),
    (["analyze", "--objective", "cubic_cone", "--theta", "3", "--x0", "0,0", "--milnor", "5",
      "--resolution", "40"],
     ["find_critical_points", "_separation", "milnor_sample"]),
    (["bifurcate"], ["find_critical_points", "continuation_trace"]),
    (["stable-set", "--objective", "cubic_valley", "--x0", "0,0", "--gamma", "0.15",
      "--trials", "50"], ["stable_set_fraction"]),
    (["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3",
      "--resolution", "40"], ["theta_region"]),
    (["mlp-compare", "--trials", "1", "--max-iters", "2"],
     ["make_blobs", "mlp_objective", "init_params", "_descend"]),
]


@pytest.mark.parametrize("error, code", [
    (ValueError("rejected"), 1), (MemoryError("too big"), 1), (NumericalError("singular"), 2)],
    ids=["ValueError", "MemoryError", "NumericalError"])
@pytest.mark.parametrize("argv, call", [
    pytest.param(argv, call, id=f"{argv[0]}-{call}") for argv, calls in LIBRARY_CALLS
    for call in calls])
def test_failing_library_call_prints_nothing_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                argv, call, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, call, fail)
    out = tmp_path / "none"
    assert main(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(error) in captured.err, captured.err
    assert not out.exists()


@pytest.mark.parametrize("sub", [None, "sub"])
def test_unwritable_out_is_one_line_error(tmp_path, capsys, sub):
    # --out names an existing file (FileExistsError) or a directory below one
    # (NotADirectoryError)
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    out = blocker / sub if sub else blocker
    code = main(["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3",
                 "--resolution", "20", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write outputs: ") and \
        captured.err.count("\n") == 1, captured.err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


@pytest.mark.parametrize("trials", [MLP_MAX_TRIALS + 1, 10**8])
def test_mlp_compare_trials_are_bounded_before_any_work(tmp_path, capsys, monkeypatch, trials):
    def no_work(*args, **kwargs):
        raise AssertionError("the data set was built before --trials was checked")

    monkeypatch.setattr(cli, "make_blobs", no_work)  # it runs before the seeds are spawned
    out = tmp_path / "none"
    assert main(["mlp-compare", "--trials", str(trials), "--out", str(out)]) == 1
    assert f"--trials must be at most {MLP_MAX_TRIALS}" in _one_line_error(capsys)
    assert not out.exists()


def test_config_file_value_of_wrong_type(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"objective": "cubic_cone", "x0": "1.5,0.5", "theta": "3"}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert "'theta'" in _one_line_error(capsys)


def test_config_file_integer_beyond_float_range(tmp_path, capsys):
    # 10**400 reads as inf, as "--theta 1000...0" does, and not as an OverflowError traceback
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"objective": "cubic_cone", "x0": "1.5,0.5",
                                    "theta": 10**400}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert _one_line_error(capsys) == "error: --theta must be finite, got inf\n"


def test_non_finite_vector_is_config_error(tmp_path, capsys):
    assert main(["run", "--objective", "cubic_valley", "--x0", "nan,0",
                 "--out", str(tmp_path / "o")]) == 1
    assert "non-finite" in _one_line_error(capsys)


@pytest.mark.parametrize("command", [
    ["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3"],
    ["analyze", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3"],
])
def test_zero_resolution_is_config_error(tmp_path, capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command + ["--resolution", "0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "resolution must be at least 1" in _one_line_error(capsys)


@pytest.mark.parametrize("command", [
    ["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3"],
    ["analyze", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3"],
])
def test_grid_of_2_31_cells_is_config_error(tmp_path, capsys, command):
    # 46341^2 >= 2**31 cells, more than the labelling's int32 ids can number
    out = tmp_path / "none"
    assert main(command + ["--resolution", "46341", "--out", str(out)]) == 1
    assert _one_line_error(capsys) == (
        "error: a grid must have fewer than 2**31 cells, got 46341^2\n")
    assert not out.exists()


_CONE_RUN = ["run", "--objective", "cubic_cone", "--x0", "1.5,0.5"]
_VALLEY_SET = ["stable-set", "--objective", "cubic_valley", "--x0", "0,0", "--gamma", "0.15"]
_CONE_REGION = ["region", "--objective", "cubic_cone", "--x0", "0,0", "--resolution", "20"]


@pytest.mark.parametrize("command, message", [
    (_CONE_RUN + ["--theta", "nan"], "--theta"),
    (_CONE_RUN + ["--theta", "3", "--eps", "nan"], "--eps"),
    (_CONE_RUN + ["--gamma", "inf"], "--gamma"),
    (_CONE_RUN + ["--escape-radius", "-inf"], "--escape-radius"),
    (_CONE_RUN + ["--escape-radius", "0"], "escape_radius must be positive"),
    (_VALLEY_SET + ["--trials", "10", "--theta", "nan"], "--theta"),
    (_CONE_REGION + ["--theta", "nan"], "--theta"),
    (["mlp-compare", "--trials", "1", "--theta", "nan"], "--theta"),
])
def test_non_finite_or_zero_float_flag_is_config_error(tmp_path, capsys, command, message):
    # NaN fails every range check, so it would silently switch regularization off
    assert main(command + ["--out", str(tmp_path / "o")]) == 1
    assert message in _one_line_error(capsys)


def test_config_file_non_finite_value(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"objective": "cubic_cone", "x0": "1.5,0.5", "theta": NaN}')
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert "--theta must be finite" in _one_line_error(capsys)


@pytest.mark.parametrize("command, message", [
    (_VALLEY_SET + ["--trials", "0"], "--trials must be at least 1"),
    (_VALLEY_SET + ["--trials", "-3"], "--trials must be at least 1"),
    (_VALLEY_SET + ["--trials", "10", "--seed", "-1"], "--seed must be at least 0"),
    (["mlp-compare", "--trials", "0"], "--trials must be at least 1"),
    (["mlp-compare", "--trials", "-3"], "--trials must be at least 1"),
    (["mlp-compare", "--trials", "1", "--max-iters", "0"], "max_iters"),
    (["analyze", "--objective", "cubic_valley", "--milnor", "0"], "--milnor must be at least 1"),
    (["mlp-compare", "--widths", "2,8,2"], "--widths"),
    (["mlp-compare", "--widths", "2,x,8,2"], "--widths"),
    (["mlp-compare", "--samples", "1"], "--samples must be at least 2"),
    (["mlp-compare", "--trials", "1", "--max-iters", "2", "--samples", str(MLP_MAX_SAMPLES + 1)],
     f"--samples must be at most {MLP_MAX_SAMPLES}"),
    # a count this large used to overflow inside make_blobs with a traceback
    (["mlp-compare", "--trials", "1", "--max-iters", "2", "--samples", str(10**30)],
     f"--samples must be at most {MLP_MAX_SAMPLES}"),
    (["mlp-compare", "--separation", "-1"], "--separation: separation must be non-negative"),
])
def test_bad_count_flag_is_config_error(tmp_path, capsys, command, message):
    assert main(command + ["--out", str(tmp_path / "o")]) == 1
    assert message in _one_line_error(capsys)


_NINES = "9" * 30
_BAD_VALUES = ["0", "-1", "-0", "nan", "inf", "-inf", "1e400", _NINES, "-" + _NINES, "1e-320",
               "abc", ""]
# a fast command line per subcommand, as {flag: value}; a swept flag replaces its value
_SWEEP_BASES = {
    "run": {"--objective": "quadratic_bowl", "--x0": "2,1", "--max-iters": "50"},
    "analyze": {"--objective": "double_degenerate", "--resolution": "20", "--theta": "1",
                "--x0": "0", "--milnor": "2"},
    "bifurcate": {"--regularizer": "0.01"},
    "stable-set": {"--objective": "quadratic_bowl", "--x0": "0,0", "--gamma": "0.5",
                   "--trials": "4", "--max-iters": "50"},
    "region": {"--objective": "cubic_cone", "--x0": "0,0", "--theta": "3", "--resolution": "20"},
    "mlp-compare": {"--trials": "1", "--samples": "4", "--max-iters": "5"},
}
# valid values that only run long, each with its reason
_SWEEP_SKIPS = {
    ("mlp-compare", "--max-iters", _NINES): "valid input: trains until it converges",
}


@pytest.mark.filterwarnings("ignore:gamma=.* descent may not contract")
def test_every_flag_survives_every_bad_value(tmp_path, monkeypatch, capsys):
    # every flag of every subcommand, --out and --config included, set to each bad value
    # on its subcommand's fast command line: no exception escapes main, the exit code is
    # 0, 1 or 2, and a failure prints exactly one stderr line
    monkeypatch.chdir(tmp_path)  # --out values name directories here
    cases = [(command, a.option_strings[0], value) for command, parser in _SUBPARSERS.items()
             for a in parser._actions if a.option_strings[0] != "-h" for value in _BAD_VALUES]
    assert set(_SWEEP_SKIPS) <= set(cases)
    for command, base in _SWEEP_BASES.items():  # a base that fails would hide its cases
        assert main([command, *(f"{k}={v}" for k, v in base.items())]) == 0, command
    wrong = []
    for command, flag, value in cases:
        if (command, flag, value) in _SWEEP_SKIPS:
            continue
        # --flag=value, so that argparse takes "-inf" as a value and not as a flag
        given = {k: v for k, v in _SWEEP_BASES[command].items() if k != flag}
        argv = [command, *(f"{k}={v}" for k, v in given.items()), f"{flag}={value}"]
        try:
            code = main(argv)
        except Exception as exc:
            wrong.append(f"{argv}: {exc!r}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or (code != 0 and err.count("\n") != 1):
            wrong.append(f"{argv}: exit {code}, stderr {err!r}")
    assert not wrong, "\n".join(wrong)


def test_analyze_region_seed_outside_is_config_error(tmp_path, capsys):
    # the region export of analyze fails as the region subcommand does
    code = main(["analyze", "--objective", "cubic_valley", "--x0", "2,2", "--theta", "0.5",
                 "--resolution", "40", "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "outside the small-gradient region" in _one_line_error(capsys)


@pytest.mark.parametrize("command", ["region", "analyze"])
def test_seed_outside_box_is_named(tmp_path, capsys, command):
    # ||grad f(5, 5)|| = 70.7 <= 100 on cubic_cone, but (5, 5) lies outside its
    # [-3, 3]^2 box, so no resolution can place it in a cell
    out = tmp_path / "none"
    code = main([command, "--objective", "cubic_cone", "--x0", "5,5", "--theta", "100",
                 "--resolution", "40", "--out", str(out)])
    assert code == 1
    err = _one_line_error(capsys)
    assert "outside the box" in err and "resolution" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    _VALLEY_SET + ["--trials", "10"],
    ["region", "--objective", "cubic_valley", "--x0", "0,0", "--theta", "0.5"],
    ["analyze", "--objective", "cubic_valley"],
])
def test_box_of_overflowing_width_is_config_error(tmp_path, capsys, command):
    # each bound is finite, but hi - lo is not
    out = tmp_path / "none"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command + ["--box", "-1e308,1e308", "--out", str(out)])
    assert code == 1
    assert "finite width" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    (["run", "--objective", "cubic_valley", "--gamma", "0.1"], "--x0", ".5,1"),
    (_VALLEY_SET + ["--trials", "10"], "--box", ".5,2"),
    (["analyze", "--objective", "cubic_valley"], "--regularizer", ".5,0"),
])
def test_vector_starting_with_minus_point_is_a_value(tmp_path, command, flag, value):
    # "-.5,1" must parse as "-0.5,1" does, not as an unknown flag
    outputs = []
    for text in ("-" + value, "-0" + value):
        out = tmp_path / text
        assert main(command + [flag, text, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("theta", ["0", "-1"])
def test_analyze_theta_below_critical_gradient_is_config_error(tmp_path, capsys, theta):
    # the separation check's regions cannot hold the located critical point
    code = main(["analyze", "--objective", "cubic_valley", "--theta", theta,
                 "--resolution", "40", "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "outside the small-gradient region" in _one_line_error(capsys)


@pytest.mark.parametrize("flags", [
    ["--objective", "cubic_valley", "--theta", "0"],  # separation check fails
    ["--objective", "cubic_cone", "--theta", "3", "--x0", "2.9,2.9"],  # region seed fails
])
def test_analyze_config_error_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "none"
    code = main(["analyze", *flags, "--resolution", "40", "--out", str(out)])
    assert code == 1
    assert "outside the small-gradient region" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("package", ["scipy", "jsonschema"])
def test_cli_import_loads_no_scipy(package):
    # scipy and jsonschema are test-only dependencies: the installed program runs without them
    src = str(Path(saddlereg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, saddlereg.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# output schemas: the contract of every JSON file the subcommands write

_EVENT_SCHEMA = {
    "type": "object",
    "required": ["k_entry", "x_entry", "l", "k_exit"],
    "properties": {
        "k_entry": {"type": "integer"},
        "x_entry": {"type": "array", "items": {"type": "number"}},
        "l": {"type": "array", "items": {"type": "number"}},
        "k_exit": {"type": ["integer", "null"]},
    },
}

RUN_SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["objective", "status", "final_x", "final_value", "final_grad_norm",
                 "n_iters", "events", "config"],
    "properties": {
        "objective": {"type": "string"},
        "status": {"type": "string"},
        "final_x": {"type": "array", "items": {"type": "number"}},
        "final_value": {"type": "number"},
        "final_grad_norm": {"type": "number"},
        "n_iters": {"type": "integer"},
        "events": {"type": "array", "items": _EVENT_SCHEMA},
        "config": {"type": "object"},
    },
}

TRAJECTORY_SCHEMA = {
    "type": "object",
    "required": ["status", "final_x", "final_value", "stride", "ks", "iterates",
                 "grad_norms", "modes", "event_ids", "events"],
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["location", "grad_norm", "eigenvalues", "stratum", "classification"],
}

ANALYZE_SCHEMA = {
    "type": "object",
    "required": ["objective", "critical_points"],
    "properties": {"critical_points": {"type": "array", "items": REPORT_SCHEMA}},
}

MILNOR_SCHEMA = {
    "type": "object",
    "required": ["objective", "n_l", "l_scale", "fraction_degenerate"],
}

BIFURCATE_SCHEMA = {
    "type": "object",
    "required": ["objective", "sweeps"],
    "properties": {
        "sweeps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["l", "critical_points", "continuations"],
            },
        }
    },
}

STABLE_SET_SCHEMA = {
    "type": "object",
    "required": ["objective", "method", "fraction", "n_samples"],
}

REGION_SCHEMA = {
    "type": "object",
    "required": ["objective", "theta", "resolution", "n_inside", "n_boundary", "seed"],
}

MLP_SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["trials", "theta", "gamma", "max_iters", "triggered", "prefix_equal",
                 "final_loss_plain", "final_loss_reg", "fraction_triggered"],
}

OUTPUT_SCHEMAS = {
    "summary.json": RUN_SUMMARY_SCHEMA,
    "trajectory.json": TRAJECTORY_SCHEMA,
    "events.json": {"type": "object", "required": ["events"]},
    "critical_points.json": ANALYZE_SCHEMA,
    "separation.json": {"type": "object", "required": ["checks"]},
    "milnor.json": MILNOR_SCHEMA,
    "bifurcation.json": BIFURCATE_SCHEMA,
    "stable_set.json": STABLE_SET_SCHEMA,
    "region.json": REGION_SCHEMA,
    "mlp_summary.json": MLP_SUMMARY_SCHEMA,
}

_STABLE_SET = ["stable-set", "--objective", "cubic_valley", "--x0", "0,0", "--box", "-2,2",
               "--trials", "50", "--gamma", "0.15", "--eps", "1e-6", "--max-iters", "300"]


def test_every_json_output_matches_its_schema(tmp_path):
    commands = [
        _CONE_RUN + ["--theta", "3"],
        ["analyze", "--objective", "cubic_cone", "--theta", "3", "--x0", "0,0",
         "--resolution", "40", "--milnor", "20", "--seed", "0"],
        ["bifurcate", "--objective", "cubic_valley", "--regularizer", "-1,0"],
        _STABLE_SET,
        _STABLE_SET + ["--theta", "0.1"],
        ["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3",
         "--resolution", "40"],
        ["mlp-compare", "--trials", "2", "--max-iters", "100"],
    ]
    used, methods = set(), set()
    for i, command in enumerate(commands):
        out = tmp_path / str(i)
        assert main(command + ["--out", str(out)]) == 0, command
        written = sorted(out.glob("*.json"))
        assert written, command
        for path in written:
            assert path.name in OUTPUT_SCHEMAS, f"{command[0]} wrote {path.name}: no schema"
            data = _read_json(path)
            jsonschema.validate(data, OUTPUT_SCHEMAS[path.name])
            used.add(path.name)
            if path.name == "stable_set.json":
                methods.add(data["method"])
    assert used == set(OUTPUT_SCHEMAS)
    assert methods == {"plain", "regularized"}


@pytest.mark.parametrize("l, shown", [("0,1", "[0.0, 1.0]"), ("0,-0.5", "[0.0, -0.5]")])
def test_bifurcate_singular_start_is_config_error(tmp_path, capsys, l, shown):
    # l = (0, c) shifts cubic_valley's critical point to (0, -c), where the Hessian is diag(0, 1)
    out = tmp_path / "none"
    code = main(["bifurcate", "--objective", "cubic_valley", "--regularizer", "-1,0",
                 "--regularizer", l, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # not even the sweep over l = (-1, 0), which succeeds
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    assert f"regularizer {shown}" in captured.err and "singular" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("ls, shown", [
    (["0,1", "-1,0", "0,-0.5"], "[0.0, 1.0]"),
    (["-1,0", "0,-0.5", "0,1"], "[0.0, -0.5]"),
])
def test_bifurcate_reports_first_bad_branch_in_sweep_order(tmp_path, capsys, ls, shown):
    # all sweeps are traced in one call; the error still names the first bad branch
    out = tmp_path / "none"
    argv = ["bifurcate", "--objective", "cubic_valley", "--out", str(out)]
    for l in ls:
        argv += ["--regularizer", l]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: regularizer {shown}: cannot trace the critical point at [")
    assert err.endswith("]: Hessian is singular at the start point\n")
    assert not out.exists()
