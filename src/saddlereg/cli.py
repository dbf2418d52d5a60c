"""Command-line front end for running and analyzing descent experiments.

Subcommands: run, analyze, bifurcate, mlp-compare, stable-set, region.
All outputs are machine-readable (JSON whose schemas the test suite checks,
RFC-4180 CSV) and byte-identical for identical configs and seeds. Exit codes:
0 success, 1 configuration error, 2 numerical failure. Each flag's type,
default, requirement and bounds are declared once, in `_COMMANDS`, and `main`
checks them all before a subcommand runs. `main` is the one error
boundary: any input that the CLI or the library rejects (a ValueError), that
does not fit in memory (a MemoryError), or an `--out` that cannot be written
prints one `error:` line and exits 1. A subcommand returns its exit code,
outputs and stdout lines, and `main` alone creates `--out` and writes them, so
a rejected input writes nothing.
"""

import argparse
import collections
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .continuation import StartError, continuation_trace
from .critical import _as_box, find_critical_points
from .linalg import NumericalError
from .mlp import MlpSpec, make_blobs, init_params, mlp_objective
from .objectives import corpus_names, get_objective, make_regularized
from .optimizer import (
    STATUS_NUMERICAL_FAILURE,
    OptimizerConfig,
    _descend,
    run_regularized_gd,
)
from .region import _separation, theta_region
from .sampling import milnor_sample, stable_set_fraction


# a trial keeps 32 KiB of per-step loss and gradient norm at 800 steps: 330 MB in all
MLP_MAX_TRIALS = 10_000
# each row of the batch holds about 60 floats of activations and deltas per sample on
# the 2-8-8-2 network: 48 MB a row at 100,000 samples
MLP_MAX_SAMPLES = 100_000
# on a planar objective a stable-set sample holds about 200 bytes of descent state and a
# Milnor draw about 180 bytes of shifts, flags and roots (tracemalloc): 200 MB at 10**6
STABLE_SET_MAX_TRIALS = MILNOR_MAX_DRAWS = 1_000_000


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept vector/box values like "-2,2" without mistaking them for flags
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.,eE+-]*$")

    def error(self, message):
        raise ValueError(message)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # float and integer arrays already list as JSON's floats and ints
        return obj.tolist() if obj.dtype.kind in "fiu" else [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def write_json(path, obj):
    obj = _jsonify(obj)
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# argument handling

def _parse_vector(text, dim=None, name="vector"):
    try:
        vec = np.array([float(v) for v in str(text).split(",")])
    except ValueError as exc:
        raise ValueError(f"could not parse {name} {text!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} {text!r} has non-finite entries")
    if dim is not None and vec.size != dim:
        raise ValueError(f"{name} must have {dim} components, got {vec.size}")
    return vec


def _parse_box(text, f):
    """The (dim, 2) box of a --box value; None (flag unset) means the objective's
    domain box, which every library function takes for box=None."""
    if text is None:
        return None
    vals = _parse_vector(text, name="box")
    if vals.size not in (2, 2 * f.dim):
        raise ValueError(f"box needs 2 or {2 * f.dim} numbers, got {vals.size}")
    return _as_box(f, np.resize(vals, (f.dim, 2)))  # two numbers repeat on every axis


def _flags(command):
    """A subcommand's flags (see _COMMANDS), by argparse dest."""
    return {flag.name[2:].replace("-", "_"): flag for flag in _COMMANDS[command][2]}


def _optimizer_config(args, **defaults):
    """OptimizerConfig from the flags that are set; `defaults` (by field) replace
    the dataclass defaults for the others."""
    for dest, flag in _flags(args.command).items():
        if flag.field and getattr(args, dest) is not None:
            defaults[flag.field] = getattr(args, dest)
    return OptimizerConfig(**defaults)


def _config_value_ok(kind, value):
    """Whether a JSON config value has the type a flag of `kind` parses to (null: unset)."""
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    kinds = {float: (int, float), int: (int,)}.get(kind, (str,))
    return value is None or (isinstance(value, kinds) and not isinstance(value, bool))


def _apply_config_file(args):
    if args.config is None:
        return
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"could not read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    flags = _flags(args.command)
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise ValueError(f"unknown config key {key!r}")
        kind = flags[dest].type
        if not _config_value_ok(kind, value):
            raise ValueError(f"config key {key!r} has a value of the wrong type: {value!r}")
        if getattr(args, dest) is None:  # as its text parses: 1 as 1.0, 10**400 as inf
            setattr(args, dest, value if value is None or kind is list else kind(str(value)))


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, {file name: JSON-able object or path writer}, stdout lines)

def cmd_run(args):
    f = get_objective(args.objective)
    if args.x0 is not None:
        x0 = _parse_vector(args.x0, f.dim, "x0")
    else:
        # deterministic default: two-thirds of the way from the box's centre to its upper corner
        box = f.domain_box
        x0 = box[:, 0] + (box[:, 1] - box[:, 0]) * 5.0 / 6.0
    cfg = _optimizer_config(args)

    rec = run_regularized_gd(f, x0, cfg)
    summary = {
        "objective": f.name,
        "status": rec.status,
        "final_x": rec.final_x,
        "final_value": rec.final_value,
        "final_grad_norm": rec.grad_norms[-1],
        "n_iters": rec.n_iters,
        "events": rec.events,
        "config": {**dataclasses.asdict(cfg), "x0": x0},
    }
    outputs = {"trajectory.json": rec, "trajectory.csv": rec.save_csv,
               "events.json": {"events": rec.events}, "summary.json": summary}
    lines = [f"run: {rec.status} after {rec.n_iters} iterations, "
             f"final value {rec.final_value:.6g}, {len(rec.events)} event(s)"]
    lines += [f"  event {i}: entry k={e.k_entry}, exit k={e.k_exit}"
              for i, e in enumerate(rec.events)]
    return 2 if rec.status == STATUS_NUMERICAL_FAILURE else 0, outputs, lines


def cmd_analyze(args):
    f = get_objective(args.objective)
    if args.regularizer is not None:
        f = make_regularized(f, _parse_vector(args.regularizer, f.dim, "regularizer"))
    box = _parse_box(args.box, f)

    reports = find_critical_points(f, box)
    outputs = {"critical_points.json": {"objective": f.name, "critical_points": reports}}
    lines = [f"analyze: {len(reports)} critical point(s)"]
    for r in reports:
        loc = ", ".join(f"{v:.6g}" for v in r.location)
        lines.append(f"  ({loc}): {r.classification}, eigenvalues "
                     + ", ".join(f"{v:.6g}" for v in r.eigenvalues))

    if args.theta is not None:
        seed_pt = None if args.x0 is None else _parse_vector(args.x0, f.dim, "x0")
        # the separation check and the region through x0 share one grid
        checks, region = _separation(f, args.theta, box, args.resolution,
                                     [r.location for r in reports], seed_pt)
        outputs["separation.json"] = {"objective": f.name, "theta": args.theta,
                                      "checks": checks}
        lines.append(f"  separation check: "
                     f"{'pass' if all(c['pass'] for c in checks) else 'FAIL'}")
        if region is not None:
            outputs.update(_region_outputs(f, region, seed_pt))
            lines.append(f"  region: {int(region.inside.sum())} inside cells")

    if args.milnor is not None:
        frac = milnor_sample(f, box, n_l=args.milnor, seed=args.seed)
        outputs["milnor.json"] = {"objective": f.name, "n_l": args.milnor, "l_scale": 1.0,
                                  "fraction_degenerate": frac}
        lines.append(f"  degenerate fraction over {args.milnor} draws: {frac:.6g}")
    return 0, outputs, lines


def cmd_bifurcate(args):
    f = get_objective(args.objective)
    box = _parse_box(args.box, f)
    if args.regularizer is not None:
        ls = [_parse_vector(t, f.dim, "regularizer") for t in args.regularizer]
    elif f.dim == 1:
        ls = [np.array([v]) for v in (0.01, -0.01, 0.001, -0.001, 0.0)]
    else:
        raise ValueError("--regularizer is required for objectives of dimension > 1")

    sweeps = [(l, find_critical_points(make_regularized(f, l) if np.any(l) else f, box,
                                       grid_density=41 if f.dim == 1 else 12), []) for l in ls]
    # every branch of every sweep is traced in one lockstep call
    branches = [(l, r, conts) for l, reports, conts in sweeps if np.any(l) for r in reports]
    if branches:
        try:
            paths = continuation_trace(f, np.array([r.location for _, r, _ in branches]),
                                       np.array([l for l, _, _ in branches]))
        except StartError as exc:
            l, r, _ = branches[exc.row]
            raise ValueError(f"regularizer {l.tolist()}: cannot trace the critical "
                              f"point at {r.location.tolist()}: {exc}") from exc
        for (_, r, conts), path in zip(branches, paths):
            conts.append({
                "start": r.location,
                "fold": path.fold,
                "n_samples": len(path.samples),
                "reached_mu0": bool(path.samples[-1][0] == 0.0),
                "end_x": path.samples[-1][1],
            })
    lines = [f"l = {l.tolist()}: {len(reports)} critical point(s): "
             + ", ".join(f"{r.classification}@{np.round(r.location, 4).tolist()}"
                         for r in reports) for l, reports, _ in sweeps]
    return 0, {"bifurcation.json": {"objective": f.name, "sweeps": [
        {"l": l, "critical_points": reports, "continuations": conts}
        for l, reports, conts in sweeps]}}, lines


def cmd_stable_set(args):
    f = get_objective(args.objective)
    target = _parse_vector(args.x0, f.dim, "x0")
    box = _parse_box(args.box, f)
    cfg = _optimizer_config(args)
    method = "regularized" if cfg.theta > 0 else "plain"
    frac = stable_set_fraction(f, target, box, n_samples=args.trials, cfg=cfg, seed=args.seed)
    result = {"objective": f.name, "method": method, "fraction": frac,
              "n_samples": args.trials, "target": target, "theta": cfg.theta}
    return 0, {"stable_set.json": result}, [
        f"stable-set: fraction {frac:.4f} of {args.trials} samples ({method})"]


def _region_outputs(f, region, seed_pt):
    """The region.csv and region.json outputs."""
    return {"region.csv": region.save_csv, "region.json": {
        "objective": f.name, "theta": region.theta, "resolution": region.resolution,
        "box": region.box, "n_inside": int(region.inside.sum()),
        "n_boundary": int(region.boundary.sum()), "seed": seed_pt}}


def cmd_region(args):
    f = get_objective(args.objective)
    seed_pt = _parse_vector(args.x0, f.dim, "x0")
    box = _parse_box(args.box, f)
    region = theta_region(f, seed_pt, args.theta, box, args.resolution)
    return 0, _region_outputs(f, region, seed_pt), [
        f"region: {int(region.inside.sum())} inside cells, "
        f"{int(region.boundary.sum())} boundary cells"]


def cmd_mlp_compare(args):
    try:
        widths = [int(v) for v in args.widths.split(",")]
        spec = MlpSpec(tuple(widths))
    except ValueError as exc:
        raise ValueError(f"--widths {args.widths!r}: {exc}") from exc
    trials, seed, classes = args.trials, args.seed, widths[-1]
    if args.samples < classes:  # the one bound that depends on another flag
        raise ValueError(f"--samples must be at least {classes}, got {args.samples}")
    cfg = _optimizer_config(args, gamma=0.5, theta=0.04, eps_converge=1e-10, max_iters=800,
                            escape_radius=1e6)
    try:
        data = make_blobs(args.samples // classes, classes, widths[0], args.separation, seed=seed)
    except ValueError as exc:
        raise ValueError(f"--separation: {exc}") from exc

    f = mlp_objective(spec, data)
    child_seeds = np.random.SeedSequence(seed).spawn(trials)
    starts = np.array([init_params(spec, child) for child in child_seeds])
    res, finals, loss, gnorm, prefix_equal = _compare_trials(f, starts, cfg)
    outputs = {f"trial_{t:03d}.csv": functools.partial(
        _write_trial_csv, loss=loss, gnorm=gnorm, ks=res["k"], plain=t, reg=t + trials)
        for t in range(trials)}
    triggered = res["entered"][trials:].tolist()
    finals_plain, finals_reg = finals[:trials].tolist(), finals[trials:].tolist()

    trig_idx = [i for i, t in enumerate(triggered) if t]
    summary = {
        "trials": trials,
        "widths": widths,
        "theta": cfg.theta,
        "gamma": cfg.gamma,
        "max_iters": cfg.max_iters,
        "seed": seed,
        "triggered": triggered,
        "prefix_equal": prefix_equal,
        "final_loss_plain": finals_plain,
        "final_loss_reg": finals_reg,
        "fraction_triggered": len(trig_idx) / trials,
        "mean_final_plain": float(np.mean(finals_plain)),
        "mean_final_reg": float(np.mean(finals_reg)),
        "mean_final_plain_triggered":
            float(np.mean([finals_plain[i] for i in trig_idx])) if trig_idx else None,
        "mean_final_reg_triggered":
            float(np.mean([finals_reg[i] for i in trig_idx])) if trig_idx else None,
    }
    outputs["mlp_summary.json"] = summary
    lines = [f"mlp-compare: {len(trig_idx)}/{trials} trials triggered, "
             f"prefix equality {'holds' if all(prefix_equal) else 'VIOLATED'}"]
    if trig_idx:
        lines.append(f"  mean final loss (triggered trials): plain "
                     f"{summary['mean_final_plain_triggered']:.6f}, "
                     f"regularized {summary['mean_final_reg_triggered']:.6f}")
    return 0, outputs, lines


def _compare_trials(f, starts, cfg):
    """Every trial's plain and regularized run as one lockstep batch of 2T rows.

    Rows 0..T-1 run plain descent and rows T..2T-1 the regularized algorithm,
    both from `starts` (T, n). The observer, which sees every row up to and
    including its last step, keeps only the loss and the gradient norm per row
    and step, in columns that double in length as the run goes on, and
    compares trial t's two rows bit for bit at every step both reach, up to and
    including the plain row's first step with gn <= theta. Returns the engine's
    result, the final losses, the loss and gradient-norm columns (2T, > max k;
    entries past a row's k are unset) and the per-trial prefix equality.
    """
    T = len(starts)
    loss, gnorm = np.empty((2, 2 * T, 64))
    pending = np.ones(T, dtype=bool)  # equal so far, the plain row's stop step not reached
    equal = np.ones(T, dtype=bool)

    def observe(k, X, G, gn, inside, rows, F):
        nonlocal loss, gnorm
        if k >= loss.shape[1]:
            loss, gnorm = (np.concatenate([a, np.empty_like(a)], axis=1) for a in (loss, gnorm))
        loss[rows, k] = F
        gnorm[rows, k] = gn
        if not pending.any():  # every trial's prefix is settled: nothing to compare
            return
        at = np.full(2 * T, -1)  # each row's place in the working set, -1 once it halted
        at[rows] = np.arange(len(rows))
        p, r = at.reshape(2, T)
        t = np.flatnonzero(pending & (p >= 0) & (r >= 0))
        same = (X[p[t]] == X[r[t]]).all(axis=1)
        equal[t[~same]] = False
        pending[t[~same | (gn[p[t]] <= cfg.theta)]] = False

    res = _descend(f, np.concatenate([starts, starts]), cfg, float(cfg.gamma), observe,
                   theta=np.repeat([0.0, cfg.theta], T), values=True)
    return res, loss[np.arange(2 * T), res["k"]], loss, gnorm, equal.tolist()


def _write_trial_csv(path, loss, gnorm, ks, plain, reg):
    """One row per step: loss and gradient norm of the plain and the regularized row."""
    n = max(ks[plain], ks[reg]) + 1
    columns = [map(str, range(n))]
    for i in (plain, reg):
        blank = [""] * (n - 1 - ks[i])
        columns += [[repr(v) for v in a[i, :ks[i] + 1].tolist()] + blank for a in (loss, gnorm)]
    with open(path, "w", newline="") as fh:
        fh.write("epoch,loss_plain,gnorm_plain,loss_reg,gnorm_reg\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))


# ---------------------------------------------------------------------------

# Every subcommand's handler, help and flags in --help order. A flag is unset (None)
# until given; type list makes it repeatable (argparse's append), collecting strings;
# a flag with a field sets that OptimizerConfig field. After --config, main holds each
# flag to its row: a required flag must be given, an int to [minimum, maximum], a flag
# to the flag it `needs` (without it, it would do nothing), and an unset flag takes its
# default. build_parser, _optimizer_config, --config and main all read this table; a
# callable help, which builds the corpus, runs in build_parser and not at import.
_Flag = collections.namedtuple("_Flag", "name type help field default required minimum "
                               "maximum needs", defaults=(str,) + (None,) * 7)
_OBJECTIVE = _Flag("--objective", help=lambda: "corpus objective name: "
                   + ", ".join(corpus_names()), required=True)
_FILES = (_Flag("--out", help="output directory (default: out)", default="out"),
          _Flag("--config", help="JSON config file; flags override"))
_THETA, _GAMMA, _MAX_ITERS = (_Flag("--theta", float, field="theta"),
                              _Flag("--gamma", float, field="gamma"),
                              _Flag("--max-iters", int, field="max_iters"))
_OPTIMIZER = (_THETA, _GAMMA, _Flag("--eps", float, field="eps_converge"), _MAX_ITERS,
              _Flag("--escape-radius", float, field="escape_radius"))
_SEED = _Flag("--seed", int, default=0, minimum=0)
# a grid has fewer than 2**31 cells (see region), so no dimension takes a larger resolution
_RESOLUTION = _Flag("--resolution", int, default=200, minimum=1, maximum=2**31 - 1)
_COMMANDS = {
    "run": (cmd_run, "run regularized gradient descent",
            (_OBJECTIVE, *_FILES, _Flag("--x0"), *_OPTIMIZER)),
    "analyze": (cmd_analyze, "locate and classify critical points", (
        _OBJECTIVE, *_FILES, _Flag("--regularizer"), _Flag("--box"),
        _RESOLUTION._replace(needs="--theta"), _Flag("--theta", float),
        _Flag("--x0", help="seed point for a region export", needs="--theta"),
        _Flag("--milnor", int, "sample this many random regularizers for degeneracy",
              minimum=1, maximum=MILNOR_MAX_DRAWS), _SEED._replace(needs="--milnor"))),
    "bifurcate": (cmd_bifurcate, "sweep regularizers and trace continuations", (
        _OBJECTIVE._replace(default="double_degenerate", required=False), *_FILES,
        _Flag("--regularizer", list), _Flag("--box"))),
    "stable-set": (cmd_stable_set, "measure a basin fraction by sampling", (
        _OBJECTIVE, *_FILES, _Flag("--x0", help="target point", required=True), _Flag("--box"),
        _Flag("--trials", int, "number of samples", default=2000, minimum=1,
              maximum=STABLE_SET_MAX_TRIALS),
        _THETA, _GAMMA._replace(required=True), *_OPTIMIZER[2:], _SEED)),
    "region": (cmd_region, "export a small-gradient region grid", (
        _OBJECTIVE, *_FILES, _Flag("--x0", help="seed point", required=True),
        _Flag("--theta", float, required=True), _Flag("--box"), _RESOLUTION)),
    "mlp-compare": (cmd_mlp_compare, "plain vs regularized descent on a small network", (
        *_FILES, _Flag("--trials", int, default=20, minimum=1, maximum=MLP_MAX_TRIALS),
        _THETA, _GAMMA, _MAX_ITERS, _SEED,
        _Flag("--widths", help="layer widths, e.g. 2,8,8,2", default="2,8,8,2"),
        _Flag("--samples", int, default=100, maximum=MLP_MAX_SAMPLES),
        _Flag("--separation", float, default=1.0))),
}


def build_parser():
    parser = _Parser(prog="saddlereg",
                     description="Regularized gradient descent experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in flags:
            kind = {"action": "append"} if flag.type is list else {"type": flag.type}
            p.add_argument(flag.name, help=flag.help() if callable(flag.help) else flag.help,
                           **kind)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        flags = _flags(args.command)
        given = {flag.name for dest, flag in flags.items() if getattr(args, dest) is not None}
        for dest, flag in flags.items():
            value = getattr(args, dest)
            if value is None:
                if flag.required:
                    raise ValueError(f"{flag.name} is required for {args.command}")
                setattr(args, dest, flag.default)  # a test holds every default to its row
                continue
            if flag.needs and flag.needs not in given:
                raise ValueError(f"{flag.name} has no effect without {flag.needs}")
            # NaN fails every range check, so it would quietly switch a rule off; an empty
            # value is not an unset flag, and an empty --out is not the working directory
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{flag.name} must be finite, got {value}")
            if value == "" or value == []:
                raise ValueError(f"{flag.name} must not be empty")
            if flag.minimum is not None and value < flag.minimum:
                raise ValueError(f"{flag.name} must be at least {flag.minimum}, got {value}")
            if flag.maximum is not None and value > flag.maximum:
                raise ValueError(f"{flag.name} must be at most {flag.maximum}, got {value}")
        code, outputs, lines = _COMMANDS[args.command][0](args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, output in outputs.items():
                if callable(output):
                    output(out / name)
                else:
                    write_json(out / name, output)
        except OSError as exc:  # only the mkdir and the writes: --out is at fault
            raise ValueError(f"cannot write outputs: {exc}") from exc
    except ValueError as exc:  # every input the CLI or the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input that passes every check but does not fit in memory
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
