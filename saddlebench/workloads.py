"""The benchmark's workloads: fixed, ordered operation lists with correctness checks.

An operation is either a CLI subcommand, invoked in-process as
`saddlereg.cli.main(argv)`, or a call to a public library function. Every
input is derived from the workload seed. Each check asserts a property from
the paper that holds for any seed, so a failed check means a wrong result,
not an unlucky draw.
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import saddlereg
from saddlereg.cli import main as cli_main

# `stable-set` flags from the README, plus the theta of acceptance criterion 01
STABLE_SET = ["stable-set", "--objective", "cubic_valley", "--x0", "0,0", "--box", "-2,2",
              "--trials", "2000", "--gamma", "0.15", "--eps", "1e-6", "--max-iters", "2000"]
STABLE_SET_THETA = "0.5"
MILNOR_DRAWS = 200
MLP_TRIALS = 5
MLP_WIDTHS = (2, 8, 8, 2)
REGION_RESOLUTION = 300
REGION_SAMPLES = 2000
# entry point of the paper's cubic_cone escape example (criteria 03 and 10)
CONE_ENTRY = (1.5, 0.5)


class CheckFailed(Exception):
    """An operation returned a result that violates its invariant."""


def need(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable  # (state, out_dir) -> result, timed
    check: Callable  # (state, out_dir, result) -> None, untimed; raises CheckFailed
    cli: bool = False


def cli_op(name, argv, check):
    def run(state, out):
        return cli_main([*argv(state), "--out", str(out)])

    def checked(state, out, code):
        need(code == 0, f"exit code {code}")
        check(state, out)

    return Op(name, run, checked, cli=True)


def _load(out, filename):
    with open(out / filename) as fh:
        return json.load(fh)


# -- critical_search ---------------------------------------------------------------

def _check_analyze(state, out):
    points = _load(out, "critical_points.json")["critical_points"]
    need(len(points) == 1, f"cubic_valley has one critical point, found {len(points)}")
    need(np.linalg.norm(points[0]["location"]) <= 1e-6, "critical point is not the origin")
    need(points[0]["classification"] == saddlereg.NON_STRICT_OR_DEGENERATE,
         "the origin is not classified as non-strict")
    frac = _load(out, "milnor.json")["fraction_degenerate"]
    need(frac <= 0.01, f"degenerate fraction {frac} > 0.01 after random shifts")


def _check_bifurcate(state, out):
    sweeps = _load(out, "bifurcation.json")["sweeps"]
    need(len(sweeps) == 5, f"default sweep has 5 regularizers, found {len(sweeps)}")
    surviving = {}
    for sweep in sweeps:
        l = sweep["l"][0]
        if l == 0.0:
            continue
        # the third derivative is -48 at x = -1 and +48 at x = +1, so l > 0
        # bifurcates the saddle at -1 into a min/max pair and removes the one at +1
        affected, eliminated = (-1.0, 1.0) if l > 0 else (1.0, -1.0)
        pts = [(p["location"][0], p["classification"]) for p in sweep["critical_points"]]
        pair = sorted(c for x, c in pts if abs(x - affected) < 0.3)
        need(pair == [saddlereg.LOCAL_MAX, saddlereg.LOCAL_MIN],
             f"l={l}: no min/max pair near {affected}: {pair}")
        need(not [x for x, _ in pts if abs(x - eliminated) < 0.3],
             f"l={l}: the saddle at {eliminated} was not eliminated")
        surviving[l] = affected
    for l, side in surviving.items():
        need(surviving.get(-l, -side) == -side, f"+-{abs(l)} bifurcate the same saddle")


CRITICAL_SEARCH = [
    cli_op("analyze",
           lambda s: ["analyze", "--objective", "cubic_valley", "--milnor", str(MILNOR_DRAWS),
                      "--seed", str(s["seed"])],
           _check_analyze),
    cli_op("bifurcate", lambda s: ["bifurcate"], _check_bifurcate),
]


# -- mlp_training ------------------------------------------------------------------

def _check_mlp_compare(state, out):
    summary = _load(out, "mlp_summary.json")
    need(len(summary["prefix_equal"]) == MLP_TRIALS, "wrong number of trials")
    need(all(summary["prefix_equal"]), "plain and regularized prefixes differ")
    finals = summary["final_loss_plain"] + summary["final_loss_reg"]
    need(all(np.isfinite(finals)), "non-finite final loss")
    state["final_loss_plain"] = summary["final_loss_plain"]


def _plain_runs(state, out):
    # the objective and the plain trials of `mlp-compare` with its defaults
    spec = saddlereg.MlpSpec(MLP_WIDTHS)
    data = saddlereg.make_blobs(50, MLP_WIDTHS[-1], MLP_WIDTHS[0], 1.0, seed=state["seed"])
    f = saddlereg.mlp_objective(spec, data)
    cfg = saddlereg.OptimizerConfig(gamma=0.5, theta=0.04, eps_converge=1e-10,
                                    max_iters=800, escape_radius=1e6)
    state["mlp"] = f
    return [saddlereg.run_plain_gd(f, saddlereg.init_params(spec, child), cfg)
            for child in np.random.SeedSequence(state["seed"]).spawn(MLP_TRIALS)]


def _check_plain_runs(state, out, recs):
    need([rec.final_value for rec in recs] == state.get("final_loss_plain"),
         "library runs disagree with mlp-compare's plain trials")
    # Classify the run that ends with the fewest dead ReLU parameters (exactly
    # zero gradient). The Jacobi eigensolver skips zero entries, so its cost
    # would otherwise swing by 2x with the dead units a seed happens to give.
    f = state["mlp"]
    dead = [int(np.count_nonzero(f.gradient(rec.final_x) == 0.0)) for rec in recs]
    state["final_params"] = recs[dead.index(min(dead))].final_x


def _classify(state, out):
    return saddlereg.classify_point(state["mlp"], state["final_params"])


def _check_classify(state, out, report):
    eig = np.asarray(report.eigenvalues)
    n = saddlereg.MlpSpec(MLP_WIDTHS).n_params
    need(eig.shape == (n,), f"{eig.shape} eigenvalues for {n} parameters")
    need(np.all(np.isfinite(eig)), "non-finite eigenvalue")
    need(np.all(np.diff(eig) >= 0.0), "eigenvalues are not ascending")


MLP_TRAINING = [
    cli_op("mlp-compare",
           lambda s: ["mlp-compare", "--trials", str(MLP_TRIALS), "--seed", str(s["seed"])],
           _check_mlp_compare),
    Op("run_plain_gd", _plain_runs, _check_plain_runs),
    Op("classify_point", _classify, _check_classify),
]


# -- basin_region ------------------------------------------------------------------

def _check_stable_set(low, high):
    def check(state, out):
        frac = _load(out, "stable_set.json")["fraction"]
        need(low <= frac <= high, f"stable-set fraction {frac} outside [{low}, {high}]")
    return check


def _check_region_cli(state, out):
    summary = _load(out, "region.json")
    need(0 < summary["n_boundary"] <= summary["n_inside"], "bad region cell counts")
    with open(out / "region.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    need(rows == REGION_RESOLUTION ** 2, f"region.csv has {rows} rows")
    state["region_n_inside"] = summary["n_inside"]


def _region(state, out):
    f = saddlereg.get_objective("cubic_cone")
    return saddlereg.theta_region(f, [0.0, 0.0], 3.0, resolution=REGION_RESOLUTION)


def _check_region(state, out, region):
    need(int(region.inside.sum()) == state.get("region_n_inside"),
         "library region differs from the CLI's region.json")
    need(not np.any(region.boundary & ~region.inside), "boundary cells outside the region")
    state["region"] = region


def _sample(state, out):
    return saddlereg.sample_in_region(np.random.default_rng(state["seed"]), state["region"],
                                      REGION_SAMPLES)


def _check_sample(state, out, points):
    region = state["region"]
    need(points.shape == (REGION_SAMPLES, region.dim), f"sample shape {points.shape}")
    # membership computed here, independent of RegionGrid.contains_point
    idx = np.floor((points - region.box[:, 0]) / region.cell_widths).astype(int)
    need(np.all((idx >= 0) & (idx < region.resolution)), "sample outside the box")
    need(np.all(region.inside[tuple(idx.T)]), "sample outside the region")


def _boundary_check(state, out):
    f = saddlereg.get_objective("cubic_cone")
    l = f.gradient(np.array(CONE_ENTRY))
    return saddlereg.check_boundary_assumption(f, state["region"], l)


def _check_boundary(state, out, result):
    # criterion 10 fails by design: violations are recorded, not failed
    holds, violations = result
    need(holds == (len(violations) == 0), "holds flag disagrees with the violation list")


BASIN_REGION = [
    cli_op("stable-set-plain", lambda s: [*STABLE_SET, "--seed", str(s["seed"])],
           _check_stable_set(0.45, 0.55)),
    cli_op("stable-set-regularized",
           lambda s: [*STABLE_SET, "--theta", STABLE_SET_THETA, "--seed", str(s["seed"])],
           _check_stable_set(0.0, 0.01)),
    cli_op("region",
           lambda s: ["region", "--objective", "cubic_cone", "--x0", "0,0", "--theta", "3",
                      "--resolution", str(REGION_RESOLUTION)],
           _check_region_cli),
    Op("theta_region", _region, _check_region),
    Op("sample_in_region", _sample, _check_sample),
    Op("check_boundary_assumption", _boundary_check, _check_boundary),
]

WORKLOADS = {
    "critical_search": CRITICAL_SEARCH,
    "mlp_training": MLP_TRAINING,
    "basin_region": BASIN_REGION,
}
