"""Snapshot every deterministic CLI output and demo of a saddlereg checkout.

    python tools/snapshot_outputs.py OUTDIR [--source CHECKOUT]

Each run below executes in its own empty directory OUTDIR/<run>/files, with
the checkout's `src` on PYTHONPATH and the interpreter running this script;
the `run` lines between them end in every termination status of the descent
engine, and the `help` runs pin every `--help` text, wrapped at COLUMNS=80.
Next to `files` it stores `stdout`, `stderr` and `exit_code`; the checkout's
path is written as `<source>` in stdout and stderr, and the line number after a
`<source>` file as `<line>`, so that a warning names the same place in every
checkout whatever lines an edit moved. Snapshot two checkouts
and compare them with `diff -r OUTDIR_A OUTDIR_B`: an empty diff means
byte-identical outputs.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

CLI_RUNS = {
    # the README's command lines
    "run": "run --objective cubic_cone --x0 1.5,0.5 --theta 3 --out out/run",
    "analyze_regularizer": "analyze --objective cubic_valley --regularizer -1,0",
    "analyze_milnor": "analyze --objective cubic_valley --milnor 500 --seed 0",
    "bifurcate": "bifurcate",
    "stable_set": "stable-set --objective cubic_valley --x0 0,0 --box -2,2 --trials 2000 "
                  "--gamma 0.15 --eps 1e-6 --max-iters 2000",
    "region": "region --objective cubic_cone --x0 0,0 --theta 3 --resolution 200",
    "mlp_compare": "mlp-compare --trials 20 --seed 0",
    # Milnor draws, the separation check, sweeps and a short mlp-compare beyond them;
    # analyze on the 1-D objective classifies its three critical points in one stack
    "analyze_double_degenerate": "analyze --objective double_degenerate",
    "analyze_milnor_monkey_line": "analyze --objective monkey_line --milnor 200 --seed 3",
    "analyze_milnor_double_degenerate":
        "analyze --objective double_degenerate --milnor 300 --seed 1",
    "analyze_milnor_cubic_cone": "analyze --objective cubic_cone --milnor 100 --seed 2",
    # a box smaller than the domain, so that the Milnor draws' dedupe drops roots outside it
    "analyze_milnor_box": "analyze --objective monkey_line --box -1,1 --milnor 150 --seed 4",
    "analyze_separation": "analyze --objective cubic_cone --theta 3 --x0 0,0 --resolution 150",
    "bifurcate_cubic_valley": "bifurcate --objective cubic_valley --regularizer -1,0",
    "bifurcate_monkey_line":
        "bifurcate --objective monkey_line --regularizer 0.3,-0.2 --regularizer 0,1",
    "mlp_compare_5": "mlp-compare --trials 5 --seed 0",
    # output widths below and past the 8 terms that numpy's pairwise sum adds at a time,
    # and a network of three hidden layers
    "mlp_compare_widths_3": "mlp-compare --widths 2,8,8,3 --trials 3 --seed 1",
    "mlp_compare_widths_9": "mlp-compare --widths 2,8,8,9 --trials 3 --seed 1",
    "mlp_compare_depth_3": "mlp-compare --widths 2,8,8,8,2 --trials 3 --seed 1",
    # a step far past 1/L: each row leaves the 1e6 escape ball within a few steps, at
    # its own k, so the batch takes the engine's near-sphere and diverged branch
    "mlp_compare_diverged": "mlp-compare --trials 3 --seed 2 --gamma 80 --max-iters 60",
    # triggered and untriggered trials in one batch: 3 of 4 trials trigger, and the
    # untriggered one keeps its prefix comparison open to the last step
    "mlp_compare_mixed": "mlp-compare --trials 4 --seed 2 --theta 0.02 --max-iters 300 "
                         "--out out/mixed",
    # one run per termination status, and the regularized stable-set batch
    "run_diverged": "run --objective cubic_valley --x0 -1,0.5 --gamma 0.15",
    "run_numerical_failure": "run --objective cubic_valley --x0 1.5,0.5 --gamma 1e308",
    "run_max_iters": "run --objective cubic_cone --x0 1.5,0.5 --theta 3 --max-iters 5",
    "run_converged": "run --objective quadratic_bowl --x0 2,1 --theta 0.5",
    "stable_set_regularized": "stable-set --objective cubic_valley --x0 0,0 --box -2,2 "
                              "--trials 2000 --gamma 0.15 --eps 1e-6 --max-iters 2000 --theta 0.5",
    # a descent through monkey_line (one event, then divergence) and stable-set on cubic_cone
    "run_monkey_line": "run --objective monkey_line --x0 1,0.5 --theta 0.5",
    "stable_set_cubic_cone": "stable-set --objective cubic_cone --x0 0,0 --gamma 0.1 "
                             "--trials 500 --theta 3 --max-iters 500",
    # an escape sphere inside the sampling box, so rows start on both sides of it, and
    # a critical start outside the ball, which converges at k = 0 before any ball test
    "stable_set_escape_sphere": "stable-set --objective cubic_valley --x0 0,0 --box -2,2 "
                                "--trials 2000 --gamma 0.15 --eps 1e-6 --max-iters 2000 "
                                "--escape-radius 2.5",
    "run_critical_outside_ball": "run --objective monkey_line --x0 2,0 --escape-radius 1",
    # explicit boxes, where the CLI's box and not the objective's domain box is searched
    "analyze_box": "analyze --objective cubic_cone --box -2,2 --theta 3 --x0 0,0 "
                   "--resolution 100",
    "bifurcate_box": "bifurcate --box -1.5,0.5",
    "region_box": "region --objective cubic_cone --x0 0,0 --theta 3 --box -2,2,-1,1 "
                  "--resolution 100",
    # the region writer's other grids: 1-D (one empty head) and the largest 2-D one
    "region_1d": "region --objective double_degenerate --x0 1 --theta 0.1 --resolution 400",
    "region_monkey_line": "region --objective monkey_line --x0 0,0 --theta 4.7 --resolution 600",
    # 1-D grids of two full gradient blocks and a ragged third; the separation check's
    # three critical points share one mask
    "region_1d_blocks": "region --objective double_degenerate --x0 1 --theta 0.1 "
                        "--resolution 20001",
    "analyze_separation_1d_blocks": "analyze --objective double_degenerate --theta 0.5 --x0 0 "
                                    "--resolution 20001",
    # a failing separation check: each critical point's theta = 10 region holds the other
    # two, which no near-critical cells join to it
    "analyze_separation_fail": "analyze --objective double_degenerate --theta 10 --x0 0 "
                               "--resolution 400",
    # inputs the CLI or the library rejects: one error line, exit 1, nothing written
    "error_run_objective": "run --objective nope",
    "error_run_gamma": "run --objective cubic_valley --x0 1,0 --gamma -0.5",
    "error_region_seed": "region --objective cubic_cone --x0 5,5 --theta 100 --resolution 40",
    "error_analyze_separation": "analyze --objective cubic_valley --theta 0 --resolution 40",
    "error_mlp_compare_widths": "mlp-compare --widths 2,8,2",
    "error_mlp_compare_samples": "mlp-compare --trials 1 --max-iters 2 "
                                 "--samples 1000000000000000000000000000000",
    "error_bifurcate_objective": "bifurcate --objective nope",
    "error_analyze_milnor": "analyze --objective cubic_valley --milnor "
                            "999999999999999999999999999999",
    "error_stable_set_trials": "stable-set --objective cubic_valley --x0 0,0 --gamma 0.15 "
                               "--trials 999999999999999999999999999999",
    # an --out that cannot be created as a directory: one error line, exit 1, nothing written
    "error_out_not_a_directory": "region --objective cubic_cone --x0 0,0 --theta 3 "
                                 "--resolution 20 --out /dev/null",
    # empty flag values, which must not read as unset flags: one error line, exit 1, nothing
    # written
    "error_empty_regularizer": "analyze --objective cubic_valley --regularizer=",
    "error_empty_x0": "run --objective cubic_cone --x0=",
    "error_empty_objective": "bifurcate --objective=",
    "error_empty_widths": "mlp-compare --widths=",
    "error_empty_box": "region --objective cubic_cone --x0 0,0 --theta 3 --box=",
    "error_empty_out": "run --objective cubic_cone --x0 1.5,0.5 --out=",
    # a required flag left out, a flag given without the flag it needs, and a resolution
    # past its maximum: one error line, exit 1, nothing written
    "error_run_no_objective": "run --x0 1.5,0.5",
    "error_stable_set_no_x0": "stable-set --objective cubic_valley --gamma 0.15 --trials 10",
    "error_stable_set_no_gamma": "stable-set --objective cubic_valley --x0 0,0 --trials 10",
    "error_region_no_theta": "region --objective cubic_cone --x0 0,0 --resolution 20",
    "error_region_no_x0": "region --objective cubic_cone --theta 3 --resolution 20",
    "error_analyze_x0_without_theta": "analyze --objective cubic_valley --x0 0,0",
    "error_analyze_seed_without_milnor": "analyze --objective cubic_valley --seed 3",
    "error_region_resolution": "region --objective cubic_cone --x0 0,0 --theta 3 "
                               "--resolution 1000000000000000000",
    # the help text of the top level and of each subcommand, wrapped at 80 columns
    "help": "--help",
    **{f"help_{name.replace('-', '_')}": f"{name} --help" for name in
       ("run", "analyze", "bifurcate", "stable-set", "region", "mlp-compare")},
}

DEMOS = ["escape_nonstrict_saddle", "bifurcation_sweep", "stable_set_measurement",
         "regularization_error_bound", "mlp_training_comparison", "region_geometry"]


def snapshot(source, outdir):
    env = {**os.environ, "PYTHONPATH": str(source / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "COLUMNS": "80"}
    runs = {f"cli_{name}": [sys.executable, "-m", "saddlereg.cli", *line.split()]
            for name, line in CLI_RUNS.items()}
    runs.update({f"demo_{name}": [sys.executable, str(source / "demos" / f"{name}.py")]
                 for name in DEMOS})
    for name, command in runs.items():
        files = outdir / name / "files"
        files.mkdir(parents=True)
        done = subprocess.run(command, cwd=files, env=env, capture_output=True, text=True)
        for stream in ("stdout", "stderr"):
            text = getattr(done, stream).replace(str(source), "<source>")
            text = re.sub(r"(<source>[^:\n]*\.py):\d+", r"\1:<line>", text)
            (outdir / name / stream).write_text(text)
        (outdir / name / "exit_code").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="new directory for the snapshot")
    parser.add_argument("--source", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to run (default: the one holding this script)")
    args = parser.parse_args()
    if args.outdir.exists():
        parser.error(f"{args.outdir} already exists")
    snapshot(args.source.resolve(), args.outdir.resolve())


if __name__ == "__main__":
    main()
