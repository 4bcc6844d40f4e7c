"""asyncsense benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {campaign,bounds,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the directory that holds
``src/asyncsense`` and ``BENCHMARK.json``).  Inputs are generated from
``--seed`` into ``.perfbench_out/<workload>/``.  Every workload runs in its own
processes with BLAS pinned to one thread, as a closed loop with one client:
each request starts when the previous one has returned.

Every workload runs all five request kinds, so every metric is measured on
every workload: the workload's own kinds run at full size and fill the run,
and the others run a fixed number of times at probe size, spread over the
run, on inputs that do not depend on the seed.

* ``campaign``: the ``montecarlo`` command's work (parse_config ->
  run_campaign -> emit_csv) on acceptance criterion 7's scenario, as a panel
  of campaigns whose seeds derive from ``--seed``.  Stresses ``estimator``,
  ``array_model`` and ``campaign``.
* ``bounds``: library constrained CRB at T=512, the ``fim`` command at T=256
  and the ``bounds`` command with the finite-T Monte Carlo at T=128.
  Stresses ``fisher``'s dense path, ``csvio`` and the bound Monte Carlo.
* ``verify``: ``asyncsense verify --trials 10000`` and criterion 8's
  sufficiency check.  Thousands of small-T ``fisher``/``bounds`` calls, where
  per-call overhead dominates; the only full-size use of ``ofdm``.

Set-up (process start through imports, config parsing and one untimed
warm-up call of every request kind) is timed in several fresh processes and
reported as a median.  With ``--trace 0`` the last line of output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see tracing.py).  The exit code is 0 only when every output
check passed.

End-to-end metrics: times are medians over the run's requests of that kind
(``campaign_trials_per_s`` is trials over the wall time of parse, campaign
and CSV write).  The quality figures pool the first run of every panel
campaign: ``aoa_outlier_rate_0db`` counts 0 dB trials with |theta_hat -
theta_d| above 1/(M spacing cos theta_d), failed trials included, and the two
``mse_*_over_bound_20db`` ratios divide the pooled MSE by the bound row.
``estimator_ok_rate`` and ``verify_pass_frac`` are the shares of estimator
trials and of verify checks (plus the criterion-8 ratio gate) that passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "bounds", "verify")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

M = 8
THETA_D = 0.35
SPACING = 0.5
SNR_DB = [0.0, 10.0, 20.0]
# Static channel of acceptance criterion 7 (the h_s its seed 20240817 draws).
# Random draws per seed spread the outlier rate from 1% to 28% and put some
# h_s where the threshold-region estimator beats the bound, so the scenario
# keeps criterion 7's channel and the seed drives the trial streams.
H_S_RE = [-1.0137995840343228, 0.5644828396474384, 0.17628654304922126, 0.52390852789167,
          0.28891915924797573, -0.4582992011370696, -0.31430580615941267, -0.5509199537879962]
H_S_IM = [0.046055378652818384, -1.1093681234881103, -0.856723804252317, -1.5280909282654038,
          -0.9952728397404723, 0.26498694235085346, 1.2371144467330837, -0.2628892761906608]
TRIALS_PER_CAMPAIGN = 50
PANEL = 120                 # campaigns in the campaign workload's panel
PROBE_PANEL = 16            # campaigns in the other workloads' probe panel
PROBE_SEED = 20240817
PROBE_REPS = 9


def _derived_seed(base, index):
    digest = hashlib.sha256(f"{base}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _write(workdir, name, obj):
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(obj, fh, indent=1)
    return name


def write_inputs(workload, seed, workdir):
    """Generate every config and the job plan for one run from the seed."""
    def campaign_cfg(trials, cfg_seed):
        return {"m": M, "t": 128, "snr_db": SNR_DB, "trials": trials, "p_d": 1.0,
                "theta_d": THETA_D, "spacing": SPACING,
                "h_s": {"mode": "fixed", "re": H_S_RE, "im": H_S_IM}, "seed": cfg_seed}

    full = {kind: kind == workload for kind in WORKLOADS}
    # Probe jobs get fixed inputs, so their figures vary with the machine only.
    job_seed = seed if full["bounds"] else PROBE_SEED
    size, base = (PANEL, seed) if full["campaign"] else (PROBE_PANEL, PROBE_SEED)
    panel = [_write(workdir, f"campaign_{i:03d}.json",
                    campaign_cfg(TRIALS_PER_CAMPAIGN, _derived_seed(base, i)))
             for i in range(size)]
    fim_t = 256 if full["bounds"] else 64
    sweep_t = 128 if full["bounds"] else 32
    common = {"m": M, "theta_d": THETA_D, "trials": 1, "seed": job_seed}
    small = {"t": 8, "snr_db": SNR_DB, "finite_t": True, "finite_t_trials": 100,
             "mc_bound_trials": 100}
    jobs = {
        "campaign": {"panel": panel, "warmup": _write(workdir, "campaign_warmup.json",
                                                      campaign_cfg(1, 0)),
                     "m": M, "spacing": SPACING, "theta_d": THETA_D,
                     "outlier_snr_db": 0.0, "quality_snr_db": 20.0},
        "crb": {"t": 512 if full["bounds"] else 256, "m": M, "theta_d": THETA_D, "p_d": 1.0,
                "snr_db": 10.0, "phi_walk_std": 0.5, "seed": job_seed},
        "fim_cli": {"t": fim_t, "m": M,
                    "config": _write(workdir, "fim.json",
                                     dict(common, t=fim_t, snr_db=[10.0])),
                    "warmup": _write(workdir, "small.json", dict(common, **small))},
        "bound_sweep": {"snr_db": SNR_DB,
                        "config": _write(workdir, "sweep.json",
                                         dict(common, t=sweep_t, snr_db=SNR_DB, finite_t=True)),
                        "warmup": "small.json"},
        "verify": {"trials": 10000 if full["verify"] else 1000, "sufficiency_trials": 10 ** 4,
                   "warmup_trials": 20, "seed": seed if full["verify"] else PROBE_SEED},
    }
    main = {"campaign": ["campaign"],
            "bounds": ["crb", "fim_cli", "bound_sweep"],
            "verify": ["verify"]}[workload]
    probes = [[kind, PROBE_PANEL if kind == "campaign" else PROBE_REPS]
              for kind in jobs if kind not in main]
    _write(workdir, "inputs.json", {"jobs": jobs, "main": main, "probes": probes,
                                    "min_main": PANEL if workload == "campaign" else len(main)})


def _child(role, workdir, args, env, deadline):
    """Run one worker process; returns (seconds from start to READY or None, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir, str(args.seconds),
           str(args.trace), role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().strip() == "READY"
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return (setup_s if ready else None), code


def _declared(trace):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile(os.path.join("src", "asyncsense", "__init__.py"))
            and os.path.isfile("BENCHMARK.json")):
        sys.stderr.write("perfbench: run from the root of an asyncsense checkout "
                         "(src/asyncsense and BENCHMARK.json not found)\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    declared = _declared(args.trace)

    workdir = os.path.join(os.getcwd(), ".perfbench_out", args.workload)
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    write_inputs(args.workload, args.seed, workdir)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONUNBUFFERED="1")

    setups = []
    for role in ["setup"] * (SETUP_SAMPLES - 1) + ["work"]:
        setup_s, code = _child(role, workdir, args, env, deadline)
        if setup_s is None or code != 0:
            sys.stderr.write(f"perfbench: {role} process failed (exit {code})\n")
            return 1
        setups.append(setup_s)
    with open(result_path) as fh:
        res = json.load(fh)

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), len(setups))
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], 1)
    if set(metrics) != set(declared):
        sys.stderr.write(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
                         "differ from BENCHMARK.json\n")
        return 1

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("# environment " + json.dumps(res["environment"], sort_keys=True))
    for name in declared:
        value, samples = metrics[name]
        print(f"{name:42s} {value:>16.6g} {declared[name]:<10s} "
              f"{'n=' + str(samples) if samples else ''}")
    for failure in res["failures"]:
        print(f"FAILED CHECK: {failure}")
    correct = not res["failures"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {name: {"value": metrics[name][0], "unit": unit}
                                  for name, unit in declared.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
