"""One workload process: set up, say READY, then run timed requests.

    python3 perfbench/worker.py <workdir> <seconds> <trace> <role>

Started by run.py from the root of a checkout, with BLAS pinned to one thread
in the environment and ``<workdir>/inputs.json`` already written.  With role
``setup`` the process exits right after READY (run.py times process start to
READY as set-up).  With role ``work`` it runs requests for ``seconds`` and
writes ``result.json`` into ``workdir``.

The program is driven only through ``asyncsense.cli.main(argv)`` and the
documented library functions, looked up on their modules at call time so that
the tracer's wrappers are seen.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from asyncsense import array_model, campaign, cli, config, csvio, fisher, ofdm  # noqa: E402

import tracing  # noqa: E402

SUFFICIENCY_RATIO_TOL = 0.05


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _quiet_cli(argv):
    """cli.main with its stdout and stderr captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _median(records):
    walls = [r[1] for r in records]
    return statistics.median(walls), len(walls)


class Failures(list):
    def check(self, ok, message):
        if not ok:
            self.append(message)


# ---------------------------------------------------------------------------
# Jobs.  __init__ makes one untimed warm-up call (part of set-up time);
# request(i) is one timed request and returns a record
# (kind, wall_s, output digest, operations attempted, operations failed);
# finish(records) checks outputs and returns {metric: (value, samples)}.

class CampaignJob:
    """The montecarlo command's work: parse_config -> run_campaign -> emit_csv.

    Requests cycle through a panel of configs.  Outcomes are pooled over the
    first run of every member; a repeat must reproduce the member's CSV bytes.
    """

    kind = "campaign"

    def __init__(self, workdir, spec, fails):
        self.paths = [os.path.join(workdir, p) for p in spec["panel"]]
        self.out = os.path.join(workdir, "campaign.csv")
        self.fails = fails
        # half the null-to-null beamwidth at theta_d
        self.outlier_limit = 1.0 / (spec["m"] * spec["spacing"] * math.cos(spec["theta_d"]))
        self.outlier_snr, self.quality_snr = spec["outlier_snr_db"], spec["quality_snr_db"]
        self.pooled = {}          # snr -> {"theta": [...], "d": [...], "attempted", "failed"}
        self.bound_rows = {}      # (snr, metric) -> value
        self.outliers = 0
        self.pooled_members = set()
        cfg = config.parse_config(os.path.join(workdir, spec["warmup"]))
        csvio.emit_csv(campaign.run_campaign(cfg, keep_trials=True).rows, self.out)

    def request(self, i):
        member = i % len(self.paths)
        t0 = time.perf_counter()
        cfg = config.parse_config(self.paths[member])
        res = campaign.run_campaign(cfg, keep_trials=True)
        csvio.emit_csv(res.rows, self.out)
        wall = time.perf_counter() - t0
        trials = [r for point in res.trial_results.values() for r in point]
        if member not in self.pooled_members:
            self.pooled_members.add(member)
            self._pool(cfg, res)
        return (self.kind, wall, (member, _sha256(self.out)), len(trials),
                sum(r.failed for r in trials))

    def _pool(self, cfg, res):
        for row in res.rows:
            if row.trials == 0:
                key = (row.snr_db, row.metric)
                self.fails.check(self.bound_rows.setdefault(key, row.value) == row.value,
                                 f"bound row {key} differs between campaigns of one scenario")
        for point, snr in enumerate(cfg.snr_db):
            acc = self.pooled.setdefault(snr, {"theta": [], "d": [], "attempted": 0, "failed": 0})
            for r in res.trial_results[point]:
                acc["attempted"] += 1
                if r.failed:
                    acc["failed"] += 1
                    continue
                acc["theta"].append(r.theta_sq_err)
                acc["d"].append(r.d_mse)
            if snr == self.outlier_snr:
                self.outliers += sum(r.failed or math.sqrt(r.theta_sq_err) > self.outlier_limit
                                     for r in res.trial_results[point])

    def finish(self, records):
        """Criterion 7's gates, once per SNR point over the pooled trials."""
        fails = self.fails
        first = {}
        for _, _, (member, digest), _, _ in records:
            fails.check(first.setdefault(member, digest) == digest,
                        f"campaign CSV of panel member {member} changed between repeats")
        ratios = {}
        for snr, acc in sorted(self.pooled.items()):
            fail_rate = acc["failed"] / acc["attempted"]
            fails.check(fail_rate <= campaign.MAX_FAILURE_RATE,
                        f"{snr:g} dB: estimator fail rate {fail_rate:.3%} > 5%")
            for values, mse_name, bound_name in ((acc["theta"], "mse_theta", "hrcrb_theta"),
                                                 (acc["d"], "mse_d", "ahrcrb_d")):
                mean, stderr = _mean_and_stderr(values)
                bound = self.bound_rows[(snr, bound_name)]
                ratios[(snr, mse_name)] = mean / bound
                fails.check(mean >= bound - 3 * stderr,
                            f"{snr:g} dB: {mse_name} {mean:.6g} < {bound_name} {bound:.6g} "
                            f"- 3 stderr ({stderr:.3g}) over {len(values)} trials")
        attempted = sum(acc["attempted"] for acc in self.pooled.values())
        failed = sum(acc["failed"] for acc in self.pooled.values())
        at_outlier = self.pooled[self.outlier_snr]
        at_quality = self.pooled[self.quality_snr]
        rates = [r[3] / r[1] for r in records]
        return {
            "campaign_trials_per_s": (statistics.median(rates), len(rates)),
            "estimator_ok_rate": ((attempted - failed) / attempted, attempted),
            "aoa_outlier_rate_0db": (self.outliers / at_outlier["attempted"],
                                     at_outlier["attempted"]),
            "mse_theta_over_bound_20db": (ratios[(self.quality_snr, "mse_theta")],
                                          len(at_quality["theta"])),
            "mse_d_over_bound_20db": (ratios[(self.quality_snr, "mse_d")],
                                      len(at_quality["d"])),
        }


def _mean_and_stderr(values):
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


class CrbJob:
    """Library joint_fim -> constraint_basis -> constrained_crb for one scenario."""

    kind = "crb"

    def __init__(self, workdir, spec, fails):
        self.spec = spec
        self.fails = fails
        self._crb(self._scenario(8))
        self.params = self._scenario(spec["t"])

    def _scenario(self, t):
        spec = self.spec
        rng = np.random.default_rng(np.random.SeedSequence(spec["seed"], spawn_key=(t,)))
        m = spec["m"]
        h_s = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
        d = array_model.draw_dynamic_gains(t, array_model.GainDistribution(spec["p_d"]), rng,
                                           constrained=True)
        phi = rng.normal(0.0, spec["phi_walk_std"], t).cumsum()
        phi -= phi.mean()
        sigma2 = campaign.sigma2_from_snr_db(spec["snr_db"], spec["p_d"], m)
        return array_model.ScenarioParams(spec["theta_d"], h_s, d, phi, sigma2)

    @staticmethod
    def _crb(params):
        fim = fisher.joint_fim(array_model.ArrayGeometry(params.m), params)
        basis = fisher.constraint_basis(params.m, params.t)
        return fim, fisher.constrained_crb(fim, basis)

    def request(self, i):
        t0 = time.perf_counter()
        fim, crb = self._crb(self.params)
        wall = time.perf_counter() - t0
        check = self.fails.check
        check(bool(np.all(np.isfinite(crb))), "CRB has non-finite entries")
        check(np.array_equal(crb, crb.T), "CRB is not symmetric")
        check(bool(np.all(np.diag(crb) >= 0)), "CRB has a negative diagonal entry")
        floor = 1.0 / fim.data[0, 0]
        check(crb[0, 0] >= floor, f"CRB theta entry {crb[0, 0]:.6g} below 1/J_tt {floor:.6g}")
        return self.kind, wall, hashlib.sha256(crb.tobytes()).hexdigest(), 1, 0

    def finish(self, records):
        _same_digests(records, self.fails)
        return {"crb_s": _median(records)}


class _CliJob:
    """One asyncsense subcommand on a generated config; its output files are hashed."""

    def __init__(self, workdir, spec, fails):
        self.spec = spec
        self.fails = fails
        self.cfg = os.path.join(workdir, spec["config"])
        self.out = os.path.join(workdir, self.command + ".csv")
        code, _ = _quiet_cli([self.command, "--config", os.path.join(workdir, spec["warmup"]),
                              "--out", self.out])
        fails.check(code == 0, f"warm-up `asyncsense {self.command}` exited {code}")

    def request(self, i):
        t0 = time.perf_counter()
        code, _ = _quiet_cli([self.command, "--config", self.cfg, "--out", self.out])
        wall = time.perf_counter() - t0
        self.fails.check(code == 0, f"`asyncsense {self.command}` exited {code}")
        digest = "".join(_sha256(path) for path in self.outputs())
        return self.kind, wall, digest, 1, int(code != 0)

    def outputs(self):
        return [self.out]


class FimCliJob(_CliJob):
    """`asyncsense fim`: joint FIM and constrained CRB written as matrix CSVs."""

    kind, command = "fim_cli", "fim"

    def outputs(self):
        return [self.out, self.out[:-len(".csv")] + ".crb.csv"]

    def finish(self, records):
        _same_digests(records, self.fails)
        n = 1 + 2 * self.spec["m"] + 3 * self.spec["t"]
        for path in self.outputs():
            mat = csvio.read_matrix_csv(path)
            self.fails.check(mat.shape == (n, n) and bool(np.all(np.isfinite(mat))),
                             f"{os.path.basename(path)} reparses to {mat.shape}, "
                             f"expected {(n, n)}")
        return {"fim_cli_s": _median(records)}


class BoundSweepJob(_CliJob):
    """`asyncsense bounds` with finite_t: closed-form and Monte Carlo bounds per SNR."""

    kind, command = "bound_sweep", "bounds"
    metrics = ("hrcrb_theta", "ahrcrb_d", "hrcrb_theta_mc", "finite_t_hrcrb_d")

    def finish(self, records):
        _same_digests(records, self.fails)
        rows = csvio.parse_results_csv(self.out)
        want = {(float(s), metric) for s in self.spec["snr_db"] for metric in self.metrics}
        got = {(r.snr_db, r.metric) for r in rows}
        self.fails.check(got == want and len(rows) == len(want),
                         f"bounds.csv rows {sorted(got)} differ from {sorted(want)}")
        self.fails.check(all(math.isfinite(r.value) and r.value > 0 for r in rows),
                         "bounds.csv has a non-positive or non-finite bound")
        return {"bound_sweep_s": _median(records)}


class VerifyJob:
    """`asyncsense verify --trials N --seed S`, then criterion 8's sufficiency ratio."""

    kind = "verify"

    def __init__(self, workdir, spec, fails):
        self.spec = spec
        self.fails = fails
        self.checks = 0
        self.passed = 0
        self._round(spec["warmup_trials"], 1000)

    def _round(self, trials, sufficiency_trials):
        seed = str(self.spec["seed"])
        code, out = _quiet_cli(["verify", "--trials", str(trials), "--seed", seed])
        rep = ofdm.sufficiency_check(2, 2, 4, 2, sigma2=0.8, trials=sufficiency_trials,
                                     seed=self.spec["seed"])
        return code, out, rep

    def request(self, i):
        t0 = time.perf_counter()
        code, out, rep = self._round(self.spec["trials"], self.spec["sufficiency_trials"])
        wall = time.perf_counter() - t0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        failed = sum(ln.startswith("FAIL") for ln in lines)
        ratio_ok = abs(rep.ratio - 1.0) < SUFFICIENCY_RATIO_TOL
        self.fails.check(code == 0, f"`asyncsense verify` exited {code}")
        self.fails.check(bool(lines) and failed == 0, f"{failed} verify checks FAILED")
        self.fails.check(ratio_ok, f"sufficiency ratio {rep.ratio:.4f} outside 1 +- 0.05")
        self.checks += len(lines) + 1
        self.passed += len(lines) - failed + ratio_ok
        digest = hashlib.sha256((out + repr(rep.ratio)).encode()).hexdigest()
        return self.kind, wall, digest, len(lines) + 1, failed + (not ratio_ok)

    def finish(self, records):
        _same_digests(records, self.fails)
        return {"verify_s": _median(records),
                "verify_pass_frac": (self.passed / self.checks, self.checks)}


def _same_digests(records, fails):
    for rec in records[1:]:
        fails.check(rec[2] == records[0][2], f"{rec[0]} output changed between repeats")


JOBS = {job.kind: job for job in (CampaignJob, CrbJob, FimCliJob, BoundSweepJob, VerifyJob)}


# ---------------------------------------------------------------------------

def run(jobs, plan, seconds, trace, fails, workdir):
    """Main cycle for `seconds`, with the probe requests spread evenly over it.

    Untraced, the main cycle runs at least plan["min_main"] requests, and a
    request starts only if the last one of its kind fits in the time left;
    probe j is due at (j + 1/2) / n_probes of the run, and any left over run
    at the end.  Traced, every request runs untraced and then traced, so the
    overhead is a paired difference and the two outputs must match.
    """
    tracer = tracing.Tracer() if trace else None
    records = defaultdict(list)                    # untraced, by kind
    traced_records = []
    untraced_walls = []                            # whole request() calls, paired with roots
    count = defaultdict(int)

    def untraced(kind, i):
        t0 = time.perf_counter()
        rec = jobs[kind].request(i)
        records[kind].append(rec)
        return rec, time.perf_counter() - t0

    def traced(kind, i):
        tracer.install()
        try:
            with tracer.request(kind):
                rec = jobs[kind].request(i)
        finally:
            tracer.uninstall()
        traced_records.append(rec)
        root = tracer.spans[tracer.roots[-1]]
        return rec, root[tracing.END] - root[tracing.START]

    def do(kind):
        i = count[kind]
        count[kind] += 1
        if not trace:
            return untraced(kind, i)[1]
        # alternate which run goes first, so warm caches favour neither side
        first, second = (untraced, traced) if i % 2 == 0 else (traced, untraced)
        (rec_a, wall_a), (rec_b, wall_b) = first(kind, i), second(kind, i)
        fails.check(rec_a[2] == rec_b[2], f"traced {kind} request {i} output differs from untraced")
        untraced_walls.append(wall_a if first is untraced else wall_b)
        return wall_a + wall_b

    rounds = itertools.zip_longest(*([kind] * reps for kind, reps in plan["probes"]))
    probes = [kind for group in rounds for kind in group if kind]    # round-robin
    due = [seconds * (j + 0.5) / len(probes) for j in range(len(probes))]
    cycle = plan["main"]
    min_main = len(cycle) if trace else plan["min_main"]
    last = {}
    start = time.perf_counter()
    i = j = 0
    while True:
        while j < len(probes) and time.perf_counter() - start >= due[j]:
            do(probes[j])
            j += 1
        kind = cycle[i % len(cycle)]
        if i >= min_main and seconds - (time.perf_counter() - start) < last.get(kind, 0.0):
            break
        last[kind] = do(kind)
        i += 1
    for kind in probes[j:]:
        do(kind)

    metrics = {}
    for kind, recs in records.items():
        metrics.update(jobs[kind].finish(recs))
    every = [r for recs in records.values() for r in recs] + traced_records
    if trace:
        tracer.write(os.path.join(workdir, "spans.json"))
        metrics = {k: (v, None) for k, v in tracing.layer_metrics(tracer, untraced_walls).items()}
    return metrics, sum(r[3] for r in every), sum(r[4] for r in every)


def environment():
    """CPU count, versions and the BLAS thread count of this process."""
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv):
    workdir, seconds, trace, role = argv
    path = os.path.join(workdir, "inputs.json")
    with open(path) as fh:
        plan = json.load(fh)
    fails = Failures()
    jobs = {kind: JOBS[kind](workdir, spec, fails) for kind, spec in plan["jobs"].items()}
    print("READY", flush=True)
    if role == "setup":
        return 0
    metrics, attempted, failed = run(jobs, plan, float(seconds), trace == "1", fails, workdir)
    result = {"metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": list(fails), "environment": environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    tmp = os.path.join(workdir, "result.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, os.path.join(workdir, "result.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
