"""Span recorder that wraps asyncsense's public functions from outside.

Modules import functions by name (``from .estimator import run_estimator``),
so a function is replaced under every name a caller looks it up by: each
``asyncsense.*`` module attribute that holds the original object gets the
wrapper, and :meth:`Tracer.uninstall` puts the originals back.  Untraced
requests therefore run the program's own functions with no wrapper at all.

A span is ``[name, start, end, parent, trial, request, attr]``; spans stay in
memory and are written once, when the run ends.  Outcome counts the program
computes but discards (MUSIC diagnostics, the stage of an
``EstimationStageError``, Monte Carlo discard rates) are read from return
values and exceptions at the same boundaries.
"""

import contextlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in traced requests; rng and exceptions do
# no work worth timing.
TARGETS = (
    ("array_model", "draw_dynamic_gains"),
    ("array_model", "synthesize_csi"),
    ("estimator", "run_estimator"),
    ("estimator", "music_aoa"),
    ("estimator", "beamspace_basis"),
    ("estimator", "estimate_phase_offsets"),
    ("estimator", "estimate_cgs"),
    ("fisher", "joint_fim"),
    ("fisher", "fim_numeric_oracle"),
    ("fisher", "constraint_basis"),
    ("fisher", "constrained_crb"),
    ("fisher", "reordered_blocks"),
    ("fisher", "efim_theta_schur"),
    ("fisher", "efim_theta_closed"),
    ("fisher", "psi_block_inverse"),
    ("bounds", "rho_theta"),
    ("bounds", "hrcrb_theta"),
    ("bounds", "ahrcrb_cgs"),
    ("bounds", "finite_t_hrcrb_cgs"),
    ("bounds", "verify_hrcrb_chain"),
    ("ofdm", "sufficiency_check"),
    ("campaign", "run_campaign"),
    ("campaign", "run_verification"),
    ("campaign", "scenario_from_config"),
    ("config", "parse_config"),
    ("csvio", "emit_csv"),
    ("csvio", "write_matrix_csv"),
    ("cli", "main"),
)

NAME, START, END, PARENT, TRIAL, REQUEST, ATTR = range(7)

# A trial of a campaign starts with its gain draw inside run_campaign.
_TRIAL_OPENER = "array_model.draw_dynamic_gains"
_TRIAL_PARENT = "campaign.run_campaign"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._trial = -1
        self._request = -1
        self.roots = []
        self._patched = []
        self._wrappers = {}

    # -- recording -------------------------------------------------------
    def _open(self, name, attr=None):
        parent = self._stack[-1] if self._stack else -1
        if name == _TRIAL_OPENER and parent >= 0 and self.spans[parent][NAME] == _TRIAL_PARENT:
            self._trial += 1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._trial,
                           self._request, attr])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, kind):
        """One top-level request: a root span every other span nests in."""
        self._request += 1
        idx = self._open(f"bench.{kind}")
        self.roots.append(idx)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation ------------------------------------------------------
    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        open_span, close_span, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            span_name, attr = name, None
            if observe is not None:
                span_name, attr = observe.before(name, args, kwargs)
            idx = open_span(span_name, attr)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                close_span(idx)
                if observe is not None:
                    observe.error(counts, err)
                raise
            close_span(idx)
            if observe is not None:
                observe.after(self.spans[idx], counts, out, args, kwargs)
            return out

        return wrapper

    def install(self):
        originals = {}
        for mod, func in TARGETS:
            name = f"{mod}.{func}"
            fn = getattr(sys.modules[f"asyncsense.{mod}"], func)
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, fn)
            originals[id(fn)] = (fn, self._wrappers[name])
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "asyncsense" or modname.startswith("asyncsense.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trial", "request", "attr"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# per-function observers: span naming, attributes and outcome counts

class _Observer:
    def before(self, name, args, kwargs):
        return name, None

    def after(self, span, counts, out, args, kwargs):
        pass

    def error(self, counts, err):
        pass


class _Music(_Observer):
    def after(self, span, counts, out, args, kwargs):
        diag = out[1]
        counts["music.calls"] += 1
        counts["music.no_gap"] += not diag.has_dominant_gap
        counts["music.not_refined"] += not diag.refined


class _RunEstimator(_Observer):
    def after(self, span, counts, out, args, kwargs):
        counts["estimator.calls"] += 1

    def error(self, counts, err):
        counts["estimator.calls"] += 1
        stage = getattr(err, "stage", None)
        if stage is not None:
            counts[f"estimator.stage_failures.{stage}"] += 1


class _ConstrainedCrb(_Observer):
    def before(self, name, args, kwargs):
        n, k = args[1].u.shape
        return name, {"n": n, "k": k}


class _Discard(_Observer):
    def after(self, span, counts, out, args, kwargs):
        span[ATTR] = out.discard_rate


class _Hrcrb(_Discard):
    """Monte Carlo calls get their own span name; closed-form ones discard nothing."""

    def before(self, name, args, kwargs):
        mode = kwargs.get("mode", args[6] if len(args) > 6 else "closed-form")
        return (name + "_mc" if mode == "monte-carlo" else name), None


class _FileBytes(_Observer):
    def after(self, span, counts, out, args, kwargs):
        span[ATTR] = os.path.getsize(args[1])


_OBSERVERS = {
    "estimator.music_aoa": _Music(),
    "estimator.run_estimator": _RunEstimator(),
    "fisher.constrained_crb": _ConstrainedCrb(),
    "bounds.hrcrb_theta": _Hrcrb(),
    "bounds.finite_t_hrcrb_cgs": _Discard(),
    "csvio.emit_csv": _FileBytes(),
    "csvio.write_matrix_csv": _FileBytes(),
}


# ---------------------------------------------------------------------------
# computed kernel counts (from array shapes; cache misses are not counted)

def crb_kernel_counts(n, k):
    """Flops and bytes of constrained_crb's dense kernels for U (n x k), J (n x n).

    U^T J U as (U^T J) U; eigvalsh of the k x k core (Householder
    tridiagonalisation, 4/3 k^3); solve(core, U^T) (LU 2/3 k^3 plus 2 k^2 n
    for the n right-hand sides); and the closing U X product.  Bytes count
    each operand read once and each result written once, 8 bytes a value.
    """
    flops = (2 * k * n * n + 2 * k * k * n      # U^T J U
             + 4 * k ** 3 / 3                   # eigvalsh
             + 2 * k ** 3 / 3 + 2 * k * k * n   # solve
             + 2 * n * k * n)                   # U @ X
    values = ((n * k + n * n + k * n) + (k * n + n * k + k * k)   # U^T J U
              + (k * k + k)                                       # eigvalsh
              + (k * k + k * n + k * n)                           # solve
              + (n * k + k * n + n * n))                          # U @ X
    return float(flops), float(8 * values)


# ---------------------------------------------------------------------------
# per-layer metrics

def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _p99(xs):
    if not xs:
        return 0.0
    xs = sorted(xs)
    return float(xs[min(len(xs) - 1, math.ceil(0.99 * len(xs)) - 1)])


def layer_metrics(tracer, untraced_walls):
    """Every per-layer metric from one traced run.

    ``.us`` is the median per call in microseconds.  ``.s``, ``.bytes`` and
    ``.calls`` are totals per request of the kind that exercises the function
    (one sub-campaign, one CLI call, one verify round), as a median over those
    requests.  ``lib`` and ``cli`` split fisher calls made by the library step
    from those made inside the `fim` command.  Fractions and counts are over
    the whole traced run.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    in_cli = [False] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        parent = s[PARENT]
        if parent >= 0:
            child_time[parent] += s[END] - s[START]
            in_cli[i] = in_cli[parent]
        in_cli[i] = in_cli[i] or s[NAME] == "cli.main"
    kind_of = {spans[i][REQUEST]: spans[i][NAME][len("bench."):] for i in tracer.roots}

    def dur(i):
        return spans[i][END] - spans[i][START]

    def calls(name, cli=None):
        return [i for i in by_name.get(name, ()) if cli is None or in_cli[i] == cli]

    def us(name):
        return _median([dur(i) for i in calls(name)]) * 1e6

    def per_request(name, kind, value):
        totals = {r: 0.0 for r, k in kind_of.items() if k == kind}
        for i in calls(name):
            if spans[i][REQUEST] in totals:
                totals[spans[i][REQUEST]] += value(i)
        return _median(list(totals.values()))

    def frac(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    counts = tracer.counts
    lib_crb = calls("fisher.constrained_crb", cli=False)
    shape = spans[lib_crb[0]][ATTR] if lib_crb else None
    flops, nbytes = crb_kernel_counts(shape["n"], shape["k"]) if shape else (0.0, 0.0)
    failed = sum(v for k, v in counts.items() if k.startswith("estimator.stage_failures."))
    untraced = math.fsum(untraced_walls)
    traced = math.fsum(dur(i) for i in tracer.roots)
    self_sum = math.fsum(dur(i) - child_time[i] for i in range(len(spans)))
    one = lambda i: 1.0                 # noqa: E731
    attr = lambda i: spans[i][ATTR]     # noqa: E731

    m = {
        "estimator.music_aoa.us": us("estimator.music_aoa"),
        "estimator.music_aoa.us_p99": _p99([dur(i) for i in calls("estimator.music_aoa")]) * 1e6,
        "estimator.estimate_phase_offsets.us": us("estimator.estimate_phase_offsets"),
        "estimator.beamspace_basis.us": us("estimator.beamspace_basis"),
        "estimator.estimate_cgs.us": us("estimator.estimate_cgs"),
        "estimator.run_estimator.self_us":
            _median([dur(i) - child_time[i] for i in calls("estimator.run_estimator")]) * 1e6,
        "array_model.synthesize_csi.us": us("array_model.synthesize_csi"),
        "array_model.draw_dynamic_gains.us": us("array_model.draw_dynamic_gains"),
        "campaign.run_campaign.self_s": per_request(
            "campaign.run_campaign", "campaign", lambda i: dur(i) - child_time[i]),
        "estimator.no_eigen_gap_frac": frac("music.no_gap", "music.calls"),
        "estimator.refine_skipped_frac": frac("music.not_refined", "music.calls"),
        "estimator.useful_ratio":
            1.0 - failed / counts["estimator.calls"] if counts["estimator.calls"] else 0.0,
        "csvio.emit_csv.s": per_request("csvio.emit_csv", "campaign", dur),
        "csvio.emit_csv.bytes": per_request("csvio.emit_csv", "campaign", attr),
        "config.parse_config.s": per_request("config.parse_config", "campaign", dur),
        "fisher.constrained_crb.lib_s": per_request("fisher.constrained_crb", "crb", dur),
        "fisher.constrained_crb.cli_s": per_request("fisher.constrained_crb", "fim_cli", dur),
        "fisher.joint_fim.lib_s": per_request("fisher.joint_fim", "crb", dur),
        "fisher.constraint_basis.lib_s": per_request("fisher.constraint_basis", "crb", dur),
        "fisher.dense_dim": float(shape["n"]) if shape else 0.0,
        "fisher.constrained_crb.flops_computed": flops,
        "fisher.constrained_crb.bytes_computed": nbytes,
        "csvio.write_matrix_csv.s": per_request("csvio.write_matrix_csv", "fim_cli", dur),
        "csvio.write_matrix_csv.bytes": per_request("csvio.write_matrix_csv", "fim_cli", attr),
        "bounds.hrcrb_theta_mc.s": per_request("bounds.hrcrb_theta_mc", "bound_sweep", dur),
        "bounds.finite_t_hrcrb_cgs.s":
            per_request("bounds.finite_t_hrcrb_cgs", "bound_sweep", dur),
        "bounds.hrcrb_theta_mc.discard_rate": _mean_attr(spans, calls("bounds.hrcrb_theta_mc")),
        "bounds.finite_t_hrcrb_cgs.discard_rate":
            _mean_attr(spans, calls("bounds.finite_t_hrcrb_cgs")),
        "fisher.reordered_blocks.calls": per_request("fisher.reordered_blocks", "verify", one),
        "fisher.reordered_blocks.us": us("fisher.reordered_blocks"),
        "bounds.verify_hrcrb_chain.s": per_request("bounds.verify_hrcrb_chain", "verify", dur),
        "fisher.fim_numeric_oracle.s": per_request("fisher.fim_numeric_oracle", "verify", dur),
        "bounds.rho_theta.calls": per_request("bounds.rho_theta", "verify", one),
        "bounds.rho_theta.us": us("bounds.rho_theta"),
        "ofdm.sufficiency_check.s": per_request("ofdm.sufficiency_check", "verify", dur),
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.self_sum_over_untraced": self_sum / untraced,
    }
    for stage in ("music", "beamspace", "phase", "cgs"):
        m[f"estimator.stage_failures.{stage}"] = float(counts[f"estimator.stage_failures.{stage}"])
    return m


def _mean_attr(spans, idx):
    vals = [spans[i][ATTR] for i in idx if spans[i][ATTR] is not None]
    return math.fsum(vals) / len(vals) if vals else 0.0
