"""Command-line front end.

Subcommands: fim, bounds, estimate, montecarlo, verify.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification failure.
"""

import argparse
import errno
import os
import sys
from dataclasses import replace

import numpy as np

from . import campaign as camp
from .array_model import ArrayGeometry
from .config import CampaignConfig, config_to_json, parse_config
from .csvio import ResultRow, emit_csv, read_csi_csv, write_matrix_csv
from .estimator import run_estimator
from .exceptions import ConfigError, EstimationStageError
from .fisher import constrained_crb, constraint_basis, joint_fim

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="asyncsense",
                     description="Bounds and reference estimation for asynchronous passive sensing")
    sub = parser.add_subparsers(dest="command", required=True)

    def writer(name, text, handler, out):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="campaign config JSON")
        p.add_argument("--out", default=out, help="output CSV path (default: %(default)s)")
        p.set_defaults(handler=handler)
        return p

    writer("fim", "dump the joint FIM and constrained CRB for a scenario", _cmd_fim, "fim.csv")
    writer("bounds", "closed-form + Monte Carlo bounds over the SNR grid", _cmd_campaign,
           "bounds.csv")
    p_est = writer("estimate", "run the estimation pipeline on one CSI block", _cmd_estimate,
                   "estimate.csv")
    p_est.add_argument("--csi", default=None,
                       help="CSI CSV (M rows x 2T interleaved re,im); synthesized when omitted")
    writer("montecarlo", "full bound-vs-MSE campaign", _cmd_campaign, "campaign.csv")
    p_ver = sub.add_parser("verify", help="run the numerical property suites")
    p_ver.add_argument("--trials", type=int, default=2000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def _crb_path(out: str) -> str:
    return out[:-4] + ".crb.csv" if out.endswith(".csv") else out + ".crb.csv"


def _check_outputs(args):
    """Raise the OSError that opening an output of `args` for writing would, creating nothing."""
    for path in (args.out, _crb_path(args.out)) if args.command == "fim" else (args.out,):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _load_config(args) -> CampaignConfig:
    """The config the command runs, echoed to stderr: `bounds` runs its bounds-only form."""
    cfg = parse_config(args.config)
    if args.command == "bounds":
        cfg = replace(cfg, mode="bounds-only")
    sys.stderr.write("# effective config:\n")
    for line in config_to_json(cfg).splitlines():
        sys.stderr.write(f"# {line}\n")
    return cfg


def _cmd_fim(args) -> int:
    cfg = _load_config(args)
    params = camp.scenario_from_config(cfg)
    geom = ArrayGeometry(cfg.m, cfg.spacing)
    fim = joint_fim(geom, params)
    basis = constraint_basis(cfg.m, cfg.t)
    crb = constrained_crb(fim, basis)
    write_matrix_csv(fim.data, args.out)
    n = fim.data.shape[0]
    del fim  # the FIM's n x n array goes before the CRB's write table is mapped
    crb_out = _crb_path(args.out)
    write_matrix_csv(crb, crb_out)
    print(f"wrote joint FIM ({n}x{n}) to {args.out}")
    print(f"wrote constrained CRB to {crb_out}")
    return EXIT_OK


def _cmd_campaign(args) -> int:
    """`montecarlo` runs the configured campaign, `bounds` its bounds-only form."""
    cfg = _load_config(args)
    result = camp.run_campaign(cfg)
    emit_csv(result.rows, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    csi = read_csi_csv(args.csi) if args.csi else camp.estimate_input(cfg)
    est = run_estimator(csi, ArrayGeometry(cfg.m, cfg.spacing))
    # a --csi block comes with no theta_d, so the alias rule runs on the estimate
    camp.check_grating_lobe(cfg.spacing, est.theta_hat, "theta_hat")
    rows = [ResultRow(None, "theta_hat", est.theta_hat, None, 1, cfg.seed)]
    rows += [ResultRow(None, f"phi_hat_{t}", v, None, 1, cfg.seed)
             for t, v in enumerate(est.phi_hat)]
    rows += [ResultRow(None, f"d_hat_re_{t}", v.real, None, 1, cfg.seed)
             for t, v in enumerate(est.d_hat)]
    rows += [ResultRow(None, f"d_hat_im_{t}", v.imag, None, 1, cfg.seed)
             for t, v in enumerate(est.d_hat)]
    emit_csv(rows, args.out)
    print(f"theta_hat = {est.theta_hat:.6f} rad; wrote estimates to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = camp.run_verification(args.trials, args.seed)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<24} worst={c.worst:.3e}  threshold={c.threshold:.1e}")
    passed = all(c.passed for c in checks)
    print("all verification checks passed" if passed else "verification FAILED")
    return EXIT_OK if passed else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            if args.trials < 2:
                parser.error(f"argument --trials: must be at least 2, got {args.trials}")
            if args.seed < 0:
                parser.error(f"argument --seed: must be non-negative, got {args.seed}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "out" in args:  # before any FIM, bound or trial is computed
            _check_outputs(args)
        return args.handler(args)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return EXIT_USAGE
    except OSError as err:
        sys.stderr.write(f"file error: {err}\n")
        return EXIT_USAGE
    except MemoryError as err:
        sys.stderr.write(f"memory error: {err}\n")
        return EXIT_USAGE
    except (ArithmeticError, np.linalg.LinAlgError, EstimationStageError, RuntimeError) as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERICAL
    except ValueError as err:
        # inconsistent inputs (e.g. a CSI file that does not match the config)
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
