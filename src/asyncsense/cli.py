"""Command-line front end.

Subcommands: fim, bounds, estimate, montecarlo, verify.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification failure.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import campaign as camp
from .array_model import ArrayGeometry, synthesize_csi
from .config import CampaignConfig, config_to_json, parse_config
from .csvio import ResultRow, emit_csv, read_csi_csv, write_matrix_csv
from .estimator import EstimatorConfig, run_estimator
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

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="campaign config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")

    def writer(name, text):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--out", default=None, help="output CSV path")
        return p

    writer("fim", "dump the joint FIM and constrained CRB for a scenario")
    writer("bounds", "closed-form + Monte Carlo bounds over the SNR grid")
    p_est = writer("estimate", "run the estimation pipeline on one CSI block")
    p_est.add_argument("--csi", default=None,
                       help="CSI CSV (M rows x 2T interleaved re,im); synthesized when omitted")
    writer("montecarlo", "full bound-vs-MSE campaign")
    p_ver = sub.add_parser("verify", help="run the numerical property suites")
    common(p_ver, config_required=False)
    p_ver.add_argument("--trials", type=int, default=2000)
    return parser


def _load_config(args) -> CampaignConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
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
    out = args.out or "fim.csv"
    write_matrix_csv(fim.data, out)
    crb_out = out[:-4] + ".crb.csv" if out.endswith(".csv") else out + ".crb.csv"
    write_matrix_csv(crb, crb_out)
    print(f"wrote joint FIM ({fim.data.shape[0]}x{fim.data.shape[1]}) to {out}")
    print(f"wrote constrained CRB to {crb_out}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    result = camp.run_campaign(replace(cfg, mode="bounds-only"))
    out = args.out or "bounds.csv"
    emit_csv(result.rows, out)
    print(f"wrote {len(result.rows)} bound rows to {out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    geom = ArrayGeometry(cfg.m, cfg.spacing)
    if args.csi:
        csi = read_csi_csv(args.csi)
    else:
        camp.check_estimator_inputs(cfg)
        params = camp.scenario_from_config(cfg)
        csi = synthesize_csi(geom, params, camp._campaign_stream(cfg.seed, 5))
    est = run_estimator(csi, geom, EstimatorConfig(grid_points=cfg.grid_points))
    rows = [ResultRow(None, "theta_hat", est.theta_hat, None, 1, cfg.seed)]
    rows += [ResultRow(None, f"phi_hat_{t}", v, None, 1, cfg.seed)
             for t, v in enumerate(est.phi_hat)]
    rows += [ResultRow(None, f"d_hat_re_{t}", v.real, None, 1, cfg.seed)
             for t, v in enumerate(est.d_hat)]
    rows += [ResultRow(None, f"d_hat_im_{t}", v.imag, None, 1, cfg.seed)
             for t, v in enumerate(est.d_hat)]
    out = args.out or "estimate.csv"
    emit_csv(rows, out)
    print(f"theta_hat = {est.theta_hat:.6f} rad; wrote estimates to {out}")
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    cfg = _load_config(args)
    result = camp.run_campaign(cfg)
    out = args.out or "campaign.csv"
    emit_csv(result.rows, out)
    print(f"wrote {len(result.rows)} rows to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    """The property checks; --config supplies m, min(t, 8), p_d, spacing and seed."""
    if args.config:
        cfg = _load_config(args)
        report = camp.run_verification(m=cfg.m, t=min(cfg.t, 8), p_d=cfg.p_d,
                                       trials=args.trials, seed=cfg.seed, spacing=cfg.spacing)
    else:
        report = camp.run_verification(trials=args.trials,
                                       seed=args.seed if args.seed is not None else 0)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<24} worst={c.worst:.3e}  threshold={c.threshold:.1e}")
    if not report.ok:
        print("verification FAILED")
        return EXIT_VERIFY
    print("all verification checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "fim": _cmd_fim,
        "bounds": _cmd_bounds,
        "estimate": _cmd_estimate,
        "montecarlo": _cmd_montecarlo,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return EXIT_USAGE
    except FileNotFoundError as err:
        sys.stderr.write(f"file error: {err}\n")
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
