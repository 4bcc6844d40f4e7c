"""Campaign configuration: JSON schema, validation, defaults, round-trip."""

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, asdict

from .exceptions import ConfigError

MODES = ("bounds-only", "estimator")
# each h_s mode's keys besides "mode"
H_S_KEYS = {"random": {"power"}, "fixed": {"re", "im"}}
H_S_MODES = tuple(H_S_KEYS)


def sigma2_from_snr_db(snr_db: float, p_d: float, m: int) -> float:
    """Invert SNR_dB = 10 log10(p_d * M / sigma2)."""
    return p_d * m / 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class HsSpec:
    """Static channel specification: campaign-level random draw or a fixed vector."""

    mode: str = "random"
    power: float = 1.0                 # per-antenna E|h_m|^2 for mode=random
    re: tuple = None                   # fixed vector, real parts
    im: tuple = None

    def __post_init__(self):
        if self.mode not in H_S_MODES:
            raise ConfigError(f"field 'h_s.mode': must be one of {H_S_MODES}, got {self.mode!r}")
        if self.mode == "random":
            _check_positive(self.power, "h_s.power")
        else:
            if self.re is None or self.im is None:
                raise ConfigError("field 'h_s': fixed mode needs 're' and 'im' lists")
            object.__setattr__(self, "re", _numbers(self.re, "h_s.re"))
            object.__setattr__(self, "im", _numbers(self.im, "h_s.im"))
            if len(self.re) != len(self.im):
                raise ConfigError("field 'h_s': 're' and 'im' must have equal length")


@dataclass(frozen=True)
class CampaignConfig:
    m: int = None
    t: int = None
    snr_db: tuple = None
    trials: int = None
    spacing: float = 0.5
    p_d: float = 1.0
    theta_d: float = 0.35
    h_s: HsSpec = field(default_factory=HsSpec)
    seed: int = 0
    mode: str = "estimator"
    finite_t: bool = False
    finite_t_trials: int = 2000       # retired: parsed and range-checked, changes no output
    mc_bound_trials: int = 20000
    phi_walk_std: float = 0.5

    def __post_init__(self):
        for name in ("m", "t", "snr_db", "trials"):
            if getattr(self, name) is None:
                raise ConfigError(f"field '{name}': required")
        _check_int(self.m, "m", minimum=2)
        _check_int(self.t, "t", minimum=2)
        _check_int(self.trials, "trials", minimum=1)
        _check_int(self.finite_t_trials, "finite_t_trials", minimum=2)
        _check_int(self.mc_bound_trials, "mc_bound_trials", minimum=2)
        _check_int(self.seed, "seed", minimum=0)
        object.__setattr__(self, "snr_db", _numbers(self.snr_db, "snr_db"))
        if len(self.snr_db) == 0:
            raise ConfigError("field 'snr_db': must be a non-empty list")
        for name in ("spacing", "p_d", "phi_walk_std"):
            _check_positive(getattr(self, name), name)
        for snr in self.snr_db:
            try:
                sigma2 = sigma2_from_snr_db(snr, self.p_d, self.m)
            except ArithmeticError:     # 10^(snr/10) overflows or underflows to 0
                sigma2 = math.nan
            if not 0.0 < sigma2 < math.inf:
                raise ConfigError(
                    f"field 'snr_db': {snr:g} dB gives no finite positive noise variance "
                    f"sigma2 = p_d * m / 10^(snr_db / 10) (p_d={self.p_d:g}, m={self.m})")
        if not (_is_number(self.theta_d) and abs(self.theta_d) < math.pi / 2):
            raise ConfigError(f"field 'theta_d': must lie in (-pi/2, pi/2), got {self.theta_d!r}")
        if self.mode not in MODES:
            raise ConfigError(f"field 'mode': must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.finite_t, bool):
            raise ConfigError(f"field 'finite_t': must be a boolean, got {self.finite_t!r}")
        if self.h_s.mode == "fixed" and len(self.h_s.re) != self.m:
            raise ConfigError(
                f"field 'h_s': fixed vector length {len(self.h_s.re)} does not match m={self.m}"
            )


def _check_int(value, name, minimum):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"field '{name}': must be an integer >= {minimum}, got {value!r}")


def _is_number(value) -> bool:
    """A real number within the float range; JSON's true, false and strings are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_positive(value, name):
    if not (_is_number(value) and value > 0):
        raise ConfigError(f"field '{name}': must be a positive number, got {value!r}")


def _numbers(values, name) -> tuple:
    """A list field's entries as floats; each must be a finite number."""
    if not (isinstance(values, (list, tuple)) and all(map(_is_number, values))):
        raise ConfigError(f"field '{name}': must be a list of finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def config_to_dict(cfg: CampaignConfig) -> dict:
    d = asdict(cfg)
    d["snr_db"] = list(cfg.snr_db)
    h = {"mode": cfg.h_s.mode}
    if cfg.h_s.mode == "random":
        h["power"] = cfg.h_s.power
    else:
        h["re"] = list(cfg.h_s.re)
        h["im"] = list(cfg.h_s.im)
    d["h_s"] = h
    return d


def config_to_json(cfg: CampaignConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)


def emit_config(cfg: CampaignConfig, path: str):
    with open(path, "w", newline="") as fh:
        fh.write(config_to_json(cfg) + "\n")


def _from_dict(raw: dict) -> CampaignConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    known = set(CampaignConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")
    kwargs = dict(raw)
    if "h_s" in kwargs:
        h = kwargs["h_s"]
        if not isinstance(h, dict):
            raise ConfigError("field 'h_s': must be an object")
        h_unknown = set(h) - {"mode"}.union(*H_S_KEYS.values())
        if h_unknown:
            raise ConfigError(f"unknown field(s) in 'h_s': {', '.join(sorted(h_unknown))}")
        kwargs["h_s"] = HsSpec(**h)
        misplaced = set(h) - {"mode", *H_S_KEYS[kwargs["h_s"].mode]}
        if misplaced:
            raise ConfigError(f"field 'h_s': mode {kwargs['h_s'].mode!r} does not use "
                              f"{', '.join(sorted(misplaced))}")
    return CampaignConfig(**kwargs)


def parse_config(path: str) -> CampaignConfig:
    """Load, validate, and default-fill a campaign config; unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8 text (byte {err.start})")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON (line {err.lineno}, col {err.colno}): {err.msg}")
    return _from_dict(raw)
