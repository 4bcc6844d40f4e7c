"""Byte identity: the CLI's outputs for fixed configs and seeds match a committed manifest.

``bytes.sha256`` holds one sha256 digest per output, in ``sha256sum`` format.
A change that moves an output's bytes on purpose updates that output's line
and names the reason.  The campaign entry runs in two subprocesses, with BLAS
pinned to one thread and unpinned, since its bytes must not depend on the
thread count.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from asyncsense.cli import main

MANIFEST = pathlib.Path(__file__).with_name("bytes.sha256")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# criterion 7's scenario at desk scale, with the finite-T bound rows
CRITERION_7 = {"m": 8, "t": 128, "snr_db": [0.0, 10.0, 20.0], "trials": 60,
               "seed": 20240817, "finite_t": True}
SCENARIO = {"m": 6, "t": 48, "snr_db": [10.0], "trials": 1, "seed": 77}
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _manifest() -> dict:
    lines = MANIFEST.read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def _digest(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def _config(tmp_path, name, cfg) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_outputs_match_the_manifest(tmp_path, capsys):
    c7 = _config(tmp_path, "c7.json", CRITERION_7)
    scenario = _config(tmp_path, "scenario.json", SCENARIO)
    assert main(["bounds", "--config", c7, "--out", str(tmp_path / "bounds.csv")]) == 0
    assert main(["fim", "--config", scenario, "--out", str(tmp_path / "fim.csv")]) == 0
    assert main(["estimate", "--config", scenario, "--out", str(tmp_path / "estimate.csv")]) == 0
    capsys.readouterr()
    got = {name: _digest(tmp_path / name)
           for name in ("bounds.csv", "fim.csv", "fim.crb.csv", "estimate.csv")}
    # the desk-scale run, and the scale of the acceptance tests and the benchmark
    for name, trials, seed in (("verify.stdout", "2000", "5"),
                               ("verify-10000.stdout", "10000", "0")):
        assert main(["verify", "--trials", trials, "--seed", seed]) == 0
        got[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    want = _manifest()
    assert {name: want[name] for name in got} == got


@pytest.mark.parametrize("blas", ["pinned", "unpinned"])
def test_campaign_bytes_match_the_manifest_at_any_blas_thread_count(tmp_path, blas):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    if blas == "pinned":
        env.update(dict.fromkeys(BLAS_THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "campaign.csv"
    done = subprocess.run([sys.executable, "-m", "asyncsense.cli", "montecarlo", "--config",
                           _config(tmp_path, "c7.json", CRITERION_7), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert _digest(out) == _manifest()["campaign.csv"]
