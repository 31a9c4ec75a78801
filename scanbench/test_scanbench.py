"""The benchmark's own tests: tiny workloads, and checks that reject bad output.

    python3 -m pytest scanbench -q

Each workload runs one round at the "tiny" size and must pass its checks;
then one output at a time is corrupted (a score moved by 1e-6, a threshold
shifted, a risk off by 0.1, a decision flipped) and the checks must fail.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout()

from checks import check_packing, type1_in_law  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    out = {}
    for name, cls in WORKLOADS.items():
        bench = cls(7, "tiny", tmp_path_factory.mktemp(name))
        out[name] = (bench, bench.round().outputs)
    return out


def failures(rounds, name, corrupt):
    bench, outputs = rounds[name]
    outputs = copy.deepcopy(outputs)
    corrupt(outputs)
    return bench.check(outputs, first=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_round_passes_its_checks(rounds, name):
    bench, outputs = rounds[name]
    assert bench.check(outputs, first=True) == []


def _bump(row, key, delta):
    return dataclasses.replace(row, **{key: getattr(row, key) + delta})


# -- oracle-risk ---------------------------------------------------------------


def test_oracle_rejects_risk_off(rounds):
    def corrupt(out):
        out["rows"][1] = _bump(out["rows"][1], "risk", 0.1)

    assert any("2*Phibar" in f for f in failures(rounds, "oracle-risk", corrupt))


def test_oracle_rejects_score_perturbed(rounds):
    def corrupt(out):
        stat, thr, dec = out["decisions"][3]
        out["decisions"][3] = (stat + 1e-6, thr, dec)

    assert any("own sum" in f for f in failures(rounds, "oracle-risk", corrupt))


def test_oracle_rejects_threshold_shifted(rounds):
    def corrupt(out):
        stat, thr, dec = out["decisions"][0]
        out["decisions"][0] = (stat, thr + 0.25, dec)

    assert any("threshold" in f for f in failures(rounds, "oracle-risk", corrupt))


def test_oracle_rejects_decision_flipped(rounds):
    def corrupt(out):
        stat, thr, dec = out["decisions"][5]
        out["decisions"][5] = (stat, thr, not dec)

    assert failures(rounds, "oracle-risk", corrupt)


# -- multiscale-thick ----------------------------------------------------------


def test_multiscale_rejects_score_perturbed(rounds):
    def corrupt(out):
        out["decisions"][0]["statistic"] += 1e-6

    assert any("statistic" in f for f in failures(rounds, "multiscale-thick", corrupt))


def test_multiscale_rejects_threshold_shifted(rounds):
    def corrupt(out):
        thresholds = out["decisions"][1]["scale_thresholds"]
        thresholds[min(thresholds)] += 0.1

    assert any("threshold" in f for f in failures(rounds, "multiscale-thick", corrupt))


def test_multiscale_rejects_risk_off(rounds):
    def corrupt(out):
        out["rows"][1] = _bump(out["rows"][1], "risk", 0.1)

    assert any("type1 + type2" in f for f in failures(rounds, "multiscale-thick", corrupt))


def test_multiscale_rejects_decision_flipped(rounds):
    def corrupt(out):
        out["decisions"][0]["decision"] = not out["decisions"][0]["decision"]

    assert failures(rounds, "multiscale-thick", corrupt)


def test_packing_check_rejects_close_members(rounds):
    bench, outputs = rounds["multiscale-thick"]
    members = [np.asarray(c.ids) for c in outputs["nets"][5].members]
    assert check_packing({5: members}, 0.5, bench.m, len(members), seed=1) == []
    near = members[:1] + members  # a member admitted twice sits at delta 0
    assert any("apart" in f for f in check_packing({5: near}, 0.5, bench.m, len(near), seed=1))


# -- cli-spacetime -------------------------------------------------------------


def _shift(row, key, delta):
    row[key] = repr(float(row[key]) + delta)


def test_cli_rejects_score_perturbed(rounds):
    def corrupt(out):
        _shift(out["tests"][0], "statistic", 1e-6)

    assert any("own sum" in f for f in failures(rounds, "cli-spacetime", corrupt))


def test_cli_rejects_threshold_shifted(rounds):
    def corrupt(out):
        _shift(out["tests"][1], "threshold", -0.5)

    assert any("calibration says" in f for f in failures(rounds, "cli-spacetime", corrupt))


def test_cli_rejects_risk_off(rounds):
    def corrupt(out):
        _shift(out["sweep"][-1], "risk", 0.1)

    assert any("type1 + type2" in f for f in failures(rounds, "cli-spacetime", corrupt))


def test_cli_rejects_decision_flipped(rounds):
    def corrupt(out):
        row = out["tests"][0]
        row["decision"] = "accept" if row["decision"] == "reject" else "reject"

    assert failures(rounds, "cli-spacetime", corrupt)


def test_cli_rejects_nonzero_exit(rounds):
    def corrupt(out):
        out["codes"]["netbuild"] = 2

    assert failures(rounds, "cli-spacetime", corrupt) == ["scanlab netbuild exited 2"]


# -- laws and the command ------------------------------------------------------


def test_type1_law_region():
    assert type1_in_law(0.05, 200, 199, 0.05) == []
    assert type1_in_law(0.3, 200, 199, 0.05)
    assert type1_in_law(0.05 + 1 / 400, 200, 199, 0.05)  # not a count over 200 nulls


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", f"{run.HERE.name}/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_traced_tiny_run_reports_every_layer():
    result = run.run("cli-spacetime", 3, 0.0, trace=True, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for key in ("cli.sweep.busy_s", "growth.scan_spacetime_cylinders.busy_s",
                "clusters.enumerate_bands.busy_s", "models.load_field.busy_s"):
        assert values[key] > 0, key


def test_untraced_tiny_run_reports_end_to_end():
    result = run.run("oracle-risk", 3, 0.0, trace=False, size="tiny")
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"), "--workload", "oracle-risk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
