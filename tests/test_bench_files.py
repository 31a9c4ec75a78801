"""The schema of every committed BENCH_<n>.json (written by tools/bench_record.py)."""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_bench_zero_is_committed():
    assert ROOT / "BENCH_0.json" in BENCH


@pytest.mark.parametrize("path", BENCH, ids=lambda p: p.name)
def test_bench_file_schema(path):
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert path.name == f"BENCH_{data['pr']}.json"
    assert re.fullmatch(r"[0-9a-f]{7,40}", data["git_sha"])
    assert isinstance(data["src_lines"], int) and data["src_lines"] > 0
    assert isinstance(data["machine"]["nproc"], int) and data["machine"]["blas_threads"]
    assert {"python", "numpy", "scipy"} <= set(data["versions"])
    assert data["seeds"] and all(isinstance(s, int) for s in data["seeds"])
    assert data["seconds"] > 0
    assert set(data["workloads"]) == WORKLOADS
    for workload in data["workloads"].values():
        assert workload["runs"] == len(data["seeds"]) == workload["correct"]
        assert workload["failed"] == 0
        assert set(workload["metrics"]) <= set(END_TO_END)
        for name, m in workload["metrics"].items():
            assert m["unit"] == END_TO_END[name]["unit"]
            assert len(m["values"]) == workload["runs"]
            assert m["q1"] <= m["median"] <= m["q3"] and math.isclose(m["iqr"], m["q3"] - m["q1"])
    against = data.get("against")
    if against is not None:
        parent = json.loads((ROOT / against["file"]).read_text())
        assert parent["seeds"] == data["seeds"] and parent["seconds"] == data["seconds"]
        for workload, metrics in against["delta"].items():
            for name, d in metrics.items():
                assert d["parent_median"] == parent["workloads"][workload]["metrics"][name]["median"]
                assert d["median"] == data["workloads"][workload]["metrics"][name]["median"]
                assert 0 <= d["better_pairs"] <= d["pairs"] == data["workloads"][workload]["runs"]
