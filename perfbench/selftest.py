#!/usr/bin/env python3
"""Toy-scale self-test of the benchmark.

Run from anywhere: python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract, then runs every
workload it names at toy scale (--txns 1500, one second), untraced and
traced. Each run must exit 0, pass its correctness gate, and print as
its last line exactly the metrics BENCHMARK.json lists for that mode,
each with its unit and a finite value.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
METRIC_KEYS = {"name", "unit", "better", "bound"}


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(a) <= 200 and not a.startswith("/") and ".." not in a for a in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.fullmatch(w["name"]), w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w
        names.append(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == METRIC_KEYS and m["better"] in ("higher", "lower"), m
        assert 0 < m["bound"] <= 0.25, m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == METRIC_KEYS - {"bound"} and m["better"] in ("higher", "lower"), m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        names.append(m["name"])
    assert len(names) == len(set(names)), "names must be unique"


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--txns", "1500"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(want), f"metrics differ: {set(got) ^ set(want)}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, (name, got[name])
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    if not trace:
        assert all(got[m]["value"] > 0 for m in want), got
    print(f"ok  {workload:14} trace={trace} attempted={result['attempted']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            run(spec, w["name"], trace)
    print("self-test passed")


if __name__ == "__main__":
    sys.exit(main())
