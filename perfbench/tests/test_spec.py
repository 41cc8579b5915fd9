"""BENCHMARK.json agrees with perfbench/spec.py and with the format rules."""

import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_spec_defines():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert bench["workloads"] == [{"name": name, "why": w["why"]}
                                  for name, w in spec.WORKLOADS.items()]
    assert bench["end_to_end"] == spec.END_TO_END
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, *_ in spec.PER_LAYER]


def test_names_units_and_bounds_follow_the_rules():
    bench = load()
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= bench["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_layer_map_names_known_metrics_and_workloads():
    end_to_end = {m["name"] for m in spec.END_TO_END + spec.WORKLOAD_METRICS}
    for name, _, _, moves, workloads in spec.PER_LAYER:
        assert moves == "none" or set(moves.split("/")) <= end_to_end, name
        assert set(workloads) <= set(spec.WORKLOADS), name
    for m in spec.WORKLOAD_METRICS:
        assert set(m["workloads"]) <= set(spec.WORKLOADS)
