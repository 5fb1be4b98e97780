"""scripts/bench_json.py writes the rows BENCHMARK.json declares, with every subprocess stubbed."""

import importlib.util
import json
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_json", ROOT / "scripts" / "bench_json.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_run(args, **kwargs):
    """benchmark/run.py's last two lines, git's answers, and exit 0 for the rest."""
    stdout = ""
    if "benchmark/run.py" in args:
        workload, trace = args[args.index("--workload") + 1], args[args.index("--trace") + 1]
        metrics = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
        provenance = {"workload": workload, "inputs": {"grid": [0.5, 1.0]}}
        stdout = "\n".join([f"workload {workload}", "provenance " + json.dumps(provenance),
                            json.dumps({"correct": True, "attempted": 7, "failed": 0, "metrics": {
                                m["name"]: {"value": 0, "unit": m["unit"]} for m in metrics}})])
    elif args[:2] == ["git", "rev-parse"]:
        stdout = "0123abc\n"
    return subprocess.CompletedProcess(args, 0, stdout=stdout, stderr="")


def test_bench_json_schema(monkeypatch):
    t0 = time.perf_counter()
    bench = _load_script()
    monkeypatch.setattr(bench.subprocess, "run", _fake_run)
    out = bench.collect("test")
    assert set(out) == {"label", "machine", "git_rev", "git_dirty", "seed", "run_seconds",
                        "workloads", "tier1", "rows"}
    assert set(out["machine"]) == {"nproc", "python", "numpy"}
    assert (out["git_rev"], out["git_dirty"], out["seed"]) == ("0123abc", False, 1)
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(out["workloads"]) == names
    assert all(set(w) == {"inputs", "trace0", "trace1"} for w in out["workloads"].values())
    for kind, metrics in (("end_to_end", SPEC["end_to_end"]), ("layer", SPEC["per_layer"])):
        rows = [(r["workload"], r["metric"], r["value"], r["unit"])
                for r in out["rows"] if r["kind"] == kind]
        # One row per workload and metric, a metric that reads 0 as it is.
        assert rows == [(w, m["name"], 0, m["unit"]) for w in names for m in metrics]
    cli = [r for r in out["rows"] if r["kind"] == "cli"]
    assert [r["command"] for r in cli] == ["sphtri " + " ".join(c) for c in bench.CLI_COMMANDS]
    assert all(len(r["runs_s"]) == bench.CLI_REPEATS and r["value"] == min(r["runs_s"])
               and r["exit_codes"] == [0] * bench.CLI_REPEATS for r in cli)
    assert out["tier1"]["exit_code"] == 0 and out["tier1"]["wall_s"] >= 0.0
    json.dumps(out)
    assert time.perf_counter() - t0 < 0.2
