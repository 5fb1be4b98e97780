"""Write BENCH_<label>.json: the benchmark's metrics, CLI timings and the Tier-1 wall time.

    python3 scripts/bench_json.py --label before

Run from anywhere; it works on the checkout it lives in. For each workload
of BENCHMARK.json it runs ``benchmark/run.py --workload W --seed 1
--seconds <run_seconds>`` in its own process, once at ``--trace 0`` for
the end-to-end metrics and once at ``--trace 1`` for the per-layer ones.
It then times each CLI command of CLI_COMMANDS in a fresh process, best
of 3, and runs the Tier-1 tests once for their wall time.

The file holds the machine (nproc, Python, numpy), the git revision, the
seed and the workloads' inputs, and one row per end-to-end metric, per
traced layer metric and per CLI command. Every value is written as
measured, a layer metric that reads 0 included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
CLI_REPEATS = 3
# The CLI commands of ROADMAP.md's Baseline.
CLI_COMMANDS = (
    ("density", "--kind", "perimeter", "--from", "0", "--to", "6.283185307179586",
     "--steps", "500"),
    ("conditional", "--kind", "area_side_coords", "--kappa", "1.1", "--from", "0",
     "--to", "6.283185307179586", "--steps", "100"),
    ("sample", "--kind", "dual", "--n", "1000000"),
    ("verify", "--suite", "all", "--n", "10000"),
)
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}


def _run(args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=ROOT, env=_env(), text=True, **kwargs)


def _timed(args) -> tuple[float, int]:
    """Wall seconds and exit code of one process, its output discarded."""
    start = time.perf_counter()
    done = _run(args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, done.returncode


def _workload(name: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """The metrics line and the provenance of one benchmark run."""
    done = _run([sys.executable, "benchmark/run.py", "--workload", name, "--seed", str(SEED),
                 "--seconds", str(seconds), "--trace", str(trace)], capture_output=True)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark/run.py --workload {name} --trace {trace} exited "
                           f"{done.returncode}: {done.stderr[-500:]}")
    lines = done.stdout.splitlines()
    provenance = next(json.loads(line.removeprefix("provenance "))
                      for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def _git(*args) -> str:
    return _run(["git", *args], capture_output=True).stdout.strip()


def collect(label: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, workloads = [], {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "layer")):
            result, provenance = _workload(name, spec["run_seconds"], trace)
            workloads.setdefault(name, {"inputs": provenance["inputs"]})
            workloads[name][f"trace{trace}"] = {key: result[key]
                                                for key in ("correct", "attempted", "failed")}
            rows += [{"kind": kind, "workload": name, "metric": metric, **m}
                     for metric, m in result["metrics"].items()]
    for argv in CLI_COMMANDS:
        runs = [_timed([sys.executable, "-m", "sphtri.cli", *argv]) for _ in range(CLI_REPEATS)]
        rows.append({"kind": "cli", "command": "sphtri " + " ".join(argv), "metric": "best_s",
                     "value": min(t for t, _ in runs), "unit": "s",
                     "runs_s": [t for t, _ in runs], "exit_codes": [code for _, code in runs]})
    tier1_s, tier1_exit = _timed([sys.executable, *TIER1])
    return {
        "label": label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain")),
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
        "tier1": {"command": "python " + " ".join(TIER1), "wall_s": tier1_s, "exit_code": tier1_exit},
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(collect(args.label), indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
