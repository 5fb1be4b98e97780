"""Run one sphtri benchmark workload and print its metrics.

    python3 benchmark/run.py --workload mc-oracle --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, nothing needs installing. One process runs one workload on one
thread as a closed loop with a single caller: each operation starts when
the previous one has returned and been checked. ``--workload all`` runs
the four workloads in turn, each in its own process, and prints a table.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of BENCHMARK.json, and the spans are written to
``.bench_out/spans-<workload>-seed<seed>.json``. See NOTES.md.
"""

from __future__ import annotations

import os

# One thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mc-oracle", "perimeter-law", "conditional-routes", "verify-cli")
SETUP_DEADLINE_S = 40.0
# No operation or later set-up starts after this many seconds from the
# process start. With deadlines of at most 40 s, a run of slow or hanging
# operations still exits within three minutes.
HARD_STOP_S = 120.0
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples above it

clock = time.perf_counter
PROCESS_START = clock()


class DeadlineExceeded(Exception):
    """An operation ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def fail(message: str, code: int = 2):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


SRC = ROOT / "src"
# Prints the seconds a fresh interpreter takes to import sphtri.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sphtri; print(time.perf_counter() - t)")


def import_sphtri() -> None:
    """Import the package from the checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import sphtri
    except ImportError as e:
        fail(f"cannot import sphtri from {SRC}: {e}")
    if not Path(sphtri.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"sphtri imported from {sphtri.__file__}, not from {SRC}")


def fresh_import_s() -> float:
    """Seconds a new process takes to import sphtri (numpy included)."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, timeout=60, check=True)
    return float(probe.stdout)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Recorder:
    """Latencies, failures and outputs of the operations of a run."""

    def __init__(self, n_ops: int, stop_at: float = float("inf")):
        self.stop_at = stop_at
        self.samples: list[list[float]] = [[] for _ in range(n_ops)]  # per operation
        self.failures: list[tuple[str, str]] = []
        self.outputs: list[object] = []
        self.cut = False  # an operation was skipped at stop_at

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    def run(self, ops, order) -> None:
        """Run ops[i] for each i of order, each under its own deadline."""
        for i in order:
            if clock() > self.stop_at:
                self.cut = True
                return
            op = ops[i]
            start = clock()
            try:
                with deadline(op.deadline_s):
                    out = op.fn()
            except Exception as e:  # a raise, a missed deadline or a failed check
                out = None
                self.failures.append((op.kind, f"{type(e).__name__}: {e}"))
            self.samples[i].append(clock() - start)
            self.outputs.append(out)

    def summary(self) -> dict:
        """pass_s, op_p50_ms and op_tail_ms, each operation at its fastest repetition.

        Every sample stands in for its operation with that fastest time, so
        an operation weighs in op_p50_ms and op_tail_ms by how often it ran.
        """
        best = {i: min(s) for i, s in enumerate(self.samples) if s}
        # (time, operation index) of every sample, fastest first
        weighted = sorted((best[i], i) for i, s in enumerate(self.samples) for _ in s)
        if not weighted:
            weighted = [(clock() - PROCESS_START, -1)]
        tail_s, tail_pct = tail([t for t, _ in weighted])
        n = len(weighted)
        middle = weighted[(n - 1) // 2:n // 2 + 1]  # the one or two samples the median takes
        # Cut off before every operation ran: the time so far stands for the pass.
        pass_s = (math.fsum(best.values()) if len(best) == len(self.samples)
                  else clock() - PROCESS_START)
        return {"pass_s": pass_s, "op_p50_ms": statistics.median(t for t, _ in weighted) * 1e3,
                "op_tail_ms": tail_s * 1e3, "tail_pct": tail_pct, "samples": n,
                "p50_ops": sorted({i for _, i in middle}),
                "tail_op": weighted[max(n - TAIL_BEYOND - 1, 0)][1]}


def schedule(ops, rounds: int) -> list[list[int]]:
    """The segments of operation indices that make up an untraced run.

    In a round each long operation runs once, with a sweep over all the
    short operations before it and one after the last; a workload without
    long operations sweeps once a round. So the short operations, whose
    fastest repetitions set op_p50_ms, are timed many times and at moments
    spread over the whole run.
    """
    short = [i for i, op in enumerate(ops) if not op.long]
    long = [i for i, op in enumerate(ops) if op.long]
    one = [seg for i in long for seg in (short, [i])] + [short]
    return one * rounds


def run_all(args) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        rows.append((name, proc.returncode, json.loads(lines[-1]) if proc.returncode == 0 else None))
    print()
    for name, code, result in rows:
        if result is None:
            print(f"{name:20s} exited {code}")
            continue
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        cells.append(f"fail_frac {result['failed'] / result['attempted']:.6g}")
        print(f"{name:20s} " + "  ".join(cells))
    return 0 if all(code == 0 for _, code, _ in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    import_sphtri()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    setups = []  # (import, build) seconds of each set-up

    def set_up():
        try:
            import_s = fresh_import_s()
            t0 = clock()
            with deadline(SETUP_DEADLINE_S):
                built = workload.build(args.seed)
        except Exception as e:
            fail(f"set-up of {workload.name} failed: {type(e).__name__}: {e}", 1)
        setups.append((import_s, clock() - t0))
        return built

    ops, inputs = set_up()
    # The round count depends on --seconds and the reference machine only,
    # so every commit makes the same number of repetitions of each operation.
    rounds = max(workload.min_rounds, round(args.seconds / workload.nominal_round_s))
    if traced:  # rounds of one pass each, alternately untraced and traced
        segments = [list(range(len(ops)))] * rounds
    else:
        segments = schedule(ops, rounds)
    # The other set-ups are spread evenly over the run, so that setup_s
    # samples the whole run and not one moment of it. Their operations are
    # discarded. A traced run sets up once.
    n_setups = 1 if traced else workload.setups
    setups_before = [round((j + 1) * len(segments) / n_setups) for j in range(n_setups - 1)]
    stop_at = PROCESS_START + HARD_STOP_S
    rec, rec_traced = Recorder(len(ops), stop_at), Recorder(len(ops), stop_at)
    tracer = tracing.Tracer() if traced else None
    round_wall = [0.0] * rounds
    for i in range(len(segments) + 1):
        for _ in range(setups_before.count(i)):
            if clock() < stop_at:
                set_up()
        if i == len(segments):
            break
        r = i * rounds // len(segments)
        t0 = clock()
        if tracer is not None and r % 2 == 1:
            tracer.install()
            try:
                rec_traced.run(ops, segments[i])
            finally:
                tracer.uninstall()
        else:
            rec.run(ops, segments[i])
        round_wall[r] += clock() - t0
    complete = not (rec.cut or rec_traced.cut)
    # The fastest set-up, for the reason each operation counts at its fastest.
    setup_s = min(i + b for i, b in setups)

    # Host speed on a shared machine switches between a fast and a slow
    # state, about 1.5x apart, for seconds to tens of seconds at a time. So
    # each operation counts at its fastest repetition in the run: its cost
    # on the uncontended host. See NOTES.md.
    attempted = rec.attempted + rec_traced.attempted
    failed = len(rec.failures) + len(rec_traced.failures)
    summary = rec.summary()
    pass_s, p50_ms, tail_ms = summary["pass_s"], summary["op_p50_ms"], summary["op_tail_ms"]
    reps = sorted({len(s) for s in rec.samples})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"setup_s      {setup_s:.6g} s    (fastest of {len(setups)} set-ups, "
          f"import + build {[(round(i, 4), round(b, 4)) for i, b in setups]})")
    print(f"pass_s       {pass_s:.6g} s    (sum over {len(ops)} operations of each one's "
          f"fastest of {'/'.join(map(str, reps))} repetitions; "
          f"wall time of each round {[round(t, 4) for t in round_wall]})")
    print(f"op_p50_ms    {p50_ms:.6g} ms   (median of {summary['samples']} samples, "
          f"each at its operation's fastest)")
    print(f"op_tail_ms   {tail_ms:.6g} ms   (p{summary['tail_pct']:.4g} of "
          f"{summary['samples']} samples, {TAIL_BEYOND} above it)")
    print(f"peak_rss_mb  {rss_mb:.6g} MB")
    print(f"fail_frac    {failed / max(attempted, 1):.6g}      ({failed} of {attempted} operations)")
    for kind, why in (rec.failures + rec_traced.failures)[:10]:
        print(f"FAILED {kind}: {why}", file=sys.stderr)

    if traced:
        n_traced = rounds // 2
        layer = tracer.metrics(n_traced)
        traced_pass_s = rec_traced.summary()["pass_s"]
        layer["trace.pass_s"] = traced_pass_s
        layer["trace.overhead_s"] = traced_pass_s - pass_s
        unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
        if unknown:
            fail(f"BENCHMARK.json names per-layer metrics the tracer does not make: {unknown}")
        modules = {}
        for name, t in tracer.per_name().items():
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + t["self_s"] / n_traced
        traced_wall = statistics.mean(round_wall[1::2])
        print(f"traced pass_s {traced_pass_s:.6g} s (over {n_traced} traced passes), "
              f"overhead {layer['trace.overhead_s']:+.4g} s")
        for module, self_s in sorted(modules.items(), key=lambda kv: -kv[1]):
            print(f"  {module:14s} self {self_s:.6g} s per pass "
                  f"({100 * self_s / traced_wall:.1f}% of a traced pass's {traced_wall:.4g} s)")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"passes": n_traced, "metrics": layer,
                                          "spans": tracer.spans}))
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {"setup_s": setup_s, "pass_s": pass_s, "op_p50_ms": p50_ms,
                  "op_tail_ms": tail_ms, "peak_rss_mb": rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    provenance = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__, "git_rev": _git_rev(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "inputs": inputs, "operations_per_pass": len(ops),
        "samples": {"setup_s": len(setups), "rounds": rounds, "traced_passes": rounds // 2 if traced else 0,
                    "operations": attempted, "repetitions_per_operation": reps},
        "setup_samples_s": [i + b for i, b in setups], "round_wall_s": round_wall,
        "op_tail_percentile": summary["tail_pct"],
        "op_p50_from": [ops[i].kind for i in summary["p50_ops"] if i >= 0],
        "op_tail_from": ops[summary["tail_op"]].kind if summary["tail_op"] >= 0 else None, "complete": complete,
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
