"""Self-check of the benchmark itself.

    python3 benchmark/selfcheck.py [--seed N]

For each workload, runs the first operation of every kind once untraced
and twice traced, and fails (exit 1) unless no operation failed, the three
runs returned identical outputs (the wrappers change no result), and the
two traced runs made identical counts.
"""

from __future__ import annotations

import argparse
import signal
import sys

import run

run.import_sphtri()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, run._on_alarm)
    ok = True
    for name, workload in WORKLOADS.items():
        ops, _ = workload.build(args.seed)
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        sample = list(first.values())

        order = range(len(sample))
        plain = run.Recorder(len(sample))
        plain.run(sample, order)
        traced = []
        for _ in range(2):
            tracer, rec = tracing.Tracer(), run.Recorder(len(sample))
            tracer.install()
            try:
                rec.run(sample, order)
            finally:
                tracer.uninstall()
            traced.append((rec, dict(tracer.counts)))

        failures = plain.failures + traced[0][0].failures + traced[1][0].failures
        same_outputs = plain.outputs == traced[0][0].outputs == traced[1][0].outputs
        same_counts = traced[0][1] == traced[1][1]
        passed = not failures and same_outputs and same_counts
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {len(sample)} operation kinds, "
              f"{len(failures)} failed, outputs identical {same_outputs}, "
              f"counts identical {same_counts}")
        for kind, why in failures:
            print(f"  {kind}: {why}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
