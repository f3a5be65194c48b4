"""Run all three workloads, the gate self-check and the traced runs; print one table.

    python3 perfbench/check.py

Each workload runs as its own ``perfbench/run.py`` process, with seed 0 and
for the ``run_seconds`` of ``BENCHMARK.json``.  The table shows ``sweep_s``,
``setup_s``, ``peak_rss_mb`` and ``fail_share`` with units.  Then
``singular_sweep`` runs once more with matstrata's hidden ``--inject-fault``
flag, and must come out failed with ``fail_share > 0``: this shows that the
gate can fail.  Last, each workload gets a traced run, checked for the
per-layer expectations in ``perfbench/README.md`` (no Toeplitz check outside
``jordan_sweep`` and under 10 % of the traced sweep left unattributed).
Exit code 0 when every run is as expected.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
SEED = 0
WORKLOADS = ("jordan_sweep", "eigen_sweep", "singular_sweep")
MAX_UNATTRIBUTED = 0.10


def run(workload: str, seconds: int, trace: int, *extra: str) -> tuple[int, dict]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(argv, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else {}


def main() -> int:
    problems = []

    print(f"{'workload':<16} {'sweep_s':>10} {'setup_s':>10} {'peak_rss_mb':>12} {'fail_share':>12}")
    for workload in WORKLOADS:
        code, result = run(workload, SECONDS, 0)
        if code != 0 or not result.get("correct"):
            problems.append(f"{workload}: exit code {code}, result {result}")
            continue
        m = {name: v["value"] for name, v in result["metrics"].items()}
        fail_share = result["failed"] / result["attempted"]
        print(f"{workload:<16} {m['sweep_s']:>8.3f} s {m['setup_s']:>8.3f} s "
              f"{m['peak_rss_mb']:>9.1f} MB {fail_share:>6.4f} share")

    code, result = run("singular_sweep", 1, 0, "--inject-fault")
    fail_share = result["failed"] / result["attempted"] if result else float("nan")
    print(f"gate self-check (--inject-fault): exit code {code}, correct {result.get('correct')}, "
          f"fail_share {fail_share:.6f} share")
    if code == 0 or result.get("correct") is not False or not fail_share > 0:
        problems.append("an injected fault was not reported as a failure")

    for workload in WORKLOADS:
        code, result = run(workload, SECONDS, 1)
        m = {name: v["value"] for name, v in result.get("metrics", {}).items()}
        if code != 0 or not m:
            problems.append(f"{workload} traced: exit code {code}")
            continue
        toeplitz = m["commutant.verify_toeplitz_structure.calls"]
        print(f"{workload:<16} traced: overhead x{m['trace.overhead_ratio']:.3f}, "
              f"unattributed {m['trace.unattributed_share']:.2%}, Toeplitz calls {toeplitz:.0f}, "
              f"missing functions {m['trace.missing_functions']:.0f}")
        if m["trace.unattributed_share"] >= MAX_UNATTRIBUTED:
            problems.append(f"{workload}: unattributed time {m['trace.unattributed_share']:.2%}")
        if workload != "jordan_sweep" and toeplitz:
            problems.append(f"{workload}: Toeplitz check ran {toeplitz:.0f} times")

    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
