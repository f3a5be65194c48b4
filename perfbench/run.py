"""Benchmark of ``matstrata verify``: three sweeps, end-to-end and traced.

Run from the repository root:

    python3 perfbench/run.py --workload jordan_sweep --seed 0 --seconds 30 --trace 0

One run is one fresh process.  It times interpreter start-up to
``import matstrata`` in child interpreters, each paired with one that
imports numpy alone, warms up on a small sweep, then repeats the
workload's full sweep through ``matstrata.cli.main`` until ``--seconds``
have passed, checking every report.  A fixed reference kernel is timed
between sweeps, and both timings are reported at reference speed, so that
the host's changing speed cancels out.  With ``--trace 1`` the untraced
sweeps alternate with sweeps whose layer functions are wrapped by
``layertrace``, and the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and the machine description.  The full result,
including the per-function trace, is also written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.  Exit code 0 means
every report passed the gate, 1 that at least one did not, and 2 that the
benchmark could not run here (for example, no ``src/matstrata`` beside it).

See ``perfbench/README.md`` for why these workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Pinned so that runs on a two-core machine measure one process, one core.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Pairs of child interpreters started per run to time ``import matstrata``.
SETUP_PROBES = 11

#: Seconds one reference kernel call takes at the reference speed: the
#: median on a 2-vCPU Intel Xeon (Sapphire Rapids) VM, one BLAS thread.
REFERENCE_S = 0.13
#: Reference kernel calls per speed reading; the reading is their median.
REFERENCE_CALLS = 3
#: Seconds a child interpreter takes to start and import numpy alone, at
#: the reference speed on the same machine.
REFERENCE_LAUNCH_S = 0.12


@dataclass(frozen=True)
class Workload:
    """Verify scopes making up one sweep, with the case count each must report.

    The counts follow from the profile enumerations at order 8, not from
    the seed, so a change in them is a change in what was verified.
    ``elasticity`` is the measured share of the reference kernel's speed
    changes that shows in the sweep (see ``perfbench/README.md``, Noise).
    """

    scopes: tuple[str, ...]
    cases: tuple[int, ...]
    elasticity: float = 1.0

    def calls(self, order: int = 8) -> tuple[tuple[str, ...], ...]:
        """CLI arguments of each verify call; ``--max-m`` only bounds ``singular``."""
        return tuple((s, "--max-n", str(order), "--max-m", str(order)) for s in self.scopes)


WORKLOADS = {
    # Its large complex SVDs slow down less under host load than the kernel.
    "jordan_sweep": Workload(scopes=("jordan",), cases=(886,), elasticity=0.6),
    "eigen_sweep": Workload(
        scopes=("diagonalizable", "normal", "hermitian", "unitary", "real-symmetric"),
        cases=(132,) * 5,
    ),
    "singular_sweep": Workload(scopes=("singular",), cases=(1504,)),
}

#: Order of the warm-up sweep that loads every code path before timing.
WARMUP_ORDER = 3


# ---------------------------------------------------------------------------
# one sweep and its gate


@dataclass
class Sweep:
    seconds: float
    outputs: list[tuple[int | None, str]]  # (exit code or None if it raised, stdout or traceback)


def run_sweep(cli, calls, seed: int, extra: tuple[str, ...]) -> Sweep:
    """Run every verify call once through the CLI entry point, timed end to end.

    The time covers argument parsing, the sweep and rendering the JSON
    report.  An exception is caught here so one crash is reported as a
    failed sweep and its traceback is printed, not lost.
    """
    outputs = []
    start = time.perf_counter()
    for call in calls:
        buffer = io.StringIO()
        argv = ["verify", *call, "--seed", str(seed), "--format", "json", *extra]
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except Exception:
            text = traceback.format_exc()
            print(f"crash in matstrata {' '.join(argv)}:\n{text}", file=sys.stderr)
            outputs.append((None, text))
        else:
            outputs.append((code, buffer.getvalue()))
    return Sweep(time.perf_counter() - start, outputs)


@dataclass
class GateResult:
    attempted: int
    failed: int
    digest: str
    misses: list[str]


def gate(sweep: Sweep, workload: Workload) -> GateResult:
    """Check one sweep's reports: exit code 0, verdict PASS, expected case
    count, and a digest of the reports.  A report that cannot
    be read counts all of its expected cases as failed; any other miss
    counts at least its non-passing cases, and all of them if there are none.
    """
    attempted = failed = 0
    misses: list[str] = []
    digest = hashlib.sha256()
    for call, expected, (code, text) in zip(workload.calls(), workload.cases, sweep.outputs):
        attempted += expected
        label = " ".join(call)
        report = None
        if code is None:
            misses.append(f"{label}: crashed")
        else:
            try:
                report = json.loads(text)
            except json.JSONDecodeError as err:
                misses.append(f"{label}: report is not JSON ({err})")
        if not isinstance(report, dict) or not isinstance(report.get("cases"), list):
            if code is not None:
                misses.append(f"{label}: report has no case list")
            failed += expected
            continue
        local: list[str] = []
        cases = report["cases"]
        if code != 0:
            local.append(f"exit code {code}")
        verdict = report.get("summary", {}).get("verdict")
        if verdict != "PASS":
            local.append(f"summary verdict {verdict}")
        if len(cases) != expected:
            local.append(f"{len(cases)} cases, expected {expected}")
        not_passed = sum(1 for c in cases if not isinstance(c, dict) or c.get("verdict") != "PASS")
        misses.extend(f"{label}: {m}" for m in local)
        if len(cases) != expected or (local and not not_passed):
            failed += expected
        else:
            failed += not_passed
        canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
        digest.update(canonical.encode())
    return GateResult(attempted, failed, digest.hexdigest(), misses)


def validate_schema(cli, sweep: Sweep) -> list[str]:
    """Validate a sweep's reports against ``matstrata.cli.REPORT_SCHEMA``.

    Run on the first sweep only, after the timed loop, so that jsonschema
    is not loaded while peak memory is measured; later sweeps must match
    its digest.  Unreadable reports were already flagged by :func:`gate`.
    """
    import jsonschema

    validator = jsonschema.Draft202012Validator(cli.REPORT_SCHEMA)
    misses = []
    for code, text in sweep.outputs:
        if code is None:
            continue
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            continue
        error = jsonschema.exceptions.best_match(validator.iter_errors(report))
        if error is not None:
            misses.append(f"schema: {error.message}")
    return misses


# ---------------------------------------------------------------------------
# machine speed


def reference_kernel() -> None:
    """Fixed work that does not depend on matstrata but runs like it:
    Python loops building small arrays, column stacks and small SVDs."""
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(400):
        for n in (4, 8, 16):
            a = rng.standard_normal((n, n))
            op = np.column_stack([(np.outer(a[i], a[:, i]) - a).ravel() for i in range(n)])
            np.linalg.svd(op, compute_uv=False)
        sum(i * i % 7 for i in range(300))


def speed_reading() -> float:
    """Median seconds of a few reference kernel calls, taken now."""
    times = []
    for _ in range(REFERENCE_CALLS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def to_reference(readings: list[float], elasticity: float) -> float:
    """Factor that rescales the run's wall seconds to the reference speed.

    It uses the mean of all the run's readings, taken before the first sweep
    and after every sweep.  One reading is a short, noisy sample of a speed
    that drifts over tens of seconds; averaged over the run, and set against
    the mean sweep, the readings cancel the drift better than the readings
    next to each sweep do against that sweep.  A workload whose time
    follows the kernel's only in part is rescaled by that share, its
    elasticity: the factor is raised to that power."""
    return (REFERENCE_S / statistics.mean(readings)) ** elasticity


# ---------------------------------------------------------------------------
# set-up time and environment


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch_seconds(module: str) -> float:
    """Seconds from launching a child interpreter until ``import <module>``
    has returned in it.  Exits if matstrata is not the checkout's own."""
    code = f"import sys, {module}; sys.stdout.write({module}.__file__ + '\\n'); sys.stdout.flush()"
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=child_env(), text=True
    ) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or (module == "matstrata" and not line.startswith(str(SRC))):
        print(f"error: set-up probe failed to import {module} (matstrata must come from {SRC})", file=sys.stderr)
        sys.exit(2)
    return seconds


def time_setup() -> tuple[list[float], list[float]]:
    """Paired launches: one importing matstrata, one importing numpy alone.

    The numpy launch is the reference: it shares interpreter start-up and
    numpy's import with the measured one, and both slow down alike under
    host load.  The order within a pair alternates.
    """
    own, reference = [], []
    for probe in range(SETUP_PROBES):
        pair = ("matstrata", "numpy") if probe % 2 == 0 else ("numpy", "matstrata")
        seconds = {module: launch_seconds(module) for module in pair}
        own.append(seconds["matstrata"])
        reference.append(seconds["numpy"])
    return own, reference


def _git_commit() -> str:
    """Commit checked out at the root; git may be absent, or the root a plain copy."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        done = None
    return done.stdout.strip() if done and done.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_version = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "matstrata").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {k: os.environ.get(k) for k in (*BLAS_THREADS, "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the run


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="pass matstrata's hidden --inject-fault flag, to show that the gate fails",
    )
    args = parser.parse_args(argv)
    if not (SRC / "matstrata" / "__init__.py").is_file():
        print(f"error: no matstrata sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    setup_times, setup_reference = time_setup()

    from matstrata import cli

    import layertrace

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported matstrata from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    extra = ("--inject-fault",) if args.inject_fault else ()
    run_sweep(cli, workload.calls(WARMUP_ORDER), args.seed, extra)

    # Sweeps repeat while the next one, judged by the last, ends in time.
    # A speed reading comes first and follows each sweep.
    readings = [speed_reading()]
    plain: list[float] = []
    traced: list[tuple[float, layertrace.LayerTracer]] = []
    checks: list[GateResult] = []
    first = None
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        sweep = run_sweep(cli, workload.calls(), args.seed, extra)
        readings.append(speed_reading())
        plain.append(sweep.seconds)
        checks.append(gate(sweep, workload))
        first = first or sweep
        if args.trace:
            tracer = layertrace.LayerTracer()
            tracer.install()
            try:
                sweep = run_sweep(cli, workload.calls(), args.seed, extra)
            finally:
                tracer.remove()
            readings.append(speed_reading())
            traced.append((sweep.seconds, tracer))
            checks.append(gate(sweep, workload))
        now = time.perf_counter()
        if now + (now - begun) > start + args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    misses = validate_schema(cli, first)
    for index, check in enumerate(checks):
        misses += [f"sweep {index}: {m}" for m in check.misses]
        if check.digest != checks[0].digest:
            misses.append(f"sweep {index}: report digest differs from sweep 0")
            check.failed = check.attempted
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    if misses and not failed:
        failed = checks[0].attempted
    correct = not misses and failed == 0

    speed = to_reference(readings, workload.elasticity)
    plain_scaled = [seconds * speed for seconds in plain]
    setup_wall = statistics.median(setup_times)
    summary = {
        "sweep_s": (statistics.mean(plain_scaled), "s", f"mean of {len(plain)} sweeps at reference "
                    "speed, quartiles " + " ".join(f"{q:.4f}" for q in quartiles(plain_scaled))),
        "setup_s": (statistics.median(o / r for o, r in zip(setup_times, setup_reference)) * REFERENCE_LAUNCH_S,
                    "s", f"median of {len(setup_times)} interpreter starts at reference speed"),
        "sweep_wall_s": (statistics.mean(plain), "s", "mean wall time of the same sweeps"),
        "setup_wall_s": (setup_wall, "s", "median wall time of the same starts"),
        "speed_factor": (statistics.mean(readings) / REFERENCE_S, "ratio", "mean reference kernel time over its reference value; above 1 is slower"),
        "peak_rss_mb": (peak_rss_mb, "MB", "maximum resident set of this process"),
        "pass_share": (1 - failed / attempted, "share", f"{attempted - failed} of {attempted} cases passed"),
        "fail_share": (failed / attempted, "share", "FAIL, INCONCLUSIVE or unchecked cases over attempted"),
    }
    record = {
        "workload": args.workload,
        "env": environment(args.seed),
        "summary": {name: {"value": v, "unit": u, "note": n} for name, (v, u, n) in summary.items()},
        "sweep_seconds": plain,
        "setup_seconds": setup_times,
        "setup_reference_seconds": setup_reference,
        "speed_readings": readings,
        "digest": checks[0].digest,
        "gate_misses": misses,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in summary.items():
        print(f"  {name:<12} {value:12.6g} {unit:<6} {note}")
    if args.trace:
        # Layer times are rescaled like sweep_s, by the run's speed readings.
        per_sweep = [
            {name: (value * speed if unit == "s" else value, unit)
             for name, (value, unit) in tracer.metrics(seconds).items()}
            for seconds, tracer in traced
        ]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_sweep), unit)
            for name, (_, unit) in per_sweep[0].items()
        }
        traced_s = statistics.mean(seconds * speed for seconds, _ in traced)
        metrics["trace.overhead_ratio"] = (traced_s / summary["sweep_s"][0], "ratio")
        last = traced[-1][1]
        table = [(n, c, t * speed, s * speed) for n, c, t, s in last.table()]
        record["traced_sweep_seconds"] = [seconds for seconds, _ in traced]
        record["missing"] = last.missing
        record["trace"] = [
            {"function": n, "calls": c, "total_s": t, "self_s": s} for n, c, t, s in table
        ]
        print(f"  traced sweep {traced_s:.4f} s at reference speed, overhead x{metrics['trace.overhead_ratio'][0]:.3f}, "
              f"unattributed {metrics['trace.unattributed_share'][0]:.2%}, "
              f"missing: {', '.join(last.missing) or 'none'}")
        for name, calls, total, self_s in table[:12]:
            print(f"    {name:<42} calls {calls:>8}  total {total:9.4f} s  self {self_s:9.4f} s")
    else:
        metrics = {name: summary[name][:2] for name in ("sweep_s", "setup_s", "peak_rss_mb", "pass_share")}
    for miss in misses:
        print(f"  gate miss: {miss}")
    print(f"  report digest {checks[0].digest[:16]}")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
