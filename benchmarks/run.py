"""Benchmark of the `artifact` command line, driven as a user drives it.

    python3 benchmarks/run.py --workload family_certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each command of the workload's fixed
list runs in its own fresh `python -m artifact.cli_reports` process
against the checkout's `src/`, one at a time (a closed loop with one
client), and every output is checked (checker.py).  The list is
repeated while another pass fits in `--seconds`; there is always at
least one pass.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s (median pass time), setup_s (median of several set-ups) and
peak_rss_mb (largest child ru_maxrss).  Failed commands are `failed` out
of `attempted`.  The nearest-rank percentiles cmd_p50_s and cmd_p90_s of
per-command time are printed above the result but not reported in it:
only cli_session has the ten samples beyond p90 a percentile needs, and
on family_certify each is a single command, too noisy for a bound.  With `--trace 1` a run makes one untraced
pass and one pass through shim.py and reports the per-layer metrics of
the traced pass, plus trace.overhead_s = traced minus untraced wall time.

Noise is uncontrolled: the benchmark pins no CPU and changes no machine
setting, and it records nproc, the Python version and the load average
so that runs can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checker import check_command  # noqa: E402
from tracing import PER_LAYER, layer_metrics, percentile  # noqa: E402
from workloads import PLANS, Command, Plan  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
REFERENCE = HERE / "reference.json"
SHIM = HERE / "shim.py"
SCRATCH = ROOT / ".bench_tmp"

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    problems: List[str]
    trace: Optional[dict] = None


@dataclass
class PassResult:
    wall: float
    outcomes: List[Outcome] = field(default_factory=list)


def child_env() -> Dict[str, str]:
    """The caller's environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("ARTIFACT_OUT_DIR", None)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def spawn(argv: List[str], cwd: Path, env: Dict[str, str], out: Path, err: Path,
          timeout: float):
    """Run one child to completion; returns (seconds, exit code, rusage, timed out)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        if "BENCH_TRACE_OUT" in env:
            env["BENCH_SPAWN"] = repr(start)
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe)
        # os.kill, not proc.kill: Popen.kill would poll and reap the child.
        timer = threading.Timer(max(timeout, 0.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        seconds = time.perf_counter() - start
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage, seconds >= timeout


def run_command(cmd: Command, cwd: Path, io_dir: Path, index: int,
                reference: Dict[str, str], deadline: float, traced: bool) -> Outcome:
    cwd.mkdir(parents=True, exist_ok=True)
    out, err = io_dir / f"{index}.out", io_dir / f"{index}.err"
    env = child_env()
    if traced:
        trace_path = io_dir / f"{index}.trace.json"
        env["BENCH_TRACE_OUT"] = str(trace_path)
        argv = [sys.executable, str(SHIM), *cmd.argv]
    else:
        argv = [sys.executable, "-m", "artifact.cli_reports", *cmd.argv]
    seconds, code, usage, timed_out = spawn(argv, cwd, env, out, err,
                                            deadline - time.perf_counter())
    if timed_out:
        problems = ["timeout"]
    else:
        problems = check_command(cmd, code, out.read_text(encoding="utf-8"),
                                 err.read_text(encoding="utf-8"), cwd, reference, GOLDEN_DIR)
    trace = None
    if traced and not timed_out:
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            problems.append("traced run wrote no trace")
    return Outcome(seconds, usage.ru_maxrss / 1024.0, problems, trace)


def run_pass(plan: Plan, pass_dir: Path, reference: Dict[str, str], deadline: float,
             traced: bool) -> PassResult:
    io_dir = pass_dir / "_io"
    io_dir.mkdir(parents=True)
    start = time.perf_counter()
    outcomes = [run_command(cmd, pass_dir / cmd.cwd, io_dir, i, reference, deadline, traced)
                for i, cmd in enumerate(plan.commands)]
    return PassResult(time.perf_counter() - start, outcomes)


def set_up(workload: str, seed: int, env: Dict[str, str]) -> tuple:
    """Generate inputs, make the run directory, and import the CLI once."""
    plan = PLANS[workload](seed)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    warm = subprocess.run([sys.executable, "-c", "import artifact.cli_reports"],
                          cwd=run_dir, env=env, capture_output=True, text=True)
    if warm.returncode != 0:
        raise SetupError(f"cannot import artifact.cli_reports: {warm.stderr.strip()}")
    return plan, run_dir


def run_record() -> Dict[str, object]:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": src_hash.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0],
            "noise": "uncontrolled: no CPU pinning, no machine setting changed"}


def load_reference() -> Dict[str, str]:
    if not SRC.joinpath("artifact", "cli_reports.py").is_file():
        raise SetupError(f"no artifact sources under {SRC}")
    if not GOLDEN_DIR.is_dir():
        raise SetupError(f"no golden transcripts under {GOLDEN_DIR}")
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]


def end_to_end(passes: List[PassResult], setups: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p.outcomes),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    record = run_record()
    SCRATCH.mkdir(exist_ok=True)
    env = child_env()
    run_dirs = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            plan, run_dir = set_up(workload, seed, env)
            setups.append(time.perf_counter() - start)
            run_dirs.append(run_dir)
        deadline = time.perf_counter() + RUN_LIMIT_S
        passes: List[PassResult] = []
        measure_start = time.perf_counter()
        while True:
            passes.append(run_pass(plan, run_dir / f"pass{len(passes)}", reference,
                                   deadline, traced=False))
            elapsed = time.perf_counter() - measure_start
            if trace or elapsed + passes[-1].wall > min(seconds, deadline - measure_start):
                break
        if trace:
            traced = run_pass(plan, run_dir / "traced", reference, deadline, traced=True)
            metrics, absent = layer_metrics([o.trace for o in traced.outcomes if o.trace],
                                            traced.wall - passes[0].wall)
            units = dict(PER_LAYER)
            passes.append(traced)
        else:
            metrics, absent = end_to_end(passes, setups), []
            units = END_TO_END_UNITS
    finally:
        for run_dir in run_dirs:
            shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    outcomes = [o for p in passes for o in p.outcomes]
    failures = [f"{plan.commands[i % len(plan.commands)].argv}: {'; '.join(o.problems)}"
                for i, o in enumerate(outcomes) if o.problems]
    print("run record: " + json.dumps(record, sort_keys=True))
    print("inputs: " + json.dumps(dict(plan.inputs, passes=len(passes), seed=seed),
                                  sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {units[name]}")
    if not trace:
        times = [o.seconds for p in passes for o in p.outcomes]
        for q in (50, 90):
            print(f"  {f'cmd_p{q}_s':<50} {percentile(times, q):>14.6g} s "
                  f"(printed only, {len(times)} commands)")
    print(f"  {'ops_failed':<50} {len(failures):>14} count of {len(outcomes)} ops_attempted")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if absent:
        print("absent: " + ", ".join(absent))
    return {"correct": not failures, "attempted": len(outcomes), "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
