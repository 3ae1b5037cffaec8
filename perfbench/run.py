"""Benchmark of the `tanisaki` CLI, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it times real CLI invocations, each in a fresh process and
one after another, repeating whole passes of the workload while another
pass fits in S seconds (at least one pass).  It prints the end-to-end
metrics wall_s, cpu_s, peak_rss_mb, setup_s and ok_ratio; setup_s is
scaled to the reference host's speed by runs of calibrate.py made during
set-up.  With --trace 1 it replays one
pass in-process, once plain and once with spans around each layer, and
prints the per-layer metrics.  Every report is checked against reference
answers computed in reference.py and against earlier reports of the same
call.  The last line of output is one JSON object: correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
CAL_REF_S = 0.19  # median time of calibrate.py on the reference host
SETUP_MIN_REPS = 3  # set-up repeats at least this often ...
SETUP_MIN_SECONDS = 3.0  # ... and until this much time has gone


class BenchError(RuntimeError):
    pass


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stderr_path: Path) -> Outcome:
    """Run one process to its end; time it and read its rusage from os.wait4."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return Outcome(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "tanisaki.cli", *args]


class Checker:
    """Counts invocations and failures: a report fails if it exits non-zero,
    is not ok, disagrees with a reference answer, or differs from an earlier
    report of the same call."""

    def __init__(self):
        self.first: dict[tuple, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, inv: workloads.Invocation, returncode: int, stdout: bytes):
        problems = reference.check_report(inv.argv, returncode, stdout)
        # argv excludes the cache path, so equal argv must give equal reports
        if self.first.setdefault(inv.argv, stdout) != stdout:
            problems.append("report differs from an earlier report of the same call")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: FAIL tanisaki {' '.join(inv.argv)}: {'; '.join(problems[:5])}",
                  file=sys.stderr)


def calibration(work: Path) -> float:
    """Time of one run of calibrate.py, from launch to exit."""
    out = run_child([sys.executable, str(CALIBRATE)], work / "stderr")
    if out.returncode != 0 or out.stdout.decode().strip() != calibrate.CHECKSUM:
        raise BenchError("calibration failed: " + (work / "stderr").read_text()[-2000:])
    return out.wall_s


def set_up(workload: str, work: Path, checker: Checker, repeat: bool) -> tuple[float, str | None]:
    """Import tanisaki in a fresh interpreter and fill the warm cache; with
    repeat, SETUP_MIN_REPS times and for SETUP_MIN_SECONDS at least, each
    time after one calibration.  Returns the median time of one set-up,
    scaled to the reference host's speed, and the last warm cache."""
    fill = workloads.setup_fill(workload)
    cals, times = [], []
    warm = None
    start = time.perf_counter()
    while not times or repeat and (
        len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS
    ):
        cals.append(calibration(work))
        probe = run_child([sys.executable, "-c", "import tanisaki.cli"], work / "stderr")
        if probe.returncode != 0:
            raise BenchError("tanisaki does not import: " + (work / "stderr").read_text()[-2000:])
        times.append(probe.wall_s)
        if fill is not None:
            warm = tempfile.mkdtemp(dir=work)
            out = run_child(cli_argv(fill.with_cache(warm)), work / "stderr")
            checker.check(fill, out.returncode, out.stdout)
            times[-1] += out.wall_s
    speed = CAL_REF_S / statistics.median(cals)
    print(f"perfbench: {len(times)} set-ups, median {statistics.median(times):.4f} s; "
          f"calibration median {statistics.median(cals):.4f} s, speed factor {speed:.4f}")
    return statistics.median(times) * speed, warm


def measure(workload: str, seed: int, seconds: float, work: Path, warm, checker: Checker) -> dict:
    """Whole passes while another fits in `seconds` (at least one).  wall_s and
    cpu_s sum, over the invocations of a pass, each invocation's median over
    the passes, so a slow spell in one pass counts only once."""
    calls = workloads.invocations(workload, seed)
    walls, cpus, rss = [], [], 0.0  # walls[k][i]: pass k, invocation i
    start = time.perf_counter()
    while True:
        dirs = [tempfile.mkdtemp(dir=work) if inv.cache == "fresh" else warm for inv in calls]
        outs = [run_child(cli_argv(inv.with_cache(d)), work / "stderr") for inv, d in zip(calls, dirs)]
        walls.append([o.wall_s for o in outs])
        cpus.append([o.cpu_s for o in outs])
        rss = max([rss] + [o.rss_mb for o in outs])
        for inv, out in zip(calls, outs):
            checker.check(inv, out.returncode, out.stdout)
        for inv, d in zip(calls, dirs):
            if inv.cache == "fresh":
                shutil.rmtree(d)
        if time.perf_counter() - start + sum(walls[-1]) > seconds:
            break  # another pass would not fit
    print(f"perfbench: {len(walls)} passes of {len(calls)} invocations; "
          f"pass wall_s {', '.join(f'{sum(w):.3f}' for w in walls)}")
    return {
        "wall_s": (sum(statistics.median(col) for col in zip(*walls)), "s"),
        "cpu_s": (sum(statistics.median(col) for col in zip(*cpus)), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def trace(workload: str, seed: int, work: Path, warm, checker: Checker) -> dict:
    """Replay one pass in-process, plain and then traced, each in a fresh interpreter."""
    calls = workloads.invocations(workload, seed)
    docs = {}
    for mode in ("plain", "traced"):
        out = work / f"{mode}.json"
        argv = [sys.executable, str(TRACER), "--workload", workload, "--seed", str(seed),
                "--work", str(work), "--mode", mode, "--out", str(out)]
        if warm is not None:
            argv += ["--warm-cache", warm]
        child = run_child(argv, work / "stderr")
        if child.returncode != 0:
            raise BenchError(f"{mode} replay failed: " + (work / "stderr").read_text()[-2000:])
        docs[mode] = json.loads(out.read_text())
        for inv, done in zip(calls, docs[mode]["invocations"]):
            checker.check(inv, done["returncode"], done["stdout"].encode())
    traced = docs["traced"]
    kept = WORK / f"trace-{workload}-seed{seed}.json"
    kept.write_text(json.dumps({k: traced[k] for k in ("workload", "seed", "spans", "work")}))
    values = tracer.layer_metrics(traced["spans"], traced["work"])
    wall = {mode: sum(d["wall_s"] for d in docs[mode]["invocations"]) for mode in docs}
    values["trace.overhead_s"] = wall["traced"] - wall["plain"]
    layers = {}
    for name, value in values.items():
        if name.endswith("_s") and not name.startswith("trace."):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + value
    shares = ", ".join(f"{layer} {100 * v / wall['traced']:.1f}%" for layer, v in layers.items())
    print(f"perfbench: traced wall {wall['traced']:.3f} s, plain {wall['plain']:.3f} s; "
          f"self-time shares: {shares}; spans in {kept.relative_to(ROOT)}")
    units = dict(tracer.PER_LAYER)
    return {name: (value, units[name]) for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the tanisaki CLI.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: shuffles the invocation order of presentation-n7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "tanisaki" / "cli.py").is_file():
        print(f"perfbench: no tanisaki sources under {SRC}", file=sys.stderr)
        return 2

    order = " | ".join(" ".join(inv.argv) for inv in workloads.invocations(args.workload, args.seed))
    print(f"perfbench: workload {args.workload}, seed {args.seed}, order: {order}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    checker = Checker()
    try:
        if args.trace:
            _, warm = set_up(args.workload, work, checker, repeat=False)
            metrics = trace(args.workload, args.seed, work, warm, checker)
        else:
            setup_s, warm = set_up(args.workload, work, checker, repeat=True)
            metrics = measure(args.workload, args.seed, args.seconds, work, warm, checker)
            metrics["setup_s"] = (setup_s, "s")
            metrics["ok_ratio"] = ((checker.attempted - checker.failed) / checker.attempted, "ratio")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
