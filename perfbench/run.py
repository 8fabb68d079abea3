"""keyvariety benchmark: closed-loop timing of three workloads, each launched
as its own process, one at a time (one client), with a fixed worker count.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Workloads (why each was chosen is in perfbench/README.md):

  verify-all  keyvariety run on perfbench/configs/verify-all.cfg
  singular    keyvariety run on perfbench/configs/singular.cfg
  fibers-p3   perfbench/fibers_p3.py, seeded fiber probes at p = 3

With --trace 0 the benchmark repeats a cycle of three set-up launches
(perfbench/setup_probe.py) and one workload launch until --seconds is used
up, and reports the medians of wall_s, cpu_s, peak_rss_mb and setup_s. With
--trace 1 it makes one untraced launch, one launch traced by
perfbench/spans.py at the benchmark worker count and one traced launch at a
single worker, and reports the per-layer metrics. Every launch is checked:
report bytes against the sha256 in perfbench/reference.json, fibers-p3
values against the values there. The last line of stdout is the result JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKERS = 2
SETUPS_PER_CYCLE = 3
RUN_DEADLINE_S = 165
FIBER_SETUP_CASES = "g4,g5,g6q,g8,B5,B6,Q3_g6q"
CONFIGS = {"verify-all": "verify-all.cfg", "singular": "singular.cfg"}
WORKLOADS = ("verify-all", "singular", "fibers-p3")
CLI_CHECKS = ("count", "dimension", "singular-locus", "fibers", "sections")
CHECK_LINE = re.compile(r"^\[keyvariety\] check (\S+): ([0-9.]+)s$", re.M)

# Spans of the layer that dominates each workload. A traced launch in which
# one of them records no call fails, so that a rename or a captured reference
# cannot silently zero the layer.
DOMINANT_SPANS = {
    "verify-all": ("scan_system", "points_block", "vanishing_mask"),
    "singular": ("matrix_rank_mod_p_batch",),
    "fibers-p3": ("fiber_over",),
}


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None: killed at the run deadline
    stderr: str


@dataclass
class Outcome:
    attempted: int
    failed: int
    notes: list = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.reference = json.loads((BENCH / "reference.json").read_text())[workload]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # One glibc arena: with one arena per worker thread, how much freed
        # memory stays mapped depends on thread timing, and the peak RSS of
        # verify-all alternated between about 219 and 279 MB from launch to
        # launch.
        self.env["MALLOC_ARENA_MAX"] = "1"
        self.launches = 0

    def launch(self, argv: list, workers: int = WORKERS) -> Launch:
        """Run argv to exit; wall from spawn to exit, CPU and peak RSS from
        the child's own rusage."""
        self.launches += 1
        err_path = self.work / f"stderr{self.launches}.txt"
        env = dict(self.env, KEYVARIETY_THREADS=str(workers))
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
        timer.start()
        try:
            # Wait without reaping, so the pid stays ours until wait4 below.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if state["killed"] else proc.returncode
        return Launch(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, code,
                      err_path.read_text(errors="replace"))

    # -- workload launches -------------------------------------------------

    def run_workload(self, traced: bool = False, workers: int = WORKERS):
        n = self.launches + 1
        out = self.work / f"out{n}.json"
        spans_path = self.work / f"spans{n}.json"
        if self.workload == "fibers-p3":
            target, entry = "fibers-p3", [str(BENCH / "fibers_p3.py")]
            args = ["--seed", str(self.seed), "--out", str(out)]
        else:
            target, entry = "cli", ["-m", "keyvariety.cli"]
            args = ["run", "--threads", str(workers), "--config",
                    str(BENCH / "configs" / CONFIGS[self.workload]), "--out", str(out)]
        if traced:
            entry = [str(BENCH / "spans.py"), str(spans_path), target]
        run = self.launch([sys.executable] + entry + args, workers)
        outcome = self.check(run, out)
        doc = None
        if traced and run.exit_code == 0:
            doc = json.loads(spans_path.read_text())
        for path in (out, spans_path):
            path.unlink(missing_ok=True)
        return run, outcome, doc

    def setup_launch(self) -> Launch:
        if self.workload == "fibers-p3":
            what = ["--cases", FIBER_SETUP_CASES]
        else:
            what = ["--config", str(BENCH / "configs" / CONFIGS[self.workload])]
        run = self.launch([sys.executable, str(BENCH / "setup_probe.py")] + what)
        if run.exit_code != 0:
            raise RuntimeError(f"set-up launch failed:\n{run.stderr}")
        return run

    # -- output gate -------------------------------------------------------

    def check(self, run: Launch, out: Path) -> Outcome:
        """An operation is one report record, or one asserted fibers-p3
        value. A nonzero exit, a timeout or report bytes that differ from
        the reference fail every operation of the launch."""
        ref = self.reference
        if self.workload == "fibers-p3":
            samples = ref["g5_sample"] + ref["g6q_sample"]
            total = len(ref) - 2 + samples  # scalar values, then one per probe
        else:
            total = ref["records"]
        if run.exit_code != 0 or not out.exists():
            last = run.stderr.strip().splitlines()[-1:]
            return Outcome(total, total, [f"exit code {run.exit_code}: {last}"])
        data = out.read_bytes()
        if self.workload != "fibers-p3":
            digest = hashlib.sha256(data).hexdigest()
            if digest != ref["sha256"]:
                return Outcome(total, total, [f"report sha256 {digest}"])
            failed = sum(r["verdict"] == "fail"
                         for r in json.loads(data)["records"])
            return Outcome(total, failed)
        got = json.loads(data)
        notes = [f"{key}: {got.get(key)!r} != {want!r}"
                 for key, want in ref.items() if got.get(key) != want]
        if got.get("seed") != self.seed:
            notes.append(f"seed {got.get('seed')!r} != {self.seed}")
        if notes:
            return Outcome(total, total, notes)
        failed = ((ref["g5_sample"] - got["g5_one_point"])
                  + (ref["g6q_sample"] - got["g6q_one_point"]))
        return Outcome(total, failed)


def cli_check_seconds(stderr: str) -> dict:
    times = dict(CHECK_LINE.findall(stderr))
    return {f"cli.check.{name}_s": float(times.get(name, 0.0))
            for name in CLI_CHECKS}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"), "git_commit": git_commit(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(bench: Bench, seconds: int) -> tuple:
    """Cycles of set-up launches and one workload launch until the next
    cycle would overrun `seconds`. Spreading the short set-up launches over
    the whole run keeps their median from hanging on one moment's load."""
    bench.setup_launch()  # untimed: fills the bytecode and page caches
    setups, runs, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        setups += [bench.setup_launch().wall_s for _ in range(SETUPS_PER_CYCLE)]
        run, outcome, _ = bench.run_workload()
        runs.append(run)
        outcomes.append(outcome)
        print(json.dumps({"launch": len(runs), "wall_s": run.wall_s,
                          "cpu_s": run.cpu_s, "peak_rss_mb": run.peak_rss_mb,
                          "failed": outcome.failed, "notes": outcome.notes}))
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    metrics = {
        "wall_s": metric(statistics.median(r.wall_s for r in runs), "s"),
        "cpu_s": metric(statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return metrics, outcomes, []


def traced_run(bench: Bench, units: dict) -> tuple:
    base, base_outcome, _ = bench.run_workload()
    traced, traced_outcome, doc = bench.run_workload(traced=True)
    single, single_outcome, single_doc = bench.run_workload(traced=True, workers=1)
    outcomes = [base_outcome, traced_outcome, single_outcome]
    errors = []
    if doc is None or single_doc is None:
        errors.append("a traced launch failed")
        doc = doc or {"spans": [], "counts": {}}
        single_doc = single_doc or {"spans": [], "counts": {}}
    names = {s[1] for s in doc["spans"]}
    silent = [n for n in DOMINANT_SPANS[bench.workload] if n not in names]
    if silent:
        errors.append(f"layers with no calls: {silent}")
    layers = spans.summarize(doc)
    scan_1 = spans.summarize(single_doc)["projspace.scan_s"]
    layers["projspace.scan_speedup"] = (
        scan_1 / layers["projspace.scan_s"] if layers["projspace.scan_s"] else 0.0)
    layers["trace.overhead_s"] = traced.wall_s - base.wall_s
    layers.update(cli_check_seconds(base.stderr))
    metrics = {name: metric(layers[name], unit) for name, unit in units.items()}
    return metrics, outcomes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="keyvariety benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "keyvariety" / "__init__.py").is_file():
        print(f"error: no keyvariety sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, outcomes, errors = traced_run(bench, units)
        else:
            metrics, outcomes, errors = timed_run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        errors.extend(o.notes)
    record = environment(args)
    record["failed_ratio"] = failed / attempted
    record["errors"] = errors
    print(json.dumps({"record": record}))
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
