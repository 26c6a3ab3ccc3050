"""The repository benchmark: reductions with ddmin, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from ``--seed`` into a temporary root
inside the checkout, which is removed at exit.  One client runs one
reduction at a time (a closed loop), making a fixed number of passes over
the workload, sized so that a run takes about ``--seconds`` on a 2-CPU
machine.  Every result is checked for correctness outside the
timed region.  With ``--trace 0`` the JSON line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics, from passes that wrap each layer's functions in spans.  The last
line of standard output is the result as one JSON object.
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
import time
from pathlib import Path

from changes_tree import ChangesTree
from engine_synthetic import EngineSynthetic
from harness import Capture, import_package, run_passes
from input_spawn import InputSpawn
from metrics import end_to_end, per_layer
from trace_replay import TraceReplay
from tracing import Patcher

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 31

# Each workload is a list of parts, with the number of passes a run of
# run_seconds makes on a 2-CPU machine.  Parts whose tests run in-process
# and parts whose tests are processes are kept apart, so an optimization of
# one kind leaves the other workload as the unchanged reference.
WORKLOADS = {
    "in-process": ((EngineSynthetic, TraceReplay), 17),  # about 2.9 s a pass
    "spawn": ((InputSpawn, ChangesTree), 6),              # about 8 s a pass
}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    uname = os.uname()
    return {
        "machine": f"{uname.machine} {uname.sysname} {uname.release}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def setup(parts, seed: int, root: Path):
    """Import the package and generate the inputs under ``root``; returns
    the modules, the slots and the time it took."""
    started = time.perf_counter()
    mods = import_package(SRC)
    slots = []
    for part in parts:
        inputs = root / part.name
        inputs.mkdir(parents=True)
        slots += part().generate(seed, inputs, mods)
    return mods, slots, time.perf_counter() - started


def median_setup(parts, seed: int, root: Path) -> float:
    """The median time of SETUP_REPEATS set-ups, each under its own
    directory that is removed after it."""
    times = []
    for k in range(SETUP_REPEATS):
        times.append(setup(parts, seed, root / f"setup{k}")[2])
        shutil.rmtree(root / f"setup{k}")
    return statistics.median(times)


def time_setup(args, tmp: Path) -> float:
    """setup_s, measured in a child process: each repeated import keeps
    some memory, which must not count in this process's peak_rss_mb."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--time-setup", str(tmp / "setup")],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {done.returncode}): {done.stderr[-2000:]}")
    return float(done.stdout.split()[-1])


def check(slots, passes) -> tuple[int, int, list[str]]:
    """Check each slot's first result, and that every repetition gave the
    same result, test count and run-log counts.  Returns (attempted,
    failed, messages)."""
    attempted = failed = 0
    messages = []
    for index, slot in enumerate(slots):
        samples = [s for _, ss in passes for s in ss if s.slot == index]
        attempted += len(samples)
        first = samples[0]
        errors = [first.error] if first.error else slot.check(first.result)
        fingerprints = {s.fingerprint for s in samples if s.fingerprint}
        if len(fingerprints) > 1:
            errors.append("run-log fingerprints differ between passes")

        def identity(s):
            r = s.result
            return (r.exit_code, r.size, r.tests, r.answer, tuple(sorted(s.counts.items())))

        if errors:
            failed += len(samples)
            messages += [f"{slot.label}: {e}" for e in errors]
            continue
        for s in samples[1:]:
            if s.error or identity(s) != identity(first):
                failed += 1
                messages.append(f"{slot.label}: repetition differs: {s.error or identity(s)}")
    return attempted, failed, messages


def run(args, tmp: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parts, count = WORKLOADS[args.workload]
    # The pass count is sized for a run of run_seconds; --seconds scales it.
    # The count ends the run, so the number of samples does not change with
    # the speed of the program; a run three times slower than planned stops
    # early instead of overrunning.
    count = round(count * args.seconds / spec["run_seconds"])
    setup_s = time_setup(args, tmp)
    mods, slots, _ = setup(parts, args.seed, tmp / "inputs")
    capture = Capture()
    patcher = Patcher()
    capture.install(patcher, mods)
    try:
        passes, tracer = run_passes(slots, capture, mods, count, bool(args.trace),
                                    time_limit=3 * args.seconds)
    finally:
        patcher.restore()
    attempted, failed, messages = check(slots, passes)

    e2e, notes = end_to_end(passes, setup_s)
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for index, slot in enumerate(slots):
        samples = [s for traced, ss in passes if not traced for s in ss if s.slot == index]
        walls = sorted(s.wall_s for s in samples)
        r = samples[0].result
        print(f"  slot {slot.label:<26} n={len(walls):<3} median_ms={statistics.median(walls) * 1000:9.2f}"
              f"  tests={r.tests if r else '-':<6} size={r.size if r else '-'}")
    for message in messages:
        print(f"WRONG {message}")
    print(f"wrong_results: {failed} of {attempted} reductions")
    print(f"reduction_ms_tail is p{notes['tail_percentile']} of {notes['samples']} samples")
    digest = _fingerprint_digest(slots, passes)
    print(f"run-log fingerprint digest: {digest}")

    if args.trace:
        values, accounting = per_layer(passes, tracer)
        print("traced pass, self time by span (sums to trace.reduce_s):")
        for name, seconds in accounting:
            print(f"  {name:<34} {seconds * 1000:10.3f} ms")
        print(f"  {'total':<34} {sum(s for _, s in accounting) * 1000:10.3f} ms")
        print(f"tracing overhead: {values['trace.overhead_share'] * 100:+.1f}% "
              f"(traced {values['trace.reduce_s']:.4f} s vs untraced "
              f"{values['trace.untraced_reduce_s']:.4f} s)")
        spans_path = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps({"env": env, "spans": tracer.span_export()}), encoding="utf-8")
        print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        values = e2e

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<30} {value:>16.6f} {metric['unit']}")
    detail = {"env": env, "fingerprint_digest": digest, "wrong_results": failed, **notes}
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _fingerprint_digest(slots, passes) -> str:
    h = hashlib.sha256()
    first = passes[0][1]
    for slot, sample in zip(slots, first):
        h.update(f"{slot.label}:{sample.fingerprint}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--time-setup", metavar="DIR", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "deltadebug" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # On SIGTERM unwind like on Ctrl-C, so the temporary root is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.time_setup:
        parts, _ = WORKLOADS[args.workload]
        print(median_setup(parts, args.seed, args.time_setup))
        return 0
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
