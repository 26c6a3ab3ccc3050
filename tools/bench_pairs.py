"""Alternating benchmark pairs of two revisions, kept in BENCH_<workload>.json.

Usage, from anywhere inside a checkout:

    python3 tools/bench_pairs.py --workload NAME --base REV [--change REV]
        [--seed N] [--seconds S] [--pairs N] [--out DIR]

Each revision is extracted with ``git archive REV | tar -x`` into a
temporary directory, and the benchmark runs there as

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

``--pairs`` times on each side, base and change alternately: even pairs
run the base first, odd pairs the change first.  Without ``--change`` both
sides are the base revision (an A/A entry), which measures the run-to-run
spread of each metric.  A run that exits non-zero or whose ``correct`` is
not true is refused, and nothing is written.

The tool appends one entry to ``DIR/BENCH_<workload>.json`` (``DIR`` is the
root of the checkout by default): both revisions, the date, the runs'
``env``, the seed and the seconds, both fingerprint digests and whether
they differ, and for each end-to-end metric of BENCHMARK.json the samples,
median and quartiles of each side with the pairs that each side won (ties
count for neither).  ``spread`` is the distance between the base's
quartiles as a share of its median; a metric whose spread exceeds its bound
is marked ``unresolved``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The ``detail: {...}`` object and the result object on the last line
    of one benchmark run's output."""
    lines = stdout.strip().splitlines()
    details = [line for line in lines if line.startswith("detail: ")]
    if not lines or not details:
        raise ValueError("no detail line in the benchmark output")
    return json.loads(details[-1][len("detail: "):]), json.loads(lines[-1])


def checked(stdout: str, returncode: int, label: str) -> tuple[dict, dict]:
    """``parse_run`` of a run that exited 0 with ``correct`` true."""
    if returncode != 0:
        raise ValueError(f"{label}: the benchmark exited {returncode}")
    detail, result = parse_run(stdout)
    if result.get("correct") is not True:
        raise ValueError(f"{label}: the benchmark reports correct={result.get('correct')!r}")
    return detail, result


def summary(samples: list[float]) -> dict:
    """The samples with their median and quartiles; one sample is its own."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"samples": samples, "median": statistics.median(samples), "q1": q1, "q3": q3}


def compare(pairs: list[tuple[dict, dict]], spec: dict) -> dict:
    """Per end-to-end metric of ``spec``: each side's samples and summary,
    the pairs each side won, and the base's spread against the bound.
    ``pairs`` holds the result objects of (base, change) runs."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum(c < b if lower else c > b for b, c in zip(base, change))
        lost = sum(c > b if lower else c < b for b, c in zip(base, change))
        entry = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": summary(base), "change": summary(change),
            "change_won": won, "base_won": lost,
        }
        q1, q3, median = entry["base"]["q1"], entry["base"]["q3"], entry["base"]["median"]
        entry["spread"] = (q3 - q1) / median if median else 0.0
        entry["unresolved"] = entry["spread"] > metric["bound"]
        out[name] = entry
    return out


def digest(details: list[dict], label: str) -> str:
    digests = {d["fingerprint_digest"] for d in details}
    if len(digests) != 1:
        raise ValueError(f"{label}: runs give different fingerprint digests {sorted(digests)}")
    return digests.pop()


def make_entry(runs: list[tuple[tuple[dict, dict], tuple[dict, dict]]], spec: dict,
               base: str, change: str, workload: str, seed: int, seconds: float) -> dict:
    """One BENCH entry from the (detail, result) pairs of (base, change) runs."""
    env = dict(runs[0][0][0]["env"])
    env.pop("commit", None)  # an extracted tree has no .git to read it from
    digests = {
        "base": digest([b[0] for b, _ in runs], base),
        "change": digest([c[0] for _, c in runs], change),
    }
    digests["differ"] = digests["base"] != digests["change"]
    return {
        "workload": workload, "base": base, "change": change, "aa": base == change,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "env": env, "seed": seed, "seconds": seconds, "pairs": len(runs),
        "digests": digests,
        "metrics": compare([(b[1], c[1]) for b, c in runs], spec),
    }


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, **kwargs)


def extract(rev: str, into: Path) -> None:
    into.mkdir()
    archive = git("archive", "--format=tar", rev, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(tree: Path, args, label: str) -> tuple[dict, dict]:
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=10 * args.seconds + 600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    return checked(done.stdout, done.returncode, label)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", help="default: the base revision, an A/A entry")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    runs = []
    try:
        base, change = (
            git("rev-parse", "--verify", f"{rev}^{{commit}}", stdout=subprocess.PIPE, text=True).stdout.strip()
            for rev in (args.base, args.change or args.base)
        )
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
            extract(base, trees["base"])
            extract(change, trees["change"])
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    got[side] = run_once(trees[side], args, f"pair {k + 1} {side}")
                    print(f"pair {k + 1} {side}: " + json.dumps(
                        {m: v["value"] for m, v in got[side][1]["metrics"].items()}), flush=True)
                runs.append((got["base"], got["change"]))
        entry = make_entry(runs, spec, base, change, args.workload, args.seed, args.seconds)
    except (ValueError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    path = args.out / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    for name, m in entry["metrics"].items():
        print(f"  {name:<20} {m['base']['median']:>12.6g} -> {m['change']['median']:<12.6g}"
              f" change won {m['change_won']}/{len(runs)}  spread {m['spread']:.1%}"
              + ("  unresolved" if m["unresolved"] else ""))
    print(f"digests {entry['digests']['base'][:8]} {entry['digests']['change'][:8]}; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
