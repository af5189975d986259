#!/usr/bin/env python3
"""Runs the mutree benchmark, keeps one record per run, and compares records.

Run from the root of the repository:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds perfbench (release, offline) into $CARGO_TARGET_DIR (default
      .bench_build), runs one workload, writes the run's record under
      .perfbench/records/ (and its spans under .perfbench/spans/ when
      traced), and prints the result as the last line of stdout.
  python3 perfbench/run.py metrics
      Prints every metric of BENCHMARK.json by name, unit and bound.
  python3 perfbench/run.py compare BASE NEW
      Prints per-workload, per-metric deltas between two records, or two
      directories of records compared by their medians, against the bounds
      in BENCHMARK.json. Exits 1 when an end-to-end metric regressed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
RECORDS = os.path.join(ROOT, ".perfbench", "records")
SPANS = os.path.join(ROOT, ".perfbench", "spans")
RECORD_SCHEMA = "perfbench-record v1"
# A run must end within 180 s; leave the wrapper a margin.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_rev():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    binary = build()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        spans = os.path.join(SPANS, name + ".tsv")
        cmd += ["--spans", spans]
    # The library reads some MUTREE_* settings itself (the pipeline's
    # ambient cache and thread count); every record measures the default
    # configuration, so none of them reaches the run.
    ignored = sorted(k for k in os.environ if k.startswith("MUTREE_"))
    env = {k: v for k, v in os.environ.items() if k not in ignored}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail("run reported wrong answers")
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {kind} "
             f"{sorted(expected.items())}")

    record = {
        "schema": RECORD_SCHEMA,
        "git_rev": git_rev(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "started_utc": stamp,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "notes": result.get("notes", {}),
        "spans": os.path.relpath(spans, ROOT) if spans else None,
        "ignored_env": ignored,
    }
    os.makedirs(RECORDS, exist_ok=True)
    with open(os.path.join(RECORDS, name + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for metric, v in result["metrics"].items():
        print(f"{args.workload}\t{metric}\t{v['value']}\t{v['unit']}")
    for key, value in record["notes"].items():
        print(f"{args.workload}\tnote {key}\t{value}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def list_metrics(_args):
    spec = load_spec()
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            bound = m.get("bound")
            bound = f"bound {bound:.0%}" if bound is not None else "no bound"
            print(f"{kind}\t{m['name']}\t{m['unit']}\t{m['better']}\t{bound}")


def load_records(path):
    if os.path.isdir(path):
        paths = [os.path.join(path, p) for p in sorted(os.listdir(path)) if p.endswith(".json")]
    else:
        paths = [path]
    records = []
    for p in paths:
        with open(p) as f:
            record = json.load(f)
        if record.get("schema") != RECORD_SCHEMA:
            fail(f"{p} is not a {RECORD_SCHEMA} file")
        records.append(record)
    if not records:
        fail(f"no records in {path}")
    return records


def medians(records):
    """(workload, traced) -> metric -> median value over the records."""
    values = {}
    for r in records:
        group = values.setdefault((r["workload"], r["traced"]), {})
        for name, m in r["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return {g: {n: statistics.median(v) for n, v in ms.items()} for g, ms in values.items()}


def compare(args):
    spec = load_spec()
    info = {m["name"]: m for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    base, new = medians(load_records(args.base)), medians(load_records(args.new))
    regressed = []
    print("workload\tmetric\tbase\tnew\tdelta\tbound\tverdict")
    for group in sorted(set(base) & set(new)):
        workload, traced = group
        for name in sorted(set(base[group]) & set(new[group])):
            b, n = base[group][name], new[group][name]
            m = info.get(name, {})
            delta = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
            worse = delta > 0 if m.get("better") == "lower" else delta < 0
            bound = m.get("bound")
            if bound is None:
                verdict = "-"
            elif worse and abs(delta) > bound:
                verdict = "REGRESSED"
                regressed.append(f"{workload} {name}")
            else:
                verdict = "ok"
            shown = f"{bound:.0%}" if bound is not None else "-"
            print(f"{workload}\t{name}\t{b:.6g}\t{n:.6g}\t{delta:+.1%}\t{shown}\t{verdict}")
    if regressed:
        fail("regressed beyond bound: " + ", ".join(regressed))


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["metrics"]:
        return list_metrics(argv[1:])
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args(argv))


if __name__ == "__main__":
    main()
