"""specincl benchmark: one workload (or all of them), checked and measured.

    python3 bench/run.py --workload include-jordan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout that holds ``src/specincl``.  A run makes the
workload's inputs from ``--seed``, then starts fresh interpreters
(``child.py``) that call ``specincl.cli.main`` on them:

* with ``--trace 0``, ``SETUP_REPS`` short ones that stop once the CLI has
  loaded its input, for the set-up time;
* one that runs the workload once to warm up and then repeats it back to back
  until ``--seconds`` after the run started.

Every repetition, the warm-up too, is checked for correct outputs.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (median
duration of one ``cli.main`` call in the warm process), ``setup_s`` (median
time from spawning an interpreter until the CLI has imported ``specincl``
and loaded its input) and ``peak_rss_mb`` (peak resident set size after the
warm-up call, which is one whole CLI run).  With ``--trace 1`` untraced and
traced repetitions alternate, and the run reports the per-layer metrics of
``layers.py``, medians over the traced repetitions; ``trace.overhead_s`` is
the traced median wall time minus the untraced one.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE_DIGESTS = HERE / "reference_digests.json"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# fresh interpreters started per untraced run to time set-up
SETUP_REPS = 5
# a run's measuring process is killed when the run reaches KILL_S
KILL_S = 170.0
# BLAS threads per process: the CLI's own worker threads (``--jobs``) are the
# only parallelism, so no run starts more threads than there are cores
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Rep:
    """One repetition of the workload and what it left behind."""

    traced: bool
    warmup: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0


def environment(nproc: int, env: dict) -> dict:
    """Machine and library versions the figures depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: env.get(k) for k in BLAS_THREADS},
        "git_commit": commit,
    }


def spawn(mode: str, argv_tail: list[str], extra: list[str],
          deadline: float, env: dict) -> tuple[int, dict | None, str]:
    """Run ``child.py`` to the end; return its exit code, result and stderr.

    The result carries ``spawn_ns``, the ``CLOCK_MONOTONIC`` time at which
    the process was started.
    """
    result = WORK / f"{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--root", str(ROOT),
           "--result", str(result), *extra, "--", *argv_tail]
    with open(WORK / "stderr.txt", "wb") as se:
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=se,
                                cwd=ROOT, env=env)
        killer = threading.Timer(max(1.0, deadline - _now()), proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
    err = (WORK / "stderr.txt").read_text(errors="replace").strip()
    if proc.returncode != 0:
        return proc.returncode, None, err
    doc = json.loads(result.read_text(encoding="ascii"))
    doc["spawn_ns"] = spawn_ns
    return 0, doc, err


def check_rep(rep: Rep, record: dict, workload, prep) -> None:
    """Check one repetition's outputs and take their digests."""
    out = Path(record["out"])
    if record["rc"] != 0:
        rep.problems.append(f"exit code {record['rc']}")
        return
    rep.problems = workload.check(
        out, prep, Path(record["out"] + ".stdout").read_text(errors="replace"))
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        rep.digests[path.name] = hashlib.sha256(data).hexdigest()
        rep.bytes_written += len(data)


def _references() -> dict:
    """Artifact digests recorded at the commit that added the benchmark."""
    if not REFERENCE_DIGESTS.exists():
        return {}
    return json.loads(REFERENCE_DIGESTS.read_text(encoding="ascii"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool = False) -> dict:
    """Run one workload for about ``seconds`` and summarise the repetitions.

    With ``record`` it only makes the warm-up call, for its digests.
    """
    from workloads import WORKLOADS
    import layers

    workload = WORKLOADS[name]
    start = _now()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k != "SPECINCL_JOBS"}
    env.update(BLAS_THREADS)
    env_record = environment(nproc, env)
    (WORK / "environment.json").write_text(json.dumps(env_record, indent=1))

    prep = workload.prepare(WORK, seed)
    argv = list(prep.argv)
    if workload.takes_jobs:
        argv += ["--jobs", str(nproc)]
    # load the interpreter, libraries and byte code once before timing
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import specincl.cli", str(ROOT / "src")],
                   cwd=ROOT, env=env, check=True, timeout=120)

    problems = []
    setup_samples = []
    setup_reps = 0 if trace or record else SETUP_REPS
    for _ in range(setup_reps):
        rc, doc, err = spawn("setup", argv, [], start + KILL_S, env)
        if doc is None or doc["input_loaded_ns"] is None:
            problems.append(f"set-up exit code {rc}, input never loaded: "
                            f"{err[-400:]}")
        else:
            setup_samples.append((doc["input_loaded_ns"] - doc["spawn_ns"])
                                 / 1e9)
    until_ns = int(1e9 * (start + seconds))
    extra = ["--work", str(WORK), "--until", str(until_ns),
             "--min-reps", "0" if record else "2"]
    rc, doc, err = spawn("measure", argv, extra + ["--trace"] * trace,
                         start + KILL_S, env)
    reps = []
    if doc is None:
        problems.append(f"exit code {rc}: {err[-400:]}")
    else:
        for record in doc["reps"]:
            rep = Rep(record["traced"], record.get("warmup", False),
                      record["wall_s"], record["cpu_s"], record["spans"])
            check_rep(rep, record, workload, prep)
            reps.append(rep)
    failed = len(problems) + sum(1 for r in reps if r.problems)
    problems += [p for r in reps for p in r.problems]

    summary = {"workload": name, "seed": seed, "environment": env_record,
               "attempted": setup_reps + max(len(reps), 1),
               "failed": failed, "problems": sorted(set(problems))}
    good = [r for r in reps if not r.problems]
    summary["digests"] = good[0].digests if good else {}
    timed = [r for r in good if not r.warmup]
    if not trace:
        summary["metrics"] = {
            "wall_s": statistics.median(r.wall_s for r in timed),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": doc["peak_rss_mb"],
        } if timed and setup_samples else {}
        summary["samples"] = {
            "wall_s": [r.wall_s for r in timed],
            "setup_s": setup_samples,
        }
        return summary

    traced = [r for r in timed if r.traced]
    untraced = [r for r in timed if not r.traced]
    if not traced or not untraced:
        summary["metrics"] = {}
        return summary
    refs = _references().get(name, {}).get(
        str(seed) if workload.seeded else "*", {})
    per_rep = []
    for r in traced:
        m = layers.layer_metrics(r.spans)
        m["cli.bytes_written"] = r.bytes_written
        m["process.cpu_s"] = r.cpu_s
        m["process.cpu_util"] = r.cpu_s / r.wall_s
        m["outputs.digest_compared"] = len(refs)
        m["outputs.digest_changed"] = sum(
            1 for f, digest in refs.items() if r.digests.get(f) != digest)
        per_rep.append(m)
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    untraced_s = statistics.median(r.wall_s for r in untraced)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - untraced_s)
    summary["metrics"] = metrics
    summary["counts_repeat"] = all(
        m[k] == per_rep[0][k] for m in per_rep for k in layers.COUNTS)
    summary["kernel"] = layers.kernel_by_order(layers.SpanTree(traced[0].spans))
    summary["shares"] = layers.shares(traced[0].spans)
    summary["largest"] = layers.largest_spans(traced[0].spans)
    (WORK / "spans.json").write_text(json.dumps(
        [r.spans for r in traced]), encoding="ascii")
    return summary


def print_summary(s: dict, trace: bool) -> None:
    import layers

    print(f"# workload {s['workload']}  seed {s['seed']}  "
          f"{s['attempted']} repetitions, {s['failed']} failed  "
          f"(failed_frac {s['failed'] / s['attempted']:.3f})")
    print(f"# environment {json.dumps(s['environment'], sort_keys=True)}")
    for p in s["problems"]:
        print(f"# PROBLEM {p}")
    if not trace:
        for name, unit in END_TO_END:
            if name in s["metrics"]:
                print(f"{name:<14} {s['metrics'][name]:12.4f} {unit}")
        for name, values in s["samples"].items():
            print(f"# {name} samples: "
                  + " ".join(f"{v:.3f}" for v in values))
        return
    for name, value in s["metrics"].items():
        print(f"{name:<44} {value:16.6g} {layers.UNITS[name]}")
    if not s["metrics"]:
        return
    print(f"# counts repeat across traced repetitions: {s['counts_repeat']}")
    print("# share of cli.main by layer (self time):")
    for label, share in s["shares"].items():
        print(f"#   {label:<40} {100 * share:6.1f} %")
    print("# largest single spans: " + ", ".join(
        f"{n} {d:.3f} s" for n, d in s["largest"]))
    print("# smin kernel by swept shape (rows x cols): calls, nodes, us/node;"
          " ROADMAP baseline us/node at that order, serial")
    for (rows, cols), (calls, nodes, secs) in sorted(
            s["kernel"].items(), key=lambda kv: (kv[0][1], kv[0][0])):
        base = layers.BASELINE_US_PER_NODE.get(cols)
        print(f"#   {rows:>4} x {cols:<4} {calls:>7} {nodes:>10} "
              f"{1e6 * secs / nodes:10.2f}   "
              f"{'-' if base is None else base}")
    print("# block-gersh is not covered by any workload yet")


def result_line(summaries: list[dict], trace: bool) -> dict:
    import layers

    units = dict(END_TO_END) if not trace else layers.UNITS
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        for name, unit in units.items():
            if name in s["metrics"]:
                metrics[prefix + name] = {"value": s["metrics"][name],
                                          "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    complete = all(len(s["metrics"]) == len(units) for s in summaries)
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record_digests(summary: dict) -> None:
    """Store a run's artifact digests as the reference for its seed."""
    from workloads import WORKLOADS

    name, seed = summary["workload"], summary["seed"]
    refs = _references()
    key = str(seed) if WORKLOADS[name].seeded else "*"
    refs.setdefault(name, {})[key] = summary["digests"]
    REFERENCE_DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                 + "\n", encoding="ascii")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run each workload once and store its artifact "
                             "digests as the reference for its seed")
    args = parser.parse_args()

    if not (ROOT / "src" / "specincl" / "__init__.py").is_file():
        print(f"bench: no specincl sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    summaries = []
    for name in names:
        if args.record_digests:
            summary = run_workload(name, args.seed, 0, False, record=True)
            if summary["failed"]:
                print_summary(summary, False)
                return 1
            record_digests(summary)
            continue
        summary = run_workload(name, args.seed, args.seconds, trace)
        print_summary(summary, trace)
        summaries.append(summary)
    if args.record_digests:
        return 0
    if len(summaries) > 1 and not trace:
        print("# workload          wall_s (s)  setup_s (s)  peak_rss_mb (MB)"
              "  failed_frac")
        for s in summaries:
            m = s["metrics"]
            print(f"# {s['workload']:<16}"
                  + "".join(f" {m.get(k, float('nan')):11.3f}"
                            for k, _ in END_TO_END)
                  + f"  {s['failed'] / s['attempted']:11.3f}")
    print(json.dumps(result_line(summaries, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
