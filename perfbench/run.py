"""altalg benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload verify-all --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42     # every workload in turn

--trace 0 drives the program from outside, as a user does: cold
``python3 -m altalg ...`` processes (and the elimination batch of
ratfun.py), one at a time from one client (closed loop).  The commands run
in rounds for about --seconds (at least once each), with SETUP_REPS timed
set-up probes spread among them.  It reports the end-to-end metrics of
BENCHMARK.json.

--trace 1 runs tracer.py in one child process: the same commands
in-process, untraced and then traced, for the per-layer metrics of
BENCHMARK.json and the tracing overhead.

Every output passes the gate of expected.json (exit code and stdout digest),
serial and --parallel reports must be byte-identical, and traced output must
equal untraced output.  Details go to perfbench/out/; the last stdout line
is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from workloads import (BENCH_DIR, ROOT, SRC, VERIFY_PARALLEL, VERIFY_SERIAL,
                       WORKLOADS, digest, failed_suites, use_checkout_source)

SETUP_REPS = 9
TIME_LIMIT_S = 170          # a run must end within 180 s
MIN_COVERAGE = 0.9          # spans below cli.main must cover this share of the traced wall
OUT_DIR = BENCH_DIR / "out"


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


class Child:
    """A finished child process."""

    def __init__(self, rc, stdout, stderr, wall_s, maxrss_mb):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb

    def stderr_tail(self) -> str:
        return self.stderr.decode(errors="replace").strip()[-300:]


def run_child(argv: list, deadline: Deadline) -> Child:
    """Run argv from the checkout root, killed at the deadline; time it from
    start to reaping and take its peak RSS from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    timer = threading.Timer(max(deadline.left(), 0.0), proc.kill)
    reader.start()
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


class Gate:
    """Counts command executions and the ones whose output is wrong."""

    def __init__(self):
        doc = json.loads((BENCH_DIR / "expected.json").read_text())
        self.expected = doc["commands"]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label: str, key: str, rc: int, md5: str, extra=()) -> None:
        self.attempted += 1
        exp = self.expected[key]
        bad = list(extra)
        if rc != exp["rc"]:
            bad.append(f"exit code {rc}, expected {exp['rc']}")
        if md5 != exp["md5"]:
            bad.append(f"stdout md5 {md5}, expected {exp['md5']}")
        if bad:
            self.failed += 1
            self.problems.append(f"{label}{key}: " + "; ".join(bad))

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "verify_parallel": "altalg.suites.run_all starts a fixed pool of 4 "
                               "threads (max_workers=4) whatever nproc is; "
                               "--trace 1 reports the count it observed"}


def measure_cold(w, seed: int, seconds: float, deadline: Deadline, gate: Gate) -> tuple:
    """End-to-end metrics from cold processes; returns (metrics, details)."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             "--workload", w.name, "--seed", str(seed)]
    setup = []

    def probe_setup():
        c = run_child(probe, deadline)
        gate.require(c.rc == 0, f"set-up probe exited {c.rc}: {c.stderr_tail()}")
        setup.append(c.wall_s)

    # Commands run in rounds, every other round in reverse order, until the
    # next one would end more than half its length past --seconds (after one
    # full round), so each run measures for about --seconds whatever the
    # machine's speed.  wall_s sums each command's fastest time: on a shared
    # VM the speed drops by up to 1.5x for stretches of seconds, which only
    # ever add time, so the fastest sample moves least.  The SETUP_REPS
    # set-up probes are spread over the same window: probes taken back to
    # back would all see one speed.
    n = len(w.commands)
    runs = {cmd.key: [] for cmd in w.commands}
    first_serial, rss = None, 0.0
    t0 = time.perf_counter()
    for i in itertools.count():
        cmd = w.commands[i % n if (i // n) % 2 == 0 else n - 1 - i % n]
        if i >= n:
            expected = min(c.wall_s for c in runs[cmd.key])
            if (time.perf_counter() - t0 + expected / 2 > seconds
                    or deadline.left() < 2 * expected):
                break
        while (len(setup) < SETUP_REPS
               and len(setup) * seconds <= SETUP_REPS * (time.perf_counter() - t0)):
            probe_setup()
        c = run_child(cmd.child_argv(seed), deadline)
        runs[cmd.key].append(c)
        rss = max(rss, c.maxrss_mb)
        extra = []
        if c.rc < 0:
            extra.append(f"killed by signal {-c.rc}")
        if cmd.key.startswith("verify ") and c.rc == 0:
            extra += [f"suite {s} did not pass" for s in failed_suites(c.stdout)]
        if cmd.key == VERIFY_SERIAL and first_serial is None:
            first_serial = c.stdout
        if cmd.key == VERIFY_PARALLEL and c.stdout != first_serial:
            extra.append("output differs from the serial run")
        gate.check(f"run {len(runs[cmd.key])}: ", cmd.key, c.rc,
                   digest(c.stdout, seed), extra)
    while len(setup) < SETUP_REPS:
        probe_setup()

    walls = {key: sorted(c.wall_s for c in cs) for key, cs in runs.items()}
    metrics = {"wall_s": sum(ts[0] for ts in walls.values()),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss}
    per_cmd = {key: {"wall_s": [c.wall_s for c in cs], "rc": [c.rc for c in cs],
                     "maxrss_mb": max(c.maxrss_mb for c in cs),
                     "md5": sorted({digest(c.stdout, seed) for c in cs})}
               for key, cs in runs.items()}
    details = {"measured_s": time.perf_counter() - t0, "setup_wall_s": setup,
               "commands": per_cmd,
               "wall_median_s": sum(statistics.median(ts) for ts in walls.values()),
               "wall_slowest_s": sum(ts[-1] for ts in walls.values())}
    if VERIFY_PARALLEL in walls:
        details["parallel_wall_s"] = walls[VERIFY_PARALLEL][0]
        details["parallel_wall_slowest_s"] = walls[VERIFY_PARALLEL][-1]
    return metrics, details


def measure_traced(w, seed: int, deadline: Deadline, gate: Gate) -> tuple:
    """Per-layer metrics from one traced child; returns (metrics, details)."""
    spans = OUT_DIR / f"spans-{w.name}-seed{seed}.json"
    c = run_child([sys.executable, str(BENCH_DIR / "tracer.py"), "--workload",
                   w.name, "--seed", str(seed), "--spans", str(spans)], deadline)
    lines = c.stdout.decode(errors="replace").strip().splitlines()
    if c.rc != 0 or not lines:
        sys.exit(f"error: traced run exited {c.rc}: {c.stderr_tail()}")
    summary = json.loads(lines[-1])
    by_key = {}
    for entry in summary["commands"]:
        key, u, t = entry["key"], entry["untraced"], entry["traced"]
        by_key[key] = entry
        gate.check("untraced: ", key, u["rc"], u["md5"])
        extra = [] if (t["rc"], t["md5"]) == (u["rc"], u["md5"]) else \
            ["traced output differs from untraced output"]
        gate.check("traced: ", key, t["rc"], t["md5"], extra)
    if VERIFY_PARALLEL in by_key:
        for side in ("untraced", "traced"):
            gate.require(by_key[VERIFY_PARALLEL][side]["md5"]
                         == by_key[VERIFY_SERIAL][side]["md5"],
                         f"{side}: --parallel output differs from serial output")
    metrics = summary.pop("metrics")
    gate.require(metrics["trace.coverage"] >= MIN_COVERAGE,
                 f"spans below cli.main cover {metrics['trace.coverage']:.3f} of "
                 f"the traced wall time, below {MIN_COVERAGE}")
    summary["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, summary


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    w = WORKLOADS[name]
    gate = Gate()
    deadline = Deadline(TIME_LIMIT_S)
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        metrics, details = measure_traced(w, seed, deadline, gate)
    else:
        metrics, details = measure_cold(w, seed, seconds, deadline, gate)
    specs = declared["per_layer" if trace else "end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {', '.join(missing)}")
    result = {"correct": gate.correct, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                          for s in specs}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "problems": gate.problems,
              "ops_failed": gate.failed / gate.attempted if gate.attempted else 0.0,
              "details": details, "result": result}
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    _print_report(record, specs)
    return result


def _print_report(record: dict, specs: list) -> None:
    r, d = record["result"], record["details"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("machine: " + json.dumps(record["machine"]))
    if record["trace"]:
        for entry in d["commands"]:
            u, t = entry["untraced"], entry["traced"]
            print(f"  {entry['key']:45s} untraced {u['wall_s']:8.3f} s  traced "
                  f"{t['wall_s']:8.3f} s  covered {t['coverage']:.3f}  rc {t['rc']}  "
                  f"md5 {t['md5']}")
        print(f"  suite threads per command: {json.dumps(d['suite_threads'])}")
    else:
        print(f"  measured {d['measured_s']:.1f} s; set-up runs "
              + " ".join(f"{s:.3f}" for s in d["setup_wall_s"]) + " s")
        for key, c in d["commands"].items():
            print(f"  {key:45s} " + " ".join(f"{x:8.3f}" for x in c["wall_s"])
                  + f" s  rc {c['rc'][0]}  rss {c['maxrss_mb']:.1f} MB  md5 "
                  + ",".join(c["md5"]))
        print(f"  command list: fastest {r['metrics']['wall_s']['value']:.3f} s, median "
              f"{d['wall_median_s']:.3f} s, slowest {d['wall_slowest_s']:.3f} s "
              "(per command over its runs, summed)")
        if "parallel_wall_s" in d:
            print(f"  parallel_wall_s {d['parallel_wall_s']:.4f} s, slowest "
                  f"{d['parallel_wall_slowest_s']:.4f} s  (verify all --parallel)")
    for s in specs:
        m = r["metrics"][s["name"]]
        print(f"  {s['name']:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  ops_failed {record['ops_failed']:.4f}  ({r['failed']}/{r['attempted']} "
          f"command runs)  correct {str(r['correct']).lower()}")
    for p in record["problems"]:
        print(f"  MISMATCH {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    use_checkout_source()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), declared)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
