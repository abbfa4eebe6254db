#!/usr/bin/env python3
"""Repository benchmark: builds `perfbench`, runs one workload, prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the Rust package in this
directory (into $CARGO_TARGET_DIR, default `.bench_build`), pins the
measuring process (and the daemon child of `daemon-service`) to one fixed
CPU, runs set-up several times and reports the median, and prints as its
last line one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics, or with `--trace 1` the per-layer ones). It exits
nonzero when a correctness check fails. See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
TRACES = os.path.join(ROOT, ".perfbench-out")
SETUP_ROUNDS = 3
# Every run ends within this many seconds of its start, build excluded; a
# child still running then is killed and the run fails without a result.
RUN_LIMIT_S = 170


def time_left(start):
    return max(1.0, start + RUN_LIMIT_S - time.time())

# Every workload's measuring process is pinned to one CPU.
WORKLOADS = ["antisat-1cpu", "sfll-store", "daemon-service"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; returns its path."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    if done.returncode != 0:
        raise SystemExit(f"build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def metric_names(trace):
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def cpu_plan():
    """(cpus of the process doing the work, cpus of a daemon's client).

    The work runs on the highest CPU this process may use, on every run;
    a daemon's client gets the lowest, so it does not compete with it."""
    allowed = sorted(os.sched_getaffinity(0))
    work = [allowed[-1]]
    client = [allowed[0]] if len(allowed) > 1 else work
    return work, client


def pin(cpus):
    return lambda: os.sched_setaffinity(0, set(cpus))


def run_child(cmd, cpus, timeout):
    """Run `cmd` pinned to `cpus`; echo its lines; return its final JSON."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          preexec_fn=pin(cpus), timeout=timeout)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd[1]} exited {done.returncode}")
    return json.loads(lines[-1])


class Daemon:
    """A `perfbench daemon` child, pinned, serving on an OS-assigned port."""

    def __init__(self, binary, root, cpus, spans=None):
        self.root = root
        self.spans = spans
        cmd = [binary, "daemon", "--root", root]
        if spans:
            cmd += ["--spans", spans]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     preexec_fn=pin(cpus))
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.addr = line.split()[-1]

    def flag(self):
        parts = [self.addr, str(self.proc.pid), self.root] + ([self.spans] if self.spans else [])
        return ",".join(parts)

    def stop(self, drain=True):
        """Wait for the daemon to drain after the client's shutdown (or,
        when the client failed before sending it, stop it at once)."""
        if not drain:
            self.proc.kill()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def one_round(binary, args, work, cpus, t0, setup_only, start):
    """One set-up (and, unless `setup_only`, the measured run)."""
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACES, f"{args.workload}-{args.seed}.trace.json")]
    if args.tiny:
        cmd.append("--tiny")
    daemons, finished = [], False
    try:
        if args.workload == "daemon-service":
            os.makedirs(work, exist_ok=True)
            kinds = ["plain", "traced"] if args.trace and not setup_only else ["plain"]
            for kind in kinds:
                spans = os.path.join(work, "daemon-spans.json") if kind == "traced" else None
                daemons.append(Daemon(binary, os.path.join(work, f"daemon-{kind}"),
                                      cpus[0], spans))
            for d in daemons:
                cmd += ["--daemon", d.flag()]
            out = run_child(cmd, cpus[1], timeout=time_left(start))
        else:
            out = run_child(cmd, cpus[0], timeout=time_left(start))
        finished = True
        return out
    finally:
        for d in daemons:
            d.stop(drain=finished)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs (smoke test only)")
    args = p.parse_args()

    binary = build()
    start = time.time()
    cpus = cpu_plan()
    base = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    failures, attempted, setups, references = [], 0, [], set()
    result = None
    try:
        rounds = 1 if args.trace else SETUP_ROUNDS
        for r in range(rounds):
            work = os.path.join(base, f"round{r}")
            t0 = time.time()
            out = one_round(binary, args, work, cpus, t0, r < rounds - 1, start)
            setups.append(out["metrics"].get("setup_s", {}).get("value", 0.0))
            references.add(out["reference"])
            attempted += 1
            result = out
        if len(references) != 1:
            failures.append(f"set-up rounds disagree on the reference: {sorted(references)}")
        attempted += result["attempted"]
        failures += result["failures"]
        metrics = result["metrics"]
        if args.trace:
            # The four kernels on the workload's pinned CPU and on every CPU.
            every_cpu = sorted(os.sched_getaffinity(0))
            for suffix, cpu_set in (("1cpu", cpus[0]), ("allcpu", every_cpu)):
                out = run_child([binary, "neural", "--workload", args.workload,
                                 "--seed", str(args.seed), "--suffix", suffix]
                                + (["--tiny"] if args.tiny else []), cpu_set,
                                timeout=time_left(start))
                metrics.update(out["metrics"])
        else:
            metrics["setup_s"]["value"] = statistics.median(setups)
            metrics["setup_s"]["n"] = len(setups)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    machine = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpu_set": cpus[0],
        "available_parallelism": result["available_parallelism"],
        "reference_loop_ms": result["reference_loop_ms"],
        "setup_s_rounds": setups,
    }
    print("machine " + json.dumps(machine))
    if not args.trace:
        # Success counts every check, including the set-up rounds'.
        ok = attempted - len(failures)
        metrics["success_rate"]["value"] = ok / attempted if attempted else 0.0
    correct = not failures
    doc = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    names = metric_names(args.trace)
    missing = [m for m in names if m not in doc["metrics"]]
    if missing:
        log(f"perfbench: missing metrics {missing}")
        sys.exit(2)
    doc["metrics"] = {m: doc["metrics"][m] for m in names}
    print(json.dumps(doc))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
