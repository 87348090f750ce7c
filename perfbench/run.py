#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tune-sim --seed 1 --seconds 10 --trace 0

Workloads: tune-sim, jit-cold, serve-mix (see perfbench/README.md). The
first run configures and builds perfbench/ (the tvmbo libraries from src/,
tvmbo_worker, tvmbo_serve and the driver) into the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs reuse it. Every file
a run creates stays under that directory. The last line of stdout is one
JSON object {correct, attempted, failed, metrics}; a failed build or run
exits non-zero without printing it. With --trace 1 the metrics are the
per_layer list of BENCHMARK.json, the one list of per-layer metric names:
a layer the workload does not exercise reads 0.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("tune-sim", "jit-cold", "serve-mix")
RUN_LIMIT_S = 170  # the driver run must end well inside 180 s


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir, env):
    source = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr, env=env) == 0


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def stop_group(proc):
    """Stops whatever is left of the driver's process group (the driver,
    its daemon and workers) and waits until every member has ended. SIGTERM
    comes first so a daemon left behind drains and removes its fleet's
    socket directory; SIGKILL follows after 5 s."""
    for sig, wait_s in ((signal.SIGTERM, 5), (signal.SIGKILL, 10)):
        if not group_alive(proc.pid):
            break
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            break
        deadline = time.monotonic() + wait_s
        while group_alive(proc.pid) and time.monotonic() < deadline:
            proc.poll()
            time.sleep(0.01)
    proc.wait()


def per_layer_metrics(root, reported):
    """Orders the driver's per-layer metrics as BENCHMARK.json lists them,
    adding 0 for layers the workload does not exercise. Returns None when
    the driver reports a name or unit the list does not have."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in reported.items():
        if units.get(name) != metric["unit"]:
            log("perfbench: per-layer metric %s (%s) is not in BENCHMARK.json"
                % (name, metric["unit"]))
            return None
    return {m["name"]: reported.get(m["name"],
                                    {"value": 0.0, "unit": m["unit"]})
            for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    env.pop("TVMBO_JIT_CACHE", None)
    env.pop("TVMBO_WORKER_BIN", None)

    if not build(root, build_dir, env):
        log("perfbench: build failed")
        return 1

    # Relative paths keep the daemon's unix socket path short.
    run_dir = os.path.relpath(
        os.path.join(out_dir, "runs",
                     "%s-%d-%d" % (args.workload, args.seed, os.getpid())),
        root)
    spans = os.path.join(out_dir, "spans",
                         "%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir, "--bin-dir", build_dir]
    if args.trace:
        command += ["--spans", spans]

    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
        log("perfbench: run exceeded %d s" % RUN_LIMIT_S)
        return 1
    stop_group(proc)
    shutil.rmtree(run_dir, ignore_errors=True)

    lines = output.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(output)
        log("perfbench: driver exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("perfbench: malformed result line")
        return 1
    if args.trace:
        result["metrics"] = per_layer_metrics(root, result["metrics"])
        if result["metrics"] is None:
            return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    log("perfbench: run took %.1f s" % (time.monotonic() - started))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
