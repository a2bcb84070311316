#!/usr/bin/env python3
"""Build and run the gmfnet benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gmfnet checkout.  Builds perfbench/bench.exe with
dune, unpacks the committed inputs into .bench_build/perfbench/ and runs
one workload.  The last line of standard output is the result object.
Exits nonzero when the checkout cannot be built or an output check fails.
"""

import argparse
import gzip
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["analyze-m1000", "survive-tiles-k2", "churn-tiles", "daemon-voip"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def fs_type(path):
    """Filesystem type of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def run(cmd, env, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the daemon workload forks gmfnetd and its worker) and wait."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a gmfnet checkout (missing %s)" % needed)

    work = os.path.join(".bench_build", "perfbench")
    inputs = os.path.join(work, "inputs")
    tmp = os.path.join(work, "tmp")
    for d in (inputs, tmp):
        os.makedirs(d, exist_ok=True)
    src = os.path.join("perfbench", "inputs")
    for name in sorted(os.listdir(src)):
        if name.endswith(".gz"):
            with gzip.open(os.path.join(src, name)) as f:
                data = f.read()
            with open(os.path.join(inputs, name[:-3]), "wb") as f:
                f.write(data)

    env = dict(os.environ)
    env.update(
        DUNE_CACHE="disabled",
        TMPDIR=os.path.abspath(tmp),
        XDG_CACHE_HOME=os.path.abspath(os.path.join(work, "cache")),
    )
    t0 = time.time()
    build = ["dune", "build", "--root", ".", "./perfbench/bench.exe"]
    if run(build, env, BUILD_TIMEOUT_S, sys.stderr) != 0:
        fail("build failed")
    print("build %.1fs, journal filesystem %s, nproc %d"
          % (time.time() - t0, fs_type(work), os.cpu_count() or 0))
    sys.stdout.flush()

    if args.workload == "daemon-voip" and hasattr(os, "sched_setaffinity"):
        # Client, gmfnetd and its session worker share one CPU: the round
        # trip then measures the code path rather than cross-CPU wakeup
        # latency, which on a shared 2-CPU host swings run to run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    code = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--inputs", inputs, "--workdir", work],
        env, max(10, RUN_TIMEOUT_S - (time.time() - t0)), None)
    sys.exit(code)


if __name__ == "__main__":
    main()
