#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds `perfbench/perfbench.exe` and `bin/dsdg.exe` with dune, runs the
benchmark, passes its standard output through (the last line is the JSON
result), and then checks that the run left no server process and no
run directory behind. Exits nonzero, printing no result, if the checkout
is not a full source tree, the build fails, the run fails or times out,
or the hygiene check fails. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = "_build/default/perfbench/perfbench.exe"
DSDG = "_build/default/bin/dsdg.exe"
RUN_ROOT = ".perfbench"


def die(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def leftovers(pid):
    """Run directories and live processes that belong to run [pid]."""
    tag = "run-%d-" % pid
    dirs = []
    if os.path.isdir(RUN_ROOT):
        dirs = [os.path.join(RUN_ROOT, d) for d in os.listdir(RUN_ROOT) if d.startswith(tag)]
    procs = []
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % p, "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if ("/" + tag) in cmd and "dsdg" in cmd:
            procs.append(int(p))
    return dirs, procs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "bin/dsdg.ml", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            die("not a source checkout (missing %s); run from the repository root" % need, 2)

    build = ["dune", "build", "--root", ".", "-j", "2", "./" + EXE.replace("_build/default/", ""), "./" + DSDG.replace("_build/default/", "")]
    try:
        b = subprocess.run(build, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out after %d s" % BUILD_TIMEOUT_S)
    if b.returncode != 0:
        sys.stderr.write(b.stdout + b.stderr)
        die("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--dsdg", DSDG, "--rev", source_rev()]
    child = subprocess.Popen(cmd, start_new_session=True)
    # a stop request for this wrapper stops the run, which cleans up
    signal.signal(signal.SIGTERM, lambda *_: os.killpg(child.pid, signal.SIGTERM))
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGTERM)
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        code = None

    # hygiene: the benchmark stops its servers and removes its run
    # directory on every exit path; anything left is an error
    deadline = time.time() + 5
    dirs, procs = leftovers(child.pid)
    while procs and time.time() < deadline:
        time.sleep(0.1)
        dirs, procs = leftovers(child.pid)
    for p in procs:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    if code is None:
        die("run timed out after %d s" % RUN_TIMEOUT_S)
    if code != 0:
        die("benchmark exited with code %d" % code)
    if dirs or procs:
        die("run left behind directories %s and processes %s" % (dirs, procs))


if __name__ == "__main__":
    main()
