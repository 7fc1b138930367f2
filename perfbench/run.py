#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds.

`--workload all` runs every workload in turn and ends with a table of
their metrics instead of a JSON line.

Run from the root of a checkout. The first run compiles the program and
the benchmark from source into .bench_build/ with the Scala compiler that
ships in $SPARK_HOME/jars; later runs reuse the build while the sources are
unchanged.
The JVM prints a summary and, as the last line, one JSON result; spans of
a traced run and a copy of every result go to .bench_build/perfbench/.

Workloads, metrics and the seeds are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

START = time.monotonic()
RUN_LIMIT_S = 175    # a run must end within 180 s...
BUILD_LIMIT_S = 700  # ...or 900 s when it builds (880 s here, build included)

WORKLOADS = ("par_uniform", "par_shift_self", "spark_microbatch")
JVM_OPTS = [
    "-Xms2g", "-Xmx2g",
    "-XX:-UsePerfData",  # no hsperfdata file outside the checkout
    # JIT-compile after a quarter of the usual call counts: Spark's planner
    # runs a few times per batch, and at the default thresholds its batches
    # still sped up 10-20% over the timed segments after 200 warm-up batches
    "-XX:CompileThresholdScaling=0.25",
    "-Dlog4j2.level=WARN",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def compiler_jars():
    """Spark's jars/ directory, and the Scala compiler it ships: the same
    Scala 2.13 release that the program is built with and runs on."""
    jars = Path(os.environ["SPARK_HOME"]) / "jars"
    compilers = sorted(jars.glob("scala-compiler-2.13.*.jar"))
    if not compilers:
        fail(f"no scala-compiler-2.13 jar in {jars}")
    return jars, compilers[-1]


def sources(root):
    """Every Scala source of the program and the benchmark, in a fixed order."""
    files = []
    for d in (root / "src" / "main" / "scala", root / "perfbench" / "src" / "main" / "scala"):
        files += sorted(d.rglob("*.scala"))
    return files


def source_hash(root, compiler):
    h = hashlib.sha256(compiler.name.encode())
    for f in sources(root):
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


CHILD = None  # the process group being waited for


def kill_child():
    if CHILD is not None and CHILD.poll() is None:
        os.killpg(CHILD.pid, signal.SIGKILL)
        CHILD.wait()


def on_signal(signum, _frame):
    kill_child()
    sys.exit(128 + signum)


def run_group(cmd, cwd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout
    or when this script is stopped. Returns (exit code, stdout) or
    (None, None) on timeout."""
    global CHILD
    CHILD = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr,
                             start_new_session=True, text=True)
    try:
        out, _ = CHILD.communicate(timeout=timeout)
        return CHILD.returncode, out
    except subprocess.TimeoutExpired:
        kill_child()
        return None, None


def build(root, build_dir):
    """Compile the program and the benchmark into build_dir/classes with
    scalac, unless already built from the same sources. Returns the
    runtime classpath and whether this call built it."""
    jars, compiler = compiler_jars()
    digest = source_hash(root, compiler)
    stamp, classes = build_dir / "stamp", build_dir / "classes"
    classpath = f"{classes}{os.pathsep}{jars / '*'}"
    if stamp.is_file() and stamp.read_text() == digest and classes.is_dir():
        return classpath, False
    print(f"perfbench: compiling with {compiler.name}", file=sys.stderr)
    stamp.unlink(missing_ok=True)
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    argfile = build_dir / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in sources(root)) + "\n")
    scalac = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
              "-cp", str(jars / "*"), "scala.tools.nsc.Main",
              "-usejavacp", "-nowarn", "-d", str(classes), f"@{argfile}"]
    code, _ = run_group(scalac, root, BUILD_LIMIT_S, sys.stderr)
    if code != 0:
        fail("build failed" if code is not None else "build timed out")
    stamp.write_text(digest)
    return classpath, True


def revision(root, digest):
    if not (root / ".git").exists():
        return "src-" + digest[:12]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "src-" + digest[:12]


def run_workload(root, build_dir, cp, workload, args, started, allowed):
    """Run one workload in a JVM, to end within `allowed` seconds of
    `started`; returns its stdout, or exits on failure."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java"] + JVM_OPTS +
           [f"-Djava.io.tmpdir={tmp}",
            f"-Dperfbench.revision={revision(root, (build_dir / 'stamp').read_text())}",
            "-cp", cp, "repro.perfbench.Main",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(build_dir / "results")])
    limit = min(RUN_LIMIT_S, allowed - (time.monotonic() - started))
    code, out = run_group(cmd, root, max(1, limit), subprocess.PIPE)
    if code is None:
        fail(f"{workload} did not finish within the time limit", 1)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"{workload} exited with code {code} and no result", 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no program sources under {root}/src/main/scala: run from a full checkout", 3)
    if "SPARK_HOME" not in os.environ or not (Path(os.environ["SPARK_HOME"]) / "jars").is_dir():
        fail("SPARK_HOME must point at a Spark distribution with a jars/ directory", 3)
    if shutil.which("java") is None:
        fail("java is not on PATH", 3)
    if args.seconds is None:
        args.seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = root / ".bench_build" / "perfbench"
    cp, built = build(root, build_dir)
    if args.workload != "all":
        allowed = 880 if built else RUN_LIMIT_S
        sys.stdout.write(run_workload(root, build_dir, cp, args.workload, args, START, allowed))
        sys.stdout.flush()
        return
    results = {}
    for w in WORKLOADS:
        started = time.monotonic()
        out = run_workload(root, build_dir, cp, w, args, started, RUN_LIMIT_S)
        print(f"== {w} ({time.monotonic() - started:.0f} s)")
        print("\n".join(out.splitlines()[:-1]), flush=True)
        results[w] = json.loads(out.splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("\n" + f"{'metric':32s}" + "".join(f"{w:>18s}" for w in WORKLOADS))
    for n in names:
        unit = results[WORKLOADS[0]]["metrics"][n]["unit"]
        print(f"{n + ' (' + unit + ')':32s}" +
              "".join(f"{results[w]['metrics'][n]['value']:18.4f}" for w in WORKLOADS))
    print(f"{'error_rate (fraction)':32s}" +
          "".join(f"{results[w]['failed'] / results[w]['attempted']:18.4f}" for w in WORKLOADS))


if __name__ == "__main__":
    main()
