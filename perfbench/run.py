#!/usr/bin/env python3
"""Run one workload of the NRP benchmark from the root of a checkout.

    python3 perfbench/run.py --workload lp-directed --seed 1 --seconds 10 --trace 0

The first run builds the benchmark (sbt, offline) into .bench_build/ and
records the runtime classpath; later runs reuse it until a source file
changes. Each run is one JVM: perfbench.Main in local Spark mode. The last
line printed is the result object; a run that fails prints no result and
exits non-zero.
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

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(OUT, "perfbench", "classpath.txt")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "log4j2.properties")]
    for top in (PROGRAM_SOURCES, os.path.join(BENCH, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith((".scala", ".java"))]
    return sorted(files)


def source_id():
    """The commit, or a hash of the sources when the checkout has no git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return home


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build(env):
    """Compiles with sbt and records the runtime classpath, unless the
    recorded one is newer than every source. Returns whether it built."""
    stale = not os.path.exists(CLASSPATH) or \
        max(os.path.getmtime(f) for f in source_files()) > os.path.getmtime(CLASSPATH)
    if not stale:
        return False
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    opts = env.get("SBT_OPTS", "")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "sbt.repository.config" not in opts and os.path.exists(repos):
        opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    benv = dict(env, SBT_OPTS=opts.strip(), COURSIER_MODE=env.get("COURSIER_MODE", "offline"))
    code, out = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                           "export Runtime/fullClasspath"],
                          BUILD_LIMIT_S, cwd=BENCH, env=benv, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or ".jar" not in lines[-1] or lines[-1].startswith("["):
        sys.stderr.write(out[-4000:])
        fail("build failed")
    os.makedirs(os.path.dirname(CLASSPATH), exist_ok=True)
    tmp = CLASSPATH + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(lines[-1].strip())
    os.replace(tmp, CLASSPATH)
    return True


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail(f"no program sources at {os.path.relpath(PROGRAM_SOURCES, ROOT)}: run from the root of a checkout")
    env = dict(os.environ, SPARK_HOME=spark_home())
    built = build(env)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()

    scratch = os.path.join(OUT, "run")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *[f"--add-opens={m}=ALL-UNNAMED" for m in OPENS],
           "-Xms2g", "-Xmx2g", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
           f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
           f"-Dperfbench.source={source_id()}",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    elapsed = int(time.monotonic() - start)
    limit = RUN_LIMIT_S if built else max(10, RUN_LIMIT_S - elapsed)
    code, out = run_group(cmd, limit, cwd=scratch, env=dict(env, SPARK_LOCAL_DIRS=tmp),
                          stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        ok = code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(out[-4000:])
        fail(f"benchmark exited with code {code} and no result")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
