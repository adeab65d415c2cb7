"""Benchmark entry point: builds the program if needed, then runs one
workload in a fresh JVM with a fixed heap and collector, and prints the
JVM's report. The last line of standard output is the JSON result.
BENCHMARK.json is the one list of workloads and metrics: the JVM reports
bare values, and this script adds the units from it.

Run from the repository root:
  python3 perfbench/run.py --workload estpm-re|astpm-syn72|spark-inf \
      --seed N --seconds S --trace 0|1
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

# Noise controls. The heap is fixed at start (-Xms = -Xmx) and touched up
# front, so it never grows during a run. The collector is named, so a JDK
# default cannot change under the benchmark. Parallel GC with a fixed young
# generation collects the same way in every job (adaptive sizing varied the
# collection count from 7 to 11 per E-STPM job). Large survivor spaces and a
# tenuring threshold of 15 keep short-lived objects out of the old generation,
# where they would count as live after every young collection: without them,
# peak_live_mb on spark-inf ranged over 1.1-1.5 GB between runs. Transparent
# huge pages, where the kernel offers them, map the heap with fewer TLB entries.
JVM_FLAGS = ["-Xms4g", "-Xmx4g", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
             "-Xmn1536m", "-XX:SurvivorRatio=4", "-XX:InitialTenuringThreshold=15",
             "-XX:MaxTenuringThreshold=15", "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch"]


def git_sha():
    if not Path(".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not Path("BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found; run from the repository root", file=sys.stderr)
        sys.exit(2)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    expected = spec["per_layer" if a.trace else "end_to_end"]
    classpath = build.build()
    out = build.BUILD / "out"
    tmp = (build.BUILD / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [build.java()] + JVM_FLAGS + [
        f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.gitSha={git_sha()}",
        "-cp", classpath, "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", str(out)]

    # Relay the report as it comes; hold back the JSON line until it is checked.
    result = None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.startswith("{"):
                result = line
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or result is None:
        print(f"perfbench: the benchmark JVM exited with code {code}", file=sys.stderr)
        sys.exit(code or 1)
    report = json.loads(result)
    values = report["metrics"]
    # A per-layer metric of a layer the workload never calls (spark.* on the
    # local workloads) is reported as 0; an end-to-end metric must be measured.
    missing = [m["name"] for m in expected if m["name"] not in values and not a.trace]
    unknown = set(values) - {m["name"] for m in expected}
    if missing or unknown:
        print(f"perfbench: metrics {sorted(missing)} missing and {sorted(unknown)} not in BENCHMARK.json",
              file=sys.stderr)
        sys.exit(3)
    report["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in expected}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
