"""Time densematch's layers at fixed sizes and write the result as JSON.

    python3 bench/layers.py --out FILE [--sizes 800 1600 3200 6400]

So far one layer is timed, graph generation: for each order ``n`` it builds
``complement_of_random_triangle_free(n, 11)`` 5 times in this process and
keeps every wall time with their median and interquartile range, so a
reader sees what the machine can resolve.  For each ``n`` a fresh process
also imports the library, builds the graph once and reports its peak
resident set (Linux ``VmHWM``), over the import baseline too.  The file
records the graph's edge count, which is exact per seed, the machine
(nproc, CPU, Python, numpy) and the git commit, marked dirty when tracked
files differ from it.  Nothing here is a gate: the script asserts no time.

The library is imported from ``src/`` of the checkout this file sits in.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

from densematch import complement_of_random_triangle_free  # noqa: E402

SIZES = (800, 1600, 3200, 6400)
SEED = 11
# builds timed per size; the quartiles need at least 2
REPEATS = 5

# run in a fresh process: peak RSS after import and after one build, in KiB.
# VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts from the RSS of
# the process that spawned it, here one that has built the larger graphs
_PEAK_RSS = """
import sys
from densematch import complement_of_random_triangle_free

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

n, seed = map(int, sys.argv[1:])
base = peak()
complement_of_random_triangle_free(n, seed)
print(base, peak())
"""


def spread(samples: list) -> dict:
    """Median, quartiles and interquartile range of at least two samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "samples": samples}


def generation(n: int) -> dict:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        g = complement_of_random_triangle_free(n, SEED)
        times.append(time.perf_counter() - start)
    return {"m": g.m, "build_s": spread(times)}


def peak_rss(n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS, str(n), str(SEED)], env=env,
                         capture_output=True, text=True, check=True).stdout
    base, peak = map(int, out.split())
    grown = peak - base
    return {"mib": peak / 1024, "over_import_mib": grown / 1024,
            "bytes_per_pair": grown * 1024 / (n * (n - 1) // 2)}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def commit() -> dict | None:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()
    try:
        return {"head": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    args = parser.parse_args(argv)
    if min(args.sizes) < 2:
        parser.error("every size must be at least 2")
    report = {"machine": machine(), "commit": commit(), "seed": SEED,
              "repeats": REPEATS, "sizes": args.sizes,
              "layers": {"generation": {}}, "peak_rss": {}}
    for n in args.sizes:
        report["layers"]["generation"][str(n)] = generation(n)
        report["peak_rss"][str(n)] = peak_rss(n)
        build = report["layers"]["generation"][str(n)]["build_s"]
        print(f"n={n}: build {build['median']:.3f} s (IQR {build['iqr']:.3f}), peak RSS "
              f"{report['peak_rss'][str(n)]['mib']:.1f} MiB", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
