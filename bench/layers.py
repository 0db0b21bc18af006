"""Time densematch's layers at fixed sizes and write the result as JSON.

    python3 bench/layers.py --out FILE [--sizes 800 1600 3200 6400]

Two layers are timed so far, each 5 times in this process, keeping every
wall time with their median and interquartile range, so a reader sees what
the machine can resolve.  Generation builds
``complement_of_random_triangle_free(n, 11)`` for each order ``n``;
extraction runs a 20-trial ``extract_best`` on that graph at ``t = n/8``,
``c = 8`` and master seed 11 (the first call also builds the graph's numpy
rows).  For each ``n`` a fresh process also imports the library, builds
the graph once and reports its peak resident set (Linux ``VmHWM``), over
the import baseline too.  The file records the graph's edge count and the
extraction's attempts per trial and best non-adjacent pair count, all exact
per seed, the machine (nproc, CPU, Python, numpy) and the git commit,
marked dirty when tracked files differ from it.  Nothing here is a gate:
the script asserts no time.

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

from densematch import complement_of_random_triangle_free, extract_best  # noqa: E402

SIZES = (800, 1600, 3200, 6400)
SEED = 11
# calls timed per layer and size; the quartiles need at least 2
REPEATS = 5
# extraction runs at t = n/C, the paper's regime at c = 8
C, TRIALS = 8, 20
# the least order where t = n/8 is 2; at t = 1 no slack serves an order below 10
MIN_SIZE = 16

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


def generation(n: int) -> tuple:
    """The graph, and its row of the generation layer."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        g = complement_of_random_triangle_free(n, SEED)
        times.append(time.perf_counter() - start)
    return g, {"m": g.m, "build_s": spread(times)}


def extraction(g) -> dict:
    t = g.n // C
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _, run = extract_best(g, C, t, TRIALS, SEED)
        times.append(time.perf_counter() - start)
    return {"t": t, "trials": TRIALS, "attempts_per_trial": run.attempts / TRIALS,
            "best_nonadjacent_pairs": min(r.nonadjacent_pairs for r in run.reports),
            "wall_s": spread(times)}


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
    if min(args.sizes) < MIN_SIZE:
        parser.error(f"every size must be at least {MIN_SIZE}")
    layers = {"generation": {}, "extraction": {}}
    report = {"machine": machine(), "commit": commit(), "seed": SEED,
              "repeats": REPEATS, "sizes": args.sizes, "layers": layers, "peak_rss": {}}
    for n in args.sizes:
        g, layers["generation"][str(n)] = generation(n)
        layers["extraction"][str(n)] = extraction(g)
        report["peak_rss"][str(n)] = peak_rss(n)
        build = layers["generation"][str(n)]["build_s"]
        extract = layers["extraction"][str(n)]["wall_s"]
        print(f"n={n}: build {build['median']:.3f} s (IQR {build['iqr']:.3f}), extract "
              f"{extract['median']:.3f} s (IQR {extract['iqr']:.3f}), peak RSS "
              f"{report['peak_rss'][str(n)]['mib']:.1f} MiB", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
