"""densematch benchmark.

One workload per process:

    python3 perfbench/run.py --workload extract-rtf --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` installs timing wrappers and reports the per-layer metrics.
Every output is checked; the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

All workloads, each in a fresh process, both modes, plus BENCHMARK.json and a
summary with machine details and layer shares:

    python3 perfbench/run.py --all [--seed 1] [--seconds 32] [--out FILE]

The library is imported from ``src/`` of the checkout this file sits in.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 32
DEFAULT_SEED = 1

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("calls_per_s", "1/s", "higher", 0.25),
    ("call_s_tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)


def _tail(values: list) -> tuple[float, float]:
    """Value and percentile of the highest rank with at least 10 samples above it.

    Below 21 samples that rank falls under the median, so the median is used.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 11, (n - 1) // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def _ratio(total, count):
    return total / count if count else 0.0


# (name, unit, better, span names it needs, value from a LayerView)
PER_LAYER = (
    ("generators.build_s", "s", "lower", ("generators.build",), lambda v: v.incl["generators.build"]),
    ("generators.calls", "count", "lower", ("generators.build",), lambda v: v.calls["generators.build"]),
    ("graphs.alpha_s", "s", "lower", ("graphs.alpha",), lambda v: v.incl["graphs.alpha"]),
    ("graphs.alpha_calls", "count", "lower", ("graphs.alpha",), lambda v: v.calls["graphs.alpha"]),
    ("sampling.self_s", "s", "lower", ("sampling.sample",), lambda v: v.self_s["sampling.sample"]),
    ("sampling.attempts", "count", "lower", ("sampling.sample",),
     lambda v: v.counts["sampling.attempts"]),
    ("sampling.acceptance", "ratio", "higher", ("sampling.sample",),
     lambda v: _ratio(v.counts["sampling.accepted"], v.counts["sampling.attempts"])),
    ("sampling.us_per_attempt", "us", "lower", ("sampling.sample",),
     lambda v: 1e6 * _ratio(v.self_s["sampling.sample"], v.counts["sampling.attempts"])),
    ("extractor.prepare_s", "s", "lower", ("extractor.prepare",), lambda v: v.incl["extractor.prepare"]),
    ("extractor.trial_ms_p50", "ms", "lower", ("extractor.trial",),
     lambda v: 1e3 * statistics.median(v.durations["extractor.trial"] or [0.0])),
    ("extractor.trial_ms_tail", "ms", "lower", ("extractor.trial",),
     lambda v: 1e3 * _tail(v.durations["extractor.trial"] or [0.0])[0]),
    ("extractor.self_s", "s", "lower", ("extractor.trial",), lambda v: v.self_s["extractor.trial"]),
    ("oracles.score_s", "s", "lower", ("oracles.score",), lambda v: v.incl["oracles.score"]),
    ("oracles.score_calls", "count", "lower", ("oracles.score",), lambda v: v.calls["oracles.score"]),
    ("oracles.score_pairs", "count", "lower", ("oracles.score",),
     lambda v: v.counts["oracles.score_pairs"]),
    ("oracles.ns_per_pair", "ns", "lower", ("oracles.score",),
     lambda v: 1e9 * _ratio(v.incl["oracles.score"], v.counts["oracles.score_pairs"])),
    ("oracles.badquads_s", "s", "lower", ("oracles.badquads",), lambda v: v.incl["oracles.badquads"]),
    ("oracles.audit_s", "s", "lower", ("oracles.audit",), lambda v: v.incl["oracles.audit"]),
    ("oracles.cm_s", "s", "lower", ("oracles.cm",), lambda v: v.incl["oracles.cm"]),
    ("oracles.minmatch_s", "s", "lower", ("oracles.minmatch",), lambda v: v.incl["oracles.minmatch"]),
    ("oracles.minmatch_calls", "count", "lower", ("oracles.minmatch",),
     lambda v: v.calls["oracles.minmatch"]),
    ("harness.run_experiment_s", "s", "lower", ("harness.run_experiment",),
     lambda v: v.incl["harness.run_experiment"]),
    ("harness.self_s", "s", "lower", ("harness.run_experiment", "harness.sweep"),
     lambda v: v.self_s["harness.run_experiment"] + v.self_s["harness.sweep"]),
    ("harness.render_s", "s", "lower", ("harness.render",), lambda v: v.incl["harness.render"]),
    ("harness.repeat_share", "ratio", "higher", (), lambda v: v.extra.get("harness.repeat_share", 0.0)),
    ("trace.overhead_frac", "ratio", "lower", (), lambda v: v.extra["trace.overhead_frac"]),
)


def write_spec(path: Path, registry) -> None:
    """BENCHMARK.json: the contract the runs are checked against."""
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in registry.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }
    path.write_text(json.dumps(spec, indent=2) + "\n")


class Tally:
    """Attempted and failed operations, keeping the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        self.messages = (self.messages + problems)[:5]


def _pass(wl, index, tally, tracer=None):
    inp = wl.prepare(index)
    if tracer is None:
        result = wl.run(inp)
    else:
        with tracer.installed(), tracer.call(index):
            result = wl.run(inp)
    tally.add(result.attempted, wl.check(inp, result))
    return result


def run_untraced(wl, seed: int, seconds: float):
    tally = Tally()
    setup_s = []

    def build():
        start = time.perf_counter()
        built = wl.setup(seed)
        setup_s.append(time.perf_counter() - start)
        return built

    inputs = build()
    same = all([build() == inputs for _ in range(wl.setup_repeats - 1)])
    facts = wl.start(seed, inputs)
    print("premises " + json.dumps(facts), flush=True)
    first = wl.fingerprint()
    calls, timed, attempted, index = [], 0.0, 0, 1
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        result = _pass(wl, index, tally)
        calls += result.call_s
        timed += result.timed_s
        attempted += result.attempted
        index += 1
        # cheap set-ups repeat between passes, so their median spans the run
        same = all([build() == inputs for _ in range(wl.setups_between)]) and same
    tally.add(1, [] if same else ["repeated set-ups built different inputs"])
    tally.add(1, [] if wl.fingerprint() == first else ["repeated call gave a different output"])
    tail, pct = _tail(calls)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "calls_per_s": attempted / timed,
        "call_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the median call is reported but not bounded: its run-to-run spread on a
    # shared machine exceeds any bound the benchmark may set
    detail = dict(facts, passes=index - 1, calls=len(calls), call_s_p50=statistics.median(calls),
                  tail_percentile=pct, setups=len(setup_s), **wl.rates(attempted, timed))
    return tally, metrics, detail


class LayerView:
    """Span totals by name, plus the tracer's counters and workload values."""

    def __init__(self, summary, counts, extra):
        self.incl, self.self_s, self.calls, self.durations = summary
        self.counts = counts
        self.extra = extra


def run_traced(wl, seed: int, seconds: float):
    import spans
    tally = Tally()
    tracer = spans.Tracer()
    with tracer.installed():
        inputs = wl.setup(seed)
    facts = wl.start(seed, inputs)
    first = wl.fingerprint()
    passes = max(1, round(seconds / 2 / wl.pass_s))
    plain = traced = 0.0
    for index in range(1, 2 * passes + 1):
        # alternate, so drifts in machine speed reach both sides alike
        if index % 2:
            plain += _pass(wl, index, tally).timed_s
        else:
            traced += _pass(wl, index, tally, tracer).timed_s
    tally.add(1, [] if wl.fingerprint() == first else ["repeated call gave a different output"])

    extra = {**wl.layer_values(), "trace.overhead_frac": traced / plain - 1.0}
    view = LayerView(spans.summarise(tracer.spans), tracer.counts, extra)
    absent = tracer.absent_spans()
    metrics = {name: value(view) for name, _, _, needs, value in PER_LAYER
               if not absent.intersection(needs)}

    # shares and the workload's claim cover the passes, not the traced set-up
    incl, self_s, _, _ = spans.summarise([s for s in tracer.spans if s[2] != spans.SETUP_CALL])
    shares: dict[str, float] = {}
    for name, value in self_s.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + value / incl["bench.pass"]
    claim, holds = wl.purpose(dict(self_s), dict(incl))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{wl.name}-seed{seed}.spans.jsonl"
    tracer.write(spans_path)
    detail = dict(facts, traced_passes=passes, absent=tracer.absent,
                  layer_self_share=dict(sorted(shares.items(), key=lambda kv: -kv[1])),
                  purpose=claim, purpose_confirmed=holds,
                  spans=str(spans_path.relative_to(ROOT)))
    return tally, metrics, detail


def _units():
    units = {n: u for n, u, _, _ in END_TO_END}
    units.update({n: u for n, u, _, _, _ in PER_LAYER})
    return units


def run_one(wl, args) -> int:
    runner = run_traced if args.trace else run_untraced
    tally, metrics, detail = runner(wl, args.seed, args.seconds)
    units = _units()
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    detail.update(workload=wl.name, seed=args.seed,
                  failed_frac=tally.failed / tally.attempted)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_all(registry, args) -> int:
    write_spec(ROOT / "BENCHMARK.json", registry)
    summary = {"machine": _machine(), "commit": _commit(), "seconds": args.seconds,
               "workloads": {}}
    status = 0
    for name, wl in registry.items():
        entry = {"why": wl.why, "seed": args.seed}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            for line in lines[:-1]:
                if not line.startswith("detail "):
                    print(f"{name:14s} {line}")
            result = json.loads(lines[-1])
            detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result["metrics"]
            entry[f"{key}_detail"] = detail
            entry.setdefault("correct", True)
            entry["correct"] &= result["correct"]
            entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
            entry["failed"] = entry.get("failed", 0) + result["failed"]
            status |= not result["correct"]
            print(f"{name:14s} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
        summary["workloads"][name] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'} and {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out" / "summary.json"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "densematch" / "__init__.py").is_file():
        print(f"error: no densematch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import densematch
    if Path(densematch.__file__).resolve().parent != SRC / "densematch":
        print(f"error: imported densematch from {densematch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.all:
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_one(WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
