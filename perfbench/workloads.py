"""The benchmark's workloads.

Every workload builds its inputs from the seed it is given, runs passes of
public densematch calls, and checks each output with the independent code
in ``checks``.  Passes after the first get fresh inputs derived from
``(seed, pass index)``, so a cache kept across calls only helps where the
workload itself repeats an input, as real callers do.
"""

import csv
import dataclasses
import io
import json
import time

import numpy as np

from densematch import extractor, generators, harness, oracles
from densematch.errors import InfeasibleError

import checks

# Attempts per trial before SamplingFailure.  Acceptance is about 1 per
# attempt at every size below, so a trial that needs this many has hit a
# defect, and it fails in well under a second instead of running for hours.
MAX_ATTEMPTS = 100

_prepare_extraction = extractor.prepare_extraction


class PremiseError(RuntimeError):
    """The sampler's premise ``mu - slack*t >= threshold`` fails on an input."""


def derive_seed(*keys: int) -> int:
    """A 31-bit seed that depends on every key."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint32)[0] >> 1)


def premise_margin(g, t: int) -> float:
    """``mu - slack*t - threshold`` with ``mu = m/(n-1)`` after the parity fix.

    The acceptance floor ``accept_floor`` is only a floor when this is at
    least 0 (Chebyshev around the mean partition-edge count ``mu``).
    """
    fixed, params = _prepare_extraction(g, t)
    return fixed.m / (fixed.n - 1) - params.slack * t - params.threshold


@dataclasses.dataclass
class PassResult:
    call_s: list       # wall time of each public call that returned
    timed_s: float     # wall time of the whole timed region
    attempted: int     # public calls made
    outputs: object    # whatever the workload's check needs


class Workload:
    name = ""
    why = ""
    setup_repeats = 3   # set-ups before the first pass
    setups_between = 0  # set-ups after each pass
    pass_s = 1.0        # rough seconds per pass, sizes the traced run
    call_kind = ""      # name of the throughput in the workload's own unit

    def setup(self, seed: int):
        """Build and return the inputs of pass 0 (this is what setup_s times)."""
        raise NotImplementedError

    def start(self, seed: int, inputs) -> dict:
        """Check premises before timing and return facts to record."""
        self.seed = seed
        self.inputs = inputs
        return {}

    def prepare(self, index: int):
        """Inputs of pass ``index`` (pass 0 is the setup's); built untimed."""
        raise NotImplementedError

    def run(self, inp) -> PassResult:
        raise NotImplementedError

    def check(self, inp, result: PassResult) -> list[str]:
        """One message per public call of the pass whose output is wrong."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Output of a fixed small call; equal across repeats in one process."""
        raise NotImplementedError

    def rates(self, calls: int, seconds: float) -> dict:
        """Throughput in the workload's own unit, for the detail line."""
        return {self.call_kind: calls / seconds}

    def layer_values(self) -> dict:
        return {}

    def purpose(self, self_s: dict, incl: dict) -> tuple[str, bool]:
        """The claim the traced run must confirm, and whether it holds."""
        raise NotImplementedError


class ExtractRtf(Workload):
    name = "extract-rtf"
    why = ("paper's headline regime t=n/8 on one rtf graph (n=3200, t=400); "
           "scoring is most of each trial")
    pass_s = 0.55
    c, t, trials = 8.0, 400, 8

    def __init__(self):
        self.within_bound = [0, 0]

    def setup(self, seed):
        return generators.complement_of_random_triangle_free(3200, derive_seed(seed))

    def start(self, seed, inputs):
        super().start(seed, inputs)
        margin = premise_margin(inputs, self.t)
        if margin < 0:
            raise PremiseError(f"{self.name}: mu - slack*t - threshold = {margin:.3f} < 0")
        # every timed call runs on the one setup graph, after the warm-up call
        return {"premise_margin": margin, "repeat_share": 1.0,
                "trials_per_call": self.trials}

    def prepare(self, index):
        return derive_seed(self.seed, index)

    def run(self, master_seed):
        start = time.perf_counter()
        try:
            out = extractor.extract_best(self.inputs, self.c, self.t, self.trials,
                                         master_seed, max_attempts=MAX_ATTEMPTS)
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            out = exc
        took = time.perf_counter() - start
        return PassResult([took], took, 1, out)

    def check(self, master_seed, result):
        out = result.outputs
        if isinstance(out, Exception):
            return [f"seed {master_seed}: {type(out).__name__}: {out}"]
        matching, reports = out
        self.within_bound[0] += sum(r.within_bound for r in reports)
        self.within_bound[1] += len(reports)
        if len(reports) != self.trials:
            return [f"seed {master_seed}: {self.trials - len(reports)} trials raised SamplingFailure"]
        problem = checks.matching_problem(self.inputs, matching.edges, self.t)
        if problem:
            return [f"seed {master_seed}: {problem}"]
        best = min(r.nonadjacent_pairs for r in reports)
        rescored = checks.nonadjacent_count(self.inputs, matching.edges)
        if rescored != best:
            return [f"seed {master_seed}: reported {best} non-adjacent pairs, rescored {rescored}"]
        return []

    def fingerprint(self):
        return repr(self.run(self.prepare(0)).outputs)

    def rates(self, calls, seconds):
        return {"trials_per_s": self.trials * calls / seconds, "within_bound": self.within_bound}

    def purpose(self, self_s, incl):
        top = max(self_s, key=self_s.get)
        return f"oracles.score has the largest self time (largest: {top})", top == "oracles.score"


class SweepGrid(Workload):
    name = "sweep-grid"
    why = ("one 7-config sweep_results call plus CSV/JSON rendering; rtf generation "
           "dominates and 2 of 7 configs repeat a graph")
    setups_between = 5
    pass_s = 2.6
    call_kind = "configs_per_s"

    def config_text(self, index: int) -> str:
        shared = derive_seed(self.seed, index, 0)
        docs = [{"family": "rtf", "c": float(c), "t": 1600 // c, "trials": 4, "n": 1600,
                 "master_seed": derive_seed(self.seed, index, k), "graph_seed": shared}
                for k, c in enumerate((6, 8, 12), start=1)]
        docs += [{"family": "rtf", "c": 8.0, "t": 100, "trials": 20, "n": 800,
                  "master_seed": derive_seed(self.seed, index, k)} for k in (4, 5, 6)]
        docs.append({"family": "c5", "c": 8.0, "t": 100, "trials": 20,
                     "parts": [16, 16, 16, 16, 736], "master_seed": derive_seed(self.seed, index, 7)})
        return json.dumps(docs)

    def setup(self, seed):
        self.seed = seed
        return self.prepare(0)

    def start(self, seed, inputs):
        super().start(seed, inputs)
        real = harness.extract_best

        def budgeted(g, c, t, trials, master_seed, max_attempts=MAX_ATTEMPTS):
            margin = premise_margin(g, t)
            if margin < 0:
                raise PremiseError(f"mu - slack*t - threshold = {margin:.3f} < 0")
            return real(g, c, t, trials, master_seed, max_attempts=max_attempts)

        # run_experiment passes no attempt budget; give every extract_best call one
        harness.extract_best = budgeted
        return {"repeat_share": self.repeat_share(inputs)}

    @staticmethod
    def repeat_share(configs) -> float:
        keys = [(c.family, c.n, c.parts, c.effective_graph_seed()) for c in configs]
        return sum(k in keys[:i] for i, k in enumerate(keys)) / len(keys)

    def prepare(self, index):
        configs = harness.configs_from_json(self.config_text(index))
        for cfg in configs:
            cfg.validate()
        return configs

    def run(self, configs):
        start = time.perf_counter()
        results = harness.sweep_results(configs, max_workers=1)
        csv_text = harness.render_csv(results)
        json_text = harness.render_json(results)
        took = time.perf_counter() - start
        calls = [s.wall_ms / 1000.0 for _, s, err in results if err is None]
        return PassResult(calls, took, len(configs), (results, csv_text, json_text))

    def check(self, configs, result):
        results, csv_text, json_text = result.outputs
        bad = [f"{cfg.family_params()} t={cfg.t}: {err}" for cfg, _, err in results if err]
        if harness.render_csv(results) != csv_text or harness.render_json(results) != json_text:
            return ["CSV/JSON rendering differs between two renders"] * len(configs)
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        if len(rows) != len(configs) or len(json.loads(json_text)) != len(configs):
            return ["rendered row count differs from config count"] * len(configs)
        for (cfg, s, err), row in zip(results, rows):
            if err is None and not (row["error"] == "" and s.best <= s.mean
                                    and 0 < s.acceptance_rate <= 1):
                bad.append(f"{cfg.family_params()} t={cfg.t}: inconsistent summary row")
        return bad

    def fingerprint(self):
        summary = harness.run_experiment(self.inputs[-1])
        return json.dumps(harness.summary_to_dict(summary))

    def layer_values(self):
        return {"harness.repeat_share": self.repeat_share(self.inputs)}

    def purpose(self, self_s, incl):
        top = max(self_s, key=self_s.get)
        return (f"generators.build has the largest self time (largest: {top})",
                top == "generators.build")


class OracleBatch(Workload):
    name = "oracle-batch"
    why = ("216 small alpha<=2 instances (n 8..16) through bad-quadruple, audit and "
           "exact-minimum oracles; no extraction")
    setups_between = 3
    pass_s = 4.3
    call_kind = "instances_per_s"
    size = 216          # 6 instances of each (family, n): every batch has the same mix
    minmatch_limit = 14
    c5_stream = 5150

    def instance(self, j: int):
        """Instance ``j`` of the stream: family rotates, n cycles 8..16.

        Only the rtf instances depend on the seed; c5 part sizes come from a
        fixed stream, because their exact-search cost varies tenfold with
        the parts and would otherwise dominate the run-to-run spread.
        """
        n = 8 + (j // 4) % 9
        family = ("rtf", "two-cliques", "c5", "complete")[j % 4]
        if family == "rtf":
            return family, generators.complement_of_random_triangle_free(n, derive_seed(self.seed, j))
        if family == "two-cliques":
            return family, generators.two_cliques(n // 2)
        if family == "c5":
            rng = np.random.default_rng([self.c5_stream, j])
            cuts = np.sort(rng.choice(np.arange(1, n), 4, replace=False))
            parts = np.diff(np.concatenate(([0], cuts, [n])))
            return family, generators.c5_blowup_complement(parts.tolist())
        return family, generators.complete_graph(n)

    def setup(self, seed):
        self.seed = seed
        return self.prepare(0)

    def prepare(self, index):
        return [self.instance(index * self.size + i) for i in range(self.size)]

    def run_one(self, g):
        badquads = oracles.count_bad_quadruples(g)
        ts = range(1, g.n // 2 + 1)
        audits = [oracles.clique_bound_audit(g, t) for t in ts]
        minmatch = []
        if g.n <= self.minmatch_limit:
            for t in ts:
                try:
                    minmatch.append(oracles.min_nonadjacent_matching(g, t))
                except InfeasibleError:
                    minmatch.append(None)
        return badquads, audits, minmatch

    def run(self, batch):
        calls, outputs = [], []
        for _, g in batch:
            start = time.perf_counter()
            try:
                out = self.run_one(g)
            except Exception as exc:  # noqa: BLE001 - counted as a failed instance
                out = exc
            calls.append(time.perf_counter() - start)
            outputs.append(out)
        return PassResult(calls, sum(calls), len(batch), outputs)

    def check(self, batch, result):
        bad = []
        for (family, g), out in zip(batch, result.outputs):
            problem = self.instance_problem(g, out)
            if problem:
                bad.append(f"{family} n={g.n}: {problem}")
        return bad

    @staticmethod
    def instance_problem(g, out) -> str | None:
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        badquads, audits, minmatch = out
        if badquads.count % 8 or badquads.bound is None or badquads.count > badquads.bound:
            return f"bad-quadruple count {badquads.count} vs bound {badquads.bound}"
        if not all(audits):
            return f"clique-bound audit false at t={audits.index(False) + 1}"
        for t, found in enumerate(minmatch, start=1):
            if found is None:
                if checks.has_matching(g, t):
                    return f"InfeasibleError at t={t} but a matching of that size exists"
                continue
            matching, count = found
            problem = checks.matching_problem(g, matching.edges, t)
            if problem:
                return f"minmatch t={t}: {problem}"
            rescored = checks.nonadjacent_count(g, matching.edges)
            if rescored != count:
                return f"minmatch t={t}: reported {count}, rescored {rescored}"
        return None

    def fingerprint(self):
        return repr(self.run(self.inputs[:8]).outputs)

    def purpose(self, self_s, incl):
        total = incl.get("bench.pass", 0.0)
        share = (incl.get("oracles.minmatch", 0.0) + incl.get("oracles.audit", 0.0)) / total
        return f"oracles.minmatch_s + oracles.audit_s is {share:.1%} of pass time (> 50%)", share > 0.5


WORKLOADS = {w.name: w for w in (ExtractRtf(), SweepGrid(), OracleBatch())}
