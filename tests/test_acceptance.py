"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s``
to see them).  Shared expensive runs (the dense-family experiments and the
density sweep) live in module-scoped fixtures so the determinism criterion
can re-run them for byte comparison.
"""

import math

import numpy as np
import pytest
from scipy import stats

from densematch import (ExperimentConfig, connected_matching_number,
                        count_bad_quadruples, clique_bound_audit, derive_params,
                        extract_best, min_nonadjacent_matching, nonadjacent_pairs,
                        optimal_slack, two_cliques)
from densematch.errors import InfeasibleError, ParameterError, SamplingFailure
from densematch.harness import render_csv, render_json, summary_to_dict, sweep_results
from helpers import (count_bad_quadruples_naive, count_nonadjacent_pairs_naive,
                     empirical_deviation_rate, pair_inclusion_frequencies,
                     random_alpha2_graph, random_matching_of)


def report(number, name, checks):
    """Print one PASS/FAIL line and fail the test with the broken checks."""
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}")
    assert not failed, f"criterion {number} ({name}) failed: {failed}"


# --- criterion 6 fixture: dense family, 5 master seeds ----------------------

CRIT6_SEEDS = (101, 202, 303, 404, 505)


def crit6_configs():
    return [ExperimentConfig(family="rtf", c=8.0, t=100, trials=200,
                             master_seed=seed, n=800)
            for seed in CRIT6_SEEDS]


@pytest.fixture(scope="module")
def crit6_results():
    results = sweep_results(crit6_configs())
    assert all(error is None for _, _, error in results)
    return results


# --- criterion 8 fixture: density sweep over t ------------------------------

CRIT8_SEED = 777
CRIT8_TS = (50, 100, 200, 400, 800)


def crit8_configs():
    return [ExperimentConfig(family="rtf", c=8.0, t=t, trials=2,
                             master_seed=CRIT8_SEED, n=8 * t)
            for t in CRIT8_TS]


@pytest.fixture(scope="module")
def crit8_results():
    results = sweep_results(crit8_configs())
    assert all(error is None for _, _, error in results)
    return results


def test_criterion_01_pair_partition_laws():
    checks = []
    samples = 1_000_000
    for size in (6, 8, 12):
        rng = np.random.default_rng(9200 + size)
        freq_e, freq_ef = pair_inclusion_frequencies(
            range(size), (0, 1), (2, 3), samples, rng)
        p_e = 1.0 / (size - 1)
        p_ef = 1.0 / ((size - 1) * (size - 3))
        tol_e = 4 * math.sqrt(p_e * (1 - p_e) / samples)
        tol_ef = 4 * math.sqrt(p_ef * (1 - p_ef) / samples)
        checks.append((f"|S|={size} single-pair law", abs(freq_e - p_e) < tol_e))
        checks.append((f"|S|={size} joint-pair law", abs(freq_ef - p_ef) < tol_ef))
    report(1, "pair-partition inclusion laws", checks)


def test_criterion_02_concentration_bound():
    rng = np.random.default_rng(555)
    trials = 10_000

    def random_family(size, density, seed):
        sub = np.random.default_rng(seed)
        pool = [(a, b) for a in range(size) for b in range(a + 1, size)]
        keep = sub.permutation(len(pool))[:max(1, int(density * len(pool)))]
        return [pool[i] for i in keep]

    def full(size):
        return [(a, b) for a in range(size) for b in range(a + 1, size)]

    configs = [
        (8, full(8), 2.0), (8, random_family(8, 0.4, 1), 3.0),
        (8, random_family(8, 0.6, 2), 2.5), (8, [], 1.0),
        (12, list(two_cliques(6).edges()), 3.0), (12, random_family(12, 0.3, 3), 4.0),
        (12, random_family(12, 0.5, 4), 2.0), (12, full(12), 1.5),
        (20, list(two_cliques(10).edges()), 5.0), (20, random_family(20, 0.3, 5), 6.0),
        (20, random_family(20, 0.5, 6), 4.0), (20, list(two_cliques(10).edges()), 8.0),
        (40, list(two_cliques(20).edges()), 10.0), (40, random_family(40, 0.3, 7), 8.0),
        (40, random_family(40, 0.5, 8), 12.0),
        (60, list(two_cliques(30).edges()), 12.0), (60, random_family(60, 0.3, 9), 10.0),
        (60, random_family(60, 0.5, 10), 16.0), (60, list(two_cliques(30).edges()), 20.0),
        (60, full(60), 2.0),
    ]
    assert len(configs) == 20
    checks = []
    for i, (size, family, lam) in enumerate(configs):
        rate = empirical_deviation_rate(range(size), family, lam, trials, rng)
        bound = min(1.0, size / lam**2)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        checks.append((f"config {i} (|S|={size}, lam={lam})",
                       rate <= bound + 3 * sigma + 1e-12))
    report(2, "pair-count concentration bound", checks)


def test_criterion_03_bad_quadruple_bound():
    checks = []
    small_checked = 0
    for i in range(500):
        g = random_alpha2_graph(i, n_min=4, n_max=30)
        result = count_bad_quadruples(g)
        ok = (result.bound is not None and result.count <= result.bound
              and result.count % 8 == 0)
        if g.n <= 9:
            naive = count_bad_quadruples_naive(g)
            pair_count = count_nonadjacent_pairs_naive(g, g.edges())
            ok = ok and result.count == naive and result.count == 8 * pair_count
            small_checked += 1
        if not ok:
            checks.append((f"instance {i} (n={g.n})", False))
    checks.append(("bound, divisibility and small-instance scans", not checks))
    checks.append((f"at least 50 quartic-scan instances ({small_checked})",
                   small_checked >= 50))
    report(3, "bad-quadruple count bound", checks)


def test_criterion_04_clique_bound_audit():
    failures = []
    tight = 0
    for i in range(500):
        g = random_alpha2_graph(i, n_min=4, n_max=16)
        for t in range(1, g.n // 2 + 2):
            if not clique_bound_audit(g, t):
                failures.append((f"instance {i} (n={g.n}, t={t})", False))
        # the Furedi-Gyarfas-Simonyi inequality the audit asks about, at its largest t
        cm, floor = connected_matching_number(g), (g.n + 1) // 4
        if cm < floor:
            failures.append((f"instance {i} (n={g.n}): cm {cm} < {floor}", False))
        tight += cm == floor
    print(f"criterion 4: cm = floor((n+1)/4) on {tight} of 500 instances")
    report(4, "clique-vs-matching audit",
           failures + [("all audits true, cm >= floor((n+1)/4)", not failures)])


def test_criterion_05_extremal_instance():
    checks = []
    for t in (1, 2, 3, 4):
        value = connected_matching_number(two_cliques(2 * t - 1))
        checks.append((f"t={t}", value == t - 1))
    report(5, "extremal two-clique family", checks)


def test_criterion_06_expectation_bound(crit6_results):
    checks = []
    for cfg, summary, _ in crit6_results:
        bound = summary.params.pair_bound
        checks.append((f"seed {cfg.master_seed} mean {summary.mean:.3f} <= 1.15*{bound:.3f}",
                       summary.mean <= 1.15 * bound))
        checks.append((f"seed {cfg.master_seed} min {summary.best} <= {bound:.3f}",
                       summary.best <= bound))
    report(6, "expected non-adjacent pairs bound", checks)


def test_criterion_07_closed_form_reproduction():
    slack = optimal_slack(8, 100)
    p = derive_params(8.0, 100, slack)
    independent = (p.pick_cap**2 * 8.0 * 100 * 99**3) / (8.0 * p.accept_floor * 799 * 797)
    checks = [
        ("ell ~ 0.65421", abs(p.slack - 0.65421) < 5e-5),
        ("k ~ 2.84579", abs(p.margin - 2.84579) < 5e-5),
        ("q ~ 0.81309", abs(p.accept_floor - 0.81309) < 5e-5),
        ("bound matches independent evaluation to 1e-12",
         abs(p.pair_bound - independent) / independent < 1e-12),
    ]
    # grid minimisation of the bound over the admissible slack window
    lo = math.sqrt(8.0 / 100) + 1e-6
    hi = 8.0 / 2 - 1.5
    grid = np.linspace(lo, hi, 20_000)
    values = [derive_params(8.0, 100, s).pair_bound for s in grid]
    best = grid[int(np.argmin(values))]
    checks.append(("optimal slack within 1% of grid minimiser",
                   abs(slack - best) / best < 0.01))
    report(7, "closed-form parameter reproduction", checks)


def test_criterion_08_density_trend(crit8_results):
    densities = [summary_to_dict(summary)["bound_density"] for _, summary, _ in crit8_results]
    limit_density = 1.0 / (8 * 49)
    gaps = [d - limit_density for d in densities]
    checks = [
        ("bound_density strictly decreasing",
         all(a > b for a, b in zip(densities, densities[1:]))),
        ("gap to limiting density positive", all(gap > 0 for gap in gaps)),
    ]
    slope = stats.linregress(np.log(CRIT8_TS), np.log(gaps)).slope
    checks.append((f"log-log slope {slope:.3f} in [-0.5, -0.15]",
                   -0.5 <= slope <= -0.15))
    report(8, "density gap decay order", checks)


def test_criterion_09_oracle_equivalence():
    checks = []
    comparisons = 0
    agreement_checks = 0
    for i in range(100):
        g = random_alpha2_graph(i, n_min=6, n_max=12)
        rng = np.random.default_rng(3000 + i)
        for _ in range(5):
            m = random_matching_of(g, rng)
            if nonadjacent_pairs(g, m) != count_nonadjacent_pairs_naive(g, m.edges):
                checks.append((f"scan disagreement on instance {i}", False))
            agreement_checks += 1
        for t in range(1, g.n // 2 + 1):
            try:
                exact_matching, exact = min_nonadjacent_matching(g, t)
            except InfeasibleError:
                continue
            if nonadjacent_pairs(g, exact_matching) != count_nonadjacent_pairs_naive(
                    g, exact_matching.edges):
                checks.append((f"scan disagreement on exact matching {i}/t={t}", False))
            if g.n / t <= 4:
                continue
            try:
                _, run = extract_best(g, g.n / t, t, 4, master_seed=i)
            except (ParameterError, SamplingFailure):
                continue
            best = min(r.nonadjacent_pairs for r in run.reports)
            if best < exact:
                checks.append((f"extractor beat the exact minimum on {i}/t={t}", False))
            comparisons += 1
    checks.append((f"extractor-vs-exact comparisons ran ({comparisons})", comparisons >= 1))
    checks.append((f"bitset/scan agreement checks ran ({agreement_checks})",
                   agreement_checks >= 500))
    report(9, "oracle equivalence", checks)


def test_criterion_10_determinism(crit6_results, crit8_results):
    json_first = render_json(crit6_results)
    json_second = render_json(sweep_results(crit6_configs()))
    csv_first = render_csv(crit8_results)
    csv_serial = render_csv(sweep_results(crit8_configs(), max_workers=1))
    csv_parallel = render_csv(sweep_results(crit8_configs(), max_workers=2))
    checks = [
        ("experiment JSON byte-identical across runs", json_first == json_second),
        ("sweep CSV byte-identical across runs", csv_first == csv_serial),
        ("sweep CSV independent of parallelism", csv_first == csv_parallel),
    ]
    report(10, "byte-level determinism", checks)
