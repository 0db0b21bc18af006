"""Randomised extraction of a size-``t`` matching with few non-adjacent edge
pairs from a graph whose independence number is at most 2.

Pipeline: fix parity by deleting vertex 0 when the order is odd, derive the
conditioning threshold and probability parameters from the order-to-size
ratio, rejection-sample a uniform pair-partition that contains many graph
edges, and pick ``t`` of those edges uniformly.  Repeating over independent
seeds and keeping the best trial turns the expectation guarantee into a
concrete matching.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingFailure
from .graphs import Graph, Matching, _as_int, is_alpha_at_most_2
from .oracles import nonadjacent_pairs
from .sampling import DEFAULT_MAX_ATTEMPTS, sample_edge_heavy_partition


@dataclass(frozen=True)
class ExtractionParams:
    """Derived knobs of one extraction run.

    ratio
        Vertex count over matching size (``n/t``); must be at least 4.
    slack
        Concentration slack per matching slot; needs ``slack**2 > ratio/t``
        and ``slack <= ratio/2 - 3/2``.
    margin
        Guaranteed partition edges per slot, ``(ratio-1)/2 - slack``; the
        slack cap makes this at least 1.
    accept_floor
        Lower bound ``1 - ratio/(slack**2 * t)`` on the acceptance rate of
        the rejection step; positive by the slack floor.
    pick_cap
        Upper bound ``1/margin`` on any single edge's selection probability.
    threshold
        Integer edge demand ``ceil(margin * t)`` placed on a partition.
    pair_bound
        Cap on the expected number of non-adjacent matching-edge pairs,
        ``pick_cap**2 * ratio*t * (t-1)**3
        / (8 * accept_floor * (ratio*t - 1) * (ratio*t - 3))``.
    """

    ratio: float
    t: int
    slack: float
    margin: float
    accept_floor: float
    pick_cap: float
    threshold: int
    pair_bound: float


@dataclass(frozen=True)
class TrialReport:
    """Per-trial record of one extraction."""

    seed: int
    rejection_attempts: int
    intersection_size: int
    nonadjacent_pairs: int
    bound: float
    within_bound: bool


def _check_t(t) -> int:
    """``t`` as an int at least 1, else a ParameterError with :func:`graphs._as_int`'s text."""
    try:
        return _as_int("t", t, 1)
    except ValueError as err:
        raise ParameterError(str(err)) from None


def optimal_slack(ratio: float, t: int) -> float:
    """Slack minimising the pair bound at fixed ``(ratio, t)``.

    ``(ratio*(ratio-1)/(2*t))**(1/3)`` is the exact stationary point of the
    bound as a function of the slack.
    """
    if ratio <= 1:
        raise ParameterError(f"ratio must exceed 1 (got {ratio})")
    t = _check_t(t)
    return (ratio * (ratio - 1.0) / (2.0 * t)) ** (1.0 / 3.0)


def derive_params(ratio: float, t: int, slack: float) -> ExtractionParams:
    """Check the parameter hypotheses and evaluate every derived value.

    Raises :class:`ParameterError` naming the violated inequality; the usual
    culprit is a ``t`` too small for the requested ratio.
    """
    t = _check_t(t)
    if ratio < 4:
        raise ParameterError(f"ratio must be at least 4 (got {ratio:.6g})")
    if not slack * slack > ratio / t:
        raise ParameterError(
            f"slack^2 must exceed ratio/t ({slack * slack:.6g} <= {ratio / t:.6g})")
    if not slack <= ratio / 2 - 1.5:
        raise ParameterError(
            f"slack must be at most ratio/2 - 3/2 ({slack:.6g} > {ratio / 2 - 1.5:.6g})")
    margin = (ratio - 1.0) / 2.0 - slack
    accept_floor = 1.0 - ratio / (slack * slack * t)
    pick_cap = 1.0 / margin
    nt = ratio * t
    pair_bound = (pick_cap * pick_cap * nt * (t - 1) ** 3) / (8.0 * accept_floor * (nt - 1.0) * (nt - 3.0))
    return ExtractionParams(ratio, t, slack, margin, accept_floor, pick_cap,
                            math.ceil(margin * t), pair_bound)


def prepare_extraction(g_raw: Graph, t: int) -> tuple[Graph, ExtractionParams]:
    """Parity-fix the graph and derive parameters at the optimal slack.

    Vertex 0 is the deterministic choice when one vertex must go; the ratio
    is recomputed from the remaining order, so a graph larger than strictly
    necessary only improves the bound.
    """
    # dropping row 0 and bit 0 of every other row renumbers each w > 0 to w - 1
    g = Graph(tuple(row >> 1 for row in g_raw.rows[1:])) if g_raw.n % 2 else g_raw
    ratio = g.n / _check_t(t)
    return g, derive_params(ratio, t, optimal_slack(ratio, t))


def check_run_args(c: float, t: int, trials: int) -> None:
    """Raise ValueError unless ``c > 4`` and ``t`` and ``trials`` are integers ``>= 1``.

    A bool or a float is refused by :func:`graphs._as_int`, not truncated.
    """
    if not c > 4:
        raise ValueError(f"c must exceed 4 (got {c})")
    _as_int("t", t, 1)
    _as_int("trials", trials, 1)


def trial_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit seed for trial ``index`` under ``master_seed``.

    Both must be integers ``>= 0``; :func:`graphs._as_int` refuses a bool or
    a float rather than truncating it, since ``True`` would run seed 1.
    """
    ss = np.random.SeedSequence([_as_int("master_seed", master_seed, 0),
                                 _as_int("index", index, 0)])
    return int(ss.generate_state(1, np.uint64)[0])


def _uniform_subset(size: int, k: int, rng: np.random.Generator) -> list[int]:
    """Indices of a uniform ``k``-subset of ``range(size)``, by partial Fisher-Yates shuffle."""
    if k > size:
        raise ValueError(f"cannot pick {k} items from {size}")
    pool = list(range(size))
    for i, j in enumerate(rng.integers(np.arange(k), size).tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def extract_once(g: Graph, params: ExtractionParams, seed: int,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> tuple[Matching, TrialReport]:
    """Run one extraction trial on ``g`` with prepared parameters.

    ``g`` must have even order equal to ``round(ratio * t)`` and independence
    number at most 2; :func:`extract_best` checks the latter once instead of
    per trial.  ``seed`` must be an integer ``>= 0``; the trial draws from
    ``numpy.random.default_rng(seed)`` and its report carries ``seed`` as a
    Python int, so ``extract_once(g, params, report.seed)`` replays it.  The
    accepted partition's edges form a matching, so any ``t`` of them do as
    well; each edge is selected with probability
    ``t / intersection_size <= pick_cap``.
    """
    t = params.t
    if g.n != round(params.ratio * t):
        raise ValueError(f"graph order {g.n} does not match ratio*t = {params.ratio * t:.6g}")
    # default_rng passes a Generator through, and its report could not replay it
    seed = _as_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    edges, attempts = sample_edge_heavy_partition(g, params.threshold, max_attempts, rng)
    matching = Matching(edges[_uniform_subset(len(edges), t, rng)].tolist())
    count = nonadjacent_pairs(g, matching)
    report = TrialReport(seed, attempts, len(edges), count,
                         params.pair_bound, count <= params.pair_bound)
    return matching, report


def extract_best(g_raw: Graph, c: float, t: int, trials: int, master_seed: int,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> tuple[Matching, list[TrialReport]]:
    """Best of ``trials`` independent extraction trials.

    Trial ``index`` runs :func:`extract_once` with the seed
    ``trial_seed(master_seed, index)``, so trials are order-independent and
    could run concurrently, and each report replays on the prepared graph
    of :func:`prepare_extraction`; the winner minimises
    ``(nonadjacent pairs, trial index)``, a reduction that does not depend on
    evaluation order.  The returned matching uses the vertex ids of
    ``g_raw`` even when the parity fix deleted vertex 0.  Raises an
    aggregated :class:`SamplingFailure` only if every trial exhausts its
    attempts.

    The reports cover completed trials only: a trial that exhausted its
    ``max_attempts`` leaves no report, so a caller counting attempts adds
    ``(trials - len(reports)) * max_attempts`` for the others.
    """
    check_run_args(c, t, trials)
    _as_int("master_seed", master_seed, 0)
    if g_raw.n + 1e-9 < c * t:
        raise ValueError(f"graph order {g_raw.n} is below c*t = {c * t:.6g}")
    if not is_alpha_at_most_2(g_raw):
        raise ValueError("graph has three pairwise non-adjacent vertices")
    g, params = prepare_extraction(g_raw, t)
    best: tuple[Matching, TrialReport] | None = None
    reports: list[TrialReport] = []
    for index in range(trials):
        try:
            matching, report = extract_once(g, params, trial_seed(master_seed, index), max_attempts)
        except SamplingFailure:
            continue
        reports.append(report)
        # strictly fewer pairs only, so ties stay with the lowest index
        if best is None or report.nonadjacent_pairs < best[1].nonadjacent_pairs:
            best = matching, report
    if best is None:
        raise SamplingFailure(trials * max_attempts,
                              f"all {trials} trials exhausted {max_attempts} attempts each")
    matching = best[0]
    if g_raw.n % 2:
        # the parity fix renumbered ids w > 0 to w - 1; shift back to the input's ids
        matching = Matching((u + 1, v + 1) for u, v in matching.edges)
    return matching, reports
