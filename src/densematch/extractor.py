"""Randomised extraction of a size-``t`` matching with few non-adjacent edge
pairs from a graph whose independence number is at most 2.

Pipeline: fix parity by deleting vertex 0 when the order is odd, derive the
conditioning threshold and probability parameters from the order-to-size
ratio, rejection-sample a uniform pair-partition that contains many graph
edges, and keep its first ``t`` edges in draw order, a uniform ``t``-subset
since acceptance reads only the unordered partition.  Repeating over
independent seeds and keeping the best trial turns the expectation guarantee
into a concrete matching.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingFailure
from .graphs import Graph, Matching, _as_int, is_alpha_at_most_2
from .oracles import _count_unlinked, nonadjacent_pairs
from .sampling import DEFAULT_MAX_ATTEMPTS, sample_edge_heavy_partition


@dataclass(frozen=True)
class ExtractionParams:
    """Derived knobs of one extraction run.

    ratio
        Vertex count over matching size (``n/t``); must be at least 4.
    slack
        Concentration slack per matching slot, in the window
        ``(sqrt(ratio/t), ratio/2 - 3/2]``.
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


@dataclass(frozen=True)
class ExtractionRun:
    """Record of one :func:`extract_best` call.

    params
        The parameters :func:`prepare_extraction` derived, once per call.
    reports
        The completed trials' reports in trial order; a trial that raised
        :class:`SamplingFailure` leaves none.
    attempts
        Rejection attempts of every trial, ``max_attempts`` for each one that
        raised :class:`SamplingFailure`.

    Iterating the record and taking its ``len`` go over ``reports``, because
    the benchmark unpacks ``matching, reports = extract_best(...)`` and reads
    the reports so; the change that moves it to ``run.reports`` can drop both.
    """

    params: ExtractionParams
    reports: tuple[TrialReport, ...]
    attempts: int

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)


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
    if not ratio > 1:
        raise ParameterError(f"ratio must exceed 1 (got {ratio})")
    t = _check_t(t)
    return (ratio * (ratio - 1.0) / (2.0 * t)) ** (1.0 / 3.0)


def derive_params(ratio: float, t: int, slack: float) -> ExtractionParams:
    """Check the parameter hypotheses and evaluate every derived value.

    The slack must lie in the window ``(sqrt(ratio/t), ratio/2 - 3/2]``: its
    square must exceed ``ratio/t`` and it must be positive, so a NaN is
    refused.  Raises :class:`ParameterError` naming the cause: a ratio below 4
    (or NaN), a window that is empty (the usual culprit is a ``t`` too small
    for the ratio), or a slack outside a non-empty window.
    """
    t = _check_t(t)
    if not ratio >= 4:
        raise ParameterError(f"ratio must be at least 4 (got {ratio:.6g})")
    floor, cap = ratio / t, ratio / 2 - 1.5
    window = f"window (sqrt(ratio/t), ratio/2 - 3/2] = ({math.sqrt(floor):.6g}, {cap:.6g}]"
    if not cap * cap > floor:
        raise ParameterError(f"no slack serves ratio {ratio:.6g} at t = {t}: the {window} is empty")
    if not (slack > 0 and slack * slack > floor and slack <= cap):
        need = "be at most ratio/2 - 3/2" if slack > cap else "be positive and its square exceed ratio/t"
        raise ParameterError(f"slack {slack:.6g} lies outside the {window}: it must {need}")
    margin = (ratio - 1.0) / 2.0 - slack
    accept_floor = 1.0 - ratio / (slack * slack * t)
    pick_cap = 1.0 / margin
    nt = ratio * t
    pair_bound = (pick_cap * pick_cap * nt * (t - 1) ** 3) / (8.0 * accept_floor * (nt - 1.0) * (nt - 3.0))
    return ExtractionParams(ratio, t, slack, margin, accept_floor, pick_cap,
                            math.ceil(margin * t), pair_bound)


def prepare_extraction(g_raw: Graph, t: int) -> tuple[Graph, ExtractionParams]:
    """Parity-fix the graph and derive parameters at the best admissible slack.

    Vertex 0 is the deterministic choice when one vertex must go; the ratio
    is recomputed from the remaining order, so a graph larger than strictly
    necessary only improves the bound.  The pair bound is unimodal in the
    slack, with its stationary point at :func:`optimal_slack`, so
    ``min(optimal_slack, ratio/2 - 3/2)`` minimises it over the window that
    :func:`derive_params` checks.
    """
    # dropping row 0 and bit 0 of every other row renumbers each w > 0 to w - 1
    g = Graph._of_rows(tuple(row >> 1 for row in g_raw.rows[1:])) if g_raw.n % 2 else g_raw
    t = _check_t(t)
    ratio = g.n / t
    return g, derive_params(ratio, t, min(optimal_slack(ratio, t), ratio / 2 - 1.5))


def check_run_args(c: float, t: int, trials: int) -> None:
    """Raise ValueError, in :func:`graphs._as_int`'s wording, unless ``c`` is a real
    number above 4 and ``t`` and ``trials`` are integers ``>= 1``; bools are refused."""
    if isinstance(c, (bool, np.bool_)) or not isinstance(c, numbers.Real):
        raise ValueError(f"c {c!r} is not a number")
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


def extract_once(g: Graph, params: ExtractionParams, seed: int,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> tuple[Matching, TrialReport]:
    """Run one extraction trial on ``g`` with prepared parameters.

    ``g`` must have even order equal to ``round(ratio * t)`` and independence
    number at most 2; :func:`extract_best` checks the latter once instead of
    per trial.  ``seed`` must be an integer ``>= 0``; the trial draws from
    ``numpy.random.default_rng(seed)`` and its report carries ``seed`` as a
    Python int, so ``extract_once(g, params, report.seed)`` replays it.  The
    accepted partition's edges form a matching, so any ``t`` of them do as
    well; the trial keeps the first ``t`` in draw order, which is uniform
    given the partition, so each edge is selected with probability
    ``t / intersection_size <= pick_cap``; fewer than ``t`` is a ValueError.

    The trial scores the sampler's pair array directly and builds its
    matching without re-checking it, since the partition makes it valid by
    construction; :func:`extract_best` checks the winner once with
    :func:`oracles.nonadjacent_pairs`.
    """
    t = params.t
    if g.n != round(params.ratio * t):
        raise ValueError(f"graph order {g.n} does not match ratio*t = {params.ratio * t:.6g}")
    # default_rng passes a Generator through, and its report could not replay it
    seed = _as_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    edges, attempts = sample_edge_heavy_partition(g, params.threshold, max_attempts, rng)
    if len(edges) < t:
        raise ValueError(f"cannot pick t = {t} edges from a partition holding {len(edges)}")
    # given its partition the draw order is uniform, so these are a uniform t-subset
    picked = edges[:t]
    # the pairs are disjoint, so their smaller ends are distinct and this is Matching's order
    picked = picked[np.argsort(picked[:, 0])]
    count = _count_unlinked(g, picked[:, 0], picked[:, 1])
    matching = Matching._of_sorted(picked)
    report = TrialReport(seed, attempts, len(edges), count,
                         params.pair_bound, count <= params.pair_bound)
    return matching, report


def extract_best(g_raw: Graph, c: float, t: int, trials: int, master_seed: int,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> tuple[Matching, ExtractionRun]:
    """Best of ``trials`` independent extraction trials.

    Trial ``index`` runs :func:`extract_once` with the seed
    ``trial_seed(master_seed, index)``, so trials are order-independent and
    could run concurrently, and each report replays on the prepared graph
    of :func:`prepare_extraction`; the winner minimises
    ``(nonadjacent pairs, trial index)``, a reduction that does not depend on
    evaluation order.  The returned matching uses the vertex ids of
    ``g_raw`` even when the parity fix deleted vertex 0.  Trials score
    their own pair arrays unchecked; the winner alone goes through the
    public :func:`oracles.nonadjacent_pairs` on ``g_raw``, so the returned
    matching has passed :func:`oracles.validate_matching`, and a count that
    differs from its trial's is a RuntimeError.  Raises an aggregated
    :class:`SamplingFailure` only if every trial exhausts its attempts.

    The :class:`ExtractionRun` beside the matching holds the parameters, the
    completed trials' reports and the attempts of every trial.
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
    attempts = 0
    for index in range(trials):
        try:
            matching, report = extract_once(g, params, trial_seed(master_seed, index), max_attempts)
        except SamplingFailure:
            attempts += max_attempts
            continue
        reports.append(report)
        attempts += report.rejection_attempts
        # strictly fewer pairs only, so ties stay with the lowest index
        if best is None or report.nonadjacent_pairs < best[1].nonadjacent_pairs:
            best = matching, report
    if best is None:
        raise SamplingFailure(trials * max_attempts,
                              f"all {trials} trials exhausted {max_attempts} attempts each")
    matching, report = best
    if g_raw.n % 2:
        # the parity fix renumbered ids w > 0 to w - 1; shift back to the input's ids
        matching = Matching._of_sorted(np.array(matching.edges) + 1)
    count = nonadjacent_pairs(g_raw, matching)
    if count != report.nonadjacent_pairs:
        raise RuntimeError(f"trial seed {report.seed} counted {report.nonadjacent_pairs} "
                           f"non-adjacent pairs, its matching has {count}")
    return matching, ExtractionRun(params, tuple(reports), attempts)
