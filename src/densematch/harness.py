"""Experiment orchestration.

Runs seeded extraction experiments over instance families, compares trial
statistics against the closed-form bound and the limiting density
``1/(c*(c-1)**2)``, and renders machine-readable CSV/JSON.  Serialised
output is byte-reproducible: wall-clock time is measured and kept on the
summary object for logging, but the CSV column stays empty and JSON omits
it entirely.  A sweep builds each distinct graph once.
"""

import csv
import dataclasses
import io
import json
import statistics
import time
from dataclasses import dataclass

from .extractor import ExtractionParams, check_run_args, extract_best, prepare_extraction
from .generators import (c5_blowup_complement, complement_of_random_triangle_free,
                         complete_graph, two_cliques)
from .graphs import Graph, _as_int
from .sampling import DEFAULT_MAX_ATTEMPTS

FAMILIES = ("two-cliques", "rtf", "c5", "complete")

CSV_COLUMNS = [
    "family", "params", "n", "c", "c_prime", "t", "ell", "k", "p", "q",
    "threshold", "trials", "acceptance_rate", "bound", "bound_density",
    "asymptotic_density", "best", "mean", "median", "seed", "wall_ms", "error",
]


def _integers(values) -> list[int] | None:
    """``values`` as ints where :func:`_as_int` takes each one, else None; never raises."""
    try:
        return [_as_int("value", v) for v in values]
    except (TypeError, ValueError):
        return None


def _check_family(family: str, n: int | None, parts) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "c5":
        if parts is None:
            raise ValueError("family c5 needs parts")
        if n is not None:
            raise ValueError("family c5 takes parts, not n")
    elif parts is not None:
        raise ValueError(f"family {family} takes n, not parts")
    elif n is None:
        raise ValueError(f"family {family} needs n")
    elif family == "two-cliques" and _as_int("n", n) % 2:
        raise ValueError("family two-cliques needs an even n")


def build_family(family: str, n: int | None, parts, seed: int) -> Graph:
    """Instance of ``family`` from ``n``, or c5's ``parts`` (the other None); ``seed`` is for rtf.

    Calls the generators bound at import, so one build is one generator call
    even where the ``generators`` module attributes are wrapped.
    """
    _check_family(family, n, parts)
    if family == "two-cliques":
        return two_cliques(n // 2)
    if family == "rtf":
        return complement_of_random_triangle_free(n, seed)
    if family == "c5":
        return c5_blowup_complement(parts)
    return complete_graph(n)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance family plus extraction knobs.

    ``graph_seed`` defaults to ``master_seed`` for the seeded families, so a
    single integer pins the whole run.  :meth:`family_params` and
    :meth:`total_vertices` never raise: a config built with a malformed field
    still renders as an error row, with the cell it cannot derive left empty.
    """

    family: str
    c: float
    t: int
    trials: int
    master_seed: int
    n: int | None = None
    parts: tuple[int, ...] | None = None
    graph_seed: int | None = None

    def validate(self) -> None:
        _check_family(self.family, self.n, self.parts)
        check_run_args(self.c, self.t, self.trials)

    def effective_graph_seed(self) -> int:
        return self.master_seed if self.graph_seed is None else self.graph_seed

    def family_params(self) -> str:
        if self.family == "two-cliques":
            n = _integers([self.n])
            return f"s={n[0] // 2}" if n else ""
        if self.family == "rtf":
            return f"seed={self.effective_graph_seed()}"
        if self.family == "c5" and isinstance(self.parts, (tuple, list)):
            return "parts=" + ",".join(str(p) for p in self.parts)
        return ""

    def total_vertices(self) -> int | None:
        if self.family == "c5":
            sizes = _integers(self.parts)
            return sum(sizes) if sizes is not None else None
        return self.n

    def build_graph(self) -> Graph:
        return build_family(self.family, self.n, self.parts, self.effective_graph_seed())


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated trial statistics of one experiment.

    ``wall_ms`` is the config's wall-clock time, for logging only; the CSV
    column stays empty and JSON omits it.  Where configs of a sweep share one
    graph, the build is counted only in the config that built it.
    """

    config: ExperimentConfig
    params: ExtractionParams
    acceptance_rate: float
    best: int
    mean: float
    median: float
    wall_ms: float


def _summarise(cfg: ExperimentConfig, g: Graph, start: float) -> ExperimentSummary:
    """Extract on ``g`` as ``cfg`` says; ``wall_ms`` runs from ``start``."""
    _, reports = extract_best(g, cfg.c, cfg.t, cfg.trials, cfg.master_seed)
    _, params = prepare_extraction(g, cfg.t)
    counts = [r.nonadjacent_pairs for r in reports]
    # each trial that raised SamplingFailure spent the whole default budget
    attempts = (sum(r.rejection_attempts for r in reports)
                + (cfg.trials - len(reports)) * DEFAULT_MAX_ATTEMPTS)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentSummary(
        config=cfg,
        params=params,
        acceptance_rate=len(reports) / attempts,
        best=min(counts),
        mean=statistics.fmean(counts),
        median=float(statistics.median(counts)),
        wall_ms=wall_ms,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run one experiment; the result is a pure function of the config."""
    cfg.validate()
    start = time.perf_counter()
    return _summarise(cfg, cfg.build_graph(), start)


def summary_to_dict(s: ExperimentSummary) -> dict:
    """Serialisable view of a summary; key order matches the CSV columns."""
    return _row(s.config, s, None)


def _attempt(fn, *args):
    """``(fn(*args), None)``, or ``(None, message)`` if it raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - error rows must not kill the sweep
        return None, f"{type(exc).__name__}: {exc}".replace("\n", " ")


def _graph_key(cfg: ExperimentConfig) -> str:
    """:func:`build_family`'s arguments for ``cfg``, the seed for rtf alone (the build refuses
    the size field a family does not read); equal keys name one graph.  ``repr`` is hashable
    whatever the fields hold and keeps ``1600`` apart from ``1600.0``."""
    seed = cfg.effective_graph_seed() if cfg.family == "rtf" else None
    return repr((cfg.family, cfg.n, cfg.parts, seed))


def _run_group(configs: list) -> list:
    """``(summary, error)`` of each config in a group that names one graph.

    The first config that passes validation builds the graph, and the rest
    reuse it, so an immutable graph's packed rows and memoised alpha check
    are shared too.  A failed build is the error of every valid member.
    """
    graph = build_error = None
    outcomes = []
    for cfg in configs:
        _, error = _attempt(cfg.validate)
        if error is None:
            start = time.perf_counter()
            if graph is None and build_error is None:
                graph, build_error = _attempt(cfg.build_graph)
            error = build_error
        outcomes.append((None, error) if error else _attempt(_summarise, cfg, graph, start))
    return outcomes


def sweep_results(configs, max_workers: int = 1):
    """Run every config, collecting ``(config, summary, error)`` in grid order.

    Failed configs yield an error string instead of a summary; the rest of
    the grid still runs.  Configs that name the same graph share one build,
    which lives no longer than this call.  Results do not depend on
    ``max_workers``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("sweep needs at least one config")
    max_workers = _as_int("max_workers", max_workers, 1)
    groups: dict[str, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(_graph_key(cfg), []).append(i)
    tasks = [[configs[i] for i in members] for members in groups.values()]
    # one task per distinct graph, and the pool starts every worker up front,
    # so never start more workers than there are graphs
    workers = min(max_workers, len(tasks))
    if workers > 1:
        # imported here: the process-pool machinery adds about 1.6 MB to the
        # resident size of every process that loads it, and most never pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            group_outcomes = list(pool.map(_run_group, tasks))
    else:
        # one group at a time, so at most one built graph is alive
        group_outcomes = [_run_group(task) for task in tasks]
    outcomes = {}
    for members, results in zip(groups.values(), group_outcomes):
        outcomes.update(zip(members, results))
    return [(cfg, *outcomes[i]) for i, cfg in enumerate(configs)]


def _row(cfg: ExperimentConfig, summary: ExperimentSummary | None, error: str | None) -> dict:
    """One result as a dict in CSV column order; unknown values are left out."""
    data = {
        "family": cfg.family,
        "params": cfg.family_params(),
        "n": cfg.total_vertices(),
        "c": cfg.c,
        "t": cfg.t,
        "trials": cfg.trials,
        "seed": cfg.master_seed,
        "error": error,
    }
    if summary is not None:
        p = summary.params
        pairs = cfg.t * (cfg.t - 1) // 2
        data.update({
            "c_prime": p.ratio,
            "ell": p.slack,
            "k": p.margin,
            "p": p.pick_cap,
            "q": p.accept_floor,
            "threshold": p.threshold,
            "acceptance_rate": summary.acceptance_rate,
            "bound": p.pair_bound,
            # no pairs exist at t=1, so the density question is vacuous there
            "bound_density": p.pair_bound / pairs if pairs else 0.0,
            "asymptotic_density": 1.0 / (cfg.c * (cfg.c - 1.0) ** 2),
            "best": summary.best,
            "mean": summary.mean,
            "median": summary.median,
        })
    return {key: data[key] for key in CSV_COLUMNS if data.get(key) is not None}


def render_csv(results) -> str:
    """One CSV row per result in the fixed documented column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for result in results:
        row = _row(*result)
        writer.writerow([row.get(col, "") for col in CSV_COLUMNS])
    return buf.getvalue()


def render_json(results) -> str:
    """JSON document for the same results (timing deliberately excluded)."""
    return json.dumps([_row(*result) for result in results], indent=2) + "\n"


# what a config field must hold where it is not an integer (exact types, so
# JSON true/false is not a number); a field whose default is None may be null
_FIELD_TYPES = {
    "family": ("a string", lambda v: type(v) is str),
    "c": ("a number", lambda v: type(v) in (int, float)),
    "parts": ("a list of integers",
              lambda v: type(v) in (list, tuple) and all(type(p) is int for p in v)),
}
_INTEGER = ("an integer", lambda v: type(v) is int)
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(obj) -> ExperimentConfig:
    """The config an object describes; a ``ValueError`` names the first bad field.

    Only the shape and the types are checked here.  Values are checked by
    :meth:`ExperimentConfig.validate` when the config runs, so a sweep turns
    a bad value into an error row.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"each config must be a JSON object, got {obj!r}")
    unknown = sorted(obj.keys() - _DEFAULTS.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = [name for name, default in _DEFAULTS.items()
               if default is dataclasses.MISSING and name not in obj]
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    for name, value in obj.items():
        expected, ok = _FIELD_TYPES.get(name, _INTEGER)
        if not (ok(value) or (value is None and _DEFAULTS[name] is None)):
            raise ValueError(f"config field {name!r} must be {expected}, got {value!r}")
    data = dict(obj)
    if data.get("parts") is not None:
        data["parts"] = tuple(data["parts"])
    return ExperimentConfig(**data)


def configs_from_json(text: str, **overrides) -> list[ExperimentConfig]:
    """Parse one JSON config object, or an array of them for a sweep.

    ``overrides`` replace or supply fields of each object before it is checked.
    """
    data = json.loads(text)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("config file must hold a JSON object or array")
    return [config_from_dict({**obj, **overrides} if isinstance(obj, dict) else obj)
            for obj in data]
