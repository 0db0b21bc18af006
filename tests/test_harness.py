import concurrent.futures
import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from densematch import (ExperimentConfig, derive_params, harness, optimal_slack,
                        run_experiment)
from densematch.graphs import MAX_VERTICES
from densematch.harness import (CSV_COLUMNS, configs_from_json, render_csv,
                                render_json, summary_to_dict, sweep_results)
from densematch.sampling import DEFAULT_MAX_ATTEMPTS


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


@pytest.fixture
def serial_pool(monkeypatch):
    """Run pool tasks in this process; the list of pool sizes asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.fixture
def builds(monkeypatch):
    """Record the config behind every ``ExperimentConfig.build_graph`` call."""
    built = []
    build_graph = ExperimentConfig.build_graph

    def counting(cfg):
        built.append(cfg)
        return build_graph(cfg)

    monkeypatch.setattr(ExperimentConfig, "build_graph", counting)
    return built


def separate_runs(grid):
    """``(config, summary, error)`` of one ``run_experiment`` call per config."""
    results = []
    for cfg in grid:
        try:
            results.append((cfg, run_experiment(cfg), None))
        except ValueError as exc:
            results.append((cfg, None, f"{type(exc).__name__}: {exc}"))
    return results


class TestRunExperiment:
    def test_complete_family_is_perfect(self):
        cfg = ExperimentConfig(family="complete", c=8.0, t=50, trials=10,
                               master_seed=4, n=400)
        s = run_experiment(cfg)
        assert (s.best, s.mean, s.median) == (0, 0.0, 0.0)
        assert s.acceptance_rate == 1.0
        assert s.params.ratio == 8.0
        assert s.params.pair_bound == pytest.approx(
            derive_params(8.0, 50, optimal_slack(8, 50)).pair_bound)

    def test_dense_family_beats_bound(self):
        cfg = ExperimentConfig(family="rtf", c=8.0, t=50, trials=50,
                               master_seed=21, n=400)
        s = run_experiment(cfg)
        assert s.best <= s.params.pair_bound
        assert s.mean <= 1.15 * s.params.pair_bound

    def test_acceptance_counts_failed_trials(self, monkeypatch):
        # a trial that raised SamplingFailure spent the whole default budget
        extract_best = harness.extract_best

        def two_trials_fail(*args):
            matching, reports = extract_best(*args)
            return matching, reports[2:]

        monkeypatch.setattr(harness, "extract_best", two_trials_fail)
        cfg = ExperimentConfig(family="complete", c=8.0, t=50, trials=10,
                               master_seed=4, n=400)
        s = run_experiment(cfg)
        # each trial on a complete graph accepts its first partition
        assert s.acceptance_rate == 8 / (8 + 2 * DEFAULT_MAX_ATTEMPTS)

    def test_two_cliques_small_feasible_case(self):
        cfg = ExperimentConfig(family="two-cliques", c=10.0, t=2, trials=30,
                               master_seed=2, n=20)
        s = run_experiment(cfg)
        assert 0 < s.acceptance_rate <= 1.0
        assert s.best >= 0

    def test_t_one_density_is_zero(self):
        cfg = ExperimentConfig(family="rtf", c=12.0, t=1, trials=5,
                               master_seed=3, n=12)
        s = run_experiment(cfg)
        assert s.best == 0
        assert summary_to_dict(s)["bound_density"] == 0.0
        assert s.params.pair_bound == 0.0

    def test_deterministic(self):
        cfg = ExperimentConfig(family="rtf", c=8.0, t=10, trials=10,
                               master_seed=9, n=80)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert summary_to_dict(a) == summary_to_dict(b)

    def test_validation(self):
        with pytest.raises(ValueError, match="exceed 4"):
            run_experiment(ExperimentConfig(family="complete", c=4.0, t=5,
                                            trials=1, master_seed=0, n=40))
        with pytest.raises(ValueError, match="needs n"):
            run_experiment(ExperimentConfig(family="complete", c=5.0, t=5,
                                            trials=1, master_seed=0))
        with pytest.raises(ValueError, match="unknown family"):
            run_experiment(ExperimentConfig(family="petersen", c=5.0, t=5,
                                            trials=1, master_seed=0, n=40))


class TestSweep:
    def small_grid(self):
        return [
            ExperimentConfig(family="complete", c=8.0, t=10, trials=5,
                             master_seed=1, n=80),
            ExperimentConfig(family="rtf", c=6.0, t=8, trials=5,
                             master_seed=2, n=48),
        ]

    def test_single_config_grid(self):
        text = render_csv(sweep_results(self.small_grid()[:1]))
        rows = parse_csv(text)
        assert len(rows) == 1
        assert rows[0]["best"] == "0"
        assert rows[0]["error"] == ""
        assert rows[0]["wall_ms"] == ""

    def test_column_order_is_fixed(self):
        text = render_csv(sweep_results(self.small_grid()))
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_error_row_keeps_others(self):
        grid = self.small_grid()
        bad = ExperimentConfig(family="complete", c=4.0, t=10, trials=5,
                               master_seed=1, n=80)
        rows = parse_csv(render_csv(sweep_results([grid[0], bad, grid[1]])))
        assert len(rows) == 3
        assert rows[0]["error"] == ""
        assert "exceed 4" in rows[1]["error"]
        assert rows[1]["best"] == ""
        assert rows[2]["error"] == ""

    def test_negative_graph_seed_is_named(self):
        bad = ExperimentConfig(family="rtf", c=8.0, t=4, trials=1, master_seed=0, n=40,
                               graph_seed=-5)
        rows = parse_csv(render_csv(sweep_results([self.small_grid()[0], bad])))
        assert rows[1]["error"] == "ValueError: seed must be nonnegative (got -5)"

    @pytest.mark.parametrize("field, value, error", [
        pytest.param("t", 0, "ValueError: t must be at least 1 (got 0)", id="t"),
        pytest.param("trials", 0, "ValueError: trials must be at least 1 (got 0)", id="trials"),
        pytest.param("master_seed", -1, "ValueError: master_seed must be nonnegative (got -1)",
                     id="master-seed"),
    ])
    def test_integer_field_error_row(self, field, value, error):
        bad = dataclasses.replace(self.small_grid()[0], **{field: value})
        rows = parse_csv(render_csv(sweep_results([bad, self.small_grid()[1]])))
        assert [row["error"] for row in rows] == [error, ""]

    def test_non_number_c_error_row(self):
        bad = dataclasses.replace(self.small_grid()[0], c="5")
        rows = parse_csv(render_csv(sweep_results([bad, self.small_grid()[1]])))
        assert [row["error"] for row in rows] == ["ValueError: c '5' is not a number", ""]

    @pytest.mark.parametrize("family, n, parts", [
        pytest.param("c5", 80, (16, 16, 16, 16, 16), id="c5-n"),
        pytest.param("rtf", 12, (4, 4, 4), id="rtf-parts"),
        pytest.param("complete", 12, (4, 4, 4), id="complete-parts"),
        pytest.param("two-cliques", 12, (4, 4, 4), id="two-cliques-parts"),
    ])
    def test_field_the_family_does_not_read_is_refused(self, family, n, parts):
        message = ("family c5 takes parts, not n" if family == "c5"
                   else f"family {family} takes n, not parts")
        with pytest.raises(ValueError, match=message):
            harness.build_family(family, n, parts, 0)
        bad = ExperimentConfig(family=family, c=8.0, t=1, trials=1, master_seed=0,
                               n=n, parts=parts)
        rows = parse_csv(render_csv(sweep_results([bad, self.small_grid()[0]])))
        assert [row["error"] for row in rows] == [f"ValueError: {message}", ""]

    @pytest.mark.parametrize("family, field, value, error, params, n", [
        pytest.param("two-cliques", "n", "80", "ValueError: n '80' is not an integer", "", "80",
                     id="two-cliques-str-n"),
        pytest.param("two-cliques", "n", 80.0, "ValueError: n 80.0 is not an integer", "",
                     "80.0", id="two-cliques-float-n"),
        pytest.param("c5", "parts", ("a", 1, 1, 1, 1),
                     "ValueError: part size 'a' is not an integer", "parts=a,1,1,1,1", "",
                     id="c5-str-part"),
        pytest.param("c5", "parts", 5, "ValueError: part sizes 5 are not a sequence", "", "",
                     id="c5-int-parts"),
    ])
    def test_malformed_config_built_directly_renders(self, family, field, value, error,
                                                     params, n):
        # configs from files are type-checked when parsed; one built directly is not,
        # and an s= or vertex sum it would derive from a non-integer is left empty
        bad = ExperimentConfig(family=family, c=8.0, t=5, trials=2, master_seed=1,
                               **{field: value})
        valid = self.small_grid()[0]
        results = sweep_results([bad, valid])
        rows = parse_csv(render_csv(results))
        assert [row["error"] for row in rows] == [error, ""]
        assert (rows[0]["params"], rows[0]["n"]) == (params, n)
        assert json.loads(render_json(results))[0]["error"] == error
        alone = sweep_results([valid])
        assert render_csv(results).splitlines()[2] == render_csv(alone).splitlines()[1]
        assert json.loads(render_json(results))[1] == json.loads(render_json(alone))[0]

    def test_reproducible_bytes(self):
        grid = self.small_grid()
        assert render_csv(sweep_results(grid)) == render_csv(sweep_results(grid))

    def test_parallel_matches_serial(self):
        grid = self.small_grid()
        assert (render_csv(sweep_results(grid, max_workers=1))
                == render_csv(sweep_results(grid, max_workers=2)))

    def test_bound_density_decreasing_in_t(self):
        densities = []
        for t in (50, 100, 200):
            p = derive_params(8.0, t, optimal_slack(8.0, t))
            densities.append(p.pair_bound / (t * (t - 1) / 2))
        assert densities[0] > densities[1] > densities[2]
        assert densities[2] > 1 / (8 * 49)  # still above the limiting density

    def test_json_rendering(self):
        results = sweep_results(self.small_grid()[:1])
        docs = json.loads(render_json(results))
        assert docs[0]["family"] == "complete"
        assert docs[0]["best"] == 0
        assert "wall_ms" not in docs[0]
        # JSON and CSV views agree column-for-column
        row = parse_csv(render_csv(results))[0]
        assert row["bound"] == repr(docs[0]["bound"])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            render_csv(sweep_results([]))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValueError, match="max_workers must be at least 1"):
            sweep_results(self.small_grid(), max_workers=workers)

    @pytest.mark.parametrize("workers", [True, np.bool_(True), 1.5, "2", None])
    def test_non_integer_workers_named(self, workers, serial_pool):
        with pytest.raises(ValueError, match="max_workers .* is not an integer"):
            sweep_results(self.small_grid(), max_workers=workers)
        assert serial_pool == []

    def test_numpy_workers_accepted(self, serial_pool):
        grid = self.small_grid()
        assert (render_csv(sweep_results(grid, max_workers=np.int64(2)))
                == render_csv(sweep_results(grid)))
        assert serial_pool == [2]

    def test_pool_never_larger_than_grid(self, serial_pool):
        grid = self.small_grid()
        assert (render_csv(sweep_results(grid, max_workers=5000))
                == render_csv(sweep_results(grid)))
        assert (render_csv(sweep_results(grid[:1], max_workers=5000))
                == render_csv(sweep_results(grid[:1])))
        # three configs, one graph: one task, so no pool at all
        shared = dataclasses.replace(grid[1], graph_seed=grid[1].master_seed)
        same_graph = [shared, dataclasses.replace(shared, c=8.0, t=6, master_seed=5),
                      dataclasses.replace(shared, t=4, master_seed=6)]
        assert (render_csv(sweep_results(same_graph, max_workers=5000))
                == render_csv([(cfg, run_experiment(cfg), None) for cfg in same_graph]))
        assert serial_pool == [2]

    @pytest.mark.parametrize("bad, n", [
        (ExperimentConfig(family="two-cliques", c=4.0, t=10, trials=5, master_seed=3, n=80), 80),
        (ExperimentConfig(family="c5", c=8.0, t=10, trials=5, master_seed=3), None),
    ])
    def test_error_row_same_in_csv_and_json(self, bad, n):
        results = sweep_results([self.small_grid()[0], bad])
        csv_row = parse_csv(render_csv(results))[1]
        json_row = json.loads(render_json(results))[1]
        assert json_row.get("n") == n
        assert {k: str(v) for k, v in json_row.items() if v != ""} == {
            k: v for k, v in csv_row.items() if v != ""}


class TestSharedGraph:
    """Configs that name one graph share its build within a sweep."""

    # the error a run per config reports for an rtf build with n=0
    EMPTY_BUILD_ERROR = f"ValueError: vertex count 0 outside [1, {MAX_VERTICES}]"

    @staticmethod
    def rtf_400(c, t, master_seed):
        return ExperimentConfig(family="rtf", c=c, t=t, trials=5,
                                master_seed=master_seed, n=400, graph_seed=7)

    def interleaved_grid(self):
        """(A, B, A, A): three configs of one rtf graph around one of another."""
        other = ExperimentConfig(family="rtf", c=8.0, t=10, trials=5,
                                 master_seed=9, n=80)
        return [self.rtf_400(8.0, 50, 1), other,
                self.rtf_400(6.0, 66, 2), self.rtf_400(12.0, 33, 3)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_build_per_distinct_graph(self, workers, builds, serial_pool):
        grid = self.interleaved_grid()
        results = sweep_results(grid, max_workers=workers)
        assert [cfg for cfg, _, _ in results] == grid
        assert builds == grid[:2]
        assert serial_pool == ([2] if workers > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bytes_match_separate_runs(self, workers):
        grid = self.interleaved_grid()
        results = sweep_results(grid, max_workers=workers)
        assert [cfg for cfg, _, _ in results] == grid
        expected = separate_runs(grid)
        assert render_csv(results) == render_csv(expected)
        assert render_json(results) == render_json(expected)

    def test_invalid_member_gets_own_error_row(self, builds):
        a, b, a6, a12 = self.interleaved_grid()
        bad = dataclasses.replace(a6, c=4.0)
        grid = [bad, a, b, bad, a12]
        results = sweep_results(grid)
        assert [error for _, _, error in results] == [
            "ValueError: c must exceed 4 (got 4.0)", None, None,
            "ValueError: c must exceed 4 (got 4.0)", None]
        # the first member that passes validation builds the graph
        assert builds == [a, b]
        assert render_csv(results) == render_csv(separate_runs(grid))

    def test_failed_build_is_every_members_error(self, builds):
        empty = ExperimentConfig(family="rtf", c=8.0, t=5, trials=2, master_seed=15, n=0)
        same_graph = ExperimentConfig(family="rtf", c=12.0, t=5, trials=2,
                                      master_seed=17, n=0, graph_seed=15)
        other = self.interleaved_grid()[1]
        grid = [empty, other, same_graph]
        results = sweep_results(grid)
        assert [error for _, _, error in results] == [
            self.EMPTY_BUILD_ERROR, None, self.EMPTY_BUILD_ERROR]
        assert builds == [empty, other]
        assert render_json(results) == render_json(separate_runs(grid))

    @pytest.mark.parametrize("cfg", [
        pytest.param(ExperimentConfig(family="c5", c=8.0, t=5, trials=2, master_seed=1,
                                      parts=(8, 8, 8, 8, 8)), id="c5"),
        pytest.param(ExperimentConfig(family="complete", c=8.0, t=5, trials=2,
                                      master_seed=1, n=40), id="complete"),
        pytest.param(ExperimentConfig(family="two-cliques", c=8.0, t=5, trials=2,
                                      master_seed=1, n=40, graph_seed=3), id="two-cliques"),
    ])
    def test_configs_differing_in_an_unread_seed_share_one_build(self, cfg, builds):
        grid = [cfg, dataclasses.replace(cfg, master_seed=2),
                dataclasses.replace(cfg, graph_seed=4)]
        results = sweep_results(grid)
        assert [error for _, _, error in results] == [None, None, None]
        assert builds == [cfg]
        assert render_csv(results) == render_csv(separate_runs(grid))

    def test_rtf_shares_only_an_equal_graph_seed(self, builds):
        cfg = ExperimentConfig(family="rtf", c=8.0, t=5, trials=2, master_seed=1, n=40)
        grid = [cfg, dataclasses.replace(cfg, master_seed=2),
                dataclasses.replace(cfg, master_seed=3, graph_seed=1)]
        results = sweep_results(grid)
        assert builds == grid[:2]
        assert render_csv(results) == render_csv(separate_runs(grid))

    def test_no_sharing_across_calls(self, builds):
        grid = self.interleaved_grid()
        sweep_results(grid)
        sweep_results(grid)
        assert builds == grid[:2] * 2


class TestConfigParsing:
    def test_single_object(self):
        cfgs = configs_from_json('{"family": "complete", "c": 8.0, "t": 5, '
                                 '"trials": 2, "master_seed": 7, "n": 40}')
        assert cfgs == [ExperimentConfig(family="complete", c=8.0, t=5,
                                         trials=2, master_seed=7, n=40)]

    def test_array_with_parts(self):
        cfgs = configs_from_json('[{"family": "c5", "c": 8.0, "t": 2, "trials": 1, '
                                 '"master_seed": 0, "parts": [4, 4, 4, 4, 4]}]')
        assert cfgs[0].parts == (4, 4, 4, 4, 4)

    def test_integer_c_kept(self):
        cfgs = configs_from_json('{"family": "complete", "c": 8, "t": 5, '
                                 '"trials": 2, "master_seed": 7, "n": 40}')
        assert cfgs[0].c == 8 and isinstance(cfgs[0].c, int)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            configs_from_json('{"family": "complete", "c": 8.0, "t": 5, '
                              '"trials": 2, "master_seed": 7, "n": 40, "zz": 1}')

    def test_non_object(self):
        with pytest.raises(ValueError):
            configs_from_json('"just a string"')
