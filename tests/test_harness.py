import csv
import io
import json

import pytest

from densematch import (ExperimentConfig, derive_params, harness, optimal_slack,
                        run_experiment)
from densematch.harness import (CSV_COLUMNS, configs_from_json, render_csv,
                                render_json, summary_to_dict, sweep_results)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


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

    def test_pool_never_larger_than_grid(self, monkeypatch):
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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        grid = self.small_grid()
        assert (render_csv(sweep_results(grid, max_workers=5000))
                == render_csv(sweep_results(grid)))
        assert (render_csv(sweep_results(grid[:1], max_workers=5000))
                == render_csv(sweep_results(grid[:1])))
        assert sizes == [2]

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
