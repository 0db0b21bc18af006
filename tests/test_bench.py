import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_layers_file_keys(tmp_path):
    # a smoke run at the smallest size; the file's numbers are not checked
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(BENCH), "--out", str(out), "--sizes", "800"],
                   check=True, capture_output=True, timeout=60)
    report = json.loads(out.read_text())
    assert set(report) == {"machine", "commit", "seed", "repeats", "sizes", "layers", "peak_rss"}
    assert set(report["machine"]) == {"nproc", "cpu", "python", "numpy", "platform"}
    assert report["commit"] is None or set(report["commit"]) == {"head", "dirty"}
    assert (report["seed"], report["repeats"], report["sizes"]) == (11, 5, [800])
    generation = report["layers"]["generation"]["800"]
    assert generation["m"] == 294884
    assert set(generation["build_s"]) == {"median", "q1", "q3", "iqr", "samples"}
    assert len(generation["build_s"]["samples"]) == 5
    assert set(report["peak_rss"]["800"]) == {"mib", "over_import_mib", "bytes_per_pair"}
    assert set(report["layers"]) == {"generation", "extraction", "blocks"}
    extraction = report["layers"]["extraction"]["800"]
    assert set(extraction) == {"t", "trials", "attempts_per_trial", "best_nonadjacent_pairs",
                               "wall_s"}
    # exact per seed, like m above
    assert (extraction["t"], extraction["trials"]) == (100, 20)
    assert (extraction["attempts_per_trial"], extraction["best_nonadjacent_pairs"]) == (1.0, 0)
    assert set(extraction["wall_s"]) == {"median", "q1", "q3", "iqr", "samples"}
    assert len(extraction["wall_s"]["samples"]) == 5
    blocks = report["layers"]["blocks"]["800"]
    assert set(blocks) == {"d", "k", "t", "trials", "attempts_per_trial", "best_nonadjacent_pairs",
                           "mean_nonadjacent_pairs", "pair_bound", "wall_s"}
    # exact per seed: k = t, the largest n - min_degree the sampler takes, and a
    # mean pair count that moves with the sampling and the scoring
    assert (blocks["d"], blocks["k"], blocks["t"], blocks["trials"]) == (99, 100, 100, 20)
    assert (blocks["attempts_per_trial"], blocks["best_nonadjacent_pairs"],
            blocks["mean_nonadjacent_pairs"]) == (1.0, 0, 9.4)
    assert blocks["pair_bound"] == pytest.approx(23.1399, abs=1e-4)
    assert set(blocks["wall_s"]) == {"median", "q1", "q3", "iqr", "samples"}
    assert len(blocks["wall_s"]["samples"]) == 5
