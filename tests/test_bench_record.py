import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _result(root, workload, seed, trace, wall, failures=None, ops=None):
    metrics = {name: wall for name in bench_record.END_TO_END}
    metrics["sparse.self_s"] = wall / 2
    if trace:
        metrics["engines.box_cells_max"] = int(100 * wall)
        metrics["stats.u_n_integral_s"] = wall / 4
        metrics["stats.eigenvalue_grid_s"] = wall / 8
        metrics["stats.ratio_sequence_s"] = wall / 16
        metrics["stats.cross_ratio_s"] = wall / 32
        metrics["stats.pressure_estimate_s"] = wall / 64
        metrics["stats.symmetry_reality_check_s"] = wall / 128
    res = {"workload": workload, "seed": seed, "trace": trace, "attempted": 100,
           "failed": len(failures or {}), "failures": failures or {}, "nproc": 2,
           "blas_threads": 1, "kernel_backend": "numpy", "metrics": metrics,
           "op_median_s": ops if ops is not None else {"op": wall / 25}}
    out = root / "gmbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(res))


def test_pairs_runs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(2.0, 1.0), (3.0, 1.5), (1.0, 1.2)], start=1):
        _result(parent, "sparse_exact", seed, 0, p)
        _result(change, "sparse_exact", seed, 0, c)
    _result(parent, "sparse_exact", 9, 0, 5.0)         # no partner: left out
    _result(parent, "sparse_exact", 1, 1, 4.0)
    _result(change, "sparse_exact", 1, 1, 2.0,
            {"op": {"known_fault": False, "count": 1, "message": "x"}})
    out = tmp_path / "BENCH_1.json"
    bench_record.main(["--pr", "1", "--title", "t", "--claim", "sparse_exact:wall_s",
                       "--parent", str(parent), "--change", str(change),
                       "--parent-rev", "abc", "--change-rev", "def", "--out", str(out)])
    rec = json.loads(out.read_text())
    assert rec["revisions"] == {"parent": "abc", "change": "def"}
    w = rec["workloads"]["sparse_exact"]
    assert w["seeds"] == [1, 2, 3] and w["pairs"] == 3 and w["correct"]
    assert w["wall_s"]["parent"]["per_run"] == [2.0, 3.0, 1.0]
    assert w["wall_s"]["parent"]["median"] == 2.0 and w["wall_s"]["change"]["median"] == 1.2
    assert w["wall_s"]["change_lower_in"] == "2/3"
    assert w["failed_share"] == {"parent": [0.0], "change": [0.0]}
    traced = rec["traced_sparse_exact"]
    assert traced["per_run"]["parent"]["sparse.self_s"] == [2.0]
    assert traced["per_run"]["change"]["sparse.self_s"] == [1.0]
    # the largest dense box a traced run built, per side
    assert traced["per_run"]["parent"]["engines.box_cells_max"] == [400]
    assert traced["per_run"]["change"]["engines.box_cells_max"] == [200]
    # the spectral statistics' traced times, per side; a metric the run did
    # not record reads null
    assert traced["per_run"]["parent"]["stats.u_n_integral_s"] == [1.0]
    assert traced["per_run"]["change"]["stats.eigenvalue_grid_s"] == [0.25]
    assert traced["per_run"]["change"]["stats.aperiodicity_scan_s"] == [None]
    # the point-mass statistics' traced times, per side
    assert traced["per_run"]["parent"]["stats.ratio_sequence_s"] == [0.25]
    assert traced["per_run"]["change"]["stats.cross_ratio_s"] == [0.0625]
    # the layers that blocked sequences and the half-grid reality check move
    assert traced["per_run"]["parent"]["stats.pressure_estimate_s"] == [0.0625]
    assert traced["per_run"]["change"]["stats.symmetry_reality_check_s"] == [0.015625]
    assert traced["per_run"]["change"]["stats.return_sequence_s"] == [None]


def test_no_common_untraced_run_is_an_error(tmp_path):
    _result(tmp_path / "parent", "sparse_exact", 1, 0, 1.0)
    _result(tmp_path / "change", "sparse_exact", 2, 0, 1.0)
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "1", "--title", "t", "--claim", "sparse_exact:wall_s",
                           "--parent", str(tmp_path / "parent"),
                           "--change", str(tmp_path / "change")])


def test_a_record_without_a_claim_claims_no_gain(tmp_path):
    _result(tmp_path / "parent", "heis_returns", 1, 0, 1.0)
    _result(tmp_path / "change", "heis_returns", 1, 0, 0.9)
    out = tmp_path / "BENCH_1.json"
    bench_record.main(["--pr", "1", "--title", "t", "--parent", str(tmp_path / "parent"),
                       "--change", str(tmp_path / "change"), "--out", str(out)])
    rec = json.loads(out.read_text())
    assert rec["claim"] is None
    assert rec["workloads"]["heis_returns"]["wall_s"]["change_lower_in"] == "1/1"


def test_per_operation_medians_are_copied_per_side(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(0.5, 0.125), (0.75, 0.25)], start=1):
        _result(parent, "heis_returns", seed, 0, 1.0, ops={"a": p, "b": 2 * p})
        _result(change, "heis_returns", seed, 0, 1.0, ops={"a": c, "c": 3 * c})
    out = tmp_path / "BENCH_1.json"
    bench_record.main(["--pr", "1", "--title", "t", "--parent", str(parent),
                       "--change", str(change), "--out", str(out)])
    ops = json.loads(out.read_text())["workloads"]["heis_returns"]["op_median_s"]
    assert list(ops) == ["a", "b", "c"]
    assert ops["a"] == {"parent": [0.5, 0.75], "change": [0.125, 0.25]}
    # an operation one side did not run reads null there
    assert ops["b"] == {"parent": [1.0, 1.5], "change": [None, None]}
    assert ops["c"] == {"parent": [None, None], "change": [0.375, 0.75]}
