"""Smoke test of the benchmark: every workload at smoke size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must exit 0, pass every output check and report every metric named
below with its unit, so a change that drops or renames a metric fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "solved_per_s": "1/s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "budget_kmax": "count",
    "cnf_s": "s",
    "construct_s": "s",
    "check_s": "s",
    "compress_s": "s",
    "certificate_s": "s",
}


def _expand(spec):
    """'a.{b,c}.d' -> ['a.b.d', 'a.c.d'] (one brace group)."""
    if "{" not in spec:
        return [spec]
    head, rest = spec.split("{", 1)
    options, tail = rest.split("}", 1)
    return [head + option + tail for option in options.split(",")]


PER_LAYER_SPECS = {
    "gf2.sumset.{calls,pairs}": "count",
    "gf2.sumset.self_s": "s",
    "gf2.sumset.yield": "ratio",
    "gf2.LinearMap2.apply.calls": "count",
    "gf2.LinearMap2.apply.self_s": "s",
    "gf2.nullspace_rows.{calls,cells}": "count",
    "gf2.{nullspace_rows,rank_rows,Subspace2.from_vectors}.self_s": "s",
    "orderprop.max_order_exact.calls": "count",
    "orderprop.{max_order_exact,export_cnf,verify_witness,staircase_check,canonical_enumeration}.self_s": "s",
    "orderprop.{nodes,nodes_to_exact,export_cnf.clauses,verify_witness.calls}": "count",
    "orderprop.nodes_per_s": "1/s",
    "orderprop.exact_ratio": "ratio",
    "orderprop.export_cnf.bytes": "B",
    "orderprop.{export_cnf,staircase_check}.rss_rise_mb": "MB",
    "constructions.{dyadic_construction,pad_to_size}.self_s": "s",
    "constructions.dyadic_construction.rss_rise_mb": "MB",
    "fileformats.{serialize_set,parse_set,serialize_witness,parse_witness}.self_s": "s",
    "fileformats.parse_set.rss_rise_mb": "MB",
    "fileformats.bytes": "B",
    "modelling.{partition_witness,minimal_model,compress,ruzsa_check}.self_s": "s",
    "modelling.{quotient_steps,final_d_size}": "count",
    "polymethod.{vanishing_space,max_support_polynomial,rank_certificate}.self_s": "s",
    "polymethod.{vanishing_dim,max_support_rounds}": "count",
    "generators.random_subset.self_s": "s",
    "trace.{untraced_pass_s,traced_pass_s,overhead_s}": "s",
    "trace.self_share": "ratio",
}
PER_LAYER = {name: unit for spec, unit in PER_LAYER_SPECS.items() for name in _expand(spec)}

#: per-layer counts that every smoke pass must make nonzero
LAYER_WORK = [
    "gf2.sumset.pairs",
    "gf2.nullspace_rows.cells",
    "orderprop.nodes",
    "orderprop.export_cnf.clauses",
    "orderprop.verify_witness.calls",
    "fileformats.bytes",
    "modelling.final_d_size",
    "polymethod.vanishing_dim",
    "polymethod.max_support_rounds",
]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["search", "witness-l4", "compress-certify"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    stdout, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, stdout
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        for name in LAYER_WORK:
            assert result["metrics"][name]["value"] > 0, name
        assert 0.9 < result["metrics"]["trace.self_share"]["value"] <= 1.0
    else:
        assert result["metrics"]["pass_rate"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_declares_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["search", "witness-l4", "compress-certify"]


def test_missing_library_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
