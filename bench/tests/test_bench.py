"""Self-test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = (
    "objective.evaluate_calls",
    "objective.selection_elems",
    "objective.subset_table_calls",
    "topology.shortest_hops_calls",
    "cli.pools_started",
)
# Upper limit on the share of a tiny traced pass spent outside every span
# (set-up glue, checks, digests); about 0.2 at most when measured.
UNATTRIBUTED_SHARE = 0.5


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _originals():
    names = {}
    for mod in (tracer.meshcoord, *tracer.MODULES.values()):
        for attr, value in vars(mod).items():
            if callable(value):
                names[f"{mod.__name__}.{attr}"] = value
    names["Objective.evaluate"] = tracer.objective.Objective.__dict__["evaluate"]
    return names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric_restores_names_and_repeats_counts(workload, tmp_path):
    untraced = run.run(workload, 0, 0, trace=False, size="tiny", out_root=tmp_path)
    assert untraced["correct"] and untraced["attempted"] >= 1
    assert _units(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    before = _originals()
    first = run.run(workload, 0, 0, trace=True, size="tiny", out_root=tmp_path)
    assert tracer.wrapped_attributes() == []
    assert _originals() == before
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    layer = first["metrics"]
    wall = layer["trace.wall_s"]["value"]
    rest = layer["trace.unattributed_s"]["value"]
    roll = sum(layer[f"{name}.self_s"]["value"] for name in run.LAYERS)
    assert roll + rest == pytest.approx(wall, rel=1e-9)
    assert 0 <= rest < UNATTRIBUTED_SHARE * wall

    second = run.run(workload, 0, 0, trace=True, size="tiny", out_root=tmp_path)
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_nest_inside_their_parents(workload, tmp_path):
    tr, wall, _ = run._traced_pass(workload, 0, "tiny", tmp_path, "nest")
    assert len(tr.start) > 0
    for i in range(len(tr.start)):
        assert tr.start[i] <= tr.end[i]
        p = tr.parent[i]
        if p >= 0:
            assert tr.start[p] <= tr.start[i] and tr.end[i] <= tr.end[p], tr.names[tr.name[i]]
    roll = tr.rollup(wall)
    assert min(roll["self"].values()) >= 0
    assert 0 <= roll["unattributed_s"] < UNATTRIBUTED_SHARE * wall


def test_failed_artifacts_take_the_sweep_out_of_the_rate():
    def sweep(artifacts_digest, seconds):
        slots = [
            workloads.Op(f"variation-{i}", "missions_per_s", ops=0, items=6, seconds=seconds, part_of="artifacts")
            for i in range(2)
        ]
        art = workloads.Op("artifacts", "missions_per_s", ops=12, items=0, seconds=seconds, digest=artifacts_digest)
        return slots + [art]

    good, bad = sweep("abc", 1.0), sweep("xyz", 0.1)
    tally = run.Tally({"artifacts": "abc"})
    tally.add(good)
    tally.add(bad)
    assert (tally.attempted, tally.failed) == (24, 12)
    assert run._rate([(3.0, bad)]) == 0.0
    assert run._rate([(3.0, good), (3.0, bad)]) == run._rate([(3.0, good)]) == 4.0


def test_dfs_sg_is_kept_out_of_items_per_s():
    inputs = workloads.setup_scale(0, "tiny")
    ops = {op.name: op for op in workloads.pass_scale(inputs)}
    assert not ops["dfs-sg"].in_total
    assert all(op.in_total for name, op in ops.items() if name != "dfs-sg")


def test_golden_gate_counts_a_mismatch_as_a_wrong_failed_operation():
    op = workloads.Op("sg", "sg_decisions_per_s", ops=1, items=40, seconds=0.1, digest="abc")
    tally = run.Tally({"sg": "def"})
    tally.add([op])
    assert (tally.attempted, tally.failed, tally.correct, tally.golden_checked) == (1, 1, False, 1)


def test_digest_ignores_set_order_but_not_float_bits():
    assert workloads.digest(frozenset({3, 1, 2})) == workloads.digest(frozenset({2, 3, 1}))
    assert workloads.digest(0.1 + 0.2) != workloads.digest(0.3)
