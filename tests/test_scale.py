"""The paper's claim that rag's decision time grows linearly with the team,
checked at scale: each case runs in a fresh interpreter whose address space
is capped at 1 GiB, so a quadratic memory or time path fails here. Sizes
past the stated limits are refused there by name, before any work."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import meshcoord

# 1 GiB of address space, as `ulimit -v 1048576`; the child sets it on
# itself first, so the test process keeps its own limit
CAP = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"


def run_capped(code: str, timeout: float) -> None:
    """Run code in a fresh interpreter under the cap; fail with its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(meshcoord.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", CAP + textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert result.returncode == 0, result.stderr


RAG_RUN = """
    import random
    from meshcoord.coordination import run_rag
    from meshcoord.instances import scaling_instance
    from meshcoord.topology import knn_graph
    obj, positions = scaling_instance(random.Random(1), {n})
    g = knn_graph(positions, 4, 12.0)
    out = run_rag(obj, g)
    assert out.value == obj.covered_cells(out.actions), out.value
    # every scored menu is charged in full, plus the one evaluation of the outcome's value
    assert obj.eval_count == sum(out.eval_counts) + 1, (obj.eval_count, sum(out.eval_counts))
"""


def test_rag_curvature_and_coin_sum_at_10_000_agents():
    # with footprint masks as wide as the world this run peaked at 2.1 GB;
    # windowed masks keep it near 100 MB.
    # Curvature and coin sum: counted from the footprints; evaluating them
    # took 53 s for curvature at n = 1,000
    run_capped(
        RAG_RUN.format(n="10_000")
        + """
    from meshcoord.bounds import coin_sum
    from meshcoord.objective import curvature
    before = obj.eval_count
    kappa = curvature(obj)
    coins = coin_sum(obj, g, out.actions)
    charged = obj.eval_count - before
    assert 0.0 <= kappa <= 1.0, kappa
    assert coins >= 0.0, coins
    # 1 + 2 per ground element for curvature, 3 per agent for the coin sum
    assert charged == 1 + 2 * len(obj.ground()) + 3 * obj.n_agents, charged
    """,
        timeout=120,
    )


def test_rag_at_30_000_agents():
    # set-up builds each footprint's windows from its centre, so it stays
    # linear in the team; with world-wide masks it took 16 s here
    run_capped(RAG_RUN.format(n="30_000"), timeout=300)


def test_bound_report_and_structure_check_at_16_ground_elements():
    # the 2^16-entry coverage table is walked depth first, one extend per entry
    run_capped(
        """
    import random
    from meshcoord.bounds import bound_report
    from meshcoord.coordination import run_rag
    from meshcoord.instances import random_coverage_instance
    from meshcoord.objective import validate_structure
    draw = 0
    while True:
        obj, g = random_coverage_instance(random.Random(f"m16:{draw}"), max_agents=6, max_actions=4, min_agents=4)
        if len(obj.ground()) == 16:
            break
        draw += 1
    report = bound_report(obj, g, run_rag(obj, g))
    assert report.certified, report
    assert report.algorithm_value >= max(report.apriori, report.aposteriori) - 1e-9, report
    before = obj.eval_count
    structure = validate_structure(obj)
    charged = obj.eval_count - before
    # the table is the check's only charge
    assert charged == 1 << 16, charged
    assert structure.is_monotone and structure.is_submodular, structure
    assert structure.c_total == report.c_total, (structure, report)
    """,
        timeout=120,
    )


def test_scaling_instance_refuses_a_team_past_the_world_limit_before_drawing():
    # 10^8 agents, 36 cells each, drew for more than 30 s under a 2 GB cap
    run_capped(
        """
    import random
    from meshcoord.instances import scaling_instance
    rng = random.Random(0)
    state = rng.getstate()
    try:
        scaling_instance(rng, 10**8)
    except ValueError as exc:
        assert str(exc) == "n_agents may be at most 116,508, got 100,000,000", exc
    else:
        raise AssertionError("10^8 agents were drawn")
    assert rng.getstate() == state
    """,
        timeout=2,
    )


def test_random_coverage_instance_refuses_a_team_past_the_limit_before_drawing():
    # 100,000 agents on a quadratic graph ran out of the 1 GiB cap after 6.7 s
    run_capped(
        """
    import random
    from meshcoord.instances import random_coverage_instance
    rng = random.Random(0)
    state = rng.getstate()
    try:
        random_coverage_instance(rng, max_agents=100_000, min_agents=100_000)
    except ValueError as exc:
        assert str(exc) == "max_agents * (max_agents + max_actions) may be at most 4,194,304, got 10,000,400,000", exc
    else:
        raise AssertionError("100,000 agents were drawn")
    assert rng.getstate() == state
    """,
        timeout=2,
    )


def test_a_sweep_of_a_billion_missions_exits_2_before_indexing_them(tmp_path):
    # one dict entry per mission ran out of memory after about 18 s
    config = tmp_path / "exp.cfg"
    config.write_text(f"trials = 1000000000\nsteps = 0\noutput_dir = {tmp_path / 'out'}\n")
    run_capped(
        f"""
    import contextlib, io
    from meshcoord import cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["run", {str(config)!r}]) == 2
    assert "trials x variations may be at most" in err.getvalue(), err.getvalue()
    """,
        timeout=2,
    )


ARENA_PAST_THE_CELL_LIMIT = """
    from meshcoord.objective import DiskCoverageObjective
    try:
        DiskCoverageObjective([[(5.0, 5.0)]], 1.0, arena=(0.0, 0.0, 10.0, 10.0), resolution={resolution})
    except ValueError as exc:
        assert "resolution" in str(exc) and "arena" in str(exc), exc
    else:
        raise AssertionError("an arena past the cell limit was built")
"""


def test_disk_arena_of_10_to_the_12_cells_fails_by_name():
    # its world-wide mask alone is 125 GB: this used to raise a bare MemoryError
    run_capped(ARENA_PAST_THE_CELL_LIMIT.format(resolution=10**5), timeout=2)


def test_disk_arena_of_10_to_the_8_cells_fails_by_name():
    # this used to rasterize 10^8 cells, still running after 20 s
    run_capped(ARENA_PAST_THE_CELL_LIMIT.format(resolution=1000), timeout=2)
