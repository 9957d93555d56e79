import dataclasses
import math
import pickle

import pytest

from meshcoord import scenario
from meshcoord.scenario import (
    ALGORITHMS,
    MissionConfig,
    TRACE_HEADER,
    monte_carlo,
    run_mission,
    trace_rows,
)

FAST = dict(n_agents=4, world_width=12, world_height=12, steps=3, trials=2, seed=7)


def cfg(**overrides):
    return MissionConfig(**{**FAST, **overrides})


def test_defaults_validate():
    MissionConfig()


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_agents", 0),
        ("n_agents", 99999999999999999999),
        ("world_width", 0),
        ("world_height", 1000000),
        ("road_density", 1.5),
        ("fov_width", -1),
        ("move_magnitude", 0),
        ("steps", -1),
        ("comm_range", 0.0),
        ("k", -1),
        ("algorithm", "annealing"),
        ("tau_f", -0.1),
        ("message_kib", 0.0),
        ("data_rate_mbps", 0.0),
        ("trials", 0),
        ("spawn_width", 0),
    ],
)
def test_validate_names_the_offending_field(field, value):
    with pytest.raises(ValueError, match=field):
        MissionConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(MissionConfig(), **{field: value})


@pytest.mark.parametrize(
    "field,value",
    [(field, 1.5) for field in (
        "n_agents", "world_width", "world_height", "corridor_width", "fov_width", "fov_height",
        "move_magnitude", "steps", "k", "trials", "seed", "spawn_width", "spawn_height",
    )]
    + [(field, "0.1") for field in (
        "road_density", "comm_range", "tau_f", "tau_hash", "message_kib", "data_rate_mbps",
    )]
    + [("n_agents", True), ("n_agents", None), ("tau_f", None)],
)
def test_validate_rejects_wrongly_typed_fields_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an? (integer|finite number), got {value!r}"):
        MissionConfig(**{field: value})


@pytest.mark.parametrize(
    "field", ["road_density", "comm_range", "tau_f", "tau_hash", "message_kib", "data_rate_mbps"]
)
def test_validate_rejects_nan_in_every_float_field(field):
    # NaN passes every < / <= range check; a mask file also skips road_density's,
    # and the finiteness checks run before the (absent) mask file is read
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        MissionConfig(road_mask_path="roads.txt", **{field: math.nan})


@pytest.mark.parametrize(
    "field", ["road_density", "comm_range", "tau_f", "tau_hash", "message_kib", "data_rate_mbps"]
)
@pytest.mark.parametrize("value", [10**400, -(10**400)])
def test_validate_rejects_an_int_past_the_float_range_in_every_float_field(field, value):
    # math.isfinite(10**400) raises OverflowError instead of answering
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got an int of 1329 bits$"):
        MissionConfig(road_mask_path="roads.txt", **{field: value})


@pytest.mark.parametrize("field", ["tau_f", "tau_hash", "message_kib", "data_rate_mbps"])
def test_validate_rejects_infinite_costs(field):
    with pytest.raises(ValueError, match=field):
        MissionConfig(**{field: math.inf})


@pytest.mark.parametrize(
    "link", [{"message_kib": 1e306}, {"data_rate_mbps": 1e-318}, {"message_kib": 1e303, "data_rate_mbps": 1e-10}]
)
def test_validate_rejects_a_link_whose_delay_overflows(link):
    # every value is finite, but 8 * bytes / rate is not
    with pytest.raises(
        ValueError,
        match="message_kib and data_rate_mbps give an unusable delay: tau_c must be a finite number",
    ):
        MissionConfig(**link)


def test_validate_accepts_a_link_whose_delay_underflows_to_zero():
    cfg_ = MissionConfig(message_kib=1e-300, data_rate_mbps=1e300)
    assert cfg_.delay_model().tau_c == 0.0


def test_infinite_comm_range_puts_everyone_in_range():
    MissionConfig(comm_range=math.inf)
    with pytest.raises(ValueError, match="comm_range"):
        MissionConfig(comm_range=-math.inf)
    trace = run_mission(cfg(comm_range=math.inf, k=3), trial=0)
    assert all(r.gain_rounds > 0 for r in trace.records)


def test_delay_model_uses_the_reference_link_budget():
    dm = MissionConfig().delay_model()
    assert dm.tau_c == 0.8192  # 25 KiB at 0.25 Mbps
    assert dm.tau_f == 0.001


def test_mission_is_deterministic_per_trial():
    a = run_mission(cfg(), trial=1)
    b = run_mission(cfg(), trial=1)
    assert a == b
    c = run_mission(cfg(), trial=2)
    assert c.initial_positions != a.initial_positions


def test_world_draw_is_shared_across_algorithms():
    # paired comparisons need the same mask and spawn for every algorithm
    traces = [run_mission(cfg(algorithm=alg), trial=3) for alg in ALGORITHMS]
    assert len({t.initial_positions for t in traces}) == 1
    assert len({t.road_cell_count for t in traces}) == 1


def test_coverage_accumulates_and_stays_on_the_road():
    trace = run_mission(cfg(steps=6), trial=0)
    covered = [r.covered_cells for r in trace.records]
    assert covered == sorted(covered)
    assert covered[-1] <= trace.road_cell_count
    assert trace.peak_coverage == covered[-1]


def test_zero_steps_yields_an_empty_trace():
    trace = run_mission(cfg(steps=0), trial=0)
    assert trace.records == ()
    assert trace.peak_coverage == 0
    assert trace.mean_step_time == 0.0


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_every_rule_runs_a_mission(alg):
    trace = run_mission(cfg(algorithm=alg), trial=0)
    assert len(trace.records) == 3
    assert trace.algorithm == alg
    assert all(r.covered_cells >= 0 for r in trace.records)


def test_random_baseline_costs_no_time():
    trace = run_mission(cfg(algorithm="random"), trial=0)
    assert all(r.step_sim_time_s == 0.0 for r in trace.records)
    assert all(r.max_evals == 0 for r in trace.records)


def test_dsm_pays_compute_only():
    trace = run_mission(cfg(algorithm="dsm"), trial=0)
    dm = cfg().delay_model()
    expected = dm.tau_f * 8 * FAST["n_agents"]  # 8 candidate moves per agent
    for r in trace.records:
        assert math.isclose(r.step_sim_time_s, expected, rel_tol=1e-12)
        # hand-offs still happen, they just are not billed against the clock
        assert r.gain_rounds == 0 and r.action_rounds == FAST["n_agents"] - 1


def test_sequential_relay_cost_is_constant_per_step():
    trace = run_mission(cfg(algorithm="sg"), trial=0)
    n = FAST["n_agents"]
    dm = cfg().delay_model()
    expected = dm.tau_f * 8 * n + dm.tau_c * n * (n - 1) / 2
    for r in trace.records:
        assert math.isclose(r.step_sim_time_s, expected, rel_tol=1e-12)


def test_more_neighbors_cost_more_time():
    def mean_time(k):
        runs, _ = monte_carlo([cfg(trials=3, algorithm="rag", k=k)])
        return sum(r.mean_step_time for r in runs) / len(runs)

    t0, t3 = mean_time(0), mean_time(3)
    assert t0 < t3


def test_monte_carlo_single_trial_matches_the_trace():
    runs, summaries = monte_carlo([cfg(trials=1, algorithm="rag", k=2)])
    assert len(runs) == 1 and len(summaries) == 1
    s, r = summaries[0], runs[0]
    assert s.trials == 1
    assert s.mean_peak_coverage == r.peak_coverage
    assert s.std_peak_coverage == 0.0
    assert s.mean_coverage_by_step == tuple(
        float(rec.covered_cells) for rec in r.records
    )


def test_monte_carlo_orders_runs_by_variation_then_trial():
    variations = [cfg(algorithm="rag", k=2), cfg(algorithm="random", k=2)]
    runs, summaries = monte_carlo(variations)
    assert [(r.algorithm, r.trial) for r in runs] == [
        ("rag", 0), ("rag", 1), ("random", 0), ("random", 1)
    ]
    assert [s.algorithm for s in summaries] == ["rag", "random"]


def test_parallel_workers_change_nothing():
    variations = [cfg(algorithm="rag", k=2), cfg(algorithm="sg", k=2)]
    serial = monte_carlo(variations, workers=1)
    parallel = monte_carlo(variations, workers=2)
    assert serial == parallel


def test_trace_rows_flatten_every_step():
    runs, _ = monte_carlo([cfg(algorithm="random", k=2)])
    rows = list(trace_rows(runs))
    assert len(rows) == 2 * 3  # trials * steps
    assert len(rows[0]) == len(TRACE_HEADER)
    assert rows[0][:4] == [0, "random", 2, 1]  # steps count from 1
    for row in rows:
        assert row[1] == "random"
        assert row[3] in (1, 2, 3)


def test_road_mask_from_file(tmp_path):
    mask = tmp_path / "roads.txt"
    mask.write_text("########\n#......#\n########\n........\n")
    trace = run_mission(cfg(road_mask_path=str(mask), world_width=8,
                            world_height=4), trial=0)
    assert trace.road_cell_count == 18


def test_fov_must_fit_inside_the_loaded_mask(tmp_path):
    mask = tmp_path / "roads.txt"
    mask.write_text("##\n##\n")
    with pytest.raises(ValueError, match="must fit inside the 2x2 world"):
        cfg(road_mask_path=str(mask), world_width=2, world_height=2, fov_width=3, fov_height=3)


def test_the_mission_size_limit_admits_the_documented_mission_and_no_more():
    MissionConfig(n_agents=450, world_width=2000, world_height=2000)
    MissionConfig(n_agents=scenario._MISSION_SIZE_LIMIT, world_width=2048, world_height=2048)
    with pytest.raises(ValueError, match="^n_agents may be at most 4,194,304, got 4,194,305$"):
        MissionConfig(n_agents=scenario._MISSION_SIZE_LIMIT + 1)
    with pytest.raises(ValueError, match="^world_width x world_height may be at most 4,194,304 cells, got 2,049 x"):
        MissionConfig(world_width=2049, world_height=2048)


def test_a_mask_file_too_large_is_rejected_by_its_size_unread(monkeypatch, tmp_path):
    monkeypatch.setattr(scenario, "_MISSION_SIZE_LIMIT", 12)
    mask = tmp_path / "roads.txt"
    mask.write_text("####\n" * 8)  # 40 bytes, past 3 bytes a cell for 12 cells
    monkeypatch.setattr(scenario, "parse_road_mask", lambda text: pytest.fail("the mask file was read"))
    with pytest.raises(ValueError, match="is not a usable road mask: its 40 bytes are more than a mask of 12 cells"):
        cfg(road_mask_path=str(mask), world_width=2, world_height=2)


def test_a_mask_file_of_too_many_cells_is_rejected_by_name(monkeypatch, tmp_path):
    monkeypatch.setattr(scenario, "_MISSION_SIZE_LIMIT", 12)
    mask = tmp_path / "roads.txt"
    mask.write_text("###\n" * 4)
    cfg(road_mask_path=str(mask), world_width=2, world_height=2)  # 12 cells is the limit
    mask.write_bytes(b"#\r\n" * 12)  # 36 bytes, the most 12 cells can take
    cfg(road_mask_path=str(mask), world_width=2, world_height=2, fov_width=1, fov_height=1)
    mask.write_text("#####\n" * 3)
    with pytest.raises(ValueError, match="is not a usable road mask: its 5 x 3 cells are more than 12$"):
        cfg(road_mask_path=str(mask), world_width=2, world_height=2)


def test_dfs_needs_a_second_agent():
    with pytest.raises(ValueError, match="at least 2 for algorithm dfs-sg"):
        cfg(algorithm="dfs-sg", n_agents=1)


def test_clustered_spawn_box_is_respected():
    trace = run_mission(cfg(spawn_width=4, spawn_height=4), trial=0)
    xs = [p[0] for p in trace.initial_positions]
    ys = [p[1] for p in trace.initial_positions]
    assert max(xs) - min(xs) < 4
    assert max(ys) - min(ys) < 4


def test_pool_never_has_more_workers_than_tasks(monkeypatch):
    # with the fork start method every max_workers process starts at the first
    # submit, so the cap is checked on a stub that runs the tasks serially
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    variations = [cfg(algorithm="random", k=2), cfg(algorithm="sg", k=2)]  # 2 x 2 trials
    assert monte_carlo(variations, workers=100_000) == monte_carlo(variations)
    assert started == [4]
    monte_carlo([cfg(trials=1)], workers=8)  # a single task runs without a pool
    assert started == [4]


def test_monte_carlo_refuses_too_many_missions_before_indexing_them(monkeypatch):
    monkeypatch.setattr(scenario, "_batches", lambda *args: pytest.fail("the missions were indexed"))
    limit = scenario._SWEEP_MISSION_LIMIT
    with pytest.raises(ValueError, match=f"^trials x variations may be at most {limit:,} missions, got {limit + 1:,}$"):
        monte_carlo([cfg(trials=limit), cfg(trials=1)])


def test_unpickled_configs_are_not_checked_again(monkeypatch):
    config = cfg()
    calls = []
    check = MissionConfig.__post_init__
    monkeypatch.setattr(MissionConfig, "__post_init__", lambda self: calls.append(check(self)))
    assert pickle.loads(pickle.dumps(config)) == config
    assert calls == []
    dataclasses.replace(config, k=3)
    assert calls == [None]
