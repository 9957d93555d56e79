import concurrent.futures
import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshcoord
from meshcoord import bounds, cli, scenario
from meshcoord.cli import (
    DEFAULT_CONFIG_TEMPLATE,
    ConfigError,
    ExperimentConfig,
    main,
    parse_experiment_config,
)
from meshcoord.coordination import run_rag
from meshcoord.instances import random_coverage_instance
from meshcoord.objective import DiskCoverageObjective
from meshcoord.scenario import MissionConfig
from meshcoord.topology import edgeless_graph


def small_config(out_dir, **extra):
    """A small config, one line per field; extra fields override the base ones in place."""
    values = dict(n_agents=3, world_width=10, world_height=10, steps=2, trials=2, output_dir=out_dir)
    values.update(extra)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


@pytest.fixture
def serial_pool(monkeypatch):
    """Swaps in a ProcessPoolExecutor that runs its tasks here, in order; returns the sizes started."""
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
    return started


def write_config(tmp_path, **extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out_dir = tmp_path / "out"
    path = tmp_path / "exp.cfg"
    path.write_text(small_config(out_dir, **extra))
    return path, out_dir


def test_template_round_trips_to_the_defaults():
    exp = parse_experiment_config(DEFAULT_CONFIG_TEMPLATE)
    assert exp == ExperimentConfig(mission=MissionConfig())


def test_parse_reports_the_offending_line():
    with pytest.raises(ConfigError, match="config line 2: expected 'key = value'"):
        parse_experiment_config("n_agents = 3\nnonsense\n")
    with pytest.raises(ConfigError, match="config line 1: unknown field 'speed'"):
        parse_experiment_config("speed = 9\n")
    with pytest.raises(ConfigError, match="config line 2: field 'k' expects an integer"):
        parse_experiment_config("seed = 1\nk = banana\n")
    with pytest.raises(ConfigError, match="config line 1: field 'tau_f' expects a number"):
        parse_experiment_config("tau_f = fast\n")
    with pytest.raises(ConfigError, match="config line 1: field 'n_agents' needs a value"):
        parse_experiment_config("n_agents =\n")
    with pytest.raises(ConfigError, match="emit accepts"):
        parse_experiment_config("emit = traces pictures\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed = 1\nsweep_algorithm = rag greedy sg\n",
         "config line 2: sweep_algorithm accepts rag, sg, dfs-sg, dsm, random, got greedy"),
        ("algorithm = greedy\n", "config line 1: algorithm accepts rag, sg, dfs-sg, dsm, random, got greedy"),
    ],
)
def test_a_bad_choice_names_its_field_and_line(text, message):
    with pytest.raises(ConfigError) as info:
        parse_experiment_config(text)
    assert str(info.value) == message


def test_a_repeated_field_exits_2_naming_both_lines(tmp_path, capsys):
    with pytest.raises(ConfigError, match="config line 3: field 'n_agents' is already set on line 1"):
        parse_experiment_config("n_agents = 4\nseed = 1\nn_agents = 5\n")
    path, out_dir = write_config(tmp_path)
    path.write_text(path.read_text() + "trials = 3\n")
    assert main(["run", str(path)]) == 2
    assert "field 'trials' is already set on line 5" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_sweep_of_too_many_missions_is_a_config_error_naming_trials():
    limit = scenario._SWEEP_MISSION_LIMIT
    parse_experiment_config(f"trials = {limit}\n")
    parse_experiment_config(f"trials = {limit // 2}\nsweep_k = 1 2\n")
    message = f"^config error: trials x variations may be at most {limit:,} missions, got {limit + 2:,}$"
    with pytest.raises(ConfigError, match=message):
        parse_experiment_config(f"trials = {limit // 2 + 1}\nsweep_k = 1 2\n")


def test_list_fields_name_their_element_type():
    with pytest.raises(ConfigError, match="config line 1: field 'sweep_k' expects an integer"):
        parse_experiment_config("sweep_k = a\n")
    with pytest.raises(
        ConfigError, match="config line 1: field 'sweep_data_rate_mbps' expects a number"
    ):
        parse_experiment_config("sweep_data_rate_mbps = fast\n")


def test_template_names_every_config_field_once():
    keys = [
        line.partition("=")[0].strip()
        for line in DEFAULT_CONFIG_TEMPLATE.splitlines()
        if line.strip() and not line.startswith("#")
    ]
    names = [f.name for f in fields(MissionConfig)]
    names += [f.name for f in fields(ExperimentConfig) if f.name != "mission"]
    assert sorted(keys) == sorted(names)


def test_optional_keys_accept_emptiness():
    exp = parse_experiment_config("road_mask_path =\nspawn_width =\nsweep_k =\n")
    assert exp.mission.road_mask_path is None
    assert exp.mission.spawn_width is None
    assert exp.sweep_k == ()


def test_sweep_lists_take_commas_or_spaces():
    exp = parse_experiment_config(
        "sweep_algorithm = rag, random\nsweep_k = 0 1 2\nsweep_data_rate_mbps = 0.25\n"
    )
    assert exp.sweep_algorithm == ("rag", "random")
    assert exp.sweep_k == (0, 1, 2)
    assert exp.sweep_data_rate_mbps == (0.25,)


def test_variations_form_the_full_product():
    exp = parse_experiment_config("sweep_algorithm = rag sg\nsweep_k = 0 2\n")
    rows = [(m.algorithm, m.k, m.n_agents, m.data_rate_mbps) for m in exp.missions()]
    assert len(rows) == 4
    assert rows[0] == ("rag", 0, 6, 0.25)
    assert rows[-1] == ("sg", 2, 6, 0.25)


def test_variations_fall_back_to_the_mission_values():
    exp = parse_experiment_config("algorithm = dsm\nk = 3\n")
    rows = [(m.algorithm, m.k, m.n_agents, m.data_rate_mbps) for m in exp.missions()]
    assert rows == [("dsm", 3, 6, 0.25)]


def test_print_default_config_round_trips(capsys):
    assert main(["run", "--print-default-config"]) == 0
    printed = capsys.readouterr().out
    assert parse_experiment_config(printed) == ExperimentConfig(mission=MissionConfig())


def test_run_writes_the_default_artifact_set(tmp_path, capsys):
    path, out_dir = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "aggregates.csv", "summary.json", "traces.csv",
    ]
    stdout = capsys.readouterr().out
    assert "rag k=2 n=3" in stdout and "peak" in stdout

    with (out_dir / "traces.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "trial", "algorithm", "k", "step", "covered_cells",
        "step_sim_time_s", "gain_rounds", "action_rounds", "max_evals",
    ]
    assert len(rows) == 1 + 2 * 2  # header + trials * steps

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["variations"][0]["algorithm"] == "rag"
    assert summary["variations"][0]["trials"] == 2


def test_run_sweep_emits_one_aggregate_row_per_variation(tmp_path):
    path, out_dir = write_config(
        tmp_path, sweep_algorithm="rag random", sweep_k="0 1",
    )
    assert main(["run", str(path)]) == 0
    with (out_dir / "aggregates.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["algorithm", "k", "n_agents", "data_rate_mbps"]
    assert len(rows) == 1 + 4
    assert [r[0] for r in rows[1:]] == ["rag", "rag", "random", "random"]


def test_rerun_is_byte_identical(tmp_path):
    path_a, out_a = write_config(tmp_path / "a")
    path_b, out_b = write_config(tmp_path / "b")
    assert main(["run", str(path_a)]) == 0
    assert main(["run", str(path_b)]) == 0
    for name in ("traces.csv", "aggregates.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # summary.json embeds the config, whose output_dir necessarily differs
    summaries = []
    for out in (out_a, out_b):
        data = json.loads((out / "summary.json").read_text())
        data["config"].pop("output_dir")
        summaries.append(data)
    assert summaries[0] == summaries[1]


def test_extra_emissions_produce_their_files(tmp_path):
    path, out_dir = write_config(tmp_path, emit="traces aggregates bounds timings")
    assert main(["run", str(path)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "aggregates.csv", "bounds.csv", "summary.json", "timings.csv", "traces.csv",
    ]
    with (out_dir / "bounds.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1
    header = rows[0]
    value_col = header.index("algorithm_value")
    apriori_col = header.index("apriori")
    for row in rows[1:]:
        assert float(row[value_col]) >= float(row[apriori_col]) - 1e-9


def test_run_rejects_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_without_a_config_path_is_a_usage_error(capsys):
    assert main(["run"]) == 2
    assert "config path" in capsys.readouterr().err


def test_run_rejects_bad_config_values(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("k = banana\n")
    assert main(["run", str(path)]) == 2
    assert "config line 1" in capsys.readouterr().err


def test_blocked_output_dir_exits_before_any_work(tmp_path, capsys):
    blocker = tmp_path / "out"
    blocker.write_text("in the way")
    path = tmp_path / "exp.cfg"
    path.write_text(small_config(blocker))
    assert main(["run", str(path)]) == 2
    assert "not writable" in capsys.readouterr().err
    assert blocker.read_text() == "in the way"


def test_invalid_worker_env_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MESHCOORD_WORKERS", "zero")
    path, _ = write_config(tmp_path)
    assert main(["run", str(path)]) == 2
    assert "MESHCOORD_WORKERS" in capsys.readouterr().err


def test_a_worker_count_below_one_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MESHCOORD_WORKERS", "0")
    path, _ = write_config(tmp_path)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "MESHCOORD_WORKERS must be at least 1\n"


def test_worker_count_does_not_change_the_outputs(tmp_path, monkeypatch, capsys):
    sweep = dict(
        sweep_algorithm="rag dfs-sg random",
        sweep_k="0 2",
        sweep_n_agents="2 3",
        sweep_data_rate_mbps="0.25 1.0",
        emit="traces aggregates bounds timings",
    )
    path_a, out_a = write_config(tmp_path / "a", **sweep)
    path_b, out_b = write_config(tmp_path / "b", **sweep)
    printed = []
    for workers, path in (("1", path_a), ("2", path_b)):
        monkeypatch.setenv("MESHCOORD_WORKERS", workers)
        assert main(["run", str(path)]) == 0
        printed.append(capsys.readouterr().out.splitlines())
    for name in ("traces.csv", "aggregates.csv", "bounds.csv", "timings.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    summaries = []
    for out in (out_a, out_b):
        data = json.loads((out / "summary.json").read_text())
        data["config"].pop("output_dir")
        summaries.append(data)
    assert summaries[0] == summaries[1]
    # one line per variation, in sweep order, whatever the worker count
    expected = [
        f"{a} k={k} n={n} rate={r}Mbps:"
        for a in ("rag", "dfs-sg", "random")
        for k in (0, 2)
        for n in (2, 3)
        for r in (0.25, 1.0)
    ]
    for lines in printed:
        assert [line.split(" peak")[0] for line in lines] == expected


def test_one_world_split_over_a_real_pool_writes_the_serial_bytes(tmp_path, monkeypatch, capsys):
    # one trial: the five missions draw one world, whose batch 3 processes split
    pool_map, pools = scenario._pool_map, []

    def counted(fn, tasks, workers):
        pools.append(min(workers, len(tasks)))
        return pool_map(fn, tasks, workers)

    monkeypatch.setattr(scenario, "_pool_map", counted)
    written = []
    for workers in ("1", "3"):
        path, out_dir = write_config(tmp_path / workers, trials=1, sweep_algorithm="rag sg dfs-sg dsm random")
        monkeypatch.setenv("MESHCOORD_WORKERS", workers)
        assert main(["run", str(path)]) == 0
        written.append([(out_dir / name).read_bytes() for name in ("traces.csv", "aggregates.csv")])
    assert pools == [1, 3]
    assert written[0] == written[1]


START_METHOD_RUN = """
import multiprocessing
multiprocessing.set_start_method({method!r})
from meshcoord.cli import main
assert main(["run", "exp.cfg"]) == 0
assert main(["verify", "--count", "30"]) == 0
"""


def test_every_start_method_prints_and_writes_the_fork_bytes(tmp_path):
    # Python 3.14 makes forkserver the default on Linux; each child runs a
    # two-variation sweep and a verify on a pool of two workers
    env = {**os.environ, "MESHCOORD_WORKERS": "2", "PYTHONPATH": str(Path(meshcoord.__file__).parents[1])}
    seen = {}
    for method in ("fork", "spawn", "forkserver"):
        cwd = tmp_path / method
        cwd.mkdir()
        (cwd / "exp.cfg").write_text(small_config("out", sweep_algorithm="rag sg"))
        child = subprocess.run(
            [sys.executable, "-c", START_METHOD_RUN.format(method=method)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        artifacts = {path.name: path.read_bytes() for path in sorted((cwd / "out").iterdir())}
        seen[method] = (child.stdout, artifacts)
    assert "all properties passed on 30 instances" in seen["fork"][0]
    assert sorted(seen["fork"][1]) == ["aggregates.csv", "summary.json", "traces.csv"]
    assert seen["spawn"] == seen["fork"]
    assert seen["forkserver"] == seen["fork"]

@pytest.mark.parametrize(
    "key", ["road_density", "comm_range", "tau_f", "tau_hash", "message_kib", "data_rate_mbps"]
)
def test_nan_config_values_are_rejected_by_name(key):
    with pytest.raises(ConfigError, match=f"config error: {key} must be a finite number"):
        parse_experiment_config(f"{key} = nan\n")


def test_nan_sweep_rate_is_rejected_before_any_work(tmp_path, capsys):
    path, out_dir = write_config(tmp_path, sweep_data_rate_mbps="0.25 nan")
    assert main(["run", str(path)]) == 2
    assert "data_rate_mbps must be a finite number" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "extra,message",
    [
        (dict(n_agents="99999999999999999999"), "n_agents may be at most"),
        (dict(world_width="1000000", world_height="1000000"), "world_width x world_height may be at most"),
    ],
)
def test_a_mission_too_large_to_run_exits_2_before_any_work(tmp_path, capsys, extra, message):
    path, out_dir = write_config(tmp_path, **extra)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_overflowing_sweep_link_is_rejected_before_any_work(tmp_path, capsys):
    path, out_dir = write_config(tmp_path, message_kib="1e306", sweep_data_rate_mbps="0.25 1.0")
    assert main(["run", str(path)]) == 2
    assert "message_kib and data_rate_mbps give an unusable delay" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "extra",
    [
        dict(algorithm="dfs-sg", n_agents=1),
        dict(n_agents=1, sweep_algorithm="rag dfs-sg"),
        dict(algorithm="dfs-sg", sweep_n_agents="3 1"),
    ],
)
def test_single_agent_dfs_sg_is_rejected_before_any_work(tmp_path, capsys, extra):
    path, out_dir = write_config(tmp_path, **extra)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: n_agents must be at least 2 for algorithm dfs-sg" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "case,content,message",
    [
        ("missing", None, "road_mask_path"),
        ("unreadable", "directory", "road_mask_path"),
        ("malformed", "#x#\n###\n", "invalid characters"),
        ("ragged", "####\n##\n", "has length 2, expected 4"),
        ("empty", "\n", "empty"),
        ("smaller than the field of view", "##\n##\n", "fov_width/fov_height must fit inside the 2x2 world"),
    ],
)
def test_unusable_road_mask_is_rejected_before_any_work(tmp_path, capsys, case, content, message):
    mask = tmp_path / "roads.txt"
    if content == "directory":
        mask.mkdir()
    elif content is not None:
        mask.write_text(content)
    path, out_dir = write_config(tmp_path, road_mask_path=mask)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:"), case
    assert message in err, case
    if content != "##\n##\n":
        assert f"road_mask_path {str(mask)!r} is not a usable road mask" in err, case
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_verify_passes_on_a_small_batch(capsys):
    assert main(["verify", "--seed", "0", "--count", "8"]) == 0
    out = capsys.readouterr().out
    assert "PASS value-above-apriori-bound" in out
    assert "PASS reference-line-timing-exact" in out
    assert "FAIL" not in out


def test_verify_zero_count_is_vacuous_but_clean(capsys):
    assert main(["verify", "--count", "0"]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_verify_rejects_nonsense_limits(capsys):
    assert main(["verify", "--count", "-3"]) == 2
    assert main(["verify", "--max-agents", "1"]) == 2


def test_verify_guard_is_exact_and_fast_at_any_team_size(capsys):
    # 3^(10^18) is never computed: the guard stops at the limit's bit length
    assert main(["verify", "--max-agents", str(10**18), "--max-actions", "3"]) == 2
    assert f"3^{10**18} joint selections exceed the brute-force limit" in capsys.readouterr().err
    assert main(["verify", "--max-agents", str(10**18), "--max-actions", "1", "--count", "0"]) == 2
    # 7^8 = 5,764,801 is within the 10^7 limit and 7^9 is not
    assert main(["verify", "--max-agents", "8", "--max-actions", "7", "--count", "0"]) == 0
    assert main(["verify", "--max-agents", "9", "--max-actions", "7", "--count", "0"]) == 2


@pytest.mark.parametrize("agents", [24, 10**18])
def test_verify_caps_one_action_teams_before_drawing_an_instance(agents, capsys, monkeypatch):
    def no_instances(*args):
        raise AssertionError("verify drew an instance")

    monkeypatch.setattr(cli, "_instance_checks", no_instances)
    assert main(["verify", "--max-agents", str(agents), "--max-actions", "1", "--count", "1"]) == 2
    assert f"config error: --max-agents {agents} exceeds 23" in capsys.readouterr().err


def test_verify_runs_the_largest_one_action_team(capsys):
    assert main(["verify", "--max-agents", "23", "--max-actions", "1", "--count", "3"]) == 0
    assert "all properties passed on 3 instances" in capsys.readouterr().out


def test_figures_under_a_path_that_cannot_be_created_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    out = blocker / "figs"
    assert main(["figures", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot create {str(out)!r}: [Errno")
    assert blocker.read_text() == "in the way"


def test_figures_writes_plot_ready_csvs(tmp_path):
    out = tmp_path / "figs"
    assert main(["figures", "--out", str(out)]) == 0

    with (out / "fig4_timings.csv").open() as fh:
        rows = {(r["algorithm"], r["graph"]): r for r in csv.DictReader(fh)}
    rag_line = rows[("rag", "line")]
    assert int(rag_line["actions_per_agent"]) == 4
    assert [rag_line["tau_f_coefficient"], rag_line["tau_c_coefficient"],
            rag_line["tau_hash_coefficient"]] == ["2", "1", "1"]
    assert math.isclose(float(rag_line["total_s"]), 0.827456, rel_tol=1e-12)
    sg_star = rows[("sg", "star")]
    assert [sg_star["tau_f_coefficient"], sg_star["tau_c_coefficient"]] == ["5", "17"]
    assert math.isclose(float(sg_star["total_s"]), 13.9464, rel_tol=1e-12)

    with (out / "ring_bound.csv").open() as fh:
        ring = list(csv.DictReader(fh))
    by_ri = {row["r_i"]: float(row["bound_m2"]) for row in ring}
    assert by_ri["1.0"] == math.pi
    assert by_ri["2.0"] == 0.0
    assert len(ring) == 61


def test_unknown_subcommand_is_an_argparse_error(capsys):
    assert main(["frobnicate"]) == 2


VERIFY_30_STDOUT = """\
PASS value-above-apriori-bound
PASS value-above-aposteriori-bound
PASS approx-greedy-eta1-matches-apriori
PASS eta-half-value-above-bound
PASS sg-half-of-optimum
PASS dfs-sg-half-of-optimum
PASS dsm-full-access-matches-sg
PASS eval-counts-within-budget
PASS rounds-within-agent-count
PASS sim-time-within-bound
PASS coin-centralized-zero
PASS coin-empty-within-kappa-cap
PASS coin-nested-monotone
PASS reference-line-timing-exact
PASS reference-star-timing-exact
PASS sg-relay-counts
PASS negative-control-detects-corruption
PASS ring-bound-endpoints
PASS ring-bound-dominates-disk-coin
all properties passed on 30 instances
"""


def test_verify_stdout_is_pinned(capsys):
    assert main(["verify", "--count", "30"]) == 0
    assert capsys.readouterr().out == VERIFY_30_STDOUT


def test_verify_reports_the_first_failure_per_property(capsys, monkeypatch, serial_pool):
    # on serial_pool, since a pool that spawns its workers would not see the patches
    apriori_bound, coin = bounds.apriori_bound, cli.coin
    monkeypatch.setattr(bounds, "apriori_bound", lambda *a, **kw: apriori_bound(*a, **kw) + 1e6)
    monkeypatch.setattr(
        cli, "coin", lambda obj, j, *a, **kw: coin(obj, j, *a, **kw) + (1.0 if j == 1 else 0.0)
    )
    assert main(["verify", "--count", "30"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL value-above-apriori-bound — instance 0: 10.0 < 1000005.0",
        "FAIL approx-greedy-eta1-matches-apriori — instance 0: 5.0 != 1000005.0",
        "FAIL coin-centralized-zero — instance 0: agent 1: 1.0 > 0.0",
        "FAIL coin-empty-within-kappa-cap — instance 4: agent 1: 4.0 > 3.0",
        "4 properties FAILED",
    ]
    expected = VERIFY_30_STDOUT.splitlines()[:-1]
    assert [line.split(" ", 1)[1].split(" — ")[0] for line in lines[:-1]] == [
        line.split(" ", 1)[1] for line in expected
    ]


def _outcome_patch(name, change, when=lambda obj, kw: True):
    """Patches cli.<name>, a rule, so each outcome it returns where when(obj, kwargs) holds goes through change."""

    def patch(monkeypatch):
        rule = getattr(cli, name)

        def changed(obj, *args, **kw):
            out = rule(obj, *args, **kw)
            return change(out) if when(obj, kw) else out

        monkeypatch.setattr(cli, name, changed)

    return patch


def _bound_patch(name, shift, module=cli):
    """Patches module.<name>, a bound, to return its value plus shift(*args)."""

    def patch(monkeypatch):
        bound = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: bound(*args) + shift(*args))

    return patch


def _drawn_rag_patch(change):
    """Changes the rag outcome (eta = 1) of each random instance, and no reference run's."""

    def patch(monkeypatch):
        drawn, draw = {}, cli.random_coverage_instance

        def recorded(rng, **limits):
            obj, g = draw(rng, **limits)
            drawn[id(obj)] = obj  # held, so no later object takes its id
            return obj, g

        monkeypatch.setattr(cli, "random_coverage_instance", recorded)
        _outcome_patch("run_rag", change, lambda obj, kw: id(obj) in drawn and not kw)(monkeypatch)

    return patch


def _reference_patch(graph, change_rag=lambda out: out, change_sg=lambda out: out):
    """Changes the reference rag and sg outcomes on one graph."""

    def patch(monkeypatch):
        runs = cli._reference_runs

        def changed():
            for name, g, counts, rag, sg in runs():
                if name == graph:
                    rag, sg = change_rag(rag), change_sg(sg)
                yield name, g, counts, rag, sg

        monkeypatch.setattr(cli, "_reference_runs", changed)

    return patch


def _coin_patch(shift):
    """Patches cli.coin to return its value plus shift(obj, neighborhood)."""

    def patch(monkeypatch):
        coin = cli.coin
        monkeypatch.setattr(cli, "coin", lambda obj, j, actions, nbh: coin(obj, j, actions, nbh) + shift(obj, nbh))

    return patch


def _honest_tie_break(monkeypatch):
    """Makes cli.run_rag ignore its tie_break, so the negative control runs the reference rule."""
    rag = cli.run_rag
    monkeypatch.setattr(cli, "run_rag", lambda obj, g, tie_break=None, **kw: rag(obj, g, **kw))


# one forced failure per property the earlier tests do not fail, each with the
# FAIL lines it prints
FORCED_FAILURES = {
    "aposteriori": (
        _bound_patch("aposteriori_bound", lambda *a: 1e6, bounds),
        ["FAIL value-above-aposteriori-bound — instance 0: 10.0 < 1000000.0"],
    ),
    "eta-half": (
        _bound_patch("approx_greedy_bound", lambda opt, kappa, coins, eta: 1e6 * (eta == 0.5)),
        ["FAIL eta-half-value-above-bound — instance 0: 10.0 < 1000003.3333333334"],
    ),
    "dfs-sg": (
        _outcome_patch("run_dfs_sg", lambda out: replace(out, value=-1.0)),
        ["FAIL dfs-sg-half-of-optimum — instance 0: -1.0 < 5.0"],
    ),
    "dsm-actions": (
        _outcome_patch("run_dsm", lambda out: replace(out, actions=out.actions[::-1])),
        [
            "FAIL dsm-full-access-matches-sg — instance 0: "
            "(GroundElement(agent=1, action=0), GroundElement(agent=0, action=0)) != "
            "(GroundElement(agent=0, action=0), GroundElement(agent=1, action=0))"
        ],
    ),
    "dsm-value": (
        _outcome_patch("run_dsm", lambda out: replace(out, value=out.value + 1.0)),
        ["FAIL dsm-full-access-matches-sg — instance 0: 11.0 != 10.0"],
    ),
    "gain-rounds": (
        _drawn_rag_patch(lambda out: replace(out, gain_rounds=out.gain_rounds + 5)),
        [
            "FAIL rounds-within-agent-count — instance 0: gain rounds: 6 > 1",
            "FAIL sim-time-within-bound — instance 0: 0.015 > 0.0145",
        ],
    ),
    "action-rounds": (
        _drawn_rag_patch(lambda out: replace(out, action_rounds=out.action_rounds + 5)),
        [
            "FAIL rounds-within-agent-count — instance 0: action rounds: 6 > 1",
            "FAIL sim-time-within-bound — instance 0: 0.0625 > 0.0145",
        ],
    ),
    "sim-time": (
        _bound_patch("rag_time_bound", lambda *a: -1e-3),
        ["FAIL sim-time-within-bound — instance 14: 0.0125 > 0.0115"],
    ),
    "coin-nested": (
        _coin_patch(lambda obj, nbh: 1e3 * len(set(nbh))),
        [
            "FAIL coin-centralized-zero — instance 0: agent 0: 1000.0 > 0.0",
            "FAIL coin-nested-monotone — instance 1: agent 1: 1000.0 > 0.0",
        ],
    ),
    "line-timing": (
        _reference_patch("line", lambda out: replace(out, gain_rounds=out.gain_rounds + 1)),
        ["FAIL reference-line-timing-exact — line graph: 0.508056640625 != 0.5079345703125"],
    ),
    "star-timing": (
        _reference_patch("star", lambda out: replace(out, action_rounds=out.action_rounds + 1)),
        ["FAIL reference-star-timing-exact — star graph: 1.0079345703125 != 0.5079345703125"],
    ),
    "relays": (
        _reference_patch("star", change_sg=lambda out: replace(out, relay_action_transmissions=18)),
        ["FAIL sg-relay-counts — star graph: 18 != 17"],
    ),
    "negative-control": (
        _honest_tie_break,
        [
            "FAIL negative-control-detects-corruption — "
            "corrupted tie-break reproduced selectors [1, 3]: True != False"
        ],
    ),
    "ring-endpoints": (
        _bound_patch("coin_ring_bound", lambda r_s, r_i: 1.0),
        ["FAIL ring-bound-endpoints — r_i 2.0: 1.0 != 0.0"],
    ),
    "ring-dominance": (
        _coin_patch(lambda obj, nbh: 1.0 * isinstance(obj, DiskCoverageObjective)),
        ["FAIL ring-bound-dominates-disk-coin — r_i 2.6888437030500962: 0.9999999999999996 > 0.0"],
    ),
}


@pytest.mark.parametrize("case", FORCED_FAILURES)
def test_each_property_fails_on_its_forced_violation(case, capsys, monkeypatch, serial_pool):
    patch, expected = FORCED_FAILURES[case]
    patch(monkeypatch)
    assert main(["verify", "--count", "30"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("PASS ")][:-1] == expected


def test_a_nan_rag_value_fails_its_lower_bounds(capsys, monkeypatch, serial_pool):
    # NaN compares false either way, so it must fail the lower bounds rather than pass them
    _drawn_rag_patch(lambda out: replace(out, value=math.nan))(monkeypatch)
    assert main(["verify", "--count", "30"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL value-above-apriori-bound — instance 0: nan < 5.0",
        "FAIL value-above-aposteriori-bound — instance 0: nan < 0.0",
        "2 properties FAILED",
    ]


# the boundary-cell tolerance of ring-bound-dominates-disk-coin, as verify computes it
_RING_DISK = DiskCoverageObjective([[(5.0, 5.0)]], 1.0, arena=(0.0, 0.0, 10.0, 10.0), resolution=10)
_RING_TOL = 2 * math.pi * 1.0 * _RING_DISK.cell_area * _RING_DISK.resolution

# Each property's failing comparison as verify wrote it before its checks
# became records, over the raw numbers of one check site: (how many raw
# numbers a site takes, the (value, bound) of each record the site yields,
# the old comparison). eval counts and the coin checks have one site per
# agent, and the property fails if any site does, as the old any() did.
PARENT_FAILURES = {
    "value-above-apriori-bound": (2, lambda v, b: [(v, b)], lambda v, b: v < b - 1e-9),
    "value-above-aposteriori-bound": (2, lambda v, b: [(v, b)], lambda v, b: v < b - 1e-9),
    "approx-greedy-eta1-matches-apriori": (
        2,
        lambda eta_one, apriori: [(eta_one, apriori)],
        lambda eta_one, apriori: not math.isclose(eta_one, apriori, rel_tol=1e-12, abs_tol=1e-12),
    ),
    "eta-half-value-above-bound": (2, lambda v, b: [(v, b)], lambda v, b: v < b - 1e-9),
    "sg-half-of-optimum": (2, lambda v, b: [(v, b)], lambda v, b: v < b - 1e-9),
    "dfs-sg-half-of-optimum": (2, lambda v, b: [(v, b)], lambda v, b: v < b - 1e-9),
    "dsm-full-access-matches-sg": (
        4,
        lambda dsm_a, sg_a, dsm_v, sg_v: [(dsm_a, sg_a), (dsm_v, sg_v)],
        lambda dsm_a, sg_a, dsm_v, sg_v: not (dsm_a == sg_a and math.isclose(dsm_v, sg_v)),
    ),
    "eval-counts-within-budget": (2, lambda e, b: [(e, b)], lambda e, b: e > b),
    "rounds-within-agent-count": (
        3,
        lambda gain, action, cap: [(gain, cap), (action, cap)],
        lambda gain, action, cap: gain > cap or action > cap,
    ),
    "sim-time-within-bound": (2, lambda t, b: [(t, b)], lambda t, b: t > b + 1e-12),
    "coin-centralized-zero": (1, lambda c: [(abs(c), 0.0)], lambda c: abs(c) > 1e-9),
    "coin-empty-within-kappa-cap": (2, lambda c, cap: [(c, cap)], lambda c, cap: c > cap + 1e-9),
    "coin-nested-monotone": (2, lambda grown, shrunk: [(grown, shrunk)], lambda grown, shrunk: grown > shrunk + 1e-9),
    "reference-line-timing-exact": (2, lambda got, want: [(got, want)], lambda got, want: got != want),
    "reference-star-timing-exact": (2, lambda got, want: [(got, want)], lambda got, want: got != want),
    "sg-relay-counts": (
        2,
        lambda line, star: [(line, 10), (star, 17)],
        lambda line, star: {"line": line, "star": star} != {"line": 10, "star": 17},
    ),
    "negative-control-detects-corruption": (
        2,
        lambda a, b: [(sorted([a, b]) == [1, 3], False)],
        lambda a, b: sorted([a, b]) == [1, 3],
    ),
    "ring-bound-endpoints": (
        3,
        lambda at2, at1, at3: [(at2, 0.0), (at1, math.pi), (at3, 0.0)],
        lambda at2, at1, at3: not (at2 == 0.0 and math.isclose(at1, math.pi) and at3 == 0.0),
    ),
    "ring-bound-dominates-disk-coin": (2, lambda m, ring: [(m, ring)], lambda m, ring: m > ring + _RING_TOL),
}


@functools.cache
def _record_shapes():
    """Each property's (kind, tol) per record of one site, read from the checks verify runs."""
    records = [r for i in range(8) for r in cli._instance_checks(0, i, 5, 3)]
    records += cli._reference_checks(0)
    by_property = {}
    for name, _, _, kind, _, *tol in records:
        by_property.setdefault(name, []).append((kind, tuple(tol)))
    shapes = {}
    for name, found in by_property.items():
        size = len(PARENT_FAILURES[name][1](*[0.0] * PARENT_FAILURES[name][0]))
        sites = {tuple(found[k : k + size]) for k in range(0, len(found), size)}
        assert len(sites) == 1, (name, sites)  # every site of a property compares alike
        (shapes[name],) = sites
    return shapes


_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-20, 20),
    st.sampled_from([0.0, -0.0, 1.0, 3.0, 10, 17, math.pi, math.inf, -math.inf, math.nan]),
)


def test_the_records_cover_every_property_in_print_order():
    assert list(_record_shapes()) == [line.split()[1] for line in VERIFY_30_STDOUT.splitlines()[:-1]]
    assert set(_record_shapes()) == set(PARENT_FAILURES)


@pytest.mark.parametrize("name", PARENT_FAILURES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_property_fails_on_its_old_comparison(name, data):
    # raw numbers are free, or another raw number moved by a tolerance, so
    # values land exactly at bound ± tol, and NaN and ±inf are drawn
    count, site, parent = PARENT_FAILURES[name]
    raw = [data.draw(_NUMBERS)]
    for _ in range(count - 1):
        anchor = data.draw(st.sampled_from(raw))
        shift = data.draw(st.sampled_from([0, 1e-12, -1e-12, 1e-9, -1e-9, _RING_TOL, -_RING_TOL]))
        raw.append(data.draw(st.one_of(_NUMBERS, st.just(anchor + shift))))
    records = [(value, bound, kind, tol) for (value, bound), (kind, tol) in zip(site(*raw), _record_shapes()[name])]
    fails = [cli._KINDS[kind][0](value, bound, *tol) for value, bound, kind, tol in records]
    # the one verdict changed since: a NaN value or bound fails an at-least or at-most record
    nan_bounded = any(
        kind in ("at-least", "at-most") and (math.isnan(value) or math.isnan(bound)) for value, bound, kind, _ in records
    )
    assert any(fails) == (parent(*raw) or nan_bounded)


@pytest.mark.parametrize(
    "workers, pooled", [("1", False), ("2", True), ("3", True), ("4", False), ("5", False)]
)
def test_verify_stdout_is_the_same_at_any_worker_count(workers, pooled, monkeypatch, capsys, request):
    # 2 and 3 workers start a real pool; 4 and 5 run their chunks on serial_pool
    if not pooled:
        request.getfixturevalue("serial_pool")
    monkeypatch.setenv("MESHCOORD_WORKERS", workers)
    assert main(["verify", "--count", "30"]) == 0
    assert capsys.readouterr().out == VERIFY_30_STDOUT


@pytest.mark.parametrize("workers", ["2", "3", "5", "30"])
def test_pooled_verify_reports_the_serial_first_failures(workers, capsys, monkeypatch, serial_pool):
    apriori_bound, coin, checks = bounds.apriori_bound, cli.coin, cli._instance_checks
    monkeypatch.setattr(bounds, "apriori_bound", lambda *a, **kw: apriori_bound(*a, **kw) + 1e6)
    monkeypatch.setattr(
        cli, "coin", lambda obj, j, *a, **kw: coin(obj, j, *a, **kw) + (1.0 if j == 1 else 0.0)
    )

    # every lower-bound check fails from instance 17 on, which is in a later chunk
    def shifted(seed, i, *limits):
        for name, where, value, kind, bound, *tol in checks(seed, i, *limits):
            yield name, where, value, kind, bound + 1e6 if kind == "at-least" and i >= 17 else bound, *tol

    monkeypatch.setattr(cli, "_instance_checks", shifted)
    monkeypatch.setenv("MESHCOORD_WORKERS", "1")
    assert main(["verify", "--count", "30"]) == 1
    serial = capsys.readouterr().out
    assert serial_pool == []
    assert "FAIL sg-half-of-optimum — instance 17: " in serial
    assert "FAIL coin-empty-within-kappa-cap — instance 4: agent 1: 4.0 > 3.0" in serial
    monkeypatch.setenv("MESHCOORD_WORKERS", workers)
    assert main(["verify", "--count", "30"]) == 1
    assert capsys.readouterr().out == serial
    assert serial_pool == [min(int(workers), 30)]


def test_verify_pool_never_outnumbers_its_instances(monkeypatch, capsys, serial_pool):
    monkeypatch.setenv("MESHCOORD_WORKERS", "64")
    assert main(["verify", "--count", "3"]) == 0
    assert serial_pool == [3]
    assert main(["verify", "--count", "0"]) == 0
    assert serial_pool == [3]  # no instances, no pool


def test_unset_workers_give_verify_every_usable_cpu_and_run_one(tmp_path, monkeypatch, capsys, serial_pool):
    monkeypatch.delenv("MESHCOORD_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert main(["verify", "--count", "30"]) == 0
    assert serial_pool == [3]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert main(["verify", "--count", "30"]) == 0
    assert serial_pool == [3, 4]
    path, _ = write_config(tmp_path, trials=4)
    assert main(["run", str(path)]) == 0
    assert serial_pool == [3, 4]  # the run's four missions ran serially


def test_invalid_worker_env_is_a_config_error_for_verify(monkeypatch, capsys):
    monkeypatch.setenv("MESHCOORD_WORKERS", "zero")
    assert main(["verify", "--count", "3"]) == 2
    assert "MESHCOORD_WORKERS" in capsys.readouterr().err


def test_an_instance_error_reaches_the_caller(monkeypatch, capsys, serial_pool):
    checks = cli._instance_checks

    def failing(seed, i, *limits):
        if i == 20:
            raise RuntimeError("instance 20 broke")
        return checks(seed, i, *limits)

    monkeypatch.setattr(cli, "_instance_checks", failing)
    monkeypatch.setenv("MESHCOORD_WORKERS", "3")
    with pytest.raises(RuntimeError, match="instance 20 broke"):
        main(["verify", "--count", "30"])


@pytest.mark.parametrize("command, patched", [("run", "monte_carlo"), ("verify", "_instance_checks")])
def test_running_out_of_memory_exits_2_naming_the_command(command, patched, tmp_path, monkeypatch, capsys):
    # exit 1 means a property violation, so an escaping MemoryError is an environment error
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, patched, exhausted)
    monkeypatch.setenv("MESHCOORD_WORKERS", "1")
    path, _ = write_config(tmp_path)
    assert main(["run", str(path)] if command == "run" else ["verify", "--count", "3"]) == 2
    assert capsys.readouterr().err == f"environment error: {command} ran out of memory\n"

def test_a_task_error_on_a_real_pool_reaches_the_caller():
    with pytest.raises(ValueError, match="math domain error"):
        scenario._pool_map(math.sqrt, [4.0, -1.0] + [9.0] * 10, 2)
    assert scenario._pool_map(math.sqrt, [4.0, 9.0, 16.0], 2) == [2.0, 3.0, 4.0]


# sha256 of each artifact of a tiny fixed sweep; summary.json embeds the
# relative output_dir "out"
ARTIFACT_SHA256 = {
    "aggregates.csv": "c249cc4ed8c103f73b1159234973ff73376ee23ac750fd85d43aa10be39c2f39",
    "bounds.csv": "ccb5bf53f4a4f20fefd417d33689f01164d373ebea789b92e6699ab96550735b",
    "timings.csv": "58525dc5adae13a29790b3d1da212233ce261eb8ff86eff611010974c7baf16b",
    "traces.csv": "bcf193998d3b40a38653007ea3b39705e226d85d36b81ba5df4339976b9c080a",
    "summary.json": "67457c204050475f1c97fad3b4c3e55d89951f4d083568b9569cd1faee62720f",
    "figs/fig4_timings.csv": "835277cf7bb561aa9de34de9cad7b274ed479cacba58571693bbf7d478e89e66",
    "figs/ring_bound.csv": "08ec59d4c14467f3d499849b33e5a0b7df5d25a317e1c419fc49b886c41f8bed",
}


def test_artifact_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = small_config(
        "out", sweep_algorithm="rag sg", sweep_k="0 2",
        emit="traces aggregates bounds timings",
    )
    (tmp_path / "exp.cfg").write_text(config)
    assert main(["run", "exp.cfg"]) == 0
    assert main(["figures", "--out", "out/figs"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in ARTIFACT_SHA256
    }
    assert digests == ARTIFACT_SHA256


@pytest.mark.parametrize(
    "argv,blocked",
    [(["run", "exp.cfg"], "out/traces.csv"), (["figures", "--out", "out"], "out/fig4_timings.csv")],
)
def test_failed_artifact_write_is_an_environment_error(tmp_path, monkeypatch, capsys, argv, blocked):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(small_config("out"))
    (tmp_path / blocked).mkdir(parents=True)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {blocked}: "), err
    assert "Traceback" not in err
    assert list((tmp_path / "out").glob("*.tmp")) == []


def test_a_mask_run_reads_the_mask_once_per_config_and_trial(tmp_path, monkeypatch, capsys):
    # one read for the mission, one per variation, and one per trial
    mask = tmp_path / "roads.txt"
    mask.write_text("##########\n" * 10)
    reads = []
    read = scenario._read_road_mask
    monkeypatch.setattr(scenario, "_read_road_mask", lambda path: reads.append(path) or read(path))
    path, _ = write_config(tmp_path, road_mask_path=mask, sweep_k="0 2", trials=5)
    assert main(["run", str(path)]) == 0
    assert len(reads) == 8


def test_verify_builds_each_instance_after_the_last_is_checked(monkeypatch, capsys, serial_pool):
    log = []
    checks = cli._instance_checks

    def logged(seed, i, *limits):
        log.append(f"build {i}")

        def run():
            yield from checks(seed, i, *limits)
            log.append(f"done {i}")

        return run()

    monkeypatch.setattr(cli, "_instance_checks", logged)
    monkeypatch.setenv("MESHCOORD_WORKERS", "2")  # on serial_pool, so the calls are seen here
    assert main(["verify", "--count", "3"]) == 0
    assert log == ["build 0", "done 0", "build 1", "done 1", "build 2", "done 2"]


def test_verify_measures_one_coin_sum_per_outcome(monkeypatch, capsys, serial_pool):
    # coin sums: one for the eta = 1 outcome, shared by the apriori and eta = 1
    # checks, and one for the eta = 1/2 outcome; one optimum and one curvature
    # per instance, all measured by bound_report but the eta = 1/2 coin sum
    calls = {"coin_sum": 0, "brute_force_optimum": 0, "curvature": 0}

    def count(name):
        measure = getattr(bounds, name)

        def counted(*args):
            calls[name] += 1
            return measure(*args)

        monkeypatch.setattr(bounds, name, counted)
        monkeypatch.setattr(cli, name, counted, raising=False)

    for name in calls:
        count(name)
    monkeypatch.setenv("MESHCOORD_WORKERS", "2")  # on serial_pool, so the calls are seen here
    assert main(["verify", "--count", "5"]) == 0
    assert calls == {"coin_sum": 2 * 5, "brute_force_optimum": 5, "curvature": 5}


def test_an_isolated_agent_may_not_be_charged_twice_its_menu(monkeypatch, capsys):
    # an agent with no in-neighbors computes once, so its cap is one menu, not two
    def edgeless(rng, **limits):
        obj, _ = random_coverage_instance(rng, **limits)
        return obj, edgeless_graph(obj.n_agents)

    def doubled(obj, g, **options):
        out = run_rag(obj, g, **options)
        return replace(out, eval_counts=tuple(2 * c for c in out.eval_counts))

    monkeypatch.setattr(cli, "random_coverage_instance", edgeless)
    monkeypatch.setattr(cli, "run_rag", doubled)
    assert main(["verify", "--count", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL eval-counts-within-budget — instance 0: " in out
