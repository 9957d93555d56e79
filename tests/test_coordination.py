import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coverage_instance
from meshcoord.coordination import (
    brute_force_optimum,
    run_dfs_sg,
    run_dsm,
    run_rag,
    run_random_baseline,
    run_sg,
)
from meshcoord.instances import (
    modular_objective,
    reference_line_instance,
    reference_star_instance,
)
from meshcoord.objective import CallableObjective, GroundElement
from meshcoord.topology import (
    InfoDag,
    MeshGraph,
    complete_graph,
    edgeless_graph,
    full_access_dag,
    line_graph,
    star_graph,
)


def test_line_instance_commits_local_maxima_first():
    obj, g, values = reference_line_instance()
    out = run_rag(obj, g)
    assert out.value == float(sum(values))
    assert len(out.events) == 2

    first, second = out.events
    assert first.recomputed == frozenset({0, 1, 2, 3, 4})
    assert first.gains_exchanged
    assert first.selectors == frozenset({1, 3})  # the two local maxima
    assert first.broadcast_occurred

    assert second.recomputed == frozenset({0, 2, 4})
    assert not second.gains_exchanged  # no undecided in-neighbors remain
    assert second.selectors == frozenset({0, 2, 4})
    assert not second.broadcast_occurred

    assert out.selection_order == (2, 1, 2, 1, 2)
    assert out.gain_rounds == 1
    assert out.action_rounds == 1
    # first pass costs |V_i| everywhere; only re-awakened agents pay again
    assert out.eval_counts == (8, 4, 8, 4, 8)


def test_star_instance_center_commits_alone_then_all_spokes():
    obj, g, _ = reference_star_instance()
    out = run_rag(obj, g)
    assert [sorted(ev.selectors) for ev in out.events] == [[1], [0, 2, 3, 4]]
    assert out.gain_rounds == 1 and out.action_rounds == 1


def test_inverted_tie_break_flips_the_line_pattern():
    # corruption hook: the losers commit first, so the trace cannot match
    obj, g, _ = reference_line_instance()
    out = run_rag(obj, g, tie_break="min-gain-highest-id")
    assert sorted(out.events[0].selectors) == [0, 2, 4]


def test_edgeless_graph_commits_everyone_in_one_round():
    obj, g, values = reference_line_instance()
    out = run_rag(obj, edgeless_graph(5))
    assert len(out.events) == 1
    assert out.events[0].selectors == frozenset(range(5))
    assert out.gain_rounds == 0 and out.action_rounds == 0
    assert out.value == float(sum(values))  # footprints are disjoint across agents


def test_complete_graph_matches_centralized_greedy_order():
    obj, _, values = reference_line_instance()
    out = run_rag(obj, complete_graph(5))
    # one winner per iteration, in descending order of singleton value,
    # so agents 1, 3, 0, 2, 4 commit at iterations 1..5
    assert out.selection_order == (3, 1, 4, 2, 5)
    assert out.value == float(sum(values))


def test_rag_gain_ties_commit_the_lower_agent_id():
    obj = modular_objective([1, 1, 1])
    out = run_rag(obj, complete_graph(3))
    assert out.selection_order == (1, 2, 3)


def test_rag_equal_action_values_pick_the_lower_action_id():
    obj = CallableObjective([3], lambda s: float(len(s)))
    out = run_rag(obj, edgeless_graph(1))
    assert out.actions == (GroundElement(0, 0),)


def test_rag_validates_inputs():
    obj, g, _ = reference_line_instance()
    with pytest.raises(ValueError):
        run_rag(obj, g, tie_break="coin-flip")
    with pytest.raises(ValueError):
        run_rag(obj, g, eta=0.0, rng=random.Random(0))
    with pytest.raises(ValueError):
        run_rag(obj, g, eta=0.5)  # needs an rng
    with pytest.raises(ValueError):
        run_rag(obj, edgeless_graph(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_rag_never_exceeds_agent_count_in_iterations(seed):
    obj, g = coverage_instance(seed)
    out = run_rag(obj, g)
    n = obj.n_agents
    assert 1 <= len(out.events) <= n
    # someone commits every iteration
    assert all(ev.selectors for ev in out.events)
    assert sorted(e.agent for e in out.actions) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_rag_eval_counts_within_per_agent_budget(seed):
    obj, g = coverage_instance(seed)
    out = run_rag(obj, g)
    for i in range(obj.n_agents):
        cap = obj.action_counts[i] * (max(1, len(g.in_neighbors[i])) + 1)
        assert out.eval_counts[i] <= cap


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_rag_rounds_within_team_size(seed):
    obj, g = coverage_instance(seed)
    out = run_rag(obj, g)
    cap = obj.n_agents - 1 if g.has_edges() else 0
    assert out.gain_rounds <= cap
    assert out.action_rounds <= cap


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_rag_value_never_beats_the_optimum(seed):
    obj, g = coverage_instance(seed, max_agents=4)
    out = run_rag(obj, g)
    _, opt = brute_force_optimum(obj)
    assert out.value <= opt + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_eta_mode_still_returns_a_full_selection(seed):
    obj, g = coverage_instance(seed, max_agents=4)
    out = run_rag(obj, g, eta=0.5, rng=random.Random(seed))
    assert sorted(e.agent for e in out.actions) == list(range(obj.n_agents))
    again = run_rag(obj, g, eta=0.5, rng=random.Random(seed))
    assert again.actions == out.actions  # deterministic given the rng seed


def test_eta_mode_rejects_negative_and_nan_best_gains():
    falling = CallableObjective([2, 2], lambda s: -float(len(s)))
    with pytest.raises(ValueError, match=r"agent \d: best marginal gain is -1\.0"):
        run_rag(falling, complete_graph(2), eta=0.5, rng=random.Random(0))
    undefined = CallableObjective([1, 1], lambda s: math.nan if s else 0.0)
    with pytest.raises(ValueError, match=r"agent \d: best marginal gain is nan"):
        run_rag(undefined, complete_graph(2), eta=0.5, rng=random.Random(0))


def test_eta_one_equals_default_mode_selection():
    obj, g, _ = reference_line_instance()
    assert run_rag(obj, g, eta=1.0).actions == run_rag(obj, g).actions


def test_sg_line_relay_count():
    obj, g, values = reference_line_instance()
    out = run_sg(obj, [0, 1, 2, 3, 4], g=g)
    # pos actions over 1 hop each: 1 + 2 + 3 + 4
    assert out.relay_action_transmissions == 10
    assert out.value == float(sum(values))
    assert out.eval_counts == (4, 4, 4, 4, 4)
    assert out.gain_rounds == 0 and out.action_rounds == 4
    assert out.selection_order == (1, 2, 3, 4, 5)


def test_sg_star_relay_count_center_second():
    obj, g, _ = reference_star_instance()
    out = run_sg(obj, [0, 1, 2, 3, 4], g=g)  # center (agent 1) decides second
    # hops 1,1,2,2 weighted by accumulated actions: 1 + 2 + 6 + 8
    assert out.relay_action_transmissions == 17


def test_sg_without_graph_assumes_adjacent_deciders():
    obj, g, _ = reference_line_instance()
    out = run_sg(obj, [4, 2, 0, 3, 1])
    assert out.relay_action_transmissions == 10  # 1+2+3+4, one hop per hand-off


def test_sg_order_validation_and_unreachable_handoff():
    obj, g, _ = reference_line_instance()
    with pytest.raises(ValueError):
        run_sg(obj, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        run_sg(obj, [0, 0, 1, 2, 3])
    with pytest.raises(ValueError, match="no directed path"):
        run_sg(obj, [0, 1, 2, 3, 4], g=edgeless_graph(5))


def test_an_unreachable_hand_off_raises_before_any_agent_scores():
    # 0 -> 1 is an edge and 1 -> 2 has no path, so two agents could score first
    chain = MeshGraph(3, [(), (0,), ()])
    obj = CallableObjective([2, 1, 1], lambda s: float(len(s)))
    with pytest.raises(ValueError, match="^no directed path from agent 1 to agent 2 for the hand-off$"):
        run_sg(obj, [0, 1, 2], chain)
    assert obj.eval_count == 0
    # it also wins over a first score that is NaN
    nan_first = CallableObjective([2, 1, 1], lambda s: math.nan if GroundElement(0, 0) in s else float(len(s)))
    with pytest.raises(ValueError, match="^no directed path from agent 1 to agent 2 for the hand-off$"):
        run_sg(nan_first, [0, 1, 2], chain)
    assert nan_first.eval_count == 0
    with pytest.raises(ValueError, match="^agent 0: action 0 scores nan"):
        run_sg(nan_first, [0, 1, 2], line_graph(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_sg_achieves_at_least_half_the_optimum(seed):
    obj, _ = coverage_instance(seed, max_agents=4)
    rng = random.Random(seed)
    order = list(range(obj.n_agents))
    rng.shuffle(order)
    out = run_sg(obj, order)
    _, opt = brute_force_optimum(obj)
    assert out.value >= opt / 2 - 1e-9


def test_dsm_with_full_access_matches_sg():
    obj, _, _ = reference_line_instance()
    order = [2, 0, 4, 1, 3]
    sg = run_sg(obj, order)
    dsm = run_dsm(obj, full_access_dag(order))
    assert dsm.actions == sg.actions
    assert dsm.value == sg.value
    assert dsm.selection_order == sg.selection_order
    assert dsm.algorithm == "dsm"
    assert dsm.relay_action_transmissions == 0


def test_dsm_with_no_access_matches_independent_argmaxes():
    obj, g, _ = reference_line_instance()
    dag = full_access_dag(range(5))
    blind = type(dag)(order=dag.order, access=(frozenset(),) * 5)
    out = run_dsm(obj, blind)
    independent = run_rag(obj, edgeless_graph(5))
    assert out.actions == independent.actions


def test_dsm_records_its_access_sets():
    obj, _, _ = reference_line_instance()
    dag = full_access_dag([1, 0, 2, 3, 4])
    out = run_dsm(obj, dag)
    assert out.committed_in_neighbors[1] == frozenset()
    assert out.committed_in_neighbors[0] == frozenset({1})
    assert out.committed_in_neighbors[4] == frozenset({0, 1, 2, 3})


@pytest.mark.parametrize("bad, shown", [(0.0, "0.0"), (False, "False"), (True, "True")])
def test_dsm_rejects_access_ids_that_are_not_ints(bad, shown):
    # each of these equals an int id, so InfoDag's predecessor check lets it through
    obj = modular_objective([2, 2, 2])
    dag = InfoDag(order=(0, 1, 2), access=(frozenset(), frozenset({0}), frozenset({bad})))
    before = obj.eval_count
    with pytest.raises(ValueError, match=rf"^access at position 2 holds {shown}, which is not an int$"):
        run_dsm(obj, dag)
    assert obj.eval_count == before


def test_dsm_stores_any_integer_type_of_access_id_as_int():
    class AgentId(int):
        pass

    obj = modular_objective([2, 2, 2])
    dag = InfoDag(order=(2, 0, 1), access=(frozenset(), frozenset({AgentId(2)}), frozenset({AgentId(2), 0})))
    out = run_dsm(obj, dag)
    assert out.committed_in_neighbors == (frozenset({2}), frozenset({0, 2}), frozenset())
    assert {type(j) for ids in out.committed_in_neighbors for j in ids} == {int}
    assert out.actions == run_dsm(obj, full_access_dag((2, 0, 1))).actions


def test_dfs_sg_from_spoke_matches_reference_relays():
    obj, g, _ = reference_star_instance()
    out = run_dfs_sg(obj, g, start=0)  # visits the center second
    assert out.algorithm == "dfs-sg"
    assert out.relay_action_transmissions == 17


def test_dfs_sg_from_center_pays_more_relaying():
    obj, g, _ = reference_star_instance()
    out = run_dfs_sg(obj, g, start=1)
    assert out.relay_action_transmissions == 19


def test_dfs_sg_needs_strong_connectivity():
    obj, _, _ = reference_line_instance()
    with pytest.raises(ValueError, match="strongly connected"):
        run_dfs_sg(obj, edgeless_graph(5), start=0)


def test_dfs_sg_checks_the_team_size_before_walking():
    obj = modular_objective([1, 1, 1])
    with pytest.raises(ValueError, match="graph and objective disagree on the number of agents"):
        run_dfs_sg(obj, edgeless_graph(4), start=0)
    assert obj.eval_count == 0


def test_random_baseline_is_seed_deterministic_and_free():
    obj, _, _ = reference_line_instance()
    a = run_random_baseline(obj, random.Random(9))
    b = run_random_baseline(obj, random.Random(9))
    assert a.actions == b.actions
    assert a.eval_counts == (0, 0, 0, 0, 0)
    assert a.committed_in_neighbors is None
    assert a.value == obj.evaluate(a.actions)


def test_brute_force_on_a_hand_checkable_instance():
    values = {(0, 0): 3.0, (0, 1): 1.0, (1, 0): 2.0, (1, 1): 4.0}

    def f(sel):
        return sum(values[(e.agent, e.action)] for e in sel)

    obj = CallableObjective([2, 2], f)
    actions, best = brute_force_optimum(obj)
    assert best == 7.0
    assert actions == (GroundElement(0, 0), GroundElement(1, 1))


def test_brute_force_ties_go_to_the_lexicographically_smallest():
    obj = CallableObjective([2, 2], lambda s: 1.0)
    actions, _ = brute_force_optimum(obj)
    assert actions == (GroundElement(0, 0), GroundElement(1, 0))


def test_brute_force_guards_the_product_size():
    obj = CallableObjective([200] * 4, lambda s: 0.0)
    with pytest.raises(ValueError, match="brute-force limit"):
        brute_force_optimum(obj)


@pytest.mark.parametrize("order", [[True, False], [1.0, 0.0]])
def test_sequential_rules_reject_order_entries_that_are_not_ints(order):
    # a bool order used to run with bool agents, a float one to fail deep inside
    obj = CallableObjective([2, 2], lambda s: float(len(s)))
    with pytest.raises(ValueError, match="^order position 0 holds"):
        run_sg(obj, order)
    with pytest.raises(ValueError, match="^order position 0 holds"):
        run_dsm(obj, InfoDag(order=tuple(order), access=(frozenset(), frozenset())))


def test_brute_force_names_the_first_nan_selection():
    # NaN compares false, so it used to be skipped without a word; here every selection but the first is NaN
    first = {GroundElement(0, 0), GroundElement(1, 0)}
    obj = CallableObjective([2, 2], lambda s: 0.0 if s == first else math.nan)
    second = re.escape(repr((GroundElement(0, 0), GroundElement(1, 1))))
    with pytest.raises(ValueError, match=f"NaN at joint selection {second}$"):
        brute_force_optimum(obj)


def test_brute_force_rejects_a_nan_on_the_best_selection():
    # skipping the NaN reported the second best, 2.1, as the optimum
    values = {(0, 0): 0.0, (0, 1): 1.1, (1, 0): 1.0, (1, 1): 2.0}

    def f(sel):
        if sel == {GroundElement(0, 1), GroundElement(1, 1)}:
            return math.nan
        return sum(values[(e.agent, e.action)] for e in sel)

    with pytest.raises(ValueError, match="NaN at joint selection"):
        brute_force_optimum(CallableObjective([2, 2], f))


def test_brute_force_keeps_the_first_selection_when_every_value_is_minus_inf():
    obj = CallableObjective([2, 3], lambda s: -math.inf if s else 0.0)
    assert brute_force_optimum(obj) == ((GroundElement(0, 0), GroundElement(1, 0)), -math.inf)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_all_rules_stay_within_the_optimum(seed):
    obj, g = coverage_instance(seed, max_agents=4)
    _, opt = brute_force_optimum(obj)
    n = obj.n_agents
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    outcomes = [
        run_rag(obj, g),
        run_sg(obj, order),
        run_dsm(obj, full_access_dag(order)),
        run_random_baseline(obj, rng),
    ]
    for out in outcomes:
        assert out.value <= opt + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_rules_score_bitmask_states_like_frozenset_states(seed):
    # the same coverage function behind the base class's frozenset state
    obj, g = coverage_instance(seed)
    plain = CallableObjective(obj.action_counts, lambda s: float(obj.covered_cells(s)))
    order = list(range(obj.n_agents))
    random.Random(seed).shuffle(order)
    rules = [
        lambda o: run_rag(o, g),
        lambda o: run_rag(o, g, eta=0.5, rng=random.Random(seed)),
        lambda o: run_sg(o, order),
        lambda o: run_dsm(o, full_access_dag(order)),
    ]
    for rule in rules:
        assert rule(obj) == rule(plain)
    assert obj.eval_count == plain.eval_count


def test_star_graph_rag_beats_no_communication_on_shared_cells():
    # both agents would grab the same best cell without coordination
    mask = ["###"]
    fps = [[0b011, 0b100], [0b011, 0b100]]
    from meshcoord.objective import GridCoverageObjective

    obj = GridCoverageObjective(mask, fps)
    connected = run_rag(obj, complete_graph(2))
    isolated = run_rag(obj, edgeless_graph(2))
    assert connected.value == 3.0
    assert isolated.value == 2.0
