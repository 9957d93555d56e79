"""Delay model and conversion of outcome traces into simulated decision time.

Three primitive delays: tau_f per objective evaluation, tau_c per action per
hop transmitted, tau_hash per scalar broadcast round. Distributed compute
phases overlap across agents (per-agent totals, max), scalar/action rounds
are charged once per synchronous round regardless of fan-out, and sequential
rules pay compute in sequence plus per-action-per-hop relays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from meshcoord.coordination import ALGORITHMS, CoordinationOutcome
from meshcoord.topology import MeshGraph, _int_values, _isfinite


def tau_c_from_rate(message_bytes: float, data_rate_bps: float) -> float:
    """Seconds to push one action message through a link of the given rate."""
    for name, v in (("message size", message_bytes), ("data rate", data_rate_bps)):
        if v <= 0:
            raise ValueError(f"{name} must be positive")
        _isfinite(v, name)  # names an int past the float range before the division meets it
    return 8.0 * message_bytes / data_rate_bps


@dataclass(frozen=True)
class DelayModel:
    """(tau_f, tau_c, tau_hash) in seconds; all finite and non-negative."""

    tau_f: float
    tau_c: float
    tau_hash: float

    def __post_init__(self):
        for name in ("tau_f", "tau_c", "tau_hash"):
            v = getattr(self, name)
            if not _isfinite(v, name):
                raise ValueError(f"{name} must be a finite number, got {v}")
            if v < 0:
                raise ValueError(f"{name} may not be negative")


def _rag_eval_cap(action_count: int, in_neighbors: frozenset[int]) -> int:
    """Most evaluations of a rag agent (eta = 1): a first pass plus one per in-neighbor commit."""
    return action_count * (len(in_neighbors) + 1)


@dataclass(frozen=True)
class DecisionTime:
    """Simulated decision time of one run, split into its three delay terms.

    seconds = tau_f * tau_f_coefficient + tau_hash * tau_hash_coefficient
    + tau_c * tau_c_coefficient, summed over the terms the rule pays.
    """

    tau_f_coefficient: int
    tau_c_coefficient: int
    tau_hash_coefficient: int
    seconds: float


def decision_time(outcome: CoordinationOutcome, dm: DelayModel) -> DecisionTime:
    """Simulated wall time of a run of any rule, with its tau coefficients.

    Compute is charged from the evaluations the rule recorded per agent.
    rag: agents compute in parallel, so the compute term is the busiest
    agent's evaluations; scalar exchanges and action broadcasts cost one
    tau_hash / tau_c per round.
    sg, dfs-sg, dsm, random: summed evaluations plus every relayed action
    transmission. dsm has no relay model and random neither evaluates nor
    relays, so their missing terms are zero.
    """
    algorithm = outcome.algorithm
    if algorithm == "rag":
        busiest = max(outcome.eval_counts)
        hashes, actions = outcome.gain_rounds, outcome.action_rounds
        seconds = dm.tau_f * busiest + dm.tau_hash * hashes + dm.tau_c * actions
        return DecisionTime(busiest, actions, hashes, seconds)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"no time model for algorithm {algorithm!r}")
    evals = sum(outcome.eval_counts)
    relays = outcome.relay_action_transmissions
    return DecisionTime(evals, relays, 0, dm.tau_f * evals + dm.tau_c * relays)


def rag_time_bound(
    g: MeshGraph,
    dm: DelayModel,
    per_agent_action_count: Sequence[int],
) -> float:
    """Closed-form worst case for decision_time of a rag run (eta = 1) on a given graph.

    Compute: an agent recomputes at most once per in-neighbor commit plus its
    first pass, so the busiest agent costs at most |V_i| * (|N_i| + 1) [just
    |V_i| when isolated]. Rounds: at most |N| - 1 scalar and |N| - 1 action
    rounds on any graph with an edge (the final iteration never has either:
    its committers have no undecided in-neighbors and no undecided
    listeners), and none on an edgeless graph.
    """
    counts = _int_values(per_agent_action_count, "per_agent_action_count[{}] is")
    if len(counts) != g.n:
        raise ValueError("need one action count per agent")
    if any(c < 1 for c in counts):
        raise ValueError("action counts must be positive")
    busiest = max(_rag_eval_cap(c, g.in_neighbors[i]) for i, c in enumerate(counts))
    rounds = g.n - 1 if g.has_edges() else 0
    return dm.tau_f * busiest + (dm.tau_c + dm.tau_hash) * rounds
