"""Belief-calibrated consensus seeking for multi-agent ensembles."""

from belief_consensus.core import (
    AgentScript,
    Opinion,
    RoundColumns,
    RunConfig,
    ScenarioCase,
    ScriptedReply,
    belief_from_token_probs,
    canonicalize_answer,
    modal_answer,
    scenarios_from_json,
)

__all__ = [
    "AgentScript",
    "Opinion",
    "RoundColumns",
    "RunConfig",
    "ScenarioCase",
    "ScriptedReply",
    "belief_from_token_probs",
    "canonicalize_answer",
    "modal_answer",
    "scenarios_from_json",
]
