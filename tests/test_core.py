import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from belief_consensus.core import (
    AgentScript,
    Opinion,
    RoundColumns,
    RunConfig,
    ScenarioCase,
    ScriptedReply,
    belief_from_token_probs,
    canonicalize_answer,
    modal_answer as _modal_answer,
    scenarios_from_json,
)
from round_oracles import columns_of


def modal_answer(opinions):
    return _modal_answer(columns_of(opinions))


class TestBeliefFromTokenProbs:
    def test_identity_element(self):
        assert belief_from_token_probs([1.0]) == 1.0

    def test_two_token_product(self):
        assert belief_from_token_probs([0.9, 0.8]) == pytest.approx(0.72)

    def test_three_token_product(self):
        assert belief_from_token_probs([0.5, 0.5, 0.5]) == pytest.approx(0.125)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="no answer tokens"):
            belief_from_token_probs([])

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid probability"):
            belief_from_token_probs([0.5, bad])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
           st.randoms())
    def test_order_invariant(self, probs, rnd):
        shuffled = probs[:]
        rnd.shuffle(shuffled)
        assert belief_from_token_probs(probs) == pytest.approx(
            belief_from_token_probs(shuffled), rel=1e-12
        )

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
           st.floats(min_value=0.01, max_value=0.999))
    def test_monotone_under_appending(self, probs, extra):
        assert belief_from_token_probs(probs + [extra]) <= belief_from_token_probs(probs)


class TestCanonicalizeAnswer:
    def test_choice_wrapper(self):
        assert canonicalize_answer("  (B) ") == "B"

    def test_boxed_wrapper(self):
        assert canonicalize_answer("\\boxed{42}") == "42"

    def test_answer_sentence(self):
        assert canonicalize_answer("The answer is C.") == "C"

    def test_unanswerable(self):
        with pytest.raises(ValueError, match="unanswerable"):
            canonicalize_answer("   ")
        with pytest.raises(ValueError, match="unanswerable"):
            canonicalize_answer("\\boxed{}")
        # the frame alone, as the HTTP client's answer anchor in "So the answer is."
        with pytest.raises(ValueError, match="unanswerable"):
            canonicalize_answer("So the answer is")

    def test_case_preserved(self):
        assert canonicalize_answer("\\boxed{x^2 + Y}") == "x^2 + Y"

    @pytest.mark.parametrize("raw, expected", [
        ("Halve it. So \\boxed{\\frac{1}{2}}", "\\frac{1}{2}"),
        ("\\boxed{\\frac{1}{3}}. Then \\boxed{\\frac{1}{2}}.", "\\frac{1}{2}"),
        ("Thus $\\boxed{x^{2}}$.", "x^{2}"),
        # a box left open does not count: the last balanced one does
        ("\\boxed{7} and then \\boxed{\\frac{1}{2}", "7"),
    ], ids=["nested", "last-of-two", "math-mode", "unbalanced-last"])
    def test_boxed_with_nested_braces(self, raw, expected):
        assert canonicalize_answer(raw) == expected

    # twenty outputs shaped like the agent prompt templates produce, with
    # the extraction worked out by hand
    SCRIPTED_OUTPUTS = [
        ("The answer is A.", "A"),
        ("The answer is B", "B"),
        ("the answer is C.", "C"),
        ("Thinking it through, the answer is D.", "D"),
        ("First I guessed X. The answer is (B).", "B"),
        ("The answer is 42.", "42"),
        ("The answer is 0.5.", "0.5"),
        ("The answer is x + 1.", "x + 1"),
        ("So the answer is \\boxed{17}.", "17"),
        ("We compute 3 * 4 = 12. The answer is \\boxed{12}.", "12"),
        ("\\boxed{1/2}", "1/2"),
        ("After simplification we get \\boxed{-3} here.", "-3"),
        ("(D)", "D"),
        (" (A) ", "A"),
        ("I lean toward option two. The answer is (C).", "C"),
        ("The answer is B. Trust me.", "B"),
        ("Maybe A? No. The answer is D!", "D"),
        ("the answer is   E  .", "E"),
        ("Answer sentence: the answer is (b).", "b"),
        ("Steps shown above. The answer is \\boxed{2x}.", "2x"),
    ]

    @pytest.mark.parametrize("raw,expected", SCRIPTED_OUTPUTS)
    def test_prompt_shaped_outputs(self, raw, expected):
        assert canonicalize_answer(raw) == expected

    @pytest.mark.parametrize("raw,_", SCRIPTED_OUTPUTS)
    def test_idempotent_on_outputs(self, raw, _):
        once = canonicalize_answer(raw)
        assert canonicalize_answer(once) == once

    @given(st.text(alphabet="ABCD xyz012().!", min_size=1))
    def test_idempotent_generally(self, raw):
        try:
            once = canonicalize_answer(raw)
        except ValueError:
            return
        assert canonicalize_answer(once) == once


class TestOpinion:
    def test_valid(self):
        op = Opinion("a1", "because", "B", 0.5)
        assert op.belief == 0.5

    @pytest.mark.parametrize("belief", [0.0, -0.5, 1.5])
    def test_belief_range(self, belief):
        with pytest.raises(ValueError, match="invalid probability"):
            Opinion("a1", "because", "B", belief)

    def test_empty_answer(self):
        with pytest.raises(ValueError, match="unanswerable"):
            Opinion("a1", "because", "  ", 0.5)


class TestRoundColumns:
    def test_rows_sorted_by_agent_id_and_read_back(self):
        ops = [Opinion("b", "why, \"b\"", "C", 0.25), Opinion("a", "why a", "A", 0.5),
               Opinion("c", "why a", "C", 1.0)]
        cols = columns_of(ops)
        assert cols.agent_ids == ("a", "b", "c") and cols.answers == ("A", "C")
        assert cols.codes.tolist() == [0, 1, 1] and len(cols.texts) == 2
        assert [cols.opinion(a) for a in "abc"] == sorted(ops, key=lambda op: op.agent_id)

    @staticmethod
    def columns(answers, beliefs):
        return RoundColumns(("a1", "a2"), answers, np.array([0, len(answers) - 1]),
                            np.array(beliefs), ("",), np.array([0, 0]))

    @pytest.mark.parametrize("belief", [0.0, -0.1, 1.5, float("nan")])
    def test_belief_outside_unit_interval(self, belief):
        with pytest.raises(ValueError, match="invalid probability: belief .* outside"):
            self.columns(("B",), [0.5, belief])

    def test_empty_answer(self):
        with pytest.raises(ValueError, match="unanswerable"):
            self.columns((" ", "B"), [0.5, 0.5])

    def test_unused_blank_table_entry_is_no_answer(self):
        cols = RoundColumns(("a1",), (" ", "B"), np.array([1]), np.array([0.5]), ("",),
                            np.array([0]))
        assert modal_answer([cols.opinion("a1")]) == "B"


class TestModalAnswer:
    def test_plain_majority(self):
        ops = [Opinion("a1", "", "B", 0.5), Opinion("a2", "", "C", 0.5), Opinion("a3", "", "C", 0.5)]
        assert modal_answer(ops) == "C"

    def test_belief_sum_tiebreak(self):
        ops = [Opinion("a1", "", "A", 0.9), Opinion("a2", "", "B", 0.4)]
        assert modal_answer(ops) == "A"

    def test_lexicographic_tiebreak(self):
        ops = [Opinion("a1", "", "B", 0.5), Opinion("a2", "", "A", 0.5)]
        assert modal_answer(ops) == "A"


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.n, cfg.max_rounds, cfg.n_leaders, cfg.n_clusters) == (7, 3, 2, 3)

    @pytest.mark.parametrize("kwargs", [
        {"n": 1}, {"max_rounds": 0}, {"n_leaders": 0}, {"n_clusters": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestScenarioCase:
    def test_round_one_coverage_enforced(self):
        script = AgentScript("a1", (ScriptedReply(2, "B", "", 0.5),))
        with pytest.raises(ValueError, match="round-1"):
            ScenarioCase("c1", "q", "B", scripts={"a1": script})

    def test_valid_case(self):
        script = AgentScript("a1", (ScriptedReply(1, "B", "", 0.5),))
        case = ScenarioCase("c1", "q", "B", scripts={"a1": script})
        assert case.scripts["a1"].reply_for(1).answer == "B"
        assert case.scripts["a1"].reply_for(9) is None

    @pytest.mark.parametrize("rule", ["adopt:leadr", "adopt:", "adopt:agent:", "repeat", 5])
    def test_misspelt_fallback_rule_rejected(self, rule):
        # "adopt:leadr" once failed the agent in every round after the first
        with pytest.raises(ValueError, match="unknown fallback rule"):
            AgentScript("a1", (ScriptedReply(1, "B", "", 0.5),), fallback=rule)

    @pytest.mark.parametrize("rule", ["repeat_previous", "adopt:leader", "adopt:supportive",
                                      "adopt:conflicting", "adopt:agent:a2", None])
    def test_fallback_rules_accepted(self, rule):
        reply = (ScriptedReply(1, "B", "", 0.5),)
        scripts = {"a1": AgentScript("a1", reply, fallback=rule), "a2": AgentScript("a2", reply)}
        assert ScenarioCase("c1", "q", "B", scripts=scripts).scripts["a1"].fallback == rule

    def test_adopted_agent_must_be_scripted(self):
        reply = (ScriptedReply(1, "B", "", 0.5),)
        scripts = {"a1": AgentScript("a1", reply, fallback="adopt:agent:a3"),
                   "a2": AgentScript("a2", reply)}
        with pytest.raises(ValueError, match=r"does not script: \{'a1': 'adopt:agent:a3'\}"):
            ScenarioCase("c1", "q", "B", scripts=scripts)

    def test_adopting_itself_rejected(self):
        # no collaborator is the agent itself: the rule once carried it forward
        with pytest.raises(ValueError, match="'adopt:agent:a1' adopts the agent itself"):
            AgentScript("a1", (ScriptedReply(1, "B", "", 0.5),), fallback="adopt:agent:a1")

    def test_two_replies_for_one_round_rejected(self):
        # reply_for once took the first of them silently
        replies = (ScriptedReply(1, "B", "", 0.5), ScriptedReply(2, "B", "", 0.5),
                   ScriptedReply(1, "C", "", 0.9))
        with pytest.raises(ValueError, match=r"agent 'a1': more than one reply for rounds \[1\]"):
            AgentScript("a1", replies)

    def test_agent_listed_twice_rejected(self, tmp_path):
        # the later entry once replaced the earlier one
        agent = {"agent_id": "a1", "rounds": [{"round": 1, "answer": "B", "belief": 0.5}]}
        case = {"case_id": "c1", "question": "q", "ground_truth": "B",
                "agents": [agent, {**agent, "rounds": [{"round": 1, "answer": "Z",
                                                         "belief": 0.5}]}]}
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"cases": [case]}))
        with pytest.raises(ValueError, match="case 'c1': agent 'a1' listed twice"):
            scenarios_from_json(path)
