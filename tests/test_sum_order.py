"""Sums written to the output files add their terms one at a time, in agent
(or member, or setting) order, so every Python version writes the same bits:
the builtin `sum` of floats is compensated from Python 3.12 on, `math.fsum` is
exact and numpy's `sum` adds pairwise. On these inputs all three differ from
the left fold, and from each other."""

import functools
import math
import operator

import numpy as np
import pytest

from belief_consensus.coordination import pairwise_reports
from belief_consensus.core import Opinion
from belief_consensus.grouping import OpinionGroup
from belief_consensus.judgment import judge_consensus
from belief_consensus.metrics import mean_sem
from round_oracles import columns_of

X = [0.610362, 0.226511, 0.425821, 0.230803, 0.02171, 0.377949, 0.018512, 0.085111,
     0.427452, 0.149532]
Y = [0.560296, 0.170144, 0.701876, 0.771112, 0.854299, 0.222762, 0.949054, 0.449665,
     0.636655]


def left_fold(values):
    return functools.reduce(operator.add, values, 0)


@pytest.mark.parametrize("values", [X, Y])
def test_inputs_tell_the_sums_apart(values):
    sums = {left_fold(values), math.fsum(values), float(np.sum(np.array(values)))}
    assert len(sums) == 3


def interleaved():
    """X's agents answer A and Y's B, alternating rows, each list in its order."""
    rows = sorted([(2 * i, "A", b) for i, b in enumerate(X)]
                  + [(2 * i + 1, "B", b) for i, b in enumerate(Y)])
    return columns_of([Opinion(f"a{i:02d}", "", a, b) for i, a, b in rows])


def test_p_b_adds_in_agent_order():
    verdict = judge_consensus(interleaved(), len(X) + len(Y))
    support, dissent = left_fold(X), left_fold(Y)
    assert verdict.dominant_answer == "A"
    assert verdict.p_b == support / (support + dissent)


def test_conflict_components_add_in_member_order():
    cols = interleaved()
    a_members, b_members = cols.agent_ids[0::2], cols.agent_ids[1::2]
    # p: X's agents, then Y's first five; q: Y's last four, then X's first three
    p = OpinionGroup(0, a_members + b_members[:5], 0.0, "")
    q = OpinionGroup(1, b_members[5:] + a_members[:3], 0.0, "")
    got = pairwise_reports([p, q], cols)[(0, 1)].components
    p_beliefs, q_beliefs = X + Y[:5], Y[5:] + X[:3]
    assert got == {
        "p_support": left_fold(X),
        "p_dissent": left_fold(Y[:5]),
        "q_support": left_fold(Y[5:]),
        "q_dissent": left_fold(X[:3]),
        "sym_diff": 0,
        "union": left_fold(p_beliefs + q_beliefs),
    }
    q = OpinionGroup(1, b_members, 0.0, "")
    got = pairwise_reports([p, q], cols)[(0, 1)].components
    # only B is held by both groups
    assert got["sym_diff"] == left_fold(X)
    assert got["union"] == left_fold(p_beliefs + Y)


def test_mean_sem_adds_in_order():
    mean, sem = mean_sem(X)
    assert mean == left_fold(X) / len(X)
    var = left_fold([(v - mean) ** 2 for v in X]) / (len(X) - 1)
    assert sem == math.sqrt(var) / math.sqrt(len(X))
