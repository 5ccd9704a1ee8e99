"""The scripted branch corpus, pinned.

`configs/branches.yaml` runs `data/branches.json` over a sweep of
mixed_delegates and adversarial_noise. Between them its cases reach every
termination, carry agents forward, write a failed case's error row, assign
each delegate tag and promote a group of leaders only. A change to any of
these paths changes a pinned digest; each marker test says which branch a
digest stands for.
"""

import hashlib
import json

import pytest

from belief_consensus.cli import EXIT_CASES_FAILED, main

SETTINGS = [f"adversarial_noise{noise}_mixed_delegates{mixed}"
            for noise in (False, True) for mixed in (False, True)]

# sha256 of each output file after its first line, which echoes the config
PINNED = {
    "adversarial_noiseFalse_mixed_delegatesFalse/metrics.csv":
        "e3bc79bade4bcb3ead5f00938e756465ad33b7108bc7cb98e1da4632bceda9cf",
    "adversarial_noiseFalse_mixed_delegatesFalse/results.jsonl":
        "3fcf57dd70f93f7a04ec1df6278462d577204d0bee13720f432dc54105803022",
    "adversarial_noiseFalse_mixed_delegatesFalse/traces/rounds.csv":
        "8ce8721b81733d584fc2a4fbc484330f7bf8b50f6b7e70f94e06abe2ecbbe734",
    "adversarial_noiseFalse_mixed_delegatesTrue/metrics.csv":
        "e3bc79bade4bcb3ead5f00938e756465ad33b7108bc7cb98e1da4632bceda9cf",
    "adversarial_noiseFalse_mixed_delegatesTrue/results.jsonl":
        "950c23d268383eebf82783eedb6c3192a12e313cd49870ad6f58f5155e4e4407",
    "adversarial_noiseFalse_mixed_delegatesTrue/traces/rounds.csv":
        "e533674e8843a532151378b789b97e286274094f472228eebdd10cf7a84902fc",
    "adversarial_noiseTrue_mixed_delegatesFalse/metrics.csv":
        "b30027934288a78c397f2f0183a2780e6c1550df3179faf56ae177298729efaa",
    "adversarial_noiseTrue_mixed_delegatesFalse/results.jsonl":
        "4378f153c0d432764698b2a1c268d7adddd63f3857266478da8274b382c4cd99",
    "adversarial_noiseTrue_mixed_delegatesFalse/traces/rounds.csv":
        "1e7f29607b9344bfd23841eef5472263400ea90efab1c26c11f5b8c72952aade",
    "adversarial_noiseTrue_mixed_delegatesTrue/metrics.csv":
        "b30027934288a78c397f2f0183a2780e6c1550df3179faf56ae177298729efaa",
    "adversarial_noiseTrue_mixed_delegatesTrue/results.jsonl":
        "be90c227952ac773b7796eeda35a7d81ef21c503f677ec9dee7ccf913a94b651",
    "adversarial_noiseTrue_mixed_delegatesTrue/traces/rounds.csv":
        "1e7f29607b9344bfd23841eef5472263400ea90efab1c26c11f5b8c72952aade",
    "metrics.csv": "d3412bb25b4bc9a3cc0c67df15103e65eaa63831332609a8920d385461a44e27",
}


@pytest.fixture(scope="module")
def branches_out(repo_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("branches")
    # the no-scripts case fails, and the run says so
    rc = main(["run", "--config", str(repo_root / "configs" / "branches.yaml"), "--out", str(out)])
    assert rc == EXIT_CASES_FAILED
    return out


def rows(out, setting):
    lines = (out / setting / "results.jsonl").read_text(encoding="utf-8").splitlines()
    return {row["case_id"]: row for row in map(json.loads, lines[1:])}


def test_outputs_are_pinned(branches_out):
    got = {}
    for path in sorted(p for p in branches_out.rglob("*") if p.is_file()):
        body = path.read_bytes().split(b"\n", 1)[1]
        got[path.relative_to(branches_out).as_posix()] = hashlib.sha256(body).hexdigest()
    assert got == PINNED


def test_every_termination(branches_out):
    plain = rows(branches_out, SETTINGS[0])
    assert {case: row.get("terminated_by") for case, row in plain.items()} == {
        "unanimous": "FullConsensus",
        "collaborate-then-agree": "FullConsensus",
        "carried-forward": "MaxRounds",
        "leaders-then-voting": "VotingFallback",
        "confident-split": "MaxRounds",
        "no-scripts": None,
    }
    assert plain["unanimous"]["n_rounds"] == 1
    assert plain["collaborate-then-agree"]["n_rounds"] == 2
    # three A and three B of equal belief sums: the modal tie goes to A
    verdict = plain["confident-split"]["rounds"][-1]["verdict"]
    assert (verdict["dominant_answer"], verdict["p_s"]) == ("A", 3 / 7)


def test_a_failed_case_is_an_error_row(branches_out):
    for setting in SETTINGS:
        assert rows(branches_out, setting)["no-scripts"] == {
            "case_id": "no-scripts",
            "error": "case 'no-scripts' has no scripts for the scripted backend"}


def test_agents_carried_forward(branches_out):
    def carried(setting, case):
        return [[c["agent_id"] for c in rd.get("carried_forward", ())]
                for rd in rows(branches_out, setting)[case]["rounds"]]

    # an adopt:leader rule in collaborating rounds, and adopt:agent:a1 in
    # leader rounds whose leaders a7 is not shown
    for setting in SETTINGS:
        assert carried(setting, "carried-forward") == [[], ["a5"], ["a5"]]
        assert carried(setting, "confident-split") == [[], ["a7"], ["a7"]]
    # a4's adopt:supportive rule finds a supportive delegate only when the
    # least reliable agent gets mixed delegates
    assert carried(SETTINGS[0], "collaborate-then-agree") == [[], ["a4"]]
    assert carried(SETTINGS[1], "collaborate-then-agree") == [[], []]


def test_delegate_tags_and_leader_groups(branches_out):
    for setting in SETTINGS:
        tags, all_members = set(), set()
        for row in rows(branches_out, setting).values():
            for rd in row.get("rounds", ()):
                plan = (rd.get("assignment") or {}).get("assignments", {})
                tags |= {tag for delegates in plan.values() for _, tag in delegates}
                all_members |= {g["all_members"] for g in rd.get("leaders", ())}
                if rd.get("leaders"):
                    tags.add("leader")
        assert tags == {"supportive", "conflicting", "leader"}
        assert all_members == {True, False}
    least = rows(branches_out, SETTINGS[1])["collaborate-then-agree"]["rounds"][0]["assignment"]
    assert least["least_reliable_agent"] == "a4"
    assert least["assignments"]["a4"] == [["a5", "conflicting"], ["a7", "conflicting"],
                                          ["a1", "supportive"]]


def test_noise_victims_only_with_noise(branches_out):
    for setting in SETTINGS:
        victims = [rd["noise_victim"] for row in rows(branches_out, setting).values()
                   for rd in row.get("rounds", ())]
        if "noiseTrue" in setting:
            assert None not in victims
        else:
            assert set(victims) == {None}
