"""Metamorphic tests of `run`: a relabeling of its input that no definition
of the protocol reads changes no output byte."""

import json
import random

import pytest

from belief_consensus.cli import EXIT_CASES_FAILED, EXIT_OK, main


def body(path) -> bytes:
    """An output file after its first line, which echoes the config."""
    return path.read_bytes().split(b"\n", 1)[1]


@pytest.mark.parametrize("name, files, code", [
    ("corpus", 3, EXIT_OK),
    ("branches", 13, EXIT_CASES_FAILED),  # its no-scripts case fails by design
])
def test_listing_order_changes_no_output(repo_root, tmp_path, name, files, code):
    # each case's agents, and each agent's rounds, listed in another order
    dataset = repo_root / "data" / f"{name}.json"
    payload = json.loads(dataset.read_text(encoding="utf-8"))
    rng = random.Random(21)
    for case in payload["cases"]:
        for agent in case.get("agents", ()):
            rng.shuffle(agent["rounds"])
        rng.shuffle(case.get("agents", []))
    assert payload != json.loads(dataset.read_text(encoding="utf-8"))
    shuffled = tmp_path / f"{name}.json"
    shuffled.write_text(json.dumps(payload), encoding="utf-8")

    config = str(repo_root / "configs" / f"{name}.yaml")
    listed, moved = tmp_path / "listed", tmp_path / "shuffled"
    assert main(["run", "--config", config, "--out", str(listed)]) == code
    assert main(["run", "--config", config, "--dataset", str(shuffled), "--out", str(moved)]) == code
    outputs = sorted(p.relative_to(listed) for p in listed.rglob("*") if p.is_file())
    assert len(outputs) == files
    assert outputs == sorted(p.relative_to(moved) for p in moved.rglob("*") if p.is_file())
    for path in outputs:
        assert body(listed / path) == body(moved / path), path
