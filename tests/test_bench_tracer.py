"""The bench tracer's wrapped names exist, and uninstalling restores them.

`bench/tracer.py` patches functions by name in several modules of the
package. A name that is renamed or removed fails here, in the unit tests,
rather than only in a traced benchmark run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_wrapped_name_exists_and_is_restored(monkeypatch):
    # as bench/worker.py imports it: from its own directory on sys.path
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    try:
        t.install()
        originals = {}
        for owner, attr, original in t._patches:
            originals.setdefault((owner, attr), original)
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in originals.items())
    finally:
        t.uninstall()
    assert originals
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
