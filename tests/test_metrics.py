import csv
import io

import numpy as np
import pytest

from belief_consensus.metrics import (
    MetricsRow,
    compute_metrics,
    format_metrics,
    mean_sem,
    metrics_to_csv,
    rows_from_results_jsonl,
)


def row(consensus, rounds, correct, case_id="c"):
    return MetricsRow(case_id=case_id, consensus_count=consensus,
                      n_rounds=rounds, correct=correct)


class TestComputeMetrics:
    def test_single_perfect_case(self):
        summary = compute_metrics([row(7, 1, True)], n=7)
        assert summary.cl == pytest.approx(1.0, abs=1e-12)
        assert summary.scl == pytest.approx(1.0, abs=1e-12)
        assert summary.scr == pytest.approx(7.0, abs=1e-12)
        assert summary.accuracy == 1.0

    def test_incorrect_case_zeroes_success_metrics(self):
        summary = compute_metrics([row(6, 2, False)], n=7)
        assert summary.cl == pytest.approx(6 / 7, abs=1e-12)
        assert summary.scl == 0.0
        assert summary.scr == 0.0
        assert summary.accuracy == 0.0

    def test_two_case_mean(self):
        summary = compute_metrics([row(5, 2, True), row(7, 1, True)], n=7)
        assert summary.cl == pytest.approx(6 / 7, abs=1e-12)
        assert summary.scl == pytest.approx(6 / 7, abs=1e-12)
        assert summary.scr == pytest.approx((2.5 + 7.0) / 2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], n=7)

    def test_scl_never_exceeds_cl_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            reports = [
                row(int(rng.integers(0, n + 1)), int(rng.integers(1, 5)),
                    bool(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 8)))
            ]
            summary = compute_metrics(reports, n=n)
            assert summary.scl <= summary.cl + 1e-12
            assert 0.0 <= summary.accuracy <= 1.0

    def test_permutation_invariance_and_concatenation(self):
        rng = np.random.default_rng(7)
        reports = [
            row(int(rng.integers(0, 8)), int(rng.integers(1, 4)), bool(rng.integers(0, 2)))
            for _ in range(6)
        ]
        shuffled = list(reports)
        rng.shuffle(shuffled)
        a = compute_metrics(reports, n=7)
        b = compute_metrics(shuffled, n=7)
        assert a.cl == pytest.approx(b.cl, rel=1e-12)
        assert a.scl == pytest.approx(b.scl, rel=1e-12)
        assert a.scr == pytest.approx(b.scr, rel=1e-12)
        # mean over a concatenation equals the case-count-weighted mean of parts
        left, right = reports[:2], reports[2:]
        la, ra = compute_metrics(left, 7), compute_metrics(right, 7)
        weighted = (la.cl * 2 + ra.cl * 4) / 6
        assert a.cl == pytest.approx(weighted, abs=1e-12)


class TestMeanSem:
    def test_single_value(self):
        assert mean_sem([0.5]) == (0.5, 0.0)

    def test_known_values(self):
        mean, sem = mean_sem([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert sem == pytest.approx(1.0 / np.sqrt(3))


class TestSerialization:
    def test_csv_and_text_output(self):
        summary = compute_metrics([row(7, 1, True)], n=7)
        buf = io.StringIO()
        metrics_to_csv([("seed-100", summary), ("seed-200", summary)], buf,
                       header_comment="test")
        text = buf.getvalue()
        assert text.startswith("# test")
        assert "cl_mean_sem" in text
        rendered = format_metrics([("seed-100", summary)])
        assert "CL" in rendered and "seed-100" in rendered

    def test_csv_mean_and_sem_under_their_own_headers(self):
        low = compute_metrics([row(7, 1, True)], n=7)
        high = compute_metrics([row(7, 1, True), row(0, 3, False)], n=7)
        buf = io.StringIO()
        metrics_to_csv([("a", low), ("b", high)], buf)
        by_label = {r["label"]: r for r in csv.DictReader(io.StringIO(buf.getvalue()))}
        for name in ("cl", "scl", "scr", "accuracy"):
            agg = by_label[f"{name}_mean_sem"]
            mean, sem = mean_sem([getattr(low, name), getattr(high, name)])
            assert float(agg["mean"]) == mean
            assert float(agg["sem"]) == sem
            assert agg["n_cases"] == "2"
            assert agg["cl"] == agg["scl"] == agg["scr"] == agg["accuracy"] == ""
        assert float(by_label["b"]["scr"]) == high.scr
        assert by_label["b"]["mean"] == by_label["b"]["sem"] == ""

    def test_failed_rows_are_counted_not_averaged(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(
            '{"config": {"run": {"n": 7}}}\n'
            '{"case_id": "x", "consensus_count": 5, "n_rounds": 2, "correct": true}\n'
            '{"case_id": "y", "error": "backend down"}\n'
        )
        rows, n = rows_from_results_jsonl(path)
        assert rows[1] == MetricsRow("y", error="backend down")
        summary = compute_metrics(rows, n)
        assert (summary.n_cases, summary.n_failed, summary.scr) == (1, 1, 2.5)
        with pytest.raises(ValueError, match="no completed cases"):
            compute_metrics(rows[1:], n)

    def test_bad_value_names_its_line_and_key(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(
            '{"config": {"run": {"n": 7}}}\n'
            '{"case_id": "x", "consensus_count": 5, "n_rounds": 2, "correct": true}\n'
            '{"case_id": "y", "consensus_count": 5, "n_rounds": 2.0, "correct": true}\n'
        )
        with pytest.raises(ValueError, match=r"^line 3: n_rounds must be an integer, got 2\.0$"):
            rows_from_results_jsonl(path)

    def test_results_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(
            '{"config": {"run": {"n": 7}}}\n'
            '{"case_id": "x", "consensus_count": 5, "n_rounds": 2, "correct": true}\n'
        )
        rows, n = rows_from_results_jsonl(path)
        assert n == 7
        assert rows[0].consensus_count == 5
        summary = compute_metrics(rows, n)
        assert summary.scr == pytest.approx(2.5)
