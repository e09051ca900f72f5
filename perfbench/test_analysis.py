"""Self-tests for the benchmark's arithmetic (stdlib only):

    python3 perfbench/test_analysis.py
"""
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis as A  # noqa: E402

NAN = float("nan")


def rec(due=0.0, sent=NAN, ack_at=NAN, outcome=A.UNANSWERED, reason=0,
        release=NAN, done_at=NAN, done_kind=NAN, done_virtual=NAN, value=1.0,
        query_due=NAN, query_at=NAN):
    return (due, sent, ack_at, outcome, reason, release, done_at, done_kind,
            done_virtual, value, query_due, query_at)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(A.percentile(v, 0.5), 50)
        self.assertEqual(A.percentile(v, 0.99), 99)
        self.assertEqual(A.percentile(v, 1.0), 100)
        self.assertEqual(A.percentile([7], 0.99), 7)

    def test_inf_sorts_last(self):
        v = [1.0] * 98 + [A.INF, A.INF]
        self.assertEqual(A.percentile(v, 0.98), 1.0)
        self.assertEqual(A.percentile(v, 0.99), A.INF)

    def test_blocked_lower_decile(self):
        # Ten blocks of 1000 samples whose p99 are 1..10 (+ a partial block).
        values = []
        for tail in range(1, 11):
            values += [0.0] * 980 + [float(tail)] * 20
        value, blocks, samples = A.blocked_percentile(values + [99.0] * 10, 0.99, 1000)
        # statistics.quantiles([1..10], n=10)[0] == 1.1
        self.assertAlmostEqual(value, 1.1)
        self.assertEqual((blocks, samples), (10, 10010))

    def test_blocked_short_phase_uses_everything(self):
        value, blocks, _ = A.blocked_percentile([float(i) for i in range(100)], 0.99, 1000)
        self.assertEqual((value, blocks), (98.0, 1))

    def test_stalled_blocks_do_not_move_it(self):
        quiet = [0.1] * 1000
        stalled = [0.1] * 900 + [50.0] * 100
        value, _, _ = A.blocked_percentile(quiet * 8 + stalled * 4, 0.99, 1000)
        self.assertEqual(value, 0.1)

    def test_fast_phase_rate(self):
        self.assertEqual(A.fast_phase_rate([5.0]), 5.0)
        # 100 chunks: 70 at full speed (100), 30 slowed to 60.
        self.assertEqual(A.fast_phase_rate([60.0] * 30 + [100.0] * 70), 100.0)
        rates = list(range(1, 101))
        self.assertAlmostEqual(A.fast_phase_rate(rates), 95.95)


class ServerCpu(unittest.TestCase):
    def test_chunks(self):
        # Answered 0, 100, ..., 600 with 1 ms CPU per answer, then a slow
        # stretch at 3 ms per answer, then a trailing partial chunk.
        samples = [(100 * i, 0.001 * 100 * i) for i in range(7)]
        samples += [(600 + 100 * i, 0.6 + 0.003 * 100 * i) for i in range(1, 4)]
        samples += [(1000, 1.0)]
        costs = A.cpu_per_answer(samples, 3)
        self.assertEqual(len(costs), 3)  # intervals 0-3, 3-6, 6-9
        self.assertAlmostEqual(costs[0], 0.001)
        self.assertAlmostEqual(costs[1], 0.001)
        self.assertAlmostEqual(costs[2], 0.003)

    def test_short_session_is_one_chunk(self):
        self.assertEqual(A.cpu_per_answer([(0, 1.0), (50, 1.5)], 5), [0.01])

    def test_idle_chunk_carries_no_cost(self):
        costs = A.cpu_per_answer([(10, 1.0), (10, 1.1), (20, 1.2)], 1)
        self.assertEqual(len(costs), 1)
        self.assertAlmostEqual(costs[0], 0.01)


class DueTimeLatency(unittest.TestCase):
    def test_timed_from_due_not_sent(self):
        # The generator stalled: sent 5 ms late, answered 1 ms after sending.
        r = rec(due=10.0, sent=10.005, ack_at=10.006, outcome=A.ACCEPTED)
        self.assertAlmostEqual(A.ack_latency(r), 0.006)
        self.assertAlmostEqual(A.lateness(r), 0.005)

    def test_failures_are_infinite(self):
        for outcome in (A.SHED, A.ERROR, A.LOST, A.UNANSWERED):
            self.assertEqual(A.ack_latency(rec(ack_at=1.0, outcome=outcome)), A.INF)
        self.assertEqual(A.ack_latency(rec(ack_at=1.0, outcome=A.REJECTED, reason=3)), A.INF)

    def test_inadmissible_is_a_correct_answer(self):
        r = rec(due=1.0, ack_at=1.002, outcome=A.REJECTED, reason=A.REASON_INADMISSIBLE)
        self.assertAlmostEqual(A.ack_latency(r), 0.002)

    def test_query_latency(self):
        self.assertIsNone(A.query_latency(rec()))
        self.assertEqual(A.query_latency(rec(query_due=2.0)), A.INF)
        self.assertAlmostEqual(A.query_latency(rec(query_due=2.0, query_at=2.001)), 0.001)


class FailureAccounting(unittest.TestCase):
    def test_every_kind_counts(self):
        records = [
            rec(outcome=A.ACCEPTED),
            rec(outcome=A.REJECTED, reason=A.REASON_INADMISSIBLE),
            rec(outcome=A.REJECTED, reason=3),      # draining
            rec(outcome=A.SHED),
            rec(outcome=A.ERROR, reason=3),         # journal failed
            rec(outcome=A.LOST),                    # dropped connection
            rec(outcome=A.LOST),
            rec(outcome=A.UNANSWERED),
        ]
        c = A.failure_counts(records)
        self.assertEqual(c["attempted"], 8)
        self.assertEqual(c["accepted"], 1)
        self.assertEqual(c["rejected_inadmissible"], 1)
        self.assertEqual(c["lost"], 2)
        self.assertEqual(c["failed"], 6)
        self.assertEqual(sum(A.is_failure(r) for r in records), c["failed"])


class NotifyLag(unittest.TestCase):
    def test_epoch_is_tightest_bound(self):
        accel = 100.0
        epoch = 50.0
        # Stamps read at epoch + r/accel; replies arrive 20-90 us later.
        acc = [(epoch + r / accel + d, r) for r, d in ((1.0, 9e-5), (2.0, 2e-5), (3.0, 5e-5))]
        est = A.epoch_estimate(acc, accel)
        self.assertGreaterEqual(est, epoch)
        self.assertAlmostEqual(est - epoch, 2e-5)

    def test_lag_from_estimated_epoch(self):
        accel = 1000.0
        epoch = 7.0
        records = [
            rec(outcome=A.ACCEPTED, ack_at=epoch + 0.5 / accel, release=0.5,
                done_kind=A.COMPLETED, done_virtual=2.0, done_at=epoch + 2.0 / accel + 0.003),
            rec(outcome=A.ACCEPTED, ack_at=epoch + 1.0 / accel + 1e-4, release=1.0,
                done_kind=14, done_virtual=3.0, done_at=epoch + 1.0),
        ]
        accepted = [a for a in map(A.accepted_stamp, records) if a]
        completions = [c for c in map(A.completion, records) if c]
        lags = A.notify_lags(accepted, completions, accel)
        self.assertEqual(len(lags), 1)  # expiries carry no completion lag
        self.assertAlmostEqual(lags[0], 0.003)

    def test_no_stamps(self):
        with self.assertRaises(ValueError):
            A.epoch_estimate([], 1.0)


class CapturedValue(unittest.TestCase):
    def test_completed_over_admitted(self):
        records = [rec(outcome=A.ACCEPTED, value=3.0, done_kind=A.COMPLETED),
                   rec(outcome=A.ACCEPTED, value=1.0, done_kind=14),
                   rec(outcome=A.SHED, value=100.0)]
        pairs = [A.captured_value(r) for r in records]
        self.assertEqual((sum(c for c, _ in pairs), sum(a for _, a in pairs)), (3.0, 4.0))


class Pooling(unittest.TestCase):
    """run.merge pools sessions of one phase before any percentile is taken."""

    def session(self, latencies, failed=0):
        import run
        records = [rec(due=float(i), ack_at=float(i) + lat, outcome=A.ACCEPTED)
                   for i, lat in enumerate(latencies)]
        records += [rec(outcome=A.LOST)] * failed
        summary = {"server_cpu_s": 1.0, "gen_busy_s": 0.5, "window_s": 1.0,
                   "cpu_samples": [[0, 0.0], [len(latencies), 1.0]]}
        raw = run.collect(records, summary, accel=1.0)
        raw.update(setups=[0.1], rss_mb=10.0, crashes=int(failed > 0), sessions=1)
        return raw

    def test_percentile_of_the_union(self):
        import run
        merged = run.merge([self.session([1.0] * 99 + [2.0]), self.session([10.0] * 100)])
        self.assertEqual(len(merged["ack_lat"]), 200)
        self.assertEqual(A.percentile(merged["ack_lat"], 0.5), 2.0)  # rank 100 of 200

    def test_failures_and_sums_add_up(self):
        import run
        merged = run.merge([self.session([1.0] * 10), self.session([1.0] * 10, failed=5)])
        out = run.summarize(merged)
        self.assertEqual((out["attempted"], out["failed"], out["lost"]), (25, 5, 5))
        self.assertEqual((out["sessions"], out["crashes"]), (2, 1))
        self.assertEqual(out["server_cpu_us_per_submit_pooled"], 1e6 * 2.0 / 20)
        # One CPU chunk per session: 1 s over 10 answers each; the median.
        self.assertAlmostEqual(out["server_cpu_us_per_submit"], 1e6 * 0.1)
        self.assertEqual(out["rss_mb"], 10.0)


class ServerExit(unittest.TestCase):
    """Only the documented engine abort is a tolerated server death."""

    def test_known_abort(self):
        import run
        log = ("terminate called after throwing an instance of 'sjs::CheckError'\n"
               "  what():  SJS_CHECK failed: (...) at src/sim/engine.cpp:276 — "
               "completion event with 3e-05 work left\n")
        self.assertTrue(run.known_abort(-6, log))
        self.assertTrue(run.known_abort(-6, "... — completion with work left\n"))

    def test_other_deaths_fail(self):
        import run
        self.assertFalse(run.known_abort(-11, "completion event with 1 work left"))  # SIGSEGV
        self.assertFalse(run.known_abort(-6, "SJS_CHECK failed: (slot < size)"))
        self.assertFalse(run.known_abort(1, "completion with work left"))
        self.assertFalse(run.known_abort(0, ""))


class Records(unittest.TestCase):
    def test_round_trip(self):
        import array
        import tempfile
        rows = [rec(due=1.0, outcome=A.ACCEPTED), rec(due=2.0, outcome=A.SHED)]
        with tempfile.NamedTemporaryFile(delete=False, dir=os.path.dirname(__file__)) as f:
            array.array("d", [x for r in rows for x in r]).tofile(f)
        try:
            got = list(A.iter_records(f.name))
        finally:
            os.unlink(f.name)
        self.assertEqual(len(got), 2)
        self.assertEqual(got[1][A.F["outcome"]], A.SHED)
        self.assertTrue(math.isnan(got[0][A.F["sent"]]))


if __name__ == "__main__":
    unittest.main()
