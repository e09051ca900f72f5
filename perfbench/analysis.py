"""The benchmark's own arithmetic, kept free of I/O so test_analysis.py can
pin it: per-arrival records from pb_load, due-time latency, pooled and
windowed percentiles, failure accounting, and the notify-lag epoch estimate.
"""
import array
import math
import statistics

# pb_load's per-arrival record layout (doubles; NaN = never happened).
FIELDS = ("due", "sent", "ack_at", "outcome", "reason", "release", "done_at",
          "done_kind", "done_virtual", "value", "query_due", "query_at")
F = {name: i for i, name in enumerate(FIELDS)}

# Outcome codes: the protocol's direct replies plus pb_load's local verdicts.
UNANSWERED = 0
ACCEPTED = 10
REJECTED = 11
SHED = 12
ERROR = 20
LOST = 30
COMPLETED = 13
REASON_INADMISSIBLE = 2

INF = math.inf


def iter_records(path, nfields=len(FIELDS)):
    """Yields pb_load's --out file as per-arrival tuples, one at a time (a
    peak phase holds hundreds of thousands)."""
    data = array.array("d")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    if len(data) % nfields:
        raise ValueError(f"{path}: {len(data)} doubles is not a multiple of {nfields}")
    for i in range(0, len(data), nfields):
        yield tuple(data[i:i + nfields])


def is_failure(rec):
    """SHED, ERROR, lost to a dropped connection, unanswered, and every
    REJECTED other than inadmissible are failures; ACCEPTED and
    REJECTED(inadmissible) are correct answers."""
    outcome = int(rec[F["outcome"]])
    if outcome == ACCEPTED:
        return False
    if outcome == REJECTED:
        return int(rec[F["reason"]]) != REASON_INADMISSIBLE
    return True


def ack_latency(rec):
    """Seconds from the arrival's DUE instant to its direct answer; +inf for
    a failure, so it misses every latency limit."""
    if is_failure(rec):
        return INF
    return rec[F["ack_at"]] - rec[F["due"]]


def query_latency(rec):
    """Seconds from the QUERY's due instant to its reply (+inf if none);
    None when the arrival carried no query."""
    due = rec[F["query_due"]]
    if math.isnan(due):
        return None
    at = rec[F["query_at"]]
    return INF if math.isnan(at) else at - due


def lateness(rec):
    """Seconds the generator sent an arrival after it was due (None if the
    arrival was never sent)."""
    sent = rec[F["sent"]]
    return None if math.isnan(sent) else sent - rec[F["due"]]


def failure_counts(records):
    """Outcome tallies; `failed` = every failure kind is_failure names."""
    counts = dict.fromkeys(("attempted", "accepted", "rejected_inadmissible",
                            "rejected_other", "shed", "error", "lost",
                            "unanswered", "failed"), 0)
    for rec in records:
        count_outcome(counts, rec)
    return counts


_OUTCOME_KEY = {ACCEPTED: "accepted", SHED: "shed", ERROR: "error", LOST: "lost"}


def count_outcome(counts, rec):
    """Adds one arrival to a failure_counts() tally."""
    outcome = int(rec[F["outcome"]])
    if outcome == REJECTED:
        key = ("rejected_inadmissible" if int(rec[F["reason"]]) == REASON_INADMISSIBLE
               else "rejected_other")
    else:
        key = _OUTCOME_KEY.get(outcome, "unanswered")
    counts[key] += 1
    counts["attempted"] += 1
    counts["failed"] += is_failure(rec)


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `values`; +inf entries sort
    last, so failures push the tail up instead of vanishing."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def blocked_percentile(values, q, block):
    """Lower decile, over consecutive blocks of `block` samples, of the
    q-quantile within each block. `values` are in arrival order; a trailing
    partial block is dropped unless it is the only one. Host stalls and slow
    spells only ever raise a block's latency, so they spoil the blocks they
    overlap and leave the lower decile to track the code, not the
    neighbours. Returns (value, blocks, samples)."""
    if not values:
        raise ValueError("no samples")
    values = list(values)
    blocks = [values[i:i + block] for i in range(0, len(values) - block + 1, block)]
    if len(blocks) < 2:
        return percentile(values, q), 1, len(values)
    per_block = [percentile(b, q) for b in blocks]
    return statistics.quantiles(per_block, n=10)[0], len(blocks), len(values)


def fast_phase_rate(rates):
    """The 95th percentile (statistics.quantiles, n=20) of per-chunk rates.
    The host's speed drifts by tens of percent over seconds and a slowdown
    only ever lowers a chunk's rate, so the fastest chunks track the code's
    speed; the 95th percentile still rests on the fastest twentieth of a
    run's chunks rather than on one lucky chunk."""
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=20)[18]


def cpu_per_answer(samples, chunk):
    """Server CPU seconds per answered arrival over consecutive chunks of
    `chunk` sample intervals. `samples` are pb_load's [answered, cpu_s]
    readings in time order; a trailing partial chunk is dropped unless it is
    the only one, and a chunk with no answers carries no cost."""
    if len(samples) < 2:
        raise ValueError("need at least two CPU samples")
    ends = list(range(chunk, len(samples), chunk)) or [len(samples) - 1]
    costs = []
    for end in ends:
        (a0, c0), (a1, c1) = samples[end - min(chunk, end)], samples[end]
        if a1 > a0:
            costs.append((c1 - c0) / (a1 - a0))
    return costs


def epoch_estimate(accepted, accel):
    """Client-side estimate of the server's virtual-time epoch.

    The server stamps an ACCEPTED release r when its clock reads
    epoch + r/accel, and the client receives the reply later, so each pair
    (received_at, r) bounds epoch <= received_at - r/accel. The tightest
    bound is the estimate; it exceeds the true epoch by the smallest
    stamp-to-receipt delay of the phase (one loopback reply, microseconds),
    so lags computed from it are biased LOW by at most that much."""
    best = INF
    for received_at, release in accepted:
        best = min(best, received_at - release / accel)
    if best == INF:
        raise ValueError("no ACCEPTED stamps to anchor the epoch")
    return best


def notify_lags(accepted, completions, accel):
    """Wall seconds from the server's virtual clock reaching each COMPLETED
    job's reported completion instant to the client receiving it.
    `accepted`: (received_at, release) of every ACCEPTED; `completions`:
    (received_at, completion instant) of every COMPLETED."""
    epoch = epoch_estimate(accepted, accel)
    return [at - (epoch + virtual / accel) for at, virtual in completions]


def accepted_stamp(rec):
    """(received_at, release) of an ACCEPTED arrival, else None."""
    if int(rec[F["outcome"]]) != ACCEPTED:
        return None
    return rec[F["ack_at"]], rec[F["release"]]


def completion(rec):
    """(received_at, completion instant) of a COMPLETED arrival, else None."""
    if rec[F["done_kind"]] != COMPLETED:
        return None
    return rec[F["done_at"]], rec[F["done_virtual"]]


def captured_value(rec):
    """(completed value, admitted value) of one arrival as the client saw it."""
    if int(rec[F["outcome"]]) != ACCEPTED:
        return 0.0, 0.0
    return (rec[F["value"]] if rec[F["done_kind"]] == COMPLETED else 0.0), rec[F["value"]]
