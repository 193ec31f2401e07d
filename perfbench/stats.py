"""Statistics of the end-to-end download benchmark.

Pure functions over the raw document the perfbench binary writes, so the
rules below are unit-tested on their own (test_stats.py):

* A percentile is reported only when at least MIN_BEYOND samples lie
  beyond it; otherwise it is None.  This holds for the median too.
* A failed operation enters a latency sample as math.inf: it counts as
  missing any latency limit, so failures push percentiles up rather than
  vanishing from them.
* Shares are judged against Eq. (2): user j's predicted share of a
  saturated server is S_j / sum(S), where S is the contribution ledger.
"""

import math

MIN_BEYOND = 10
# The pacing policy starts every ledger slot at this positive epsilon.
LEDGER_EPSILON = 1.0


def percentile(samples, q):
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND samples
    lie beyond it."""
    n = len(samples)
    if n == 0 or not 0.0 < q < 1.0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def tail_percentile(samples, quantiles=(0.999, 0.99, 0.9)):
    """(q, value) for the highest listed quantile that is reportable."""
    for q in quantiles:
        value = percentile(samples, q)
        if value is not None:
            return q, value
    return None


def latencies(ops, kind="fetch"):
    """Latency samples in ms; failed operations enter as math.inf."""
    return [op["ms"] if op["ok"] else math.inf
            for op in ops if op["kind"] == kind]


def ops_failed_frac(ops):
    """Failed operations over attempted ones (0 when none was attempted)."""
    if not ops:
        return 0.0
    return sum(1 for op in ops if not op["ok"]) / len(ops)


def median(values):
    """Plain median, for a handful of repetitions of one measurement (the
    set-up passes), where no percentile would be reportable."""
    values = sorted(values)
    if not values:
        return None
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] +
                                                values[mid]) / 2


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def predicted_shares(users):
    """Eq. (2) share of each user, averaged over the window's two ends.

    The ledger S_j is epsilon + seeded contribution + bytes the server has
    delivered to j (the server feeds its own service back into S)."""
    def shares(key):
        ledger = [LEDGER_EPSILON + u["contribution"] + u[key] for u in users]
        total = sum(ledger)
        return [s / total for s in ledger]
    start, end = shares("bytes_start"), shares("bytes_end")
    return [(a + b) / 2 for a, b in zip(start, end)]


def share_ratio_min(users):
    """min over users of delivered share / predicted share."""
    delivered = [u["bytes_end"] - u["bytes_start"] for u in users]
    total = sum(delivered)
    if total <= 0:
        return None
    return min(d / total / p
               for d, p in zip(delivered, predicted_shares(users)))


def granted_share_ratio_min(users):
    """min over users of the granted rate share / predicted share: the
    policy's own error, apart from delivery."""
    if any(u["granted_share"] <= 0 for u in users):
        return None
    return min(u["granted_share"] / p
               for u, p in zip(users, predicted_shares(users)))


def union_ns(intervals, lo, hi):
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    covered, reach = 0, lo
    for s, e in clipped:
        s = max(s, reach)
        if e > s:
            covered += e - s
            reach = e
    return covered


def span_table(spans):
    """Per span name: count, total ms and self ms (duration minus the part
    its child spans cover)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    table = {}
    for s in spans:
        own = s["end"] - s["start"]
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        self_ns = own - union_ns(kids, s["start"], s["end"])
        row = table.setdefault(s["name"], {"count": 0, "total_ms": 0.0,
                                           "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += own / 1e6
        row["self_ms"] += self_ns / 1e6
    return table


def span_coverage(spans, root="op.fetch", stages=("disco.resolve",
                                                  "net.session", "net.stop",
                                                  "coding.reconstruct")):
    """Mean over operations of the share of the root span's time that the
    stage spans of the same operation cover."""
    by_op = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    fractions = []
    for members in by_op.values():
        roots = [s for s in members if s["name"] == root]
        if len(roots) != 1:
            continue
        r = roots[0]
        if r["end"] <= r["start"]:
            continue
        covered = union_ns([(s["start"], s["end"]) for s in members
                            if s["name"] in stages], r["start"], r["end"])
        fractions.append(covered / (r["end"] - r["start"]))
    return mean(fractions)


def durations_ms(spans, name):
    return [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == name]
