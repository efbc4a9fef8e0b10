"""Pure arithmetic behind the benchmark's metrics: tails, self times, ratios."""


def tail(latencies, beyond=10):
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, n), where value is the (beyond + 1)-th
    largest sample, so `beyond` samples lie beyond it.  With too few samples
    the maximum is returned at percentile 100.
    """
    n = len(latencies)
    ordered = sorted(latencies, reverse=True)
    if n <= beyond:
        return ordered[0], 100.0, n
    return ordered[beyond], 100.0 * (n - beyond) / n, n


def speed_factor(before, after, reference):
    """Rescaling of wall times to the reference host speed.

    `before` and `after` are the calibration slice times around a segment of
    ops; the slice takes `reference` seconds at the reference speed.
    """
    return reference / ((before + after) / 2.0)


def ratio(numerator, denominator):
    """numerator / denominator, or None when the base is zero."""
    return numerator / denominator if denominator else None


def self_times(spans):
    """Self time of each span: its duration minus what its direct children cover.

    `spans` is a list of (start, end, parent) with parent the index of the
    enclosing span or -1.  Children of one span never overlap each other, as
    in a single-threaded call tree, so their durations add.
    """
    child = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - covered for (start, end, _), covered in zip(spans, child)]
