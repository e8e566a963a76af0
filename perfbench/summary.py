"""Order statistics for timings: median, upper quartile, tail percentile."""

import statistics

TAIL_BEYOND = 10    # samples that must lie beyond the reported tail


def median(values):
    return float(statistics.median(values))


def p75(values):
    """Upper quartile, interpolated between order statistics.

    The inclusive method keeps it within the samples however few there are.
    """
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[2])


def tail(values):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With n samples that is the order statistic with exactly ten above it,
    at percentile 100 (n - 10) / n.  Fewer than eleven samples leave no
    such percentile; the maximum is reported then, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n
