"""Packet-drop inference from TCP connect RTTs (§4.2).

"Pingmesh does not directly measure packet drop rate.  However, we can infer
packet drop rate from the TCP connection setup time. ... if the measured TCP
connection RTT is around 3 seconds, there is one packet drop; if the RTT is
around 9 seconds, there are two packet drops.  We use the following
heuristic to estimate packet drop rate:

    (probes with 3s rtt + probes with 9s rtt) / total successful probes

Note that we only use the total number of successful TCP probes instead of
the total probes as the denominator.  This is because for failed probes, we
cannot differentiate between packet drops and receiving server failure.  In
the numerator, we only count one packet drop instead of two for every
connection with 9 second RTT" — successive drops within a connection are
correlated.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.cosmos.columnar import col
from repro.netsim import tcp

__all__ = [
    "DROPPED_PROBE",
    "classify_probe",
    "estimate_drop_rate",
    "estimate_drop_rate_from_arrays",
    "DropRateEstimate",
]

# RTT windows around the retransmission signatures (seconds).
_ONE_DROP_LOW = tcp.syn_rtt_signature(1)  # 3 s
_TWO_DROP_LOW = tcp.syn_rtt_signature(2)  # 9 s

# The heuristic's numerator as a column expression: a successful probe at or
# above the 3 s signature counts one drop, however many it really saw.  It
# spells the test exactly as :func:`classify_probe` does on ``rtt_us / 1e6``,
# so every query path agrees with the row form bit for bit.
DROPPED_PROBE = col("success") & (col("rtt_us") / 1e6 >= _ONE_DROP_LOW)


def classify_probe(success: bool, rtt_s: float) -> int | None:
    """Number of inferred SYN drops for one probe.

    Returns 0, 1 or 2 for successful probes, ``None`` for failed probes
    (excluded from the heuristic entirely).
    """
    if not success:
        return None
    if rtt_s < _ONE_DROP_LOW:
        return 0
    if rtt_s < _TWO_DROP_LOW:
        return 1
    return 2


class DropRateEstimate:
    """The heuristic's output plus its inputs, for reporting."""

    def __init__(self, successful: int, one_drop: int, two_drop: int) -> None:
        self.successful = successful
        self.one_drop = one_drop
        self.two_drop = two_drop

    @property
    def rate(self) -> float:
        if self.successful == 0:
            return 0.0
        return (self.one_drop + self.two_drop) / self.successful

    def __repr__(self) -> str:
        return (
            f"DropRateEstimate(rate={self.rate:.3g}, successful={self.successful}, "
            f"one_drop={self.one_drop}, two_drop={self.two_drop})"
        )


def estimate_drop_rate(rows: Iterable[dict[str, Any]]) -> DropRateEstimate:
    """Apply the heuristic to latency records (``success`` + ``rtt_us``)."""
    successful = one = two = 0
    for row in rows:
        drops = classify_probe(bool(row["success"]), row["rtt_us"] / 1e6)
        if drops is None:
            continue
        successful += 1
        if drops == 1:
            one += 1
        elif drops == 2:
            two += 1
    return DropRateEstimate(successful, one, two)


def estimate_drop_rate_from_arrays(
    rtt_s: np.ndarray, success: np.ndarray
) -> DropRateEstimate:
    """Vectorized form for the batch-probe benches (≥10⁶ samples).

    Counts exactly what :func:`estimate_drop_rate` counts on rows with
    ``rtt_us = rtt_s * 1e6``.
    """
    if rtt_s.shape != success.shape:
        raise ValueError(
            f"shape mismatch: rtt {rtt_s.shape} vs success {success.shape}"
        )
    columns = {"success": success.astype(bool), "rtt_us": rtt_s * 1e6}
    dropped = DROPPED_PROBE.eval_columns(columns)
    two = int((dropped & (columns["rtt_us"] / 1e6 >= _TWO_DROP_LOW)).sum())
    return DropRateEstimate(
        int(columns["success"].sum()), int(dropped.sum()) - two, two
    )
