"""Latency heatmaps and pattern discovery (§6.3, Figure 8).

"a small green, yellow, or red block or pixel shows the network latency at
the 99th percentile between a source-destination pod-pair.  Green means the
latency is less than 4ms, yellow means the latency is between 4-5ms, and red
is for latency larger than 5ms.  A white block means there is no latency
data available."

Four canonical patterns, classified automatically:

* **NORMAL** — (almost) all green,
* **PODSET_DOWN** — a white cross: a whole podset reports no data (power),
* **PODSET_FAILURE** — a red cross: latency from/to one podset is out of
  SLA while the rest is green (Leaf problem or broadcast storm),
* **SPINE_FAILURE** — green squares on the diagonal (intra-podset fine) on a
  red background (all cross-podset traffic out of SLA).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.cosmos.scope import RowSet, agg, as_rowset, col

__all__ = [
    "CellColor",
    "LatencyPattern",
    "LatencyHeatmap",
    "PatternClassification",
    "GREEN_THRESHOLD_US",
    "YELLOW_THRESHOLD_US",
]

Row = dict[str, Any]

GREEN_THRESHOLD_US = 4000.0  # < 4 ms  -> green
YELLOW_THRESHOLD_US = 5000.0  # 4-5 ms -> yellow; > 5 ms -> red


class CellColor(enum.Enum):
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"
    WHITE = "white"  # no data


class LatencyPattern(enum.Enum):
    NORMAL = "normal"
    PODSET_DOWN = "podset-down"
    PODSET_FAILURE = "podset-failure"
    SPINE_FAILURE = "spine-failure"
    UNCLASSIFIED = "unclassified"


@dataclass
class PatternClassification:
    pattern: LatencyPattern
    affected_podsets: list[int] = field(default_factory=list)
    detail: str = ""


class LatencyHeatmap:
    """The pod-pair P99 latency matrix of one data center window."""

    def __init__(self, n_pods: int, pods_per_podset: int) -> None:
        if n_pods < 1 or pods_per_podset < 1:
            raise ValueError("dimensions must be >= 1")
        if n_pods % pods_per_podset != 0:
            raise ValueError(
                f"{n_pods} pods do not divide into podsets of {pods_per_podset}"
            )
        self.n_pods = n_pods
        self.pods_per_podset = pods_per_podset
        # NaN = no data (white).
        self.p99_us = np.full((n_pods, n_pods), np.nan)

    @classmethod
    def from_records(
        cls,
        rows: RowSet | Iterable[Row],
        n_pods: int,
        pods_per_podset: int,
        dc: int = 0,
    ) -> "LatencyHeatmap":
        """Build the matrix from latency records of one DC.

        A SCOPE query over ``rows`` (the DSA window, or a plain list run on
        the engine's row path): one P99 per (src_pod, dst_pod) cell.

        Only successful probes carry a latency; a failed probe never
        completed a connection, so it contributes *no data* — "a white block
        means there is no latency data available".  A pod-pair that is
        entirely timing out therefore paints white (Fig. 8(b)), while one
        that is merely slow paints red (Fig. 8(c)/(d)).  Rows without a
        ``success`` column count as successful.
        """
        heatmap = cls(n_pods, pods_per_podset)
        in_dc = as_rowset(rows).where(
            (col("src_dc") == dc)
            & (col("dst_dc") == dc)
            & col("success", default=True)
            # VIP probes and the like carry no pod coordinates.
            & (col("src_pod") >= 0)
            & (col("src_pod") < n_pods)
            & (col("dst_pod") >= 0)
            & (col("dst_pod") < n_pods)
        )
        if in_dc:
            cells = in_dc.group_by("src_pod", "dst_pod").aggregate(
                p99_us=agg.percentile("rtt_us", 99)
            )
            heatmap.p99_us[cells.column("src_pod"), cells.column("dst_pod")] = (
                cells.column("p99_us")
            )
        return heatmap

    def podset_of(self, pod: int) -> int:
        return pod // self.pods_per_podset

    @property
    def n_podsets(self) -> int:
        return self.n_pods // self.pods_per_podset

    # -- colors -------------------------------------------------------------

    def color(self, src_pod: int, dst_pod: int) -> CellColor:
        value = self.p99_us[src_pod, dst_pod]
        if np.isnan(value):
            return CellColor.WHITE
        if value < GREEN_THRESHOLD_US:
            return CellColor.GREEN
        if value < YELLOW_THRESHOLD_US:
            return CellColor.YELLOW
        return CellColor.RED

    def color_matrix(self) -> list[list[CellColor]]:
        return [
            [self.color(src, dst) for dst in range(self.n_pods)]
            for src in range(self.n_pods)
        ]

    def render_ascii(self) -> str:
        """A terminal rendering: . green, o yellow, # red, (space) white."""
        glyph = {
            CellColor.GREEN: ".",
            CellColor.YELLOW: "o",
            CellColor.RED: "#",
            CellColor.WHITE: " ",
        }
        return "\n".join(
            "".join(glyph[self.color(src, dst)] for dst in range(self.n_pods))
            for src in range(self.n_pods)
        )

    # -- pattern classification ------------------------------------------------

    def classify(
        self, green_fraction_normal: float = 0.75, cross_fraction: float = 0.7
    ) -> PatternClassification:
        """Name the Figure 8 pattern this matrix shows.

        Structural patterns (crosses, diagonal squares) are checked first;
        a structureless, mostly-green matrix is NORMAL.  The green fraction
        defaults to 0.75 rather than "all green" because small per-cell
        sample counts let individual P99 cells blink yellow/red on rare
        host stalls without any network problem behind them.
        """
        colors = np.empty((self.n_pods, self.n_pods), dtype=object)
        for src in range(self.n_pods):
            for dst in range(self.n_pods):
                colors[src, dst] = self.color(src, dst)

        white_cross = self._cross_podsets(colors, CellColor.WHITE, cross_fraction)
        if white_cross:
            return PatternClassification(
                LatencyPattern.PODSET_DOWN,
                affected_podsets=white_cross,
                detail="no data from/to podset(s) — power loss?",
            )

        red_cross = self._cross_podsets(colors, CellColor.RED, cross_fraction)
        if red_cross and len(red_cross) < self.n_podsets:
            return PatternClassification(
                LatencyPattern.PODSET_FAILURE,
                affected_podsets=red_cross,
                detail="latency from/to podset(s) out of SLA — Leaf layer?",
            )

        if self._is_spine_pattern(colors):
            return PatternClassification(
                LatencyPattern.SPINE_FAILURE,
                affected_podsets=list(range(self.n_podsets)),
                detail="intra-podset green, cross-podset red — Spine layer",
            )

        total = green = 0
        for src in range(self.n_pods):
            for dst in range(self.n_pods):
                if src == dst:
                    continue
                total += 1
                if colors[src, dst] == CellColor.GREEN:
                    green += 1
        if total and green / total >= green_fraction_normal:
            return PatternClassification(LatencyPattern.NORMAL)
        return PatternClassification(LatencyPattern.UNCLASSIFIED)

    def _cross_podsets(
        self, colors: np.ndarray, color: CellColor, fraction: float
    ) -> list[int]:
        """Podsets showing a cross of ``color``.

        A podset is affected only when both its *own* block (pod pairs inside
        the podset) and its *cross* band (pairs with exactly one endpoint in
        the podset) are mostly that color.  Requiring the own block keeps a
        healthy podset from being flagged just because its neighbours across
        the cross band are down.
        """
        affected = []
        for podset in range(self.n_podsets):
            lo = podset * self.pods_per_podset
            hi = lo + self.pods_per_podset
            own: list[bool] = []
            cross: list[bool] = []
            for src in range(self.n_pods):
                for dst in range(self.n_pods):
                    if src == dst:
                        continue
                    src_in = lo <= src < hi
                    dst_in = lo <= dst < hi
                    if src_in and dst_in:
                        own.append(colors[src, dst] == color)
                    elif src_in or dst_in:
                        cross.append(colors[src, dst] == color)
            own_ok = not own or sum(own) / len(own) >= fraction
            cross_ok = bool(cross) and sum(cross) / len(cross) >= fraction
            if own_ok and cross_ok:
                affected.append(podset)
        return affected

    def _is_spine_pattern(self, colors: np.ndarray) -> bool:
        """Green intra-podset squares on a red cross-podset background."""
        intra_green = []
        cross_red = []
        for src in range(self.n_pods):
            for dst in range(self.n_pods):
                if src == dst:
                    continue
                same = self.podset_of(src) == self.podset_of(dst)
                if same:
                    intra_green.append(colors[src, dst] == CellColor.GREEN)
                else:
                    cross_red.append(
                        colors[src, dst] in (CellColor.RED, CellColor.YELLOW)
                    )
        return (
            bool(intra_green)
            and bool(cross_red)
            and sum(intra_green) / len(intra_green) >= 0.8
            and sum(cross_red) / len(cross_red) >= 0.8
        )
