"""The aggregator: fan-out, wait-for-k-of-n, merge.

Tracks every in-flight logical query and records its aggregator-level
response time once enough ISN replicas have completed, plus a fixed
network/merge overhead (the paper measures ~2 ms average of
non-compute time per query, Section 2.2).

By default the aggregator waits for *all* ``num_isns`` replicas — the
paper's Figure 8 configuration, where the slowest ISN sets the
user-visible latency.  ``wait_for_k`` enables partial-wait aggregation
(answer after the first ``k`` replicas, trading result completeness
for tail latency); replicas that report after the answer are tolerated
and counted as late.  Each completion is attributed to the responding
ISN, and a second completion from the same ISN for the same query is a
protocol violation that raises :class:`SimulationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError

__all__ = ["AggregatedQuery", "Aggregator"]


@dataclass
class AggregatedQuery:
    """In-flight bookkeeping of one logical query."""

    qid: int
    arrival_ms: float
    #: Replica completions still needed before the aggregator answers.
    pending: int
    slowest_finish_ms: float = float("-inf")
    isn_responses_ms: list[float] = field(default_factory=list)
    #: ISNs that have already responded for this query.
    seen_isns: set[int] = field(default_factory=set)


class Aggregator:
    """Collects per-ISN completions and emits aggregator latencies."""

    def __init__(
        self,
        num_isns: int,
        network_overhead_ms: float = 2.0,
        wait_for_k: int | None = None,
    ) -> None:
        if num_isns < 1:
            raise SimulationError("num_isns must be >= 1")
        if network_overhead_ms < 0:
            raise SimulationError("network_overhead_ms must be >= 0")
        if wait_for_k is None:
            wait_for_k = num_isns
        if not 1 <= wait_for_k <= num_isns:
            raise SimulationError(
                f"wait_for_k must be in [1, num_isns], got {wait_for_k}"
            )
        self.num_isns = num_isns
        self.network_overhead_ms = float(network_overhead_ms)
        self.wait_for_k = int(wait_for_k)
        self._inflight: dict[int, AggregatedQuery] = {}
        #: ISNs that responded per already-answered query (late/duplicate
        #: detection after partial-wait emission).
        self._emitted: dict[int, set[int]] = {}
        self.latencies_ms: list[float] = []
        #: Per-query list of individual ISN response times (for the
        #: aggregator-vs-ISN percentile comparison of Figure 8(b)).
        self.isn_latencies_ms: list[float] = []
        #: Per emitted query: fraction of replicas in hand at answer time.
        self.k_coverages: list[float] = []
        #: Replica completions that arrived after the answer (k < n only).
        self.late_completions = 0

    @property
    def completed(self) -> int:
        """Logical queries answered so far."""
        return len(self.latencies_ms)

    @property
    def inflight(self) -> int:
        """Logical queries still waiting for at least one ISN."""
        return len(self._inflight)

    def begin(self, qid: int, arrival_ms: float) -> None:
        """Register the fan-out of a new logical query."""
        if qid in self._inflight or qid in self._emitted:
            raise SimulationError(f"query {qid} already in flight")
        self._inflight[qid] = AggregatedQuery(
            qid=qid, arrival_ms=arrival_ms, pending=self.wait_for_k
        )

    def progress(self, qid: int) -> tuple[set[int], bool]:
        """ISNs that have responded to ``qid``, and whether it was answered.

        Valid for any query that has begun; the returned set is live
        bookkeeping and must not be mutated.
        """
        entry = self._inflight.get(qid)
        if entry is not None:
            return entry.seen_isns, False
        return self._emitted[qid], True

    def on_isn_complete(self, qid: int, finish_ms: float, isn: int) -> bool:
        """Record the completion of ISN ``isn``'s replica of ``qid``.

        Returns True when this completion reached the wait-for-k quorum
        (the aggregator responds to the user at that moment).  A second
        completion from the same ISN for the same query raises
        :class:`SimulationError` — the transport layer must deliver each
        replica's answer at most once.
        """
        if not 0 <= isn < self.num_isns:
            raise SimulationError(
                f"isn must be in [0, {self.num_isns}), got {isn}"
            )
        late = self._emitted.get(qid)
        if late is not None:
            if isn in late:
                raise SimulationError(
                    f"duplicate completion from ISN {isn} for query {qid}"
                )
            late.add(isn)
            self.late_completions += 1
            return False
        entry = self._inflight.get(qid)
        if entry is None:
            raise SimulationError(f"query {qid} is not in flight")
        if isn in entry.seen_isns:
            raise SimulationError(
                f"duplicate completion from ISN {isn} for query {qid}"
            )
        if finish_ms < entry.arrival_ms:
            raise SimulationError("completion precedes arrival")
        entry.seen_isns.add(isn)
        entry.pending -= 1
        entry.slowest_finish_ms = max(entry.slowest_finish_ms, finish_ms)
        entry.isn_responses_ms.append(finish_ms - entry.arrival_ms)
        if entry.pending > 0:
            return False
        del self._inflight[entry.qid]
        self._emitted[entry.qid] = entry.seen_isns
        latency = (
            entry.slowest_finish_ms - entry.arrival_ms + self.network_overhead_ms
        )
        self.latencies_ms.append(latency)
        self.isn_latencies_ms.extend(entry.isn_responses_ms)
        self.k_coverages.append(len(entry.seen_isns) / self.num_isns)
        return True
