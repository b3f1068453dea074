"""Dynamic batching: coalesce queued step requests into fused launches.

Per-request kernel launches waste the two fixed costs the paper spends
chapters minimizing: the driver's launch overhead (§2.2) and the PCIe
per-call transfer overhead (§6.3).  The batcher amortizes both by
grouping requests that arrive close together into one *fused* launch
over the concatenation of their sessions' agent vectors.

The window/size rule is the classic inference-serving one:

* launch immediately once ``max_batch`` eligible requests wait, else
* launch when the oldest eligible request has waited ``window_s``.

Two sequencing constraints shape eligibility: a session cannot appear
twice in one batch (a flock cannot step twice in one frame), and a
session with a step already in flight must wait for it (per-session
order).  Ineligible requests simply stay queued for the next batch.

With batching disabled the same machinery degenerates to
``max_batch=1, window=0`` — one launch per request — which is what the
load generator's ``--no-batching`` baseline measures against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.cupp.exceptions import CuppUsageError
from repro.serve.request import StepRequest


@dataclass
class Batch:
    """One formed batch: the requests that will share a fused launch."""

    batch_id: int
    requests: "list[StepRequest]" = field(default_factory=list)
    formed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Window/size batch former over the admission queue."""

    def __init__(
        self,
        max_batch: int = 32,
        window_s: float = 2e-3,
        enabled: bool = True,
    ) -> None:
        if max_batch <= 0:
            raise CuppUsageError(f"max_batch must be positive, got {max_batch}")
        if window_s < 0:
            raise CuppUsageError(f"window must be non-negative, got {window_s}")
        self.enabled = enabled
        self.max_batch = max_batch if enabled else 1
        self.window_s = window_s if enabled else 0.0
        self._sizes = obs.batch_size_histogram("serve")
        self._batches = None
        self._next_id = 0
        #: The eligible heads the last :meth:`ready_time` scan found (the
        #: first queued request per session, not busy, placeable), in
        #: queue order; :meth:`admit_tail` extends them without a rescan.
        self.heads: "list[StepRequest]" = []
        self._head_sessions: "set[str]" = set()
        #: Heads with ``attempts > 0`` (retries ride the next launch).
        self._retry_heads = 0
        self._busy: "set[str]" = set()
        self._placeable = None

    # ------------------------------------------------------------------
    def _eligible(
        self, queue, busy: "set[str]", placeable=None
    ) -> "list[StepRequest]":
        """Queued requests launchable now: first per session, none busy.

        ``placeable`` is an optional per-request predicate the scheduler
        supplies for device affinity — e.g. "this session's resident
        device is free".  Requests that fail it stay queued untouched.
        """
        seen: "set[str]" = set()
        out = []
        for request in queue:
            if request.session_id in busy or request.session_id in seen:
                continue
            if placeable is not None and not placeable(request):
                continue
            seen.add(request.session_id)
            out.append(request)
        return out

    def ready_time(
        self, queue, busy: "set[str]", now: float, placeable=None
    ) -> "float | None":
        """Earliest virtual time the current queue justifies a launch.

        ``None`` when nothing is eligible (empty queue, or every queued
        session already has a step in flight).  Otherwise ``now`` if the
        size trigger is met, else the oldest eligible admission plus the
        window.

        The scan's eligible requests are kept as :attr:`heads`, so later
        questions about the same queue (:meth:`ready_at`) and tail
        admissions (:meth:`admit_tail`) need no second scan.
        """
        self.heads = self._eligible(queue, busy, placeable)
        self._head_sessions = {r.session_id for r in self.heads}
        self._retry_heads = sum(1 for r in self.heads if r.attempts)
        self._busy = busy
        self._placeable = placeable
        return self.ready_at(now)

    def ready_at(self, now: float) -> "float | None":
        """The window/size rule over the held :attr:`heads` at ``now``.

        The window and batch size are read here, at query time, so a
        window change (SLO degradation) takes effect without a rescan.
        """
        heads = self.heads
        if not heads:
            return None
        if len(heads) >= self.max_batch:
            return now
        # A retried request already paid its window (and a fault) on an
        # earlier attempt — it rides the next launch immediately rather
        # than aging a second time.
        if self._retry_heads:
            return now
        return max(now, heads[0].admit_s + self.window_s)

    def admit_tail(self, request: StepRequest) -> None:
        """Fold one request just appended to the scanned queue's tail
        into :attr:`heads` in O(1), with the last scan's busy set and
        placement predicate.  Any other queue mutation needs a fresh
        :meth:`ready_time` scan instead."""
        sid = request.session_id
        if sid in self._busy or sid in self._head_sessions:
            return
        if self._placeable is not None and not self._placeable(request):
            return
        self._head_sessions.add(sid)
        self.heads.append(request)
        if request.attempts:
            self._retry_heads += 1

    def take(
        self, queue, busy: "set[str]", now: float, placeable=None
    ) -> "Batch | None":
        """Form a batch at time ``now`` (up to ``max_batch``, FIFO).

        Returns ``None`` when no eligible request is ready.  The caller
        removes the batch's requests from the queue and marks their
        sessions in flight.
        """
        eligible = self._eligible(queue, busy, placeable)
        if not eligible:
            return None
        picked = eligible[: self.max_batch]
        batch = Batch(self._next_id, picked, formed_s=now)
        self._next_id += 1
        self._sizes.observe(len(picked))
        if self._batches is None:
            self._batches = obs.counter("repro.serve.batches")
        self._batches.inc()
        return batch

    @staticmethod
    def agents_in(batch: Batch, store) -> int:
        """Total agents covered by a batch's fused launch."""
        return sum(store.get(r.session_id).n for r in batch.requests)
