"""Communicator abstraction and fault-tolerant SPMD process harness.

Two implementations of the same protocol:

* :class:`SerialComm` -- ``size == 1``; collective operations degenerate to
  identity.  This is the default communicator for every algorithm in the
  library, so nothing here forces callers to pay process-spawn costs.
* :class:`PipeComm` -- each rank is an OS process (``multiprocessing``,
  default start method) holding one duplex
  :class:`multiprocessing.connection.Connection` to every other rank.
  Collectives are implemented with the classic linear/rooted algorithms,
  which is plenty for the rank counts (2--8) exercised here.

Unlike the seed implementation, whose ``recv`` blocked indefinitely (so a
dead or hung rank deadlocked every survivor), :class:`PipeComm` now runs a
small reliable-delivery protocol with bounded waits everywhere:

* every payload is pickled and framed with a sequence number and CRC32;
* every DATA frame is acknowledged; the receiver NAKs corrupt frames and
  the sender resends (bounded by ``max_resends``), which also recovers
  silently dropped messages via an ack-timeout retransmit;
* transient ``OSError`` on a pipe operation is retried with exponential
  backoff; connection loss (EOF / broken pipe -- the OS closes a dead
  rank's pipe ends, so death is usually detected instantly) and deadline
  expiry raise :class:`~repro.parallel.faults.RankFailureError` instead
  of blocking forever;
* a rank whose function returned sends a BYE frame before its pipes
  close, so peers still finishing their last collective do not read that
  EOF as a crash;
* a :class:`~repro.parallel.faults.RankFaultInjector` can be hooked into
  the frame path to inject crash / hang / drop / bit-flip / transient
  faults for chaos testing, mirroring the disk write hook of PR 1.

On top of the strict collectives (which raise ``RankFailureError`` on any
lost peer), the ``*_degraded`` collectives implement graceful
degradation for root-coordinated algorithms: rank 0 absorbs peer
failures, keeps going with the survivors, and piggybacks the lost-rank
set on its broadcasts so every survivor converges on the same view of
the membership.  Loss of rank 0 itself is always fatal (fail loudly).

One caveat: pipe writes larger than the kernel buffer to a peer that is
*alive but not draining* can block in the OS; the ``run_spmd`` parent
deadline is the backstop that reaps such ranks.

Payloads are arbitrary picklable objects; NumPy arrays ride through
pickle protocol 5 efficiently.
"""

from __future__ import annotations

import operator
import pickle
import struct
import time
import traceback
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce as _functools_reduce
from multiprocessing import Pipe, get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Iterator, Sequence

from repro.parallel.faults import DROP, CommEvent, RankFailureError
from repro.telemetry.tracer import get_telemetry

__all__ = ["Comm", "SerialComm", "PipeComm", "RankOutcome", "run_spmd"]


class Comm:
    """Protocol for a communicator.

    Concrete subclasses provide :attr:`rank`, :attr:`size` and point-to-point
    ``send``/``recv``; the collectives below are implemented generically on
    top of those, with the linear algorithms rooted at rank 0.
    """

    rank: int
    size: int
    #: pipeline phase label, settable via :meth:`phase`; used by fault
    #: injection targeting and failure diagnostics.
    _phase: str = ""

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int) -> None:
        raise NotImplementedError

    def recv(self, source: int) -> Any:
        raise NotImplementedError

    # -- phase / failure bookkeeping -------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Label subsequent operations as belonging to pipeline ``name``."""
        previous = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = previous

    @property
    def lost_ranks(self) -> tuple[int, ...]:
        """Ranks this communicator has detected as lost (sorted)."""
        return ()

    def note_lost(self, ranks: Sequence[int],
                  reason: str = "reported by root") -> None:
        """Record peer failures learned out-of-band (e.g. from a root
        broadcast); a no-op for communicators without peers."""

    # -- collectives -----------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        # Linear barrier: everyone pings 0, then 0 pongs everyone.
        if self.size == 1:
            return
        if self.rank == 0:
            for src in range(1, self.size):
                self.recv(src)
            for dst in range(1, self.size):
                self.send(None, dst)
        else:
            self.send(None, 0)
            self.recv(0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to all ranks; returns the object."""
        if self.size == 1:
            return obj
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(obj, dst)
            return obj
        return self.recv(root)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one element of ``objs`` (length ``size``) to each rank."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(f"scatter needs exactly {self.size} items at root")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst)
            return objs[root]
        return self.recv(root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object from every rank to ``root`` (``None`` elsewhere)."""
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src)
            return out
        self.send(obj, root)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        """Gather to rank 0, then broadcast the full list."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] = operator.add,
               root: int = 0) -> Any | None:
        """Reduce objects from all ranks with ``op`` at ``root``.

        ``op`` must be associative; application order is by ascending rank.
        Returns the reduction at ``root`` and ``None`` elsewhere.
        """
        gathered = self.gather(obj, root=root)
        if gathered is None:
            return None
        return _functools_reduce(op, gathered)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Reduce with ``op`` and broadcast the result to every rank."""
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    # -- degraded collectives (root-coordinated, failure-absorbing) -------
    #
    # The defaults delegate to the strict versions, so SerialComm and any
    # custom failure-free communicator satisfy the protocol for free;
    # PipeComm overrides them with failure-absorbing implementations.

    def gather_degraded(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Like :meth:`gather`, but the root absorbs peer failures: lost
        ranks contribute ``None`` and are recorded in :attr:`lost_ranks`."""
        return self.gather(obj, root=root)

    def bcast_degraded(self, obj: Any, root: int = 0) -> Any:
        """Like :meth:`bcast`, but the root skips ranks already known lost
        and absorbs fresh send failures."""
        return self.bcast(obj, root=root)

    def allreduce_degraded(self, obj: Any,
                           op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Like :meth:`allreduce`, reduced over the *surviving* ranks.

        The broadcast payload piggybacks the root's lost-rank set, so all
        survivors leave the call agreeing on the membership.
        """
        return self.allreduce(obj, op=op)


class SerialComm(Comm):
    """Single-process communicator: all collectives are identities."""

    def __init__(self) -> None:
        self.rank = 0
        self.size = 1

    def send(self, obj: Any, dest: int) -> None:  # pragma: no cover - guarded
        raise RuntimeError("SerialComm has no peers to send to")

    def recv(self, source: int) -> Any:  # pragma: no cover - guarded
        raise RuntimeError("SerialComm has no peers to receive from")


# -- framed reliable-delivery protocol over pipes ------------------------

_DATA, _ACK, _NAK, _HB, _BYE = 1, 2, 3, 4, 5
#: frame header: kind, sequence number, CRC32 of the payload.
_FRAME = struct.Struct("<BII")

# -- pickle protocol-5 out-of-band serialisation -------------------------
#
# Large NumPy payloads dominate the wire cost of parallel encode.  Plain
# ``pickle.dumps`` copies every array into the pickle stream; protocol 5
# with a ``buffer_callback`` instead emits the array *metadata* in the
# stream and hands the raw buffers out separately, so assembly is a
# single ``b"".join`` over the original memory (zero-copy on the send
# side).  Wire layout, distinguished from a plain pickle stream by its
# first byte (pickle streams always start with 0x80):
#
#     0x05  n_buffers:u32  head_len:u32  buf_lens:u64[n_buffers]
#     pickle_head:bytes  raw_buffer_bytes...
#
# ``_loads`` copies the buffer region into one writable ``bytearray`` and
# reconstructs arrays as views into it, so the result owns its memory
# without a second per-array copy.

_OOB_MAGIC = 0x05
_OOB_HEAD = struct.Struct("<II")


def _dumps(obj: Any) -> bytes:
    buffers: list[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    if not buffers:
        return head
    try:
        raws = [b.raw() for b in buffers]
    except BufferError:
        # Non-contiguous out-of-band buffer: fall back to in-band pickle.
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    lens = struct.pack(f"<{len(raws)}Q", *(r.nbytes for r in raws))
    return b"".join(
        [bytes([_OOB_MAGIC]), _OOB_HEAD.pack(len(raws), len(head)),
         lens, head, *raws])


def _loads(data: bytes) -> Any:
    if not data or data[0] != _OOB_MAGIC:
        return pickle.loads(data)
    n_buffers, head_len = _OOB_HEAD.unpack_from(data, 1)
    off = 1 + _OOB_HEAD.size
    lens = struct.unpack_from(f"<{n_buffers}Q", data, off)
    off += 8 * n_buffers
    head = bytes(data[off : off + head_len])
    off += head_len
    # One writable copy backs every reconstructed array.
    region = bytearray(data[off:])
    view = memoryview(region)
    buffers = []
    pos = 0
    for length in lens:
        buffers.append(view[pos : pos + length])
        pos += length
    return pickle.loads(head, buffers=buffers)

#: histogram buckets for failure-detection latency (seconds).
_DETECT_BUCKETS = (0.01, 0.05, 0.25, 1.0, 2.0, 5.0, 15.0, 60.0)


class PipeComm(Comm):
    """Fault-tolerant communicator over a full mesh of duplex pipes.

    Built by :func:`run_spmd`; constructable directly (one instance per
    process or thread, plus a ``links`` dict of peer connections) for
    in-process protocol tests.

    Parameters
    ----------
    timeout:
        Default per-message deadline (seconds) for both ``recv`` and the
        acknowledgement wait in ``send``.  Expiry raises
        :class:`RankFailureError` -- the failure detector of last resort
        when pipe EOF does not surface a dead peer.
    resend_wait:
        Ack-timeout after which an unacknowledged DATA frame is
        retransmitted (recovers dropped messages).  Defaults to a quarter
        of ``timeout``, clamped to [0.05, 1.0].
    max_resends:
        Retransmission budget per message (silence- and NAK-triggered
        combined); exhausting it on NAKs marks the channel corrupt.
    transient_retries / backoff_base:
        Retry budget and initial exponential-backoff delay for transient
        ``OSError`` on pipe operations.
    fault_injector:
        Optional :class:`~repro.parallel.faults.RankFaultInjector` whose
        ``apply`` hook sees every frame transmission and receive wait.
    attempt:
        ``run_spmd`` respawn attempt number, exposed to rank functions
        and fault hooks.
    """

    def __init__(self, rank: int, size: int, links: dict[int, Any], *,
                 timeout: float = 30.0,
                 resend_wait: float | None = None,
                 max_resends: int = 3,
                 transient_retries: int = 4,
                 backoff_base: float = 0.05,
                 fault_injector=None,
                 attempt: int = 0) -> None:
        self.rank = rank
        self.size = size
        self._links = links
        self.timeout = float(timeout)
        if resend_wait is None:
            resend_wait = min(max(self.timeout / 4.0, 0.05), 1.0)
        self.resend_wait = float(resend_wait)
        self.max_resends = int(max_resends)
        self.transient_retries = int(transient_retries)
        self.backoff_base = float(backoff_base)
        self.attempt = int(attempt)
        self._injector = fault_injector
        self._send_seq = {r: 0 for r in links}
        #: last delivered DATA sequence number per source (for dedup).
        self._recv_seq = {r: 0 for r in links}
        #: in-order, already-acknowledged payloads awaiting a ``recv`` call.
        self._inbox: dict[int, list[bytes]] = {r: [] for r in links}
        #: (kind, seq) ACK/NAK verdicts read while servicing links.
        self._ctrl: dict[int, list[tuple[int, int]]] = {r: [] for r in links}
        #: consecutive resend requests per peer, reset on clean delivery.
        self._nak_sent = {r: 0 for r in links}
        #: monotonic time of the last frame (any kind) heard per peer --
        #: the failure detector measures *silence*, not message absence.
        self._last_heard = {r: 0.0 for r in links}
        self._hb_interval = self.resend_wait / 2.0
        self._last_hb = 0.0
        self._dead: dict[int, str] = {}
        #: peers that announced a clean finish (:meth:`finish`).  Their
        #: pipes then close, and that EOF is not a crash; such a peer
        #: counts as lost only if this rank still needs it.
        self._finished: set[int] = set()

    # -- failure bookkeeping ---------------------------------------------

    @property
    def lost_ranks(self) -> tuple[int, ...]:
        return tuple(sorted(self._dead))

    def note_lost(self, ranks: Sequence[int],
                  reason: str = "reported by root") -> None:
        for r in ranks:
            if r != self.rank:
                self._dead.setdefault(int(r), reason)

    def _mark_failed(self, peer: int, reason: str,
                     detect_s: float | None = None) -> RankFailureError:
        """Record a peer loss (first detection emits telemetry) and build
        the error for the caller to raise."""
        if peer not in self._dead:
            self._dead[peer] = reason
            tel = get_telemetry()
            tel.metrics.counter("comm.rank_failures").inc()
            if detect_s is not None:
                tel.metrics.histogram("comm.failure_detect_s",
                                      buckets=_DETECT_BUCKETS).observe(detect_s)
            with tel.span("comm.rank_failure", peer=peer, rank=self.rank,
                          phase=self._phase, reason=reason,
                          detect_s=round(detect_s, 6) if detect_s else 0.0):
                pass
        return RankFailureError(peer, reason, self._phase)

    def _check_alive(self, peer: int) -> None:
        if peer in self._dead:
            raise RankFailureError(peer, self._dead[peer], self._phase)
        if peer in self._finished and not self._inbox[peer]:
            raise self._mark_failed(peer, f"rank {peer} already finished")

    def finish(self) -> None:
        """Tell every live peer this rank completed cleanly.

        ``run_spmd`` calls this after the rank function returns, so peers
        still busy in their last collective do not mistake the closing
        pipes for a crash.  Best effort: a peer that is already gone is
        skipped without being recorded as lost.
        """
        frame = _FRAME.pack(_BYE, 0, 0)
        for peer, conn in self._links.items():
            if peer in self._dead:
                continue
            try:
                conn.send_bytes(frame)
            except OSError:
                pass

    # -- low-level pipe operations with transient-error retry -------------

    def _with_retries(self, peer: int, fn: Callable[[], Any], what: str,
                      t0: float) -> Any:
        delay = self.backoff_base
        for i in range(self.transient_retries + 1):
            try:
                return fn()
            except (BrokenPipeError, ConnectionResetError, EOFError) as exc:
                raise self._mark_failed(
                    peer, f"connection lost during {what}: {exc!r}",
                    time.monotonic() - t0)
            except OSError as exc:
                if i == self.transient_retries:
                    raise self._mark_failed(
                        peer, f"persistent I/O error during {what}: {exc!r}",
                        time.monotonic() - t0)
                get_telemetry().metrics.counter("comm.transient_retries").inc()
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _read_frame(self, conn: Any, peer: int,
                    t0: float) -> tuple[int, int, int, bytes]:
        buf = self._with_retries(peer, conn.recv_bytes, "recv", t0)
        if len(buf) < _FRAME.size:  # pragma: no cover - frames keep length
            return (0, 0, 0, b"")
        kind, seq, crc = _FRAME.unpack_from(buf)
        return kind, seq, crc, buf[_FRAME.size:]

    def _send_control(self, conn: Any, peer: int, kind: int, seq: int,
                      t0: float) -> None:
        frame = _FRAME.pack(kind, seq, 0)
        self._with_retries(peer, lambda: conn.send_bytes(frame), "ack", t0)

    # -- frame intake ------------------------------------------------------

    def _intake(self, conn: Any, peer: int, t0: float) -> None:
        """Read and process one frame from ``peer``.

        In-order valid DATA is acknowledged immediately and queued for
        ``recv``; duplicates are re-acknowledged (their ACK was lost);
        out-of-order or corrupt frames trigger a bounded NAK/resend cycle;
        ACK/NAK verdicts are queued for the sender side.
        """
        kind, rseq, crc, payload = self._read_frame(conn, peer, t0)
        self._last_heard[peer] = time.monotonic()
        if kind in (_ACK, _NAK):
            self._ctrl[peer].append((kind, rseq))
            return
        if kind == _BYE:
            self._finished.add(peer)
            return
        if kind != _DATA:
            return  # heartbeat (or unknown): liveness evidence only
        if rseq <= self._recv_seq[peer]:
            self._send_control(conn, peer, _ACK, rseq, t0)
            return
        expect = self._recv_seq[peer] + 1
        if rseq != expect or zlib.crc32(payload) != crc:
            get_telemetry().metrics.counter("comm.crc_errors").inc()
            self._nak_sent[peer] += 1
            if self._nak_sent[peer] > self.max_resends:
                raise self._mark_failed(
                    peer, f"message {expect} still corrupt after "
                          f"{self._nak_sent[peer]} resend requests",
                    time.monotonic() - t0)
            self._send_control(conn, peer, _NAK, expect, t0)
            return
        self._send_control(conn, peer, _ACK, rseq, t0)
        self._recv_seq[peer] = rseq
        self._nak_sent[peer] = 0
        self._inbox[peer].append(payload)

    def _service_links(self, wait_s: float, t0: float, focus: int) -> None:
        """Wait up to ``wait_s`` for traffic on any live link and process it.

        Every blocking wait in the protocol funnels through here, so a rank
        stuck in a long ``recv`` still feeds ACKs to its *other* live
        peers.  Without this, a root waiting out a dead rank's deadline in
        a linear gather would starve the remaining senders of ACKs for a
        full ``timeout`` and they would spuriously declare the root lost.
        Failures of peers other than ``focus`` are recorded, not raised.

        While waiting, a tiny heartbeat frame goes to every live peer each
        ``_hb_interval``, so peers watching *us* see liveness evidence even
        when we have nothing to say (e.g. while we absorb a dead rank's
        silence).  Peer silence therefore only accumulates across genuine
        death, hangs, and compute phases -- which is why ``timeout`` must
        exceed the longest single compute phase of the algorithm.
        """
        conns = {c: p for p, c in self._links.items()
                 if p not in self._dead and p not in self._finished}
        now = time.monotonic()
        if now - self._last_hb >= self._hb_interval:
            self._last_hb = now
            heartbeat = _FRAME.pack(_HB, 0, 0)
            for conn in conns:
                try:
                    conn.send_bytes(heartbeat)
                except OSError:
                    # The peer has exited.  Reading its link below tells a
                    # clean finish (a BYE frame before EOF) from a crash.
                    pass
        if not conns:
            if wait_s > 0:
                time.sleep(min(wait_s, 0.005))
            return
        try:
            ready = _conn_wait(list(conns), max(wait_s, 0.0))
        except OSError:  # pragma: no cover - transient wait failure
            time.sleep(min(max(wait_s, 0.0), self.backoff_base))
            return
        for conn in ready:
            peer = conns[conn]
            try:
                self._intake(conn, peer, t0)
            except RankFailureError:
                if peer == focus:
                    raise

    # -- point to point ----------------------------------------------------

    def send(self, obj: Any, dest: int, timeout: float | None = None) -> None:
        if dest == self.rank:
            raise ValueError("cannot send to self")
        self._check_alive(dest)
        conn = self._links[dest]
        self._send_seq[dest] += 1
        seq = self._send_seq[dest]
        payload = _dumps(obj)
        frame = _FRAME.pack(_DATA, seq, zlib.crc32(payload)) + payload
        t0 = time.monotonic()
        limit = self.timeout if timeout is None else timeout
        transmissions = 0
        want_send = True
        while True:
            if want_send:
                def transmit() -> None:
                    data: Any = frame
                    if self._injector is not None:
                        out = self._injector.apply(CommEvent(
                            "send", dest, self._phase, self.attempt, frame))
                        if out is DROP:
                            return
                        if out is not None:
                            data = out
                    conn.send_bytes(data)
                self._with_retries(dest, transmit, "send", t0)
                transmissions += 1
                if transmissions > 1:
                    get_telemetry().metrics.counter("comm.resends").inc()
            verdict = self._await_ack(dest, seq, limit, t0)
            if verdict == "ack":
                return
            if verdict == "nak" and transmissions > self.max_resends:
                raise self._mark_failed(
                    dest, f"message {seq} still rejected after "
                          f"{transmissions} transmissions",
                    time.monotonic() - t0)
            # Silence past the resend budget: keep waiting (a slow but
            # live peer must not be declared dead before the deadline).
            want_send = transmissions <= self.max_resends

    def _await_ack(self, dest: int, seq: int, limit: float,
                   t0: float) -> str:
        """Wait for the ACK/NAK of message ``seq`` sent to ``dest``.

        Returns ``"ack"`` / ``"nak"``, or ``"silent"`` after
        ``resend_wait`` with no verdict; raises once ``dest`` has been
        silent (no frames of any kind, heartbeats included) for ``limit``.
        """
        wait_until = time.monotonic() + self.resend_wait
        while True:
            verdict = None
            for kind, rseq in self._ctrl[dest]:
                if rseq == seq:
                    verdict = "ack" if kind == _ACK else "nak"
                    break
            # Verdicts for earlier messages are stale: drop them too.
            self._ctrl[dest] = [kn for kn in self._ctrl[dest]
                                if kn[1] > seq]
            if verdict is not None:
                return verdict
            now = time.monotonic()
            deadline = max(t0, self._last_heard[dest]) + limit
            if now >= deadline:
                raise self._mark_failed(
                    dest, f"rank {dest} silent for {now - deadline + limit:.2f}s"
                          f" awaiting acknowledgement of message {seq}",
                    now - t0)
            if now >= wait_until:
                return "silent"
            self._check_alive(dest)
            self._service_links(min(wait_until, deadline) - now, t0,
                                focus=dest)

    def recv(self, source: int, timeout: float | None = None) -> Any:
        if source == self.rank:
            raise ValueError("cannot receive from self")
        self._check_alive(source)
        t0 = time.monotonic()
        limit = self.timeout if timeout is None else timeout
        if self._injector is not None:
            self._with_retries(
                source,
                lambda: self._injector.apply(CommEvent(
                    "recv", source, self._phase, self.attempt)),
                "recv", t0)
        while True:
            if self._inbox[source]:
                return _loads(self._inbox[source].pop(0))
            self._check_alive(source)
            now = time.monotonic()
            deadline = max(t0, self._last_heard[source]) + limit
            if now >= deadline:
                raise self._mark_failed(
                    source, f"rank {source} silent for {limit:.2f}s waiting"
                            f" for message {self._recv_seq[source] + 1}",
                    now - t0)
            self._service_links(min(deadline - now, self.resend_wait), t0,
                                focus=source)

    # -- degraded collectives ----------------------------------------------

    def gather_degraded(self, obj: Any, root: int = 0) -> list[Any] | None:
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src == root or src in self._dead:
                    continue
                try:
                    out[src] = self.recv(src)
                except RankFailureError:
                    pass  # recorded in _dead; survivor keeps going
            return out
        # Root loss is fatal: there is nobody left to coordinate recovery.
        self.send(obj, root)
        return None

    def bcast_degraded(self, obj: Any, root: int = 0) -> Any:
        if self.rank == root:
            for dst in range(self.size):
                if dst == root or dst in self._dead:
                    continue
                try:
                    self.send(obj, dst)
                except RankFailureError:
                    pass
            return obj
        return self.recv(root)

    def allreduce_degraded(self, obj: Any,
                           op: Callable[[Any, Any], Any] = operator.add) -> Any:
        if self.rank == 0:
            gathered = self.gather_degraded(obj, root=0)
            values = [gathered[r] for r in range(self.size)
                      if r not in self._dead]
            value = _functools_reduce(op, values)
            self.bcast_degraded((value, self.lost_ranks), root=0)
            return value
        self.send(obj, 0)
        value, lost = self.recv(0)
        self.note_lost(lost)
        return value


@dataclass
class _RankResult:
    """Wire format a rank process reports back to the parent."""

    rank: int
    value: Any = None
    error: str | None = None
    traceback: str | None = None


@dataclass
class RankOutcome:
    """Per-rank outcome of a non-strict :func:`run_spmd` run.

    ``error`` carries ``"ExcType: message"`` and ``traceback`` the full
    formatted traceback from the rank process; ``timed_out`` is set when
    the rank produced nothing before the parent deadline (it was then
    terminated and reaped).
    """

    rank: int
    value: Any = None
    error: str | None = None
    traceback: str | None = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


def _spmd_child(rank: int, size: int, all_links: list[dict[int, Any]],
                result_conns: list[Any], fn: Callable[..., Any],
                args: tuple, kwargs: dict, comm_kwargs: dict,
                injector, attempt: int) -> None:
    # Close every inherited connection that belongs to another rank.  This
    # is what makes failure detection fast: once only the owning process
    # holds a pipe end, that process dying closes the pipe and peers see
    # EOF immediately instead of waiting out their deadline.
    for r, linkmap in enumerate(all_links):
        if r != rank:
            for conn in linkmap.values():
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
    for r, conn in enumerate(result_conns):
        if r != rank:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
    result_conn = result_conns[rank]
    comm = PipeComm(rank, size, all_links[rank], fault_injector=injector,
                    attempt=attempt, **comm_kwargs)
    try:
        value = fn(comm, *args, **kwargs)
        comm.finish()
        result_conn.send(_RankResult(rank, value=value))
    except Exception as exc:  # noqa: BLE001 - relayed to the parent
        result_conn.send(_RankResult(rank, error=f"{type(exc).__name__}: {exc}",
                                     traceback=traceback.format_exc()))
    finally:
        result_conn.close()


def _reap(procs: list, result_parents: list[Any]) -> None:
    """Terminate stragglers, reap every child, close every parent conn."""
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(2.0)
            if p.is_alive():  # pragma: no cover - terminate() suffices
                p.kill()
                p.join(5.0)
        else:
            p.join()  # reap the zombie
        try:
            p.close()
        except ValueError:  # pragma: no cover - still alive after kill
            pass
    for conn in result_parents:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def _run_attempt(fn: Callable[..., Any], nprocs: int, args: tuple,
                 kwargs: dict, timeout: float, comm_kwargs: dict,
                 faults: dict | None, attempt: int) -> list[RankOutcome]:
    ctx = get_context()
    # links[i][j]: connection rank i uses to talk to rank j.
    links: list[dict[int, Any]] = [dict() for _ in range(nprocs)]
    for i in range(nprocs):
        for j in range(i + 1, nprocs):
            a, b = Pipe(duplex=True)
            links[i][j] = a
            links[j][i] = b
    result_parents = []
    result_children = []
    for _ in range(nprocs):
        parent_conn, child_conn = Pipe(duplex=False)
        result_parents.append(parent_conn)
        result_children.append(child_conn)

    procs = []
    for rank in range(nprocs):
        p = ctx.Process(
            target=_spmd_child,
            args=(rank, nprocs, links, result_children, fn, args, kwargs,
                  comm_kwargs, (faults or {}).get(rank), attempt),
            daemon=True,
        )
        procs.append(p)
        p.start()

    if ctx.get_start_method() == "fork":
        # Drop the parent's copies of every child-side pipe end, so a rank
        # dying leaves nobody holding its connections open (EOF-based
        # failure detection).  Under spawn the fds travel lazily through
        # the resource sharer, so the parent must keep them; peers then
        # fall back to deadline-based detection.
        for linkmap in links:
            for conn in linkmap.values():
                conn.close()
        for conn in result_children:
            conn.close()

    outcomes = [RankOutcome(rank=r, timed_out=True,
                            error=f"no result within {timeout}s")
                for r in range(nprocs)]
    pending = {conn: r for r, conn in enumerate(result_parents)}
    deadline = time.monotonic() + timeout

    def deliver(conn: Any, r: int) -> None:
        try:
            res: _RankResult = conn.recv()
            outcomes[r] = RankOutcome(r, value=res.value, error=res.error,
                                      traceback=res.traceback)
        except (EOFError, OSError):
            code = procs[r].exitcode
            outcomes[r] = RankOutcome(
                r, error=f"rank process died without a result "
                         f"(exitcode {code})")

    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        sentinels = {procs[r].sentinel: r for r in pending.values()
                     if procs[r].is_alive()}
        ready = _conn_wait(list(pending) + list(sentinels),
                          timeout=remaining)
        if not ready:
            break
        for obj in ready:
            if obj in pending:
                deliver(obj, pending.pop(obj))
        for obj in ready:
            r = sentinels.get(obj)
            if r is None:
                continue
            conn = result_parents[r]
            if conn not in pending:
                continue
            # The process exited; give a just-flushed result one chance.
            procs[r].join()
            if conn.poll(0.1):
                deliver(conn, pending.pop(conn))
            else:
                code = procs[r].exitcode
                outcomes[r] = RankOutcome(
                    r, error=f"rank process died without a result "
                             f"(exitcode {code})")
                del pending[conn]

    _reap(procs, result_parents)
    return outcomes


def run_spmd(fn: Callable[..., Any], nprocs: int, *args: Any,
             timeout: float = 120.0,
             comm_timeout: float | None = None,
             faults: dict | None = None,
             max_restarts: int = 0,
             restart_backoff: float = 0.25,
             strict: bool = True,
             **kwargs: Any) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks; return all results.

    Spawns ``nprocs`` OS processes wired into a full pipe mesh, calls ``fn``
    on each with its :class:`PipeComm`, and returns the per-rank return
    values ordered by rank.  Ranks that miss the ``timeout`` deadline are
    terminated (killed if necessary) and reaped -- the harness never leaks
    live children or zombies.

    ``comm_timeout`` sets the per-message deadline of every rank's
    :class:`PipeComm` (default 30 s); ``faults`` maps rank numbers to
    :class:`~repro.parallel.faults.RankFaultInjector` instances for chaos
    testing.

    ``max_restarts`` enables respawn-and-retry for *idempotent* rank
    functions: when any rank fails, the whole mesh is torn down, the
    parent sleeps ``restart_backoff * 2**attempt`` seconds, and all ranks
    are relaunched (their comms carry the new ``attempt`` number) -- up to
    ``max_restarts`` times before the failure is reported.

    With ``strict=True`` (default) any surviving failure raises a
    ``RuntimeError`` naming the failing ranks and carrying their full
    tracebacks.  With ``strict=False`` the call never raises on rank
    failures and instead returns a list of :class:`RankOutcome`, so chaos
    tests can inspect survivors and casualties side by side.

    ``nprocs == 1`` short-circuits to an in-process call with a
    :class:`SerialComm`, which keeps tests fast and debuggable.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if nprocs == 1:
        if strict:
            return [fn(SerialComm(), *args, **kwargs)]
        try:
            return [RankOutcome(0, value=fn(SerialComm(), *args, **kwargs))]
        except Exception as exc:  # noqa: BLE001 - mirrored from child path
            return [RankOutcome(0, error=f"{type(exc).__name__}: {exc}",
                                traceback=traceback.format_exc())]

    comm_kwargs = {} if comm_timeout is None else {"timeout": comm_timeout}
    tel = get_telemetry()
    with tel.span("spmd.run", nprocs=nprocs) as sp:
        attempt = 0
        while True:
            outcomes = _run_attempt(fn, nprocs, args, kwargs, timeout,
                                    comm_kwargs, faults, attempt)
            failures = [o for o in outcomes if not o.ok]
            if not failures or attempt >= max_restarts:
                break
            tel.metrics.counter("spmd.respawns").inc()
            time.sleep(restart_backoff * (2 ** attempt))
            attempt += 1
        sp.set(attempts=attempt + 1, failed_ranks=len(failures))

    if not strict:
        return outcomes
    if failures:
        summary = "; ".join(f"rank {o.rank}: {o.error}" for o in failures)
        tracebacks = "".join(
            f"\n--- rank {o.rank} traceback ---\n{o.traceback}"
            for o in failures if o.traceback)
        raise RuntimeError(f"SPMD execution failed: {summary}{tracebacks}")
    return [o.value for o in outcomes]
