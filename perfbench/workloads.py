"""Workload definitions, seeded inputs and the local correctness reference.

Each workload drives the compression service with states from the seeded
CMIP generator (:class:`repro.simulations.cmip.CmipSimulation`).  The
server only ever receives the generated arrays.  Before any server starts,
the expected container of every chain is computed locally with
``chain_to_bytes(Codec(config=cfg).compress_chain(states))`` and the
per-point error bound is checked once on that reference.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import Codec
from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.core.decoder import decode_iteration
from repro.io.container import chain_from_bytes, chain_to_bytes
from repro.service.wire import pack_arrays
from repro.simulations.cmip import CmipSimulation

__all__ = ["Workload", "WORKLOADS", "CLIENTS", "WARMUP_ROUNDS", "Inputs",
           "Accounting", "scaled_rounds", "build_inputs", "check_bound",
           "verify_containers"]


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``rounds`` is the timed work of one phase of a
    20 s run."""

    name: str
    kind: str               # "ingest" or "restore"
    variable: str
    nlat: int
    nlon: int
    config: dict[str, Any]  # NumarckConfig keyword arguments
    chains: int             # tenant chains, split evenly over the clients
    sequences: int          # distinct state sequences, chain c uses c % n
    rounds: int             # ingest: deltas per chain; restore: ops per chain
    restore_states: int = 0  # states per chain ingested during restore setup
    store: bool = False     # persist chains under the server's store_dir


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ingest_adaptive", kind="ingest", variable="rlus",
        nlat=720, nlon=1440,
        config=dict(strategy="equal_width", nbits=8, error_bound=1e-3,
                    adaptive=True),
        chains=14, sequences=2, rounds=5, store=True),
    Workload(
        name="ingest_refit", kind="ingest", variable="abs550aer",
        nlat=180, nlon=288,
        config=dict(strategy="clustering", nbits=8, error_bound=1e-3,
                    adaptive=False),
        chains=14, sequences=2, rounds=5),
    Workload(
        name="restore", kind="restore", variable="rlus",
        nlat=360, nlon=720,
        config=dict(strategy="equal_width", nbits=9, error_bound=1e-3,
                    adaptive=False),
        chains=4, sequences=4, rounds=15, restore_states=5),
)}

#: concurrent closed-loop clients (one thread each).
CLIENTS = 2
#: untimed rounds at the start of each phase.  On a 2-vCPU VM the first
#: second of two-core work after an idle stretch ran up to 2x slower; these
#: rounds absorb that instead of the first timed operations.
WARMUP_ROUNDS = 1


def scaled_rounds(wl: Workload, seconds: int) -> int:
    """Timed rounds per phase for a run of ``seconds``.  The count depends
    only on ``seconds``, so a run does fixed work; it is capped at twice
    the 20 s size to keep server memory bounded."""
    return max(1, min(2 * wl.rounds, round(wl.rounds * seconds / 20)))


def _sequence(wl: Workload, seed: int, index: int, n_states: int
              ) -> list[np.ndarray]:
    sub = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    sim = CmipSimulation(wl.variable, nlat=wl.nlat, nlon=wl.nlon, seed=sub)
    states = []
    for _ in range(n_states):
        states.append(np.ascontiguousarray(
            sim.checkpoint()[wl.variable], dtype=np.float64).ravel())
        sim.advance()
    return states


@dataclass
class Inputs:
    """Generated states and everything expected of the server."""

    workload: Workload
    config: NumarckConfig
    sequences: list[list[np.ndarray]]
    #: container bytes of each sequence's whole chain.
    containers: list[bytes]
    #: container bytes holding only each sequence's full checkpoint.
    full_only: list[bytes]
    #: restore only: wire payload of every decoded state, per sequence.
    restored: list[bytes] = field(default_factory=list)

    @property
    def chain_ids(self) -> list[str]:
        wl = self.workload
        return [f"{wl.name}-{c:02d}" for c in range(wl.chains)]

    def seq_of(self, chain: int) -> int:
        return chain % self.workload.sequences

    @property
    def state_nbytes(self) -> int:
        return self.sequences[0][0].nbytes


def build_inputs(wl: Workload, seed: int, rounds: int) -> Inputs:
    """Generate the seeded states and the local reference for them."""
    cfg = NumarckConfig(**wl.config)
    n_states = (wl.restore_states if wl.kind == "restore"
                else 1 + WARMUP_ROUNDS + rounds)
    seqs = [_sequence(wl, seed, i, n_states) for i in range(wl.sequences)]
    chains = [Codec(config=cfg).compress_chain(s) for s in seqs]
    containers = [chain_to_bytes(ch) for ch in chains]
    full_only = [chain_to_bytes(CheckpointChain(s[0], cfg)) for s in seqs]
    inputs = Inputs(wl, cfg, seqs, containers, full_only)
    if wl.kind == "restore":
        inputs.restored = [pack_arrays(chain_from_bytes(c).iter_states())
                           for c in containers]
    return inputs


def check_bound(inputs: Inputs) -> int:
    """Count points of the reference chains that break the per-point
    bound: |decoded ratio - true ratio| < E, or bit-exact."""
    eb = inputs.config.error_bound
    bad = 0
    for states, blob in zip(inputs.sequences, inputs.containers):
        chain = chain_from_bytes(blob)
        if not np.array_equal(chain.full_checkpoint, states[0]):
            bad += states[0].size
        prevs = states if inputs.config.reference == "original" \
            else list(chain.iter_states())
        for k, enc in enumerate(chain.deltas, start=1):
            prev, curr = prevs[k - 1], states[k]
            dec = decode_iteration(prev, enc).ravel()
            with np.errstate(divide="ignore", invalid="ignore"):
                err = np.abs((dec - prev) / prev - (curr - prev) / prev)
            ok = (dec == curr) | (err < eb)
            bad += int(ok.size - np.count_nonzero(ok))
    return bad


class Accounting:
    """Operation outcomes of one timed phase (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.done = 0
        self.failed = 0
        self.refused = 0
        self.incorrect = 0
        self.http_429 = 0

    def add(self, **counts: int) -> None:
        with self._lock:
            for key, value in counts.items():
                setattr(self, key, getattr(self, key) + value)

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.incorrect

    @property
    def failed_frac(self) -> float:
        return self.bad / self.attempted if self.attempted else 1.0

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in
                ("attempted", "done", "failed", "refused", "incorrect")}


def verify_containers(inputs: Inputs, blobs: dict[str, bytes],
                      ops_per_chain: int, acct: Accounting) -> None:
    """Require each downloaded chain to equal its local reference byte for
    byte.  Every timed operation of a chain that does not match counts as
    incorrect, since the mismatch cannot be pinned to one of them."""
    for c, chain_id in enumerate(inputs.chain_ids):
        if blobs.get(chain_id) != inputs.containers[inputs.seq_of(c)]:
            acct.add(incorrect=ops_per_chain)
