"""Per-tenant checkpoint chains behind the service.

A *chain* is the service-side name for one tenant's checkpoint sequence:
the first compress job on a chain stores its array as the full checkpoint,
every later job appends an encoded delta.  Each chain wraps one live
:class:`~repro.core.checkpoint.CheckpointChain`, so with
``adaptive=True`` in its config the fitted bin model is carried across
*jobs* exactly as it is carried across iterations in a single process --
the model hint rides on the chain, not on the request.

Chains are optionally durable.  With a ``store_dir`` every accepted
iteration is persisted through the crash-consistent container, one
fsync'd record per iteration.  Each chain holds one open
:class:`~repro.io.container.CheckpointFile` writer -- from
``CheckpointFile.create`` for the full checkpoint, or from
``CheckpointFile.append`` on the first delta after a restart -- and
writes every later delta through it, so an append costs one record
write, O(1) in chain length (the file is not re-scanned per append).
The writer stays open until :meth:`ChainRegistry.close`.  A failed write
closes and drops it and rolls the in-memory chain back to what the file
holds, so the job fails as a whole and the next append reopens the file
through ``CheckpointFile.append``, whose scan truncates any torn tail.
On startup existing files are re-opened with ``recover="tail"`` so a
torn tail from a crashed server costs the torn record, never the chain.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.errors import ChainNotFoundError, ConfigError, StateError
from repro.io.container import CheckpointFile, chain_to_bytes, load_chain
from repro.telemetry.tracer import get_telemetry

__all__ = ["Chain", "ChainRegistry"]

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _validate_id(chain_id: str) -> str:
    """Chain ids become file names; reject anything path-unsafe."""
    if not isinstance(chain_id, str) or not _ID_RE.match(chain_id):
        raise ConfigError(
            f"invalid chain id {chain_id!r}: need 1-64 chars of "
            f"[A-Za-z0-9._-] starting with an alphanumeric"
        )
    return chain_id


class Chain:
    """One tenant chain: a live ``CheckpointChain`` plus its lock, path
    and counters.  All mutation happens under :attr:`lock`, which the
    registry hands to the job closure -- two jobs on the same chain
    serialise, jobs on different chains run concurrently."""

    def __init__(self, chain_id: str, config: NumarckConfig,
                 path: Path | None) -> None:
        self.id = chain_id
        self.config = config
        self.path = path
        self.lock = threading.RLock()
        self.chain: CheckpointChain | None = None
        #: open writer on ``path`` holding every record of ``chain``, or
        #: ``None`` until the next write opens it.
        self._writer: CheckpointFile | None = None
        self.jobs_accepted = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # -- mutation (caller holds no lock; we take our own) -------------------

    def append_state(self, state: np.ndarray) -> dict[str, Any]:
        """Absorb one iteration: full checkpoint if the chain is empty,
        encoded delta otherwise.  Returns a result summary dict."""
        arr = np.asarray(state, dtype=np.float64)
        with self.lock, get_telemetry().span(
                "service.chain.append", chain=self.id,
                bytes_in=arr.nbytes) as sp:
            if self.chain is None:
                chain = CheckpointChain(arr, self.config)
                kind = "full"
                reused = False
                if self.path is not None:
                    self._write(lambda f: f.write_full(arr), create=True)
                self.chain = chain
            else:
                n_before = len(self.chain)
                self.chain.append(arr)
                encoded = self.chain.deltas[-1]
                kind = "delta"
                reused = encoded.model_reused
                if self.path is not None:
                    try:
                        self._write(lambda f: f.write_delta(encoded))
                    except BaseException:
                        # Not durable, so not accepted: keep memory in
                        # step with the file.
                        self.chain.truncate(n_before)
                        raise
            self.jobs_accepted += 1
            self.bytes_in += arr.nbytes
            sp.set(record=kind, model_reused=reused,
                   iterations=len(self.chain))
            return {"chain": self.id, "record": kind,
                    "iteration": len(self.chain) - 1,
                    "model_reused": reused}

    def _write(self, record: Callable[[CheckpointFile], None], *,
               create: bool = False) -> None:
        """Write one record through the held writer, opening it first
        when there is none.  Any failure closes and drops the writer."""
        assert self.path is not None
        try:
            if create:
                self._writer = CheckpointFile.create(self.path, sync=True)
            elif self._writer is None:
                self._writer = CheckpointFile.append(self.path)
            record(self._writer)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the held writer (the next write reopens the file)."""
        with self.lock:
            if self._writer is not None:
                writer, self._writer = self._writer, None
                writer.close()

    def container_bytes(self) -> bytes:
        """The chain as container bytes -- byte-identical to
        ``save_chain`` of the same chain."""
        with self.lock:
            if self.chain is None:
                raise StateError(f"chain {self.id!r} holds no checkpoints yet")
            return chain_to_bytes(self.chain)

    def stats(self) -> dict[str, Any]:
        with self.lock:
            n = len(self.chain) if self.chain is not None else 0
            reuse = self.chain.reuse_stats if self.chain is not None else None
            out: dict[str, Any] = {
                "id": self.id,
                "iterations": n,
                "n_points": (int(self.chain.full_checkpoint.size)
                             if self.chain is not None else 0),
                "jobs_accepted": self.jobs_accepted,
                "bytes_in": self.bytes_in,
                "config": self.config.to_dict(),
                "durable": self.path is not None,
            }
            if reuse is not None:
                out["model_reuse"] = {"encodes": reuse.encodes,
                                      "reuse_hits": reuse.reuse_hits,
                                      "refits": reuse.refits,
                                      "hit_rate": reuse.hit_rate}
            return out


class ChainRegistry:
    """Name -> :class:`Chain` map with optional on-disk recovery."""

    def __init__(self, config: NumarckConfig | None = None,
                 store_dir: str | Path | None = None) -> None:
        self.default_config = config if config is not None else NumarckConfig()
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self._chains: dict[str, Chain] = {}
        self._lock = threading.Lock()
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
            self._recover()

    def _path_for(self, chain_id: str) -> Path | None:
        if self.store_dir is None:
            return None
        return self.store_dir / f"{chain_id}.nmk"

    def _recover(self) -> None:
        """Re-open persisted chains, salvaging torn tails."""
        assert self.store_dir is not None
        for path in sorted(self.store_dir.glob("*.nmk")):
            chain_id = path.stem
            if not _ID_RE.match(chain_id):
                continue
            loaded, report = load_chain(path, self.default_config,
                                        recover="tail")
            with get_telemetry().span("service.chain.recover",
                                      chain=chain_id) as sp:
                sp.set(iterations=len(loaded),
                       records_dropped=report.records_dropped)
            chain = Chain(chain_id, self.default_config, path)
            chain.chain = loaded
            self._chains[chain_id] = chain

    # -- lookup / creation --------------------------------------------------

    def create(self, chain_id: str,
               config: NumarckConfig | None = None) -> Chain:
        """Create an empty chain; duplicate ids raise ``StateError``."""
        _validate_id(chain_id)
        cfg = config if config is not None else self.default_config
        with self._lock:
            if chain_id in self._chains:
                raise StateError(f"chain {chain_id!r} already exists")
            chain = Chain(chain_id, cfg, self._path_for(chain_id))
            self._chains[chain_id] = chain
            return chain

    def get(self, chain_id: str) -> Chain:
        with self._lock:
            chain = self._chains.get(chain_id)
        if chain is None:
            raise ChainNotFoundError(f"no such chain {chain_id!r}")
        return chain

    def get_or_create(self, chain_id: str,
                      config: NumarckConfig | None = None) -> Chain:
        """Fetch a chain, creating it on first use (the compress path)."""
        _validate_id(chain_id)
        with self._lock:
            chain = self._chains.get(chain_id)
            if chain is None:
                cfg = config if config is not None else self.default_config
                chain = Chain(chain_id, cfg, self._path_for(chain_id))
                self._chains[chain_id] = chain
            elif config is not None and config != chain.config:
                raise StateError(
                    f"chain {chain_id!r} already exists with a different "
                    f"config; omit config or use a new chain id"
                )
            return chain

    def close(self) -> None:
        """Close every chain's held writer."""
        with self._lock:
            chains = list(self._chains.values())
        for chain in chains:
            chain.close()

    def list(self) -> list[dict[str, Any]]:
        with self._lock:
            chains = list(self._chains.values())
        return [c.stats() for c in chains]

    def __len__(self) -> int:
        with self._lock:
            return len(self._chains)
