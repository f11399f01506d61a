"""The service chain's held file writer: one open per chain, recovery from
write errors, restarts and close."""

import numpy as np
import pytest

from repro import Codec
from repro.core.config import NumarckConfig
from repro.io.container import CheckpointFile, chain_to_bytes, load_chain
from repro.restart.faults import DiskFaultInjector
from repro.service import CompressionService, ServiceConfig
from repro.service.chains import ChainRegistry

CFG = NumarckConfig(error_bound=1e-3, nbits=8, strategy="equal_width",
                    adaptive=True, reference="reconstructed")


def _states(n_states, n=3000, seed=21):
    rng = np.random.default_rng(seed)
    states = [rng.uniform(1.0, 2.0, n)]
    for _ in range(n_states - 1):
        states.append(states[-1] * (1.0 + rng.normal(0.0, 2e-3, n)))
    return states


@pytest.fixture
def append_opens(monkeypatch):
    """Count the file opens that go through ``CheckpointFile.append``."""
    calls = []
    raw = CheckpointFile.append.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args[0])
        return raw(cls, *args, **kwargs)

    monkeypatch.setattr(CheckpointFile, "append", classmethod(counted))
    return calls


def test_appends_reuse_one_writer(tmp_path, append_opens):
    registry = ChainRegistry(CFG, store_dir=tmp_path)
    chain = registry.get_or_create("c")
    for state in _states(6):
        chain.append_state(state)
    assert len(append_opens) <= 1
    assert (tmp_path / "c.nmk").read_bytes() == chain.container_bytes()
    registry.close()


def test_transient_write_error_recovers(tmp_path, monkeypatch, append_opens):
    disk = DiskFaultInjector(error_at=(4,))
    monkeypatch.setattr(CheckpointFile, "_write",
                        lambda self, data: disk.hook(self._fh, data))
    registry = ChainRegistry(CFG, store_dir=tmp_path)
    chain = registry.get_or_create("c")
    states = _states(6)
    for state in states[:3]:
        chain.append_state(state)
    with pytest.raises(OSError):
        chain.append_state(states[3])
    # The failed state was not accepted: memory matches the file.
    assert len(chain.chain) == 3
    for state in states[3:]:
        chain.append_state(state)
    assert len(append_opens) == 1  # the reopen after the error, once
    live = chain.container_bytes()
    assert chain_to_bytes(load_chain(tmp_path / "c.nmk", CFG)) == live
    assert (tmp_path / "c.nmk").read_bytes() == live
    registry.close()


def test_restarted_registry_serves_identical_bytes(tmp_path):
    states = _states(5)
    first = ChainRegistry(CFG, store_dir=tmp_path)
    for state in states[:4]:
        first.get_or_create("c").append_state(state)
    before = first.get("c").container_bytes()
    first.close()

    second = ChainRegistry(CFG, store_dir=tmp_path)
    assert second.get("c").container_bytes() == before
    second.get("c").append_state(states[4])
    after = second.get("c").container_bytes()
    assert after == chain_to_bytes(Codec(config=CFG).compress_chain(states))
    assert (tmp_path / "c.nmk").read_bytes() == after
    second.close()


def test_service_close_closes_every_writer(tmp_path, monkeypatch):
    closed = []
    raw_close = CheckpointFile.close

    def close(self):
        closed.append(self)
        raw_close(self)

    monkeypatch.setattr(CheckpointFile, "close", close)
    service = CompressionService(ServiceConfig(workers=1, store_dir=str(tmp_path),
                                               codec=CFG)).start()
    for name in ("a", "b", "c"):
        chain = service.chains.get_or_create(name)
        for state in _states(2):
            chain.append_state(state)
    writers = [service.chains.get(name)._writer for name in ("a", "b", "c")]
    assert all(w is not None for w in writers)
    service.close()
    assert all(any(w is c for c in closed) for w in writers)
    assert all(service.chains.get(name)._writer is None
               for name in ("a", "b", "c"))
