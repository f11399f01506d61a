"""Self-test of the benchmark's correctness gate on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from repro.service import ServiceClient, ServiceConfig, ServiceServer  # noqa: E402
from workloads import (  # noqa: E402
    Accounting,
    Workload,
    build_inputs,
    check_bound,
    verify_containers,
)

TINY_INGEST = Workload(
    name="tiny", kind="ingest", variable="rlus", nlat=12, nlon=24,
    config=dict(strategy="equal_width", nbits=8, error_bound=1e-3,
                adaptive=True),
    chains=2, sequences=2, rounds=2)
TINY_RESTORE = Workload(
    name="tiny-restore", kind="restore", variable="rlus", nlat=12, nlon=24,
    config=dict(strategy="equal_width", nbits=9, error_bound=1e-3),
    chains=1, sequences=1, rounds=1, restore_states=3)


def _flip(blob: bytes) -> bytes:
    """Corrupt one byte inside the last record."""
    data = bytearray(blob)
    data[-10] ^= 0xFF
    return bytes(data)


class _CorruptingClient(ServiceClient):
    """Hands out chain containers with one byte flipped."""

    def download_chain(self, chain_id: str) -> bytes:
        return _flip(super().download_chain(chain_id))


def _ingest(client, inputs, acct) -> list[str]:
    ids = inputs.chain_ids
    n_states = len(inputs.sequences[0])
    for k in range(n_states):
        for c, chain_id in enumerate(ids):
            cfg = inputs.config.to_dict() if k == 0 else None
            run.ingest_op(client, chain_id,
                          inputs.sequences[inputs.seq_of(c)][k], k, acct, cfg)
    return ids


def test_reference_holds_the_bound():
    assert check_bound(build_inputs(TINY_INGEST, seed=3, rounds=2)) == 0


def test_served_chains_match_and_a_corrupted_one_is_counted():
    inputs = build_inputs(TINY_INGEST, seed=3, rounds=2)
    acct = Accounting()
    with ServiceServer(ServiceConfig(workers=2)) as srv:
        client = ServiceClient(port=srv.port)
        ids = _ingest(client, inputs, acct)
        blobs = {cid: client.download_chain(cid) for cid in ids}
    ops = 2 * len(inputs.sequences[0])
    assert acct.as_dict() == {"attempted": ops, "done": ops, "failed": 0,
                              "refused": 0, "incorrect": 0}
    verify_containers(inputs, blobs, 3, acct)
    assert acct.incorrect == 0

    blobs[ids[1]] = _flip(blobs[ids[1]])
    verify_containers(inputs, blobs, 3, acct)
    assert acct.incorrect == 3
    assert acct.failed_frac == 3 / ops


def test_restore_of_a_corrupted_container_is_counted():
    inputs = build_inputs(TINY_RESTORE, seed=4, rounds=1)
    expected = inputs.restored[0]
    acct = Accounting()
    with ServiceServer(ServiceConfig(workers=1)) as srv:
        client = ServiceClient(port=srv.port)
        (chain_id,) = _ingest(client, inputs, acct)
        assert run.restore_op(client, chain_id, expected, 0, acct) is not None
        assert acct.bad == 0

        corrupting = _CorruptingClient(port=srv.port)
        assert run.restore_op(corrupting, chain_id, expected, 0, acct) is None
        assert acct.failed == 1

        wrong = expected[:-8] + bytes(8)
        assert run.restore_op(client, chain_id, wrong, 0, acct) is None
        assert acct.incorrect == 1
    assert acct.attempted == 3 + 3
    assert acct.bad == 2
