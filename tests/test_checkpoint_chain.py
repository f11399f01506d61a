"""CheckpointChain: multi-iteration encode/replay semantics."""

import numpy as np
import pytest

from repro.core import CheckpointChain, FormatError, NumarckConfig


def _trajectory(rng, n_iter=6, n=3000, step_sigma=0.002):
    data = [rng.uniform(1.0, 2.0, n)]
    for _ in range(n_iter):
        data.append(data[-1] * (1 + rng.normal(0, step_sigma, n)))
    return data


class TestBasics:
    def test_full_checkpoint_exact(self, rng):
        data = _trajectory(rng)
        chain = CheckpointChain(data[0])
        np.testing.assert_array_equal(chain.reconstruct(0), data[0])
        np.testing.assert_array_equal(chain.full_checkpoint, data[0])

    def test_length(self, rng):
        data = _trajectory(rng, n_iter=4)
        chain = CheckpointChain(data[0])
        chain.extend(data[1:])
        assert len(chain) == 5
        assert len(chain.deltas) == 4
        assert len(chain.stats) == 4

    def test_shape_mismatch_rejected(self, rng):
        chain = CheckpointChain(rng.uniform(1, 2, 10))
        with pytest.raises(FormatError):
            chain.append(rng.uniform(1, 2, 11))

    def test_reconstruct_out_of_range(self, rng):
        chain = CheckpointChain(rng.uniform(1, 2, 10))
        with pytest.raises(IndexError):
            chain.reconstruct(1)
        with pytest.raises(IndexError):
            chain.reconstruct(-1)

    def test_iter_states_matches_reconstruct(self, rng):
        data = _trajectory(rng, n_iter=3)
        chain = CheckpointChain(data[0])
        chain.extend(data[1:])
        states = list(chain.iter_states())
        assert len(states) == 4
        for i, s in enumerate(states):
            np.testing.assert_array_equal(s, chain.reconstruct(i))

    def test_full_checkpoint_isolated_from_caller(self, rng):
        d0 = rng.uniform(1, 2, 10)
        chain = CheckpointChain(d0)
        d0[:] = 0.0
        assert chain.reconstruct(0).min() > 0.0


class TestErrorBehaviour:
    def test_single_step_bounded(self, rng):
        data = _trajectory(rng, n_iter=1)
        cfg = NumarckConfig(error_bound=1e-3)
        chain = CheckpointChain(data[0], cfg)
        chain.append(data[1])
        rel = np.abs(chain.reconstruct(1) / data[1] - 1)
        # decoded = prev*(1+r'), |r'-r|<E -> rel error <= E*prev/curr ~ E.
        assert rel.max() < 1.1 * cfg.error_bound

    def test_open_loop_error_accumulates(self, rng):
        """Paper Fig. 8: error grows with distance from the full checkpoint."""
        data = _trajectory(rng, n_iter=6)
        cfg = NumarckConfig(error_bound=1e-3, strategy="equal_width")
        chain = CheckpointChain(data[0], cfg)
        chain.extend(data[1:])
        errs = [
            float(np.mean(np.abs(chain.reconstruct(i) / data[i] - 1)))
            for i in (1, 6)
        ]
        assert errs[1] > errs[0]

    def test_closed_loop_error_bounded_at_depth(self, rng):
        """The reconstructed-reference extension stops accumulation."""
        data = _trajectory(rng, n_iter=8)
        cfg = NumarckConfig(error_bound=1e-3, reference="reconstructed")
        chain = CheckpointChain(data[0], cfg)
        chain.extend(data[1:])
        rel = np.abs(chain.reconstruct(8) / data[8] - 1)
        assert rel.max() < 1.1 * cfg.error_bound

    def test_closed_loop_beats_open_loop_at_depth(self, rng):
        data = _trajectory(rng, n_iter=8)
        open_chain = CheckpointChain(data[0], NumarckConfig(reference="original"))
        closed_chain = CheckpointChain(
            data[0], NumarckConfig(reference="reconstructed")
        )
        open_chain.extend(data[1:])
        closed_chain.extend(data[1:])
        e_open = np.max(np.abs(open_chain.reconstruct() / data[-1] - 1))
        e_closed = np.max(np.abs(closed_chain.reconstruct() / data[-1] - 1))
        assert e_closed < e_open

    def test_stats_recorded_per_delta(self, rng):
        data = _trajectory(rng, n_iter=3)
        chain = CheckpointChain(data[0], NumarckConfig(error_bound=1e-3))
        stats = chain.extend(data[1:])
        assert tuple(stats) == chain.stats
        for s in stats:
            assert s.max_error < 1e-3
            assert 0.0 <= s.incompressible_ratio <= 1.0


class TestRunningReference:
    """A loaded or truncated chain replays its reference only on append."""

    @staticmethod
    def _count_decodes(monkeypatch):
        import repro.core.checkpoint as checkpoint

        calls = []
        real = checkpoint.decode_iteration

        def counting(prev, enc):
            calls.append(enc)
            return real(prev, enc)

        monkeypatch.setattr(checkpoint, "decode_iteration", counting)
        return calls

    def test_restore_decodes_each_delta_once(self, rng, monkeypatch):
        from repro.io import chain_from_bytes, chain_to_bytes

        data = _trajectory(rng, n_iter=4)
        chain = CheckpointChain(data[0], NumarckConfig(error_bound=1e-3))
        chain.extend(data[1:])
        blob = chain_to_bytes(chain)
        calls = self._count_decodes(monkeypatch)
        loaded = chain_from_bytes(blob)
        assert calls == []
        states = list(loaded.iter_states())
        assert len(calls) == 4
        for got, want in zip(states, chain.iter_states()):
            np.testing.assert_array_equal(got, want)

    def test_loaded_append_encodes_like_live_append(self, rng):
        from repro.io import chain_from_bytes, chain_to_bytes
        from repro.io.format import encode_delta_bytes

        cfg = NumarckConfig(error_bound=1e-3, reference="reconstructed")
        data = _trajectory(rng, n_iter=4)
        live = CheckpointChain(data[0], cfg)
        live.extend(data[1:4])
        loaded = chain_from_bytes(chain_to_bytes(live), cfg)
        live.append(data[4])
        loaded.append(data[4])
        assert (encode_delta_bytes(loaded.deltas[-1])
                == encode_delta_bytes(live.deltas[-1]))

    def test_truncate_replays_on_next_append(self, rng, monkeypatch):
        cfg = NumarckConfig(error_bound=1e-3, reference="reconstructed")
        data = _trajectory(rng, n_iter=4)
        chain = CheckpointChain(data[0], cfg)
        chain.extend(data[1:])
        short = CheckpointChain(data[0], cfg)
        short.extend(data[1:3])
        calls = self._count_decodes(monkeypatch)
        chain.truncate(3)
        assert calls == []
        chain.append(data[3])
        # two kept deltas replayed, then the new one applied
        assert len(calls) == 2 + 1
        short.append(data[3])
        np.testing.assert_array_equal(chain.reconstruct(), short.reconstruct())
