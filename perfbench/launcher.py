"""Run the compression service in its own process for the benchmark.

Usage::

    python3 perfbench/launcher.py [--store-dir DIR] [--trace-out FILE]

Starts :class:`repro.service.ServiceServer` with 2 workers, one per CPU of
the 2-core host the benchmark is sized for, on an ephemeral port, prints
``PORT <n>`` and serves until its standard input reaches end of file.

With ``--trace-out`` it first wraps the public function of each layer at
the name its callers bind (``repro.service.app.unpack_arrays``,
``repro.core.checkpoint.encode_pair``, ``Chain.append_state``, ...).  Each
call records its name, start, end, parent span and the job it ran under;
the spans stay in memory and are written to FILE as JSON at exit.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

WORKERS = 2


def _size(args, kwargs, out):
    return {"bytes": len(args[0])}


def _out_size(args, kwargs, out):
    return {"bytes": len(out)}


def _encoded(args, kwargs, out):
    enc = out[0]
    return {"points": enc.n_points, "incompressible": enc.n_incompressible}


def _sweeps(args, kwargs, out):
    return {"sweeps": out.n_iter}


def _packed(args, kwargs, out):
    return {"values": int(args[0].size)}


def _unpacked(args, kwargs, out):
    return {"values": int(args[1])}


#: (module, attribute as its callers bind it, span name, attrs from call).
TARGETS = (
    ("repro.service.app", "unpack_arrays", "wire.unpack", _size),
    ("repro.service.app", "pack_arrays", "wire.pack", _out_size),
    ("repro.service.chains", "Chain.append_state", "chains.append", None),
    ("repro.service.chains", "Chain.container_bytes", "chains.container",
     None),
    ("repro.service.chains", "chain_to_bytes", "container.to_bytes",
     _out_size),
    ("repro.io.container", "chain_from_bytes", "container.from_bytes", _size),
    ("repro.io.container", "CheckpointFile.append", "container.open_append",
     None),
    ("repro.io.container", "CheckpointFile.write_full", "container.write_full",
     None),
    ("repro.io.container", "CheckpointFile.write_delta",
     "container.write_delta", None),
    ("repro.core.checkpoint", "encode_pair", "encoder.encode", _encoded),
    ("repro.core.adaptive", "encode_pair", "encoder.encode", _encoded),
    ("repro.core.encoder", "change_ratios", "change.ratios", None),
    ("repro.core.metrics", "change_ratios", "change.ratios", None),
    ("repro.core.checkpoint", "iteration_stats", "metrics.iteration_stats",
     None),
    ("repro.core.checkpoint", "decode_iteration", "decoder.decode", None),
    ("repro.io.container", "decode_iteration", "decoder.decode", None),
    ("repro.core.strategies.equal_width", "EqualWidthStrategy.fit", "fit",
     None),
    ("repro.core.strategies.log_scale", "LogScaleStrategy.fit", "fit", None),
    ("repro.core.strategies.clustering", "ClusteringStrategy.fit", "fit",
     None),
    ("repro.core.strategies.clustering", "kmeans1d", "kmeans.lloyd", _sweeps),
    ("repro.io.format", "pack_bits", "bitpack.pack", _packed),
    ("repro.io.format", "unpack_bits", "bitpack.unpack", _unpacked),
)


class SpanRecorder:
    """In-memory spans from wrapped calls, parented per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, out) if attrs and out is not None \
                    else {}
                self.spans.append((span_id, parent, name, t0, t1,
                                   getattr(self._local, "job", None), extra))
        return traced

    def tag_job(self, fn, job_id: str):
        def run():
            self._local.job = job_id
            try:
                return fn()
            finally:
                self._local.job = None
        return run

    def install(self) -> None:
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[leaf]
                if isinstance(raw, classmethod):
                    setattr(cls, leaf,
                            classmethod(self.wrap(raw.__func__, name, attrs)))
                else:
                    setattr(cls, leaf, self.wrap(raw, name, attrs))
            else:
                setattr(module, leaf, self.wrap(getattr(module, leaf), name,
                                                attrs))
        from repro.service.jobs import Job

        job_init = Job.__init__
        recorder = self

        def init(job, job_id, kind, fn, **kwargs):
            job_init(job, job_id, kind, recorder.tag_job(fn, job_id), **kwargs)

        Job.__init__ = init

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out:
        recorder = SpanRecorder()
        recorder.install()

    from repro.service import ServiceConfig, ServiceServer

    server = ServiceServer(ServiceConfig(workers=WORKERS,
                                         store_dir=args.store_dir))
    server.start()
    try:
        print(f"PORT {server.port}", flush=True)
        sys.stdin.read()
    finally:
        server.close()
        if recorder is not None:
            recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
