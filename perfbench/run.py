"""End-to-end benchmark of the compression service over HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_adaptive --seed 1 \
        --seconds 20 --trace 0

Workloads: ``ingest_adaptive``, ``ingest_refit``, ``restore`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``).  The server runs in
a child process started from ``perfbench/launcher.py``; this process
drives it with :class:`repro.service.ServiceClient` from two closed-loop
client threads.  A run does a fixed number of operations, checks every
result against a reference computed locally before the server starts, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` the run
is repeated against a server whose layers are wrapped with spans, and the
per-layer metrics are printed instead.  The exit code is non-zero if any
output is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from layers import percentile, span_metrics
    from repro.errors import QueueFullError
    from repro.service import ServiceClient
    from repro.service.jobs import FINISHED
    from workloads import (
        CLIENTS,
        WARMUP_ROUNDS,
        WORKLOADS,
        Accounting,
        build_inputs,
        check_bound,
        scaled_rounds,
        verify_containers,
    )
except ImportError as exc:  # no repro sources next to the benchmark
    sys.exit(f"error: cannot import the repro sources: {exc}")

#: fixed job-status poll interval of every client.
POLL_S = 0.01
#: untraced phases per run, each on a freshly launched server; ``setup_s``,
#: memory and ratio are medians over them.
PHASES = 3
#: 429 retries (sleeping Retry-After) before an operation counts refused.
RETRIES = 50
JOB_TIMEOUT_S = 120.0


# -- server process ----------------------------------------------------------

class ServerProcess:
    """The launcher child process and its HTTP client."""

    def __init__(self, store_dir: Path | None, trace_out: Path | None):
        cmd = [sys.executable, str(HERE / "launcher.py")]
        if store_dir is not None:
            cmd += ["--store-dir", str(store_dir)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.client = ServiceClient(port=int(line.split()[1]),
                                        timeout=JOB_TIMEOUT_S)
            self.client.health()
        except BaseException:
            self.kill()
            raise

    def cpu_seconds(self) -> float:
        """utime + stime of the server process."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> list:
        """Close stdin, wait for exit, return the spans it wrote (if any)."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        finally:
            self.proc.stdout.close()
        if self.trace_out is None:
            return []
        with open(self.trace_out, encoding="utf-8") as fh:
            return json.load(fh)["spans"]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


# -- client operations -------------------------------------------------------

class Refused(Exception):
    """Still refused with 429 after every retry."""


def _submit(fn, acct):
    for _ in range(RETRIES + 1):
        try:
            return fn()
        except QueueFullError as exc:
            acct.add(http_429=1)
            time.sleep(exc.retry_after)
    raise Refused()


def _wait(client, job_id: str) -> tuple[dict, int]:
    deadline = time.monotonic() + JOB_TIMEOUT_S
    polls = 0
    while True:
        status = client.status(job_id)
        polls += 1
        if status["state"] in FINISHED:
            return status, polls
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} did not finish")
        time.sleep(POLL_S)


def ingest_op(client, chain_id: str, state, iteration: int, acct,
              config=None) -> dict | None:
    """Upload one state and wait for its job.  Latency runs from the start
    of the upload to the job's ``finished_at`` on the same host clock."""
    acct.add(attempted=1)
    t_send = time.time()
    t0 = time.perf_counter()
    try:
        job = _submit(lambda: client.submit_compress(chain_id, state, config),
                      acct)
    except Refused:
        acct.add(refused=1)
        return None
    upload = time.perf_counter() - t0
    status, polls = _wait(client, job["id"])
    if status["state"] != "done":
        acct.add(failed=1)
        return None
    t1 = time.perf_counter()
    summary = json.loads(client.result(job["id"]))
    result_s = time.perf_counter() - t1
    expected_kind = "full" if iteration == 0 else "delta"
    if summary["iteration"] != iteration or summary["record"] != expected_kind:
        acct.add(incorrect=1)
        return None
    acct.add(done=1)
    return {"latency": status["finished_at"] - t_send, "upload": upload,
            "result": result_s, "polls": polls, "status": status,
            "nbytes": state.nbytes}


def restore_op(client, chain_id: str, expected: bytes, nbytes: int,
               acct) -> dict | None:
    """Download a chain's container, decompress it in a job and fetch the
    result; timed by the client until the last byte arrives."""
    acct.add(attempted=1)
    t0 = time.perf_counter()
    blob = client.download_chain(chain_id)
    t1 = time.perf_counter()
    try:
        job = _submit(lambda: client.submit_decompress(blob), acct)
    except Refused:
        acct.add(refused=1)
        return None
    t2 = time.perf_counter()
    status, polls = _wait(client, job["id"])
    if status["state"] != "done":
        acct.add(failed=1)
        return None
    t3 = time.perf_counter()
    result = client.result(job["id"])
    t4 = time.perf_counter()
    if result != expected:
        acct.add(incorrect=1)
        return None
    acct.add(done=1)
    return {"latency": t4 - t0, "download": t1 - t0, "upload": t2 - t1,
            "result": t4 - t3, "polls": polls, "status": status,
            "nbytes": nbytes, "container": len(blob)}


def _run_clients(work_items: list[list], fn) -> list[dict]:
    """Run one closed-loop thread per item list; re-raise any error."""
    records: list[dict] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def loop(items):
        try:
            for item in items:
                rec = fn(*item)
                if rec is not None:
                    with lock:
                        records.append(rec)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(items,))
               for items in work_items]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return records


# -- one phase: set-up, timed operations, verification ----------------------

def _split(n_chains: int) -> list[range]:
    """Chain indices per client thread."""
    return [range(i, n_chains, CLIENTS) for i in range(CLIENTS)]


def _prime(server, inputs) -> None:
    """Set-up requests: each chain's full checkpoint, or for restore the
    whole chains."""
    wl = inputs.workload
    ids = inputs.chain_ids
    cfg = inputs.config.to_dict()
    n_states = wl.restore_states if wl.kind == "restore" else 1
    acct = Accounting()
    work = [[(server.client, ids[c], inputs.sequences[inputs.seq_of(c)][k],
              k, acct, cfg if k == 0 else None)
             for k in range(n_states) for c in part]
            for part in _split(wl.chains)]
    _run_clients(work, ingest_op)
    if acct.bad:
        raise RuntimeError(f"set-up failed: {acct.as_dict()}")


def _timed(server, inputs, rounds: int, acct) -> dict:
    """Warm-up rounds, the timed closed loops, then the checks."""
    wl = inputs.workload
    ids = inputs.chain_ids
    parts = _split(wl.chains)
    if wl.kind == "ingest":
        def work(first, count):
            return [[(server.client, ids[c],
                      inputs.sequences[inputs.seq_of(c)][k], k, acct)
                     for k in range(first, first + count) for c in part]
                    for part in parts]
        fn = ingest_op
    else:
        nbytes = wl.restore_states * inputs.state_nbytes

        def work(first, count):
            return [[(server.client, ids[c],
                      inputs.restored[inputs.seq_of(c)], nbytes, acct)
                     for _ in range(count) for c in part]
                    for part in parts]
        fn = restore_op
    _run_clients(work(1, WARMUP_ROUNDS), fn)
    cpu0 = server.cpu_seconds()
    t_start = time.perf_counter()
    records = _run_clients(work(1 + WARMUP_ROUNDS, rounds), fn)
    wall = time.perf_counter() - t_start
    cpu = server.cpu_seconds() - cpu0

    n = max(len(records), 1)
    if wl.kind == "ingest":
        downloads, blobs = [], {}
        for chain_id in ids:
            t0 = time.perf_counter()
            blobs[chain_id] = server.client.download_chain(chain_id)
            downloads.append(time.perf_counter() - t0)
        verify_containers(inputs, blobs, WARMUP_ROUNDS + rounds, acct)
        stored = sum(len(b) for b in blobs.values())
        raw = wl.chains * len(inputs.sequences[0]) * inputs.state_nbytes
        grown = stored - sum(len(inputs.full_only[inputs.seq_of(c)])
                             for c in range(wl.chains))
        container_per_op = grown / (wl.chains * (WARMUP_ROUNDS + rounds))
    else:
        downloads = [r["download"] for r in records]
        stored = sum(r["container"] for r in records)
        raw = sum(r["nbytes"] for r in records)
        container_per_op = stored / n
    return {
        "records": records, "wall": wall, "cpu": cpu, "t_start": t_start,
        "downloads": downloads, "ratio": raw / stored if stored else 0.0,
        "container_per_op": container_per_op,
        "reuse": [server.client.chain_stats(cid).get("model_reuse")
                  for cid in ids],
        "rss": server.rss_peak_mb(),
    }


def run_phase(inputs, rounds: int, work_dir: Path, index: int,
              traced: bool) -> dict:
    """Launch a fresh server, prime it (timed as set-up), run the timed
    operations, verify, and stop it."""
    store = work_dir / f"store-{index}" if inputs.workload.store else None
    trace_out = work_dir / f"trace-{index}.json" if traced else None
    acct = Accounting()
    t0 = time.perf_counter()
    server = ServerProcess(store, trace_out)
    try:
        _prime(server, inputs)
        setup = time.perf_counter() - t0
        phase = _timed(server, inputs, rounds, acct)
    except BaseException:
        server.kill()
        raise
    phase.update(acct=acct, setup=setup, spans=server.stop())
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)
    return phase


# -- metrics -----------------------------------------------------------------

def _throughput(phases: list[dict]) -> float:
    """Raw state bytes per wall second over the timed parts of phases."""
    moved = sum(r["nbytes"] for p in phases for r in p["records"])
    return moved / sum(p["wall"] for p in phases)


def end_to_end(phases: list[dict]) -> dict[str, tuple[float, str]]:
    """Latency percentiles and throughput over every operation of the
    run; memory, ratio and set-up time are medians over its phases."""
    med = statistics.median
    lat = [1e3 * r["latency"] for p in phases for r in p["records"]]
    attempted = sum(p["acct"].attempted for p in phases)
    bad = sum(p["acct"].bad for p in phases)
    return {
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p90_ms": (percentile(lat, 90), "ms"),
        "throughput_mb_s": (_throughput(phases) / 1e6, "MB/s"),
        "compression_ratio": (med(p["ratio"] for p in phases), "x"),
        "server_rss_peak_mb": (med(p["rss"] for p in phases), "MB"),
        "ok_frac": (1.0 - bad / attempted if attempted else 0.0, "1"),
        "setup_s": (med(p["setup"] for p in phases), "s"),
    }


PER_LAYER_UNITS = {
    "http.upload_ms_p50": "ms", "http.download_ms_p50": "ms",
    "http.result_ms_p50": "ms", "http.polls_per_op": "count",
    "wire.unpack_s_per_op": "s", "wire.pack_s_per_op": "s",
    "wire.mb_s": "MB/s",
    "jobs.queue_wait_ms_p50": "ms", "jobs.queue_wait_ms_p90": "ms",
    "jobs.run_ms_p50": "ms", "jobs.refused": "count",
    "chains.append_ms_p50": "ms", "chains.container_ms_p50": "ms",
    "change.ratios_s_per_op": "s", "change.calls_per_op": "count",
    "fit.s_per_op": "s", "fit.calls_per_op": "count",
    "kmeans.lloyd_s_per_op": "s", "kmeans.calls_per_op": "count",
    "kmeans.sweeps_per_op": "count",
    "adaptive.reuse_hit_rate": "1", "adaptive.refits": "count",
    "encoder.encode_s_per_op": "s", "encoder.assign_self_s_per_op": "s",
    "encoder.incompressible_frac": "1",
    "metrics.iteration_stats_s_per_op": "s",
    "decoder.decode_s_per_op": "s", "decoder.calls_per_op": "count",
    "bitpack.pack_mvals_s": "Mval/s", "bitpack.unpack_mvals_s": "Mval/s",
    "bitpack.calls_per_op": "count",
    "container.append_s_per_op": "s", "container.to_bytes_s_per_op": "s",
    "container.from_bytes_s_per_op": "s", "container.bytes_per_op": "B",
    "telemetry.spans_per_op": "count", "trace.overhead_frac": "1",
    "server.cpu_util": "1", "server.cpu_s_per_op": "s",
}


def per_layer(phases: list[dict], traced: dict
              ) -> dict[str, tuple[float, str]]:
    """Span metrics from the traced phase; client- and /proc-side metrics
    from the untraced phases, which tracing cannot distort."""
    recs = [r for p in phases for r in p["records"]]
    n = max(len(recs), 1)
    statuses = [r["status"] for r in recs]
    waits = [1e3 * (s["started_at"] - s["created_at"]) for s in statuses]
    runs = [1e3 * (s["finished_at"] - s["started_at"]) for s in statuses]
    reuse = [r for r in phases[0]["reuse"] if r]
    encodes = sum(r["encodes"] for r in reuse)
    cpu = sum(p["cpu"] for p in phases)
    wall = sum(p["wall"] for p in phases)
    vals = {
        "http.upload_ms_p50": percentile([1e3 * r["upload"] for r in recs], 50),
        "http.download_ms_p50":
            percentile([1e3 * d for p in phases for d in p["downloads"]], 50),
        "http.result_ms_p50": percentile([1e3 * r["result"] for r in recs], 50),
        "http.polls_per_op": sum(r["polls"] for r in recs) / n,
        "jobs.queue_wait_ms_p50": percentile(waits, 50),
        "jobs.queue_wait_ms_p90": percentile(waits, 90),
        "jobs.run_ms_p50": percentile(runs, 50),
        "jobs.refused": sum(p["acct"].http_429 for p in phases),
        "adaptive.reuse_hit_rate":
            sum(r["reuse_hits"] for r in reuse) / encodes if encodes else 0.0,
        "adaptive.refits": sum(r["refits"] for r in reuse),
        "container.bytes_per_op": phases[0]["container_per_op"],
        "telemetry.spans_per_op":
            sum(s["progress"]["spans"] for s in statuses) / n,
        "trace.overhead_frac":
            1.0 - _throughput([traced]) / _throughput(phases),
        "server.cpu_util": cpu / wall / CLIENTS,
        "server.cpu_s_per_op": cpu / n,
    }
    vals.update(span_metrics(traced["spans"], traced["t_start"],
                             len(traced["records"])))
    return {k: (vals[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}


# -- command line ------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    rounds = scaled_rounds(wl, args.seconds)
    inputs = build_inputs(wl, args.seed, rounds)
    bound_violations = check_bound(inputs)

    work_dir = ROOT / ".perfbench_run" / f"{wl.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        phases = [run_phase(inputs, rounds, work_dir, i, traced=False)
                  for i in range(PHASES)]
        traced = (run_phase(inputs, rounds, work_dir, PHASES, traced=True)
                  if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    every = phases + ([traced] if traced else [])
    accts = [p["acct"] for p in every]
    if bound_violations:
        # Every result matched a reference that breaks the error bound.
        for a in accts:
            a.add(incorrect=a.done, done=-a.done)
    attempted = sum(a.attempted for a in accts)
    failed = sum(a.bad for a in accts)
    correct = bound_violations == 0 and all(a.incorrect == 0 for a in accts)
    metrics = per_layer(phases, traced) if args.trace else end_to_end(phases)

    for i, p in enumerate(every):
        lat = [1e3 * r["latency"] for r in p["records"]]
        print(f"{wl.name} phase {i}{' (traced)' if i == PHASES else ''}: "
              + " ".join(f"{k}={v}" for k, v in p["acct"].as_dict().items())
              + f" failed_frac={p['acct'].failed_frac:.4f}"
              f" p50={percentile(lat, 50):.1f}ms"
              f" throughput={_throughput([p]) / 1e6:.2f}MB/s"
              f" setup={p['setup']:.3f}s")
    print(f"{wl.name}: bound violations in the local reference: "
          f"{bound_violations}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
