"""The persistent run ledger: an append-only JSONL history of runs.

Everything the observability stack measures today dies with the process;
the ledger is the piece that survives (DESIGN.md §16).  One line per run,
identity-keyed: every record carries a deterministic **fingerprint** --
the hash of the graph's canonical edge set plus the execution
configuration -- so records of "the same experiment" pair up across
sessions, commits and machines without timestamps or hostnames entering
the identity.  Two sessions over the same graph/config produce
byte-identical fingerprints; only the measured numbers may differ (and on
the deterministic simulator they don't, which is what makes the trend
detector's clean-pair verdict exact).

A record captures, per run:

* the graph digest (name, ``n``, ``m``, directedness, canonical hash);
* the execution config (driver, kernel, direction, batch, devices,
  scheduler, dtypes, source-set hash);
* per-phase modeled times (setup/forward/backward/rerun, from the
  telemetry's span-stack phase attribution);
* per-bound-class modeled times (from the roofline report over the run's
  own launch records);
* peak memory, counter rollups, and -- on multi-GPU runs -- the
  link-transfer and schedule-audit digests.

Producers: :func:`repro.core.bc.turbo_bc` and
:func:`repro.core.multigpu.multi_gpu_bc` append automatically whenever the
active :func:`repro.obs.session` carries ``ledger=``; the bench runner
propagates an ambient ledger into its own sessions; the canary suite
(:mod:`repro.obs.canary`) appends one record per probe; and
:meth:`Ledger.ingest_bench` converts an existing ``BENCH_*.json`` artifact
into a lossless ``kind="bench"`` record so ``repro perf-diff
--baseline-ledger`` can gate against accumulated history.

Consumers: ``repro history`` (filter/format/tail), ``repro slo-check``
(:mod:`repro.obs.slo`), ``repro trend`` (:mod:`repro.obs.trend`) and
``repro canary``.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import pathlib

import numpy as np

LEDGER_SCHEMA = "repro.obs/ledger/v1"

#: Record kinds the ledger distinguishes (free-form strings are allowed;
#: these are the ones the shipped producers write).
RECORD_KINDS = ("bc", "multigpu", "canary", "bench")


# -- fingerprints -------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def graph_fingerprint(graph) -> str:
    """Deterministic hash of a graph's canonical structure.

    Canonical form: ``(n, directed)`` plus the sorted edge list --
    undirected edges normalised to ``(min, max)`` -- so the hash is
    invariant to edge storage order but sensitive to any structural
    change.  Cached on the graph object (the edge scan is O(m)).
    """
    cached = getattr(graph, "_repro_fingerprint", None)
    if cached is not None:
        return cached
    src = np.asarray(graph.src, dtype=np.int64)
    dst = np.asarray(graph.dst, dtype=np.int64)
    if not graph.directed:
        keep = src <= dst
        src, dst = src[keep], dst[keep]
    pairs = np.stack([src, dst], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    canon = np.ascontiguousarray(pairs[order])
    h = hashlib.sha256()
    h.update(f"n={graph.n};directed={graph.directed};".encode())
    h.update(canon.tobytes())
    digest = h.hexdigest()[:16]
    try:
        graph._repro_fingerprint = digest
    except AttributeError:
        pass  # slotted/frozen graph stand-ins just recompute
    return digest


def config_fingerprint(config: dict) -> str:
    """Hash an execution-config dict with hash-stable field ordering."""
    return _sha(
        json.dumps(config, sort_keys=True, separators=(",", ":"),
                   default=str).encode()
    )


def run_fingerprint(graph_hash: str, config: dict) -> str:
    """The record identity: graph hash x execution config."""
    return _sha(
        (graph_hash + ":" + json.dumps(config, sort_keys=True,
                                       separators=(",", ":"),
                                       default=str)).encode()
    )


def sources_fingerprint(sources) -> str:
    """Hash a resolved source list (part of the execution config)."""
    arr = np.asarray(list(sources), dtype=np.int64)
    return _sha(arr.tobytes())


# -- record construction ------------------------------------------------------


def build_run_record(
    *,
    kind: str,
    graph,
    config: dict,
    stats=None,
    phase_time_s: dict | None = None,
    counters: dict | None = None,
    audit=None,
    launches=None,
    spec=None,
    extra: dict | None = None,
) -> dict:
    """Assemble one ledger record from a finished run.

    ``launches``/``spec`` (the run's own launch slice and the device spec)
    enable the per-bound-class roofline digest; ``phase_time_s`` and
    ``counters`` are the run's *deltas* (a telemetry session can span many
    runs -- see ``RunTelemetry.ledger_mark``); ``audit`` is the run's
    :class:`~repro.obs.schedaudit.ScheduleAudit` on multi-GPU runs.  The
    record's ``fingerprint`` is computed from the graph hash and ``config``
    alone -- measured values never enter the identity.
    """
    ghash = graph_fingerprint(graph)
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "fingerprint": run_fingerprint(ghash, config),
        "graph": {
            "name": graph.name or "",
            "n": int(graph.n),
            "m": int(graph.m),
            "directed": bool(graph.directed),
            "hash": ghash,
        },
        "config": {k: config[k] for k in sorted(config)},
        "metrics": {},
    }
    metrics = record["metrics"]
    if stats is not None:
        # Wall-clock is informational only and lives OUTSIDE the metrics
        # block: everything under "metrics" is deterministic modeled data,
        # which is what lets the trend detector treat any drift as real.
        record["wall_time_s"] = float(stats.wall_time_s)
        metrics.update(
            gpu_time_s=float(stats.gpu_time_s),
            kernel_launches=int(stats.kernel_launches),
            peak_memory_bytes=int(stats.peak_memory_bytes),
            transfer_time_s=float(stats.transfer_time_s),
            max_depth=int(stats.max_depth),
        )
    if phase_time_s:
        metrics["phase_time_s"] = {
            k: float(phase_time_s[k]) for k in sorted(phase_time_s)
        }
    if counters:
        metrics["counters"] = {k: counters[k] for k in sorted(counters)}
        if counters.get("link_transfers"):
            metrics["link"] = {
                "transfers": int(counters["link_transfers"]),
                "bytes": int(counters.get("link_transfer_bytes", 0)),
            }
    if audit is not None:
        metrics["schedule"] = {
            "scheduler": audit.scheduler,
            "n_devices": audit.n_devices,
            "tasks": len(audit.tasks),
            "makespan_s": float(audit.makespan_s),
            "baseline_makespan_s": float(audit.baseline_makespan_s),
            "speedup": float(audit.speedup),
            "regret_s": float(audit.regret_s),
            "drift": float(audit.drift),
            "device_loads_s": [float(x) for x in audit.device_loads_s],
        }
    if launches is not None and spec is not None:
        from repro.obs.roofline import roofline_report

        r = roofline_report(launches, spec)
        metrics["bound_time_s"] = {
            k: float(v) for k, v in sorted(r.bound_time_s.items())
        }
        metrics["roofline_total_s"] = float(r.total_time_s)
        # In-kernel time (launch overhead excluded): the latency-budget
        # metric that tracks *kernel* slowdowns even on launch-overhead-
        # dominated small graphs, where total gpu time barely moves.
        metrics["kernel_exec_s"] = float(
            sum(launch.exec_time_s for launch in launches)
        )
    if extra:
        metrics.update(extra)
    return record


# -- the ledger file ----------------------------------------------------------


class Ledger:
    """An append-only JSONL run history at a fixed path.

    Appends are one ``json.dumps(..., sort_keys=True)`` line each --
    crash-tolerant (a torn final line is skipped on read with a warning
    count, never a parse abort), safe under concurrent writers (see
    :meth:`append`) and trivially greppable/`jq`-able.
    """

    def __init__(self, path):
        self.path = pathlib.Path(path)

    def append(self, record: dict) -> dict:
        """Append ``record`` as one line: the whole line goes out in one
        ``os.write`` on an ``O_APPEND`` descriptor under an exclusive
        ``flock``, so concurrent writers -- processes or threads -- never
        interleave their lines."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=str)
        data = memoryview((line + "\n").encode())
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            while data:  # a regular file takes it all at once; loop on a short write
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)  # releases the lock
        return record

    def records(self) -> list[dict]:
        return read_ledger(self.path)

    def ingest_bench(self, path) -> dict:
        """Convert a ``BENCH_*.json`` artifact into a ledger record.

        Lossless: the full payload (minus the schema marker) is embedded
        under ``bench_payload``, so flattening the record reproduces
        exactly the metric paths flattening the original file would --
        the property ``repro perf-diff --baseline-ledger`` relies on.
        The stamped ``meta`` block (bench name, config fingerprint, graph
        hashes -- see ``benchmarks/_helpers.write_bench_json``) is lifted
        into the record identity when present.
        """
        path = pathlib.Path(path)
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object at top level")
        payload = {k: v for k, v in doc.items() if k != "schema"}
        meta = payload.get("meta") or {}
        name = meta.get("bench") or path.stem.removeprefix("BENCH_")
        fingerprint = meta.get("config_fingerprint") or _sha(
            json.dumps({"bench": name}, sort_keys=True).encode()
        )
        record = {
            "schema": LEDGER_SCHEMA,
            "kind": "bench",
            "bench": name,
            "fingerprint": fingerprint,
            "graph_hashes": meta.get("graph_hashes") or {},
            "bench_payload": payload,
        }
        return self.append(record)


def read_ledger(path) -> list[dict]:
    """Parse a ledger file; raises ``FileNotFoundError``/``ValueError``.

    A torn (crash-truncated) *final* line is tolerated; a malformed line
    anywhere else is a corrupt ledger and raises with the line number.
    """
    path = pathlib.Path(path)
    records = []
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail from a crashed appender
            raise ValueError(
                f"{path}:{i + 1}: malformed ledger line (not JSON); the "
                "ledger is append-only JSONL -- restore from backup or "
                "delete the corrupt line"
            ) from None
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{i + 1}: ledger record is not an object")
        records.append(rec)
    return records


def filter_records(
    records,
    *,
    kind: str | None = None,
    graph: str | None = None,
    fingerprint: str | None = None,
    last: int | None = None,
) -> list[dict]:
    """Filter ledger records; ``last`` keeps the N newest after filtering."""
    out = []
    for rec in records:
        if kind is not None and rec.get("kind") != kind:
            continue
        if graph is not None and rec.get("graph", {}).get("name") != graph:
            continue
        if fingerprint is not None and not str(
            rec.get("fingerprint", "")
        ).startswith(fingerprint):
            continue
        out.append(rec)
    if last is not None:
        out = out[-last:]
    return out


def config_summary(rec: dict) -> str:
    """One-token config digest for tables: ``adaptive/b4/gpus2/cost``."""
    cfg = rec.get("config", {})
    parts = [str(cfg.get("algorithm", "?"))]
    if cfg.get("direction") not in (None, "auto"):
        parts.append(str(cfg["direction"]))
    parts.append(f"b{cfg.get('batch_size', 1)}")
    if cfg.get("n_devices", 1) and int(cfg.get("n_devices", 1)) > 1:
        parts.append(f"gpus{cfg['n_devices']}")
        if cfg.get("scheduler"):
            parts.append(str(cfg["scheduler"]))
    return "/".join(parts)


def format_history(records, *, limit: int = 40) -> str:
    """Render ledger records as an aligned table (``repro history``)."""
    lines = [
        f"{'#':>4s} {'kind':8s} {'graph':22s} {'config':24s} "
        f"{'gpu(ms)':>10s} {'launches':>9s} {'peak(MiB)':>10s} {'fingerprint':16s}"
    ]
    shown = records[-limit:]
    base = len(records) - len(shown)
    for i, rec in enumerate(shown):
        if rec.get("kind") == "bench":
            lines.append(
                f"{base + i:4d} {'bench':8s} {rec.get('bench', '-'):22s} "
                f"{'-':24s} {'-':>10s} {'-':>9s} {'-':>10s} "
                f"{rec.get('fingerprint', ''):16s}"
            )
            continue
        m = rec.get("metrics", {})
        gpu = m.get("gpu_time_s")
        peak = m.get("peak_memory_bytes")
        lines.append(
            f"{base + i:4d} {rec.get('kind', '?'):8s} "
            f"{rec.get('graph', {}).get('name', '')[:22]:22s} "
            f"{config_summary(rec):24s} "
            f"{(gpu * 1e3 if gpu is not None else float('nan')):10.3f} "
            f"{int(m.get('kernel_launches', 0)):9d} "
            f"{(peak / 2**20 if peak is not None else float('nan')):10.2f} "
            f"{rec.get('fingerprint', ''):16s}"
        )
    if base:
        lines.append(f"... {base} older record(s) not shown")
    return "\n".join(lines)
