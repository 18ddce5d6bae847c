"""Command-line interface: ``python -m repro <command>``.

Three subcommands cover the workflows a user reaches for first:

* ``info <graph>`` -- print a suite graph's paper row and repro-scale
  structure;
* ``bc <graph>`` -- run TurboBC (one source or all) on a suite graph or a
  MatrixMarket/edge-list file and print the result + profile; ``--trace-out``
  / ``--metrics-json`` / ``--stats-json`` export the run's telemetry (see
  DESIGN.md §8);
* ``table <k>`` -- regenerate one of the paper's graph tables
  (paper-vs-measured);
* ``suite`` -- list the whole 33-graph benchmark registry;
* ``conformance`` -- differential fuzzing of every execution configuration
  against the Brandes oracle, metamorphic oracles, and the golden
  regression corpus (see DESIGN.md §9); ``--recipes edits`` fuzzes dynamic
  edit scripts through the incremental engine (DESIGN.md §14); ``--bless``
  regenerates both corpora;
* ``update`` -- apply ``--add U,V`` / ``--remove U,V`` edge edits to a graph
  and recompute BC incrementally through a ``DynamicBC`` handle, printing
  the update mode and affected/skipped source counts (see DESIGN.md §14);
* ``mem-report`` -- run TurboBC under the allocation-timeline profiler and
  render the memory report: watermark attribution (100%% of peak named),
  arena fragmentation, OOM forensics (see DESIGN.md §13);
* ``history`` -- tail/filter/ingest the persistent run ledger (DESIGN.md
  §16); ``--ingest`` converts existing ``BENCH_*.json`` artifacts into
  lossless ledger records;
* ``slo-check`` -- evaluate a declarative budget spec (TOML/JSON) against
  a ledger window; exit 1 on any breach, 2 on usage errors;
* ``canary`` -- run the pinned probe matrix against the golden corpus and
  the canary budgets; the seconds-scale health check CI runs on every push;
* ``trend`` -- drift detection over ledger windows (newest record vs its
  trailing-N baseline, bootstrap CIs); flags regressions *and* silent
  improvements.

``--log-level`` configures structured :mod:`logging` for every subcommand
(progress and diagnostics go to the log, results to stdout).  Usage and
input errors (missing files, unknown graphs, conflicting export targets, a
graph file that does not parse) exit 2 with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

logger = logging.getLogger("repro.cli")


class CLIError(Exception):
    """A user-facing usage error: printed as one line, exit status 2."""


def _configure_logging(level: str) -> None:
    """Structured key=value logging on stderr for the whole process."""
    logging.basicConfig(
        level=getattr(logging, level.upper()),
        format="ts=%(asctime)s level=%(levelname)s logger=%(name)s msg=%(message)s",
        datefmt="%Y-%m-%dT%H:%M:%S",
    )


def _load_graph(spec: str):
    """Resolve a graph argument: suite name, .mtx file, or edge list."""
    from repro.graphs import io, suite

    if spec.endswith((".mtx", ".txt", ".edges", ".el")):
        if not os.path.exists(spec):
            raise CLIError(f"graph file not found: {spec}")
        try:
            if spec.endswith(".mtx"):
                return io.read_matrix_market(spec)
            return io.read_edge_list(spec)
        except io.GraphFormatError as exc:
            raise CLIError(str(exc)) from None
    try:
        entry = suite.get(spec)
    except KeyError:
        raise CLIError(
            f"unknown graph {spec!r}: not a suite name (see `repro suite`) and "
            "not a .mtx/.txt/.edges/.el file path"
        ) from None
    return entry.build()


def _check_distinct_outputs(args, flags: dict[str, str | None]) -> None:
    """Reject two export flags aimed at the same file (silent clobbering)."""
    seen: dict[str, str] = {}
    for flag, target in flags.items():
        if target is None:
            continue
        key = os.path.realpath(target)
        if key in seen:
            raise CLIError(
                f"{flag} and {seen[key]} both write to {target!r}; "
                "export targets must be distinct files"
            )
        seen[key] = flag


def _read_ledger_arg(path):
    """Read a ledger for a consumer command; usage errors become CLIError."""
    from repro import obs

    if not os.path.exists(path):
        raise CLIError(
            f"ledger not found: {path}; produce one with `repro bc ... "
            f"--ledger {path}`, `repro canary --ledger {path}`, or "
            f"`repro history --ledger {path} --ingest BENCH_file.json`"
        )
    try:
        return obs.read_ledger(path)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def cmd_info(args) -> int:
    from repro.graphs import suite
    from repro.graphs.metrics import bfs_depth, degree_stats, scale_free_metric

    try:
        entry = suite.get(args.graph)
    except KeyError:
        raise CLIError(
            f"unknown suite graph {args.graph!r} (see `repro suite`)"
        ) from None
    p = entry.paper
    g = entry.build()
    print(f"{entry.name} (Table {entry.table}, {'directed' if entry.directed else 'undirected'}, "
          f"paper kernel: {entry.algorithm})")
    print(f"  paper:  n={p.n:,} m={p.m:,} degree={p.degree_max}/{p.degree_mean:.0f}/"
          f"{p.degree_std:.0f} d={p.depth} scf={p.scf}")
    if p.runtime_ms is not None:
        gun = "OOM" if p.gunrock_oom else f"{p.speedup_gunrock}x"
        print(f"          runtime={p.runtime_ms}ms MTEPs={p.mteps} "
              f"seq={p.speedup_sequential}x gunrock={gun} ligra={p.speedup_ligra}x")
    print(f"  repro:  n={g.n:,} m={g.m:,} degree={degree_stats(g)} "
          f"d={bfs_depth(g, entry.source)} scf={scale_free_metric(g):.1f}"
          f"{'  (full paper scale)' if entry.full_scale else ''}")
    if entry.notes:
        print(f"  notes:  {entry.notes}")
    return 0


def cmd_bc(args) -> int:
    from repro import Device, obs, turbo_bc

    _check_distinct_outputs(args, {
        "--output": args.output,
        "--trace-out": args.trace_out,
        "--metrics-json": args.metrics_json,
        "--stats-json": args.stats_json,
    })
    graph = _load_graph(args.graph)
    device = Device()
    sources = args.source if args.source is not None else None
    want_telemetry = bool(args.trace_out or args.metrics_json or args.ledger)
    tel = (
        obs.RunTelemetry(trace=bool(args.trace_out), ledger=args.ledger)
        if want_telemetry else None
    )
    if tel is not None:
        obs.activate(tel)
    mg = None
    try:
        if args.n_devices > 1:
            from repro import multi_gpu_bc

            result, mg = multi_gpu_bc(
                graph,
                n_devices=args.n_devices,
                sources=sources,
                algorithm=args.algorithm,
                forward_dtype="auto",
                batch_size=args.batch_size,
                scheduler=args.scheduler,
            )
        else:
            result = turbo_bc(
                graph,
                sources=sources,
                algorithm=args.algorithm,
                device=device,
                forward_dtype="auto",
                batch_size=args.batch_size,
                direction=args.direction,
            )
    finally:
        if tel is not None:
            if tel.tracer is not None:
                tel.tracer.finish()
            obs.deactivate()
    st = result.stats
    batched = f", batch={st.batch_size}" if st.batch_size > 1 else ""
    print(f"{st.algorithm} on {graph}: modeled {st.runtime_ms:.3f} ms, "
          f"{st.mteps():.1f} MTEPs, {st.kernel_launches} launches, "
          f"peak {st.peak_memory_bytes / 2**20:.2f} MiB{batched}")
    if mg is not None:
        a = mg.audit
        print(f"scheduler={mg.scheduler}: {len(mg.placements)} tasks on "
              f"{mg.active_devices} device(s) ({mg.idle_devices} idle), "
              f"efficiency {mg.parallel_efficiency:.2f}, "
              f"reduction {mg.reduction_time_s * 1e3:.3f} ms, "
              f"{a.speedup:.2f}x vs round-robin "
              f"(regret {a.regret_s * 1e3:.3f} ms)")
    print(f"top-{args.top} vertices by betweenness:")
    for v, score in result.top(args.top):
        print(f"  {v:10d}  {score:.4f}")
    if args.profile:
        print()
        if mg is not None:
            for d, dev in enumerate(mg.devices):
                if dev is None:
                    continue
                print(f"-- device {d} --")
                print(dev.profiler.report())
        else:
            print(device.profiler.report())
    if args.output:
        np.savetxt(args.output, result.bc)
        logger.info("bc vector written to %s", args.output)
    if args.trace_out:
        if str(args.trace_out).endswith(".jsonl"):
            obs.write_jsonl(args.trace_out, tel)
        else:
            obs.write_chrome_trace(args.trace_out, tel)
        logger.info("trace written to %s (load in ui.perfetto.dev)", args.trace_out)
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            json.dump(tel.snapshot(), fh, indent=2)
        logger.info("metrics snapshot written to %s", args.metrics_json)
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(st.to_dict(), fh, indent=2)
        logger.info("run stats written to %s", args.stats_json)
    if args.ledger:
        logger.info("run record appended to ledger %s", args.ledger)
    return 0


def _edge_pair_arg(value: str) -> tuple[int, int]:
    """argparse type for ``--add``/``--remove``: an edge as ``U,V``."""
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected an edge as U,V (two comma-separated vertex ids), "
            f"got {value!r}"
        )
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"edge endpoints must be integers, got {value!r}"
        ) from None
    if u < 0 or v < 0:
        raise argparse.ArgumentTypeError(f"edge endpoints must be >= 0, got {value!r}")
    return u, v


def cmd_update(args) -> int:
    from repro import Device, obs, turbo_bc

    _check_distinct_outputs(args, {
        "--output": args.output,
        "--trace-out": args.trace_out,
        "--metrics-json": args.metrics_json,
        "--stats-json": args.stats_json,
    })
    if not args.add and not args.remove:
        raise CLIError("nothing to do: pass at least one --add U,V or --remove U,V")
    graph = _load_graph(args.graph)
    sources = list(range(args.sources)) if args.sources is not None else None
    device = Device()
    want_telemetry = bool(args.trace_out or args.metrics_json)
    tel = obs.RunTelemetry(trace=bool(args.trace_out)) if want_telemetry else None
    if tel is not None:
        obs.activate(tel)
    try:
        handle = turbo_bc(
            graph,
            sources=sources,
            algorithm=args.algorithm,
            device=device,
            forward_dtype="auto",
            batch_size=args.batch_size,
            direction=args.direction,
            keep_state=True,
        )
        handle.churn_threshold = args.churn_threshold
        result = handle.update(edges_added=args.add or (),
                               edges_removed=args.remove or ())
    finally:
        if tel is not None:
            if tel.tracer is not None:
                tel.tracer.finish()
            obs.deactivate()
    st = result.stats
    print(f"update on {graph}: +{len(args.add or ())} -{len(args.remove or ())} "
          f"edges -> n={handle.graph.n:,} m={handle.graph.m:,}")
    print(f"mode={st.update_mode}: {st.affected_sources} affected, "
          f"{st.skipped_sources} skipped of {st.sources} sources; "
          f"modeled {st.runtime_ms:.3f} ms, {st.kernel_launches} launches")
    print(f"top-{args.top} vertices by betweenness after the update:")
    for v, score in result.top(args.top):
        print(f"  {v:10d}  {score:.4f}")
    if args.output:
        np.savetxt(args.output, result.bc)
        logger.info("updated bc vector written to %s", args.output)
    if args.trace_out:
        if str(args.trace_out).endswith(".jsonl"):
            obs.write_jsonl(args.trace_out, tel)
        else:
            obs.write_chrome_trace(args.trace_out, tel)
        logger.info("trace written to %s (load in ui.perfetto.dev)", args.trace_out)
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            json.dump(tel.snapshot(), fh, indent=2)
        logger.info("metrics snapshot written to %s", args.metrics_json)
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(st.to_dict(), fh, indent=2)
        logger.info("update stats written to %s", args.stats_json)
    return 0


def cmd_table(args) -> int:
    from repro.bench import format_comparison_table, run_bc_per_vertex
    from repro.graphs import suite

    entries = suite.table(args.k)
    rows = []
    for e in entries:
        logger.info("running %s ...", e.name)
        rows.append(run_bc_per_vertex(e))
    print(format_comparison_table(
        entries, rows, title=f"Table {args.k} (paper vs measured)"
    ))
    return 0


def cmd_conformance(args) -> int:
    from repro.conformance import (
        bless_golden,
        bless_golden_edits,
        check_golden,
        check_golden_edits,
        default_configs,
        dynamic_configs,
        filter_configs,
        run_conformance,
        run_edit_conformance,
    )
    from repro.obs import write_jsonl_records

    if args.bless:
        written = bless_golden(args.golden_dir)
        written += bless_golden_edits(
            None if args.golden_dir is None else os.path.join(args.golden_dir, "edits")
        )
        for path in written:
            print(path)
        print(f"blessed {len(written)} golden corpus files")
        return 0

    run_graphs = args.recipes in ("graphs", "all")
    run_edits = args.recipes in ("edits", "all")
    edits_golden_dir = (
        None if args.golden_dir is None else os.path.join(args.golden_dir, "edits")
    )

    reports = []
    if run_graphs:
        configs = filter_configs(default_configs(), args.config)
        if not configs:
            raise CLIError(
                f"no execution config matches {args.config!r}; "
                f"known configs: {', '.join(c.name for c in default_configs())}"
            )
        logger.info("running %d configs: %s", len(configs),
                    ", ".join(c.name for c in configs))
        golden_divs = [] if args.skip_golden else check_golden(
            configs, args.golden_dir)
        report = run_conformance(
            configs,
            seed=args.seed,
            budget=args.budget,
            time_limit_s=args.max_seconds,
            shrink=not args.no_shrink,
            progress=logger.info,
        )
        report.divergences = golden_divs + report.divergences
        reports.append(("graphs", report))
    if run_edits:
        configs = filter_configs(dynamic_configs(), args.config)
        if not configs:
            raise CLIError(
                f"no dynamic config matches {args.config!r}; "
                f"known configs: {', '.join(c.name for c in dynamic_configs())}"
            )
        logger.info("running %d dynamic configs: %s", len(configs),
                    ", ".join(c.name for c in configs))
        golden_divs = [] if args.skip_golden else check_golden_edits(
            configs, edits_golden_dir)
        report = run_edit_conformance(
            configs,
            seed=args.seed,
            budget=args.budget,
            time_limit_s=args.max_seconds,
            shrink=not args.no_shrink,
            progress=logger.info,
        )
        report.divergences = golden_divs + report.divergences
        reports.append(("edits", report))

    if args.report:
        records = []
        for label, report in reports:
            for rec in report.to_records():
                rec["recipes"] = label
                records.append(rec)
        write_jsonl_records(args.report, records)
        logger.info("conformance report written to %s", args.report)

    failed = False
    for label, report in reports:
        early = " (time limit hit)" if report.stopped_early else ""
        print(f"conformance[{label}]: {report.cases_run} fuzz cases, "
              f"{report.checks_run} checks, {len(report.configs)} configs, "
              f"seed {args.seed}, {report.elapsed_s:.1f}s{early}")
        if report.divergences:
            failed = True
            print(f"{len(report.divergences)} divergence(s):")
            for div in report.divergences:
                print(f"  [{div.kind}] {div.config} on {div.case}: {div.detail}")
                if div.counterexample is not None:
                    ce = div.counterexample
                    print(f"    counterexample: n={ce['n']} "
                          f"{'directed' if ce['directed'] else 'undirected'} "
                          f"edges={ce['edges']}")
                    if ce.get("segments") is not None:
                        print(f"    edit script: {ce['segments']}")
    if failed:
        return 1
    if run_graphs:
        print("no divergences: every config matches the Brandes oracle, "
              "all metamorphic oracles hold"
              + ("" if args.skip_golden else ", golden corpus reproduced"))
    if run_edits:
        print("no divergences: every DynamicBC update chain is bit-identical "
              "to from-scratch recomputation"
              + ("" if args.skip_golden else ", edit corpus reproduced"))
    return 0


def cmd_perf_diff(args) -> int:
    from repro.bench.baseline import flatten_metrics, load_bench_json
    from repro.obs.regress import compare_metrics, format_report
    from repro.obs.trend import baseline_from_ledger

    _check_distinct_outputs(args, {
        "--report": args.report,
        "--json": args.json_out,
    })
    if args.baseline_ledger and args.old:
        raise CLIError(
            "pass either a baseline bench file or --baseline-ledger, not both"
        )
    if not args.baseline_ledger and not args.old:
        raise CLIError(
            "missing baseline: pass a bench/BENCH_*.json file or "
            "--baseline-ledger ledger.jsonl"
        )
    if not os.path.exists(args.new):
        raise CLIError(f"bench file not found: {args.new}")
    if args.baseline_ledger:
        records = _read_ledger_arg(args.baseline_ledger)
        old = baseline_from_ledger(
            records, name=args.baseline_bench, window=args.baseline_window
        )
        if not old:
            named = (
                f" named {args.baseline_bench!r}" if args.baseline_bench else ""
            )
            raise CLIError(
                f"{args.baseline_ledger} holds no kind=\"bench\" "
                f"records{named}; ingest bench artifacts with "
                f"`repro history --ledger {args.baseline_ledger} "
                f"--ingest BENCH_file.json`"
            )
        old_name = f"{args.baseline_ledger} (ledger baseline)"
    else:
        if not os.path.exists(args.old):
            raise CLIError(f"bench file not found: {args.old}")
        try:
            old = flatten_metrics(load_bench_json(args.old))
        except (ValueError, json.JSONDecodeError) as exc:
            raise CLIError(f"could not parse bench JSON: {exc}") from None
        old_name = args.old
    try:
        new = flatten_metrics(load_bench_json(args.new))
    except (ValueError, json.JSONDecodeError) as exc:
        raise CLIError(f"could not parse bench JSON: {exc}") from None
    if not set(old) & set(new):
        raise CLIError(
            f"{old_name} and {args.new} share no numeric metrics; "
            "are these the same kind of bench file?"
        )
    report = compare_metrics(
        old, new,
        noise_floor=args.noise_floor,
        confidence=args.confidence,
        n_boot=args.bootstrap,
        seed=args.seed,
    )
    text = format_report(report, old_name=old_name, new_name=args.new)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
        logger.info("perf-diff report written to %s", args.report)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        logger.info("perf-diff verdict written to %s", args.json_out)
    return 0 if report.passed else 1


def cmd_perf_report(args) -> int:
    from repro import Device, obs, turbo_bc

    _check_distinct_outputs(args, {
        "--out": args.out,
        "--json": args.json_out,
    })
    graph = _load_graph(args.graph)
    sources = list(range(args.sources)) if args.sources is not None else None
    device = Device()

    class _MemoryLedger:
        """List-backed ledger stand-in: captures this run's record(s)."""

        def __init__(self):
            self.records = []

        def append(self, rec):
            self.records.append(rec)
            return rec

    mem_ledger = _MemoryLedger() if args.budgets else None
    with obs.session(trace=True, audit_dispatch=not args.no_audit,
                     ledger=mem_ledger) as tel:
        if args.n_devices > 1:
            from types import SimpleNamespace

            from repro import multi_gpu_bc

            _, mg = multi_gpu_bc(
                graph,
                n_devices=args.n_devices,
                sources=sources,
                algorithm=args.algorithm,
                forward_dtype="auto",
                batch_size=args.batch_size,
                scheduler=args.scheduler,
            )
            # The report reads .profiler.launches / .spec; merge the active
            # devices' launch streams (includes each link_transfer) so the
            # roofline sees the whole fleet.
            launches = [ln for dev in mg.devices if dev is not None
                        for ln in dev.profiler.launches]
            device = SimpleNamespace(
                profiler=SimpleNamespace(launches=launches), spec=device.spec
            )
        else:
            turbo_bc(
                graph,
                sources=sources,
                algorithm=args.algorithm,
                device=device,
                forward_dtype="auto",
                batch_size=args.batch_size,
                direction=args.direction,
            )
    title = f"perf-report: {args.graph} ({args.algorithm or 'auto'})"
    text = obs.perf_report_for_run(device, tel, title=title)
    slo = None
    if args.budgets:
        try:
            budgets = obs.load_budget_spec(args.budgets)
        except obs.BudgetSpecError as exc:
            raise CLIError(str(exc)) from None
        slo = obs.evaluate_budgets(budgets, mem_ledger.records)
        text += "\n" + obs.format_slo_report(
            slo, title=f"Budgets ({args.budgets})"
        )
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        logger.info("perf report written to %s", args.out)
    if args.json_out:
        from repro.obs.audit import audit_dispatch, launch_drift
        from repro.obs.roofline import roofline_report

        doc = {
            "schema": "repro.obs/perf-report/v1",
            "roofline": roofline_report(
                device.profiler.launches, device.spec
            ).to_dict(),
            "dispatch_audit": audit_dispatch(tel.dispatch_decisions).to_dict(),
            "drift": [
                {"name": d.name, "tag": d.tag, "time_s": d.time_s,
                 "roofline_s": d.roofline_s, "drift": d.drift}
                for d in launch_drift(device.profiler.launches)[:20]
            ],
        }
        if slo is not None:
            doc["slo"] = slo.to_dict()
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2)
        logger.info("perf report JSON written to %s", args.json_out)
    return 1 if slo is not None and not slo.passed else 0


def cmd_history(args) -> int:
    from repro import obs

    if args.ingest:
        ledger = obs.Ledger(args.ledger)
        for path in args.ingest:
            if not os.path.exists(path):
                raise CLIError(f"bench file not found: {path}")
            try:
                rec = ledger.ingest_bench(path)
            except (ValueError, json.JSONDecodeError) as exc:
                raise CLIError(f"could not ingest {path}: {exc}") from None
            logger.info("ingested %s as bench record %s (fingerprint %s)",
                        path, rec["bench"], rec["fingerprint"])
        print(f"ingested {len(args.ingest)} bench file(s) into {args.ledger}")
    records = _read_ledger_arg(args.ledger)
    total = len(records)
    records = obs.filter_records(
        records, kind=args.kind, graph=args.graph,
        fingerprint=args.fingerprint, last=args.last,
    )
    if not records:
        print(f"no matching records ({total} total in {args.ledger})")
        return 0
    if args.format == "jsonl":
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    else:
        print(obs.format_history(records, limit=args.last or 40))
    return 0


def cmd_slo_check(args) -> int:
    from repro import obs

    records = _read_ledger_arg(args.ledger)
    if args.last is not None:
        records = records[-args.last:]
    if not records:
        raise CLIError(
            f"ledger {args.ledger} holds no records in the evaluation "
            f"window; append runs first (`repro bc ... --ledger`, "
            f"`repro canary --ledger`)"
        )
    try:
        budgets = obs.load_budget_spec(args.budgets)
    except obs.BudgetSpecError as exc:
        raise CLIError(str(exc)) from None
    report = obs.evaluate_budgets(budgets, records)
    text = obs.format_slo_report(
        report, title=f"slo-check: {args.budgets} over {args.ledger}"
    )
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        logger.info("slo verdicts written to %s", args.json_out)
    return 0 if report.passed else 1


def cmd_canary(args) -> int:
    from repro import obs

    try:
        run = obs.run_canary(seed=args.seed, golden_directory=args.golden_dir)
    except FileNotFoundError as exc:
        raise CLIError(str(exc)) from None
    if args.ledger:
        ledger = obs.Ledger(args.ledger)
        for rec in run.records:
            ledger.append(rec)
        logger.info("%d probe records appended to %s",
                    len(run.records), args.ledger)
    if args.bless_budgets:
        if run.golden_failures:
            bad = ", ".join(r.probe.id for r in run.golden_failures)
            print(f"refusing to bless budgets: {len(run.golden_failures)} "
                  f"golden failure(s): {bad}")
            return 1
        path = obs.bless_canary_budgets(run, path=args.budgets)
        print(f"blessed {3 * len(run.results)} budgets for "
              f"{len(run.results)} probes -> {path} (review the diff!)")
        return 0
    try:
        slo = obs.check_canary_budgets(run, path=args.budgets)
    except obs.BudgetSpecError as exc:
        raise CLIError(
            f"{exc} (regenerate with `repro canary --bless-budgets`)"
        ) from None
    text = obs.render_canary_report(run, slo)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
        logger.info("canary report written to %s", args.report)
    return 1 if run.golden_failures or slo.breaches else 0


def cmd_trend(args) -> int:
    from repro import obs

    if args.window < 1:
        raise CLIError(f"--window must be >= 1, got {args.window}")
    records = _read_ledger_arg(args.ledger)
    if args.last is not None:
        records = records[-args.last:]
    if not records:
        raise CLIError(
            f"ledger {args.ledger} holds no records in the analysis window; "
            f"append runs first (`repro bc ... --ledger`, `repro canary "
            f"--ledger`)"
        )
    trend = obs.trend_report(
        records, window=args.window,
        noise_floor=args.noise_floor, confidence=args.confidence,
    )
    text = obs.format_trend_report(trend)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
        logger.info("trend report written to %s", args.report)
    return 0 if trend.passed else 1


def cmd_mem_report(args) -> int:
    from repro import Device, obs, turbo_bc
    from repro.core.bc import select_algorithm
    from repro.core.context import ALGORITHMS
    from repro.gpusim.errors import DeviceOutOfMemoryError

    _check_distinct_outputs(args, {
        "--out": args.out,
        "--json": args.json_out,
        "--jsonl": args.jsonl_out,
    })
    graph = _load_graph(args.graph)
    sources = list(range(args.sources)) if args.sources is not None else None
    alg_name = args.algorithm or select_algorithm(graph).name
    fmt = ALGORITHMS[alg_name][0]
    device = Device()
    oom = None
    with obs.session(trace=True, memtrace=True) as tel:
        try:
            turbo_bc(
                graph,
                sources=sources,
                algorithm=alg_name,
                device=device,
                forward_dtype="auto",
                batch_size=args.batch_size,
                direction=args.direction,
            )
        except DeviceOutOfMemoryError as exc:
            oom = exc  # the report still renders: OOM forensics are the point
    batch = args.batch_size if isinstance(args.batch_size, int) else 1
    title = f"mem-report: {args.graph} ({alg_name})"
    report = obs.build_mem_report(
        tel, device=device, graph=graph, fmt=fmt, batch=batch, title=title
    )
    text = obs.render_mem_report(report)
    if oom is not None:
        text += "\n## Failure forensics\n\n```\n" + oom.forensics() + "\n```\n"
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        logger.info("mem report written to %s", args.out)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        logger.info("mem report JSON written to %s", args.json_out)
    if args.jsonl_out:
        obs.write_jsonl_records(args.jsonl_out, obs.mem_report_records(report))
        logger.info("mem report JSONL written to %s", args.jsonl_out)
    return 1 if oom is not None else 0


def cmd_suite(args) -> int:
    from repro.graphs import suite

    print(f"{'graph':20s} {'tbl':>3s} {'dir':>3s} {'kernel':>7s} "
          f"{'paper n':>12s} {'paper m':>14s} {'d':>5s} {'scale':>6s}")
    for entry in suite.SUITE.values():
        p = entry.paper
        scale = "full" if entry.full_scale else "scaled"
        print(
            f"{entry.name:20s} {entry.table:3d} {'D' if entry.directed else 'U':>3s} "
            f"{entry.algorithm:>7s} {p.n:12,d} {p.m:14,d} {p.depth:5d} {scale:>6s}"
        )
    print(f"\n{len(suite.SUITE)} graphs; 'scaled' rows use laptop-size stand-ins "
          "(memory experiments always run the paper-scale arithmetic)")
    return 0


def _batch_size_arg(value: str):
    """argparse type for ``--batch-size``: positive int or the string 'auto'."""
    if value == "auto":
        return value
    try:
        b = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"batch size must be a positive integer or 'auto', got {value!r}"
        ) from None
    if b < 1:
        raise argparse.ArgumentTypeError(f"batch size must be >= 1, got {b}")
    return b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="structured-logging threshold (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a benchmark-suite graph")
    p_info.add_argument("graph")
    p_info.set_defaults(func=cmd_info)

    p_bc = sub.add_parser("bc", help="run TurboBC on a graph")
    p_bc.add_argument("graph", help="suite name, .mtx file, or edge-list file")
    p_bc.add_argument("--source", type=int, default=None,
                      help="single BFS source (default: exact BC, all sources)")
    p_bc.add_argument("--algorithm",
                      choices=("sccooc", "sccsc", "veccsc", "pullcsc",
                               "tcspmm", "adaptive"),
                      default=None,
                      help="pin the kernel, or 'adaptive' for per-level "
                           "dispatch (default: static auto by scf)")
    p_bc.add_argument("--direction", choices=("auto", "push", "pull"),
                      default="auto",
                      help="constrain adaptive dispatch to top-down (push) "
                           "or bottom-up (pull) kernels (default: auto)")
    p_bc.add_argument("--batch-size", type=_batch_size_arg, default=1,
                      metavar="B|auto",
                      help="sources per SpMM batch: a positive int, or 'auto' "
                           "to size from device memory (default: 1)")
    p_bc.add_argument("--n-devices", type=int, default=1, metavar="K",
                      help="partition sources over K simulated GPUs "
                           "(default: 1, single device)")
    p_bc.add_argument("--scheduler", choices=("cost", "roundrobin"),
                      default="cost",
                      help="multi-GPU task placement: cost-model list "
                           "scheduler, or the static round-robin deal "
                           "(default: cost; only with --n-devices > 1)")
    p_bc.add_argument("--top", type=int, default=10)
    p_bc.add_argument("--profile", action="store_true", help="print the kernel profile")
    p_bc.add_argument("--output", help="write the bc vector to a file")
    p_bc.add_argument("--trace-out", metavar="FILE",
                      help="write the run's span trace: Chrome-trace JSON "
                           "(open in ui.perfetto.dev), or JSONL if FILE ends "
                           "in .jsonl")
    p_bc.add_argument("--metrics-json", metavar="FILE",
                      help="write the run's metrics snapshot (kernel-launch "
                           "counts, frontier histogram, per-kernel GLT, "
                           "peak memory) as JSON")
    p_bc.add_argument("--stats-json", metavar="FILE",
                      help="write the BCRunStats summary as JSON")
    p_bc.add_argument("--ledger", metavar="FILE",
                      help="append this run's identity-keyed record to the "
                           "JSONL run ledger (see `repro history`)")
    p_bc.set_defaults(func=cmd_bc)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("k", type=int, choices=(1, 2, 3, 4))
    p_table.set_defaults(func=cmd_table)

    p_suite = sub.add_parser("suite", help="list the benchmark-graph registry")
    p_suite.set_defaults(func=cmd_suite)

    p_diff = sub.add_parser(
        "perf-diff",
        help="statistical perf comparison of two bench JSON files",
    )
    p_diff.add_argument("old", nargs="?", default=None,
                        help="baseline bench/BENCH_*.json file (omit when "
                             "gating against --baseline-ledger)")
    p_diff.add_argument("new", help="candidate bench/BENCH_*.json file")
    p_diff.add_argument("--baseline-ledger", metavar="FILE",
                        help="take the baseline from a run ledger's ingested "
                             "bench records instead of a paired old-commit "
                             "bench file (see `repro history --ingest`)")
    p_diff.add_argument("--baseline-bench", metavar="NAME",
                        help="only use ledger bench records with this bench "
                             "name (default: all)")
    p_diff.add_argument("--baseline-window", type=int, default=None,
                        metavar="N",
                        help="only use the trailing N matching ledger bench "
                             "records (default: all)")
    p_diff.add_argument("--noise-floor", type=float, default=0.05,
                        metavar="FRAC",
                        help="ratio band treated as noise (default: 0.05 "
                             "= 5%%)")
    p_diff.add_argument("--confidence", type=float, default=0.95,
                        help="bootstrap CI level (default: 0.95)")
    p_diff.add_argument("--bootstrap", type=int, default=1000,
                        help="bootstrap resamples (default: 1000)")
    p_diff.add_argument("--seed", type=int, default=0,
                        help="bootstrap RNG seed (default: 0)")
    p_diff.add_argument("--report", metavar="FILE",
                        help="also write the markdown report to FILE")
    p_diff.add_argument("--json", dest="json_out", metavar="FILE",
                        help="write the machine-readable verdict as JSON")
    p_diff.set_defaults(func=cmd_perf_diff)

    p_perf = sub.add_parser(
        "perf-report",
        help="run TurboBC and render roofline/dispatch/drift attribution",
    )
    p_perf.add_argument("graph", help="suite name, .mtx file, or edge-list file")
    p_perf.add_argument("--sources", type=int, default=None, metavar="N",
                        help="run the first N vertices as sources "
                             "(default: exact BC, all sources)")
    p_perf.add_argument("--algorithm",
                        choices=("sccooc", "sccsc", "veccsc", "pullcsc",
                                 "tcspmm", "adaptive"),
                        default="adaptive",
                        help="kernel mode (default: adaptive, which enables "
                             "the dispatch-regret section)")
    p_perf.add_argument("--direction", choices=("auto", "push", "pull"),
                        default="auto",
                        help="constrain adaptive dispatch to top-down (push) "
                             "or bottom-up (pull) kernels (default: auto)")
    p_perf.add_argument("--batch-size", type=_batch_size_arg, default=1,
                        metavar="B|auto")
    p_perf.add_argument("--n-devices", type=int, default=1, metavar="K",
                        help="run multi-GPU over K simulated devices; the "
                             "roofline merges all device launch streams and "
                             "the schedule-audit section appears "
                             "(default: 1)")
    p_perf.add_argument("--scheduler", choices=("cost", "roundrobin"),
                        default="cost",
                        help="multi-GPU task placement (default: cost; only "
                             "with --n-devices > 1)")
    p_perf.add_argument("--no-audit", action="store_true",
                        help="skip measuring the unchosen strategies "
                             "(regret degrades to estimate-only)")
    p_perf.add_argument("--out", metavar="FILE",
                        help="also write the markdown report to FILE")
    p_perf.add_argument("--json", dest="json_out", metavar="FILE",
                        help="write roofline/audit/drift as JSON")
    p_perf.add_argument("--budgets", metavar="FILE",
                        help="evaluate a repro.obs/slo/v1 budget spec "
                             "(TOML/JSON) against this run and append the "
                             "verdict section; exit 1 on breach")
    p_perf.set_defaults(func=cmd_perf_report)

    p_hist = sub.add_parser(
        "history",
        help="tail/filter the persistent run ledger; ingest bench artifacts",
    )
    p_hist.add_argument("--ledger", default="ledger.jsonl", metavar="FILE",
                        help="ledger path (default: ledger.jsonl)")
    p_hist.add_argument("--ingest", action="append", metavar="BENCH.json",
                        help="convert a BENCH_*.json artifact into a lossless "
                             "kind=\"bench\" ledger record first (repeatable)")
    p_hist.add_argument("--kind", choices=("bc", "multigpu", "canary", "bench"),
                        default=None, help="only records of this kind")
    p_hist.add_argument("--graph", metavar="NAME", default=None,
                        help="only records for this graph name")
    p_hist.add_argument("--fingerprint", metavar="PREFIX", default=None,
                        help="only records whose fingerprint starts with this")
    p_hist.add_argument("--last", type=int, default=None, metavar="N",
                        help="only the newest N matching records")
    p_hist.add_argument("--format", choices=("table", "jsonl"),
                        default="table",
                        help="aligned table (default) or raw JSONL for jq")
    p_hist.set_defaults(func=cmd_history)

    p_slo = sub.add_parser(
        "slo-check",
        help="evaluate a declarative budget spec against a ledger window "
             "(exit 1 on breach)",
    )
    p_slo.add_argument("--ledger", default="ledger.jsonl", metavar="FILE",
                       help="ledger path (default: ledger.jsonl)")
    p_slo.add_argument("--budgets", required=True, metavar="FILE",
                       help="repro.obs/slo/v1 budget spec (TOML on 3.11+, "
                            "or JSON)")
    p_slo.add_argument("--last", type=int, default=None, metavar="N",
                       help="evaluate only the newest N ledger records "
                            "(default: all; per-budget 'window' still "
                            "applies)")
    p_slo.add_argument("--json", dest="json_out", metavar="FILE",
                       help="write the machine-readable verdicts as JSON")
    p_slo.set_defaults(func=cmd_slo_check)

    p_can = sub.add_parser(
        "canary",
        help="run the pinned probe matrix: golden bit-identity + budget "
             "ceilings, in seconds",
    )
    p_can.add_argument("--seed", type=int, default=0,
                       help="probe seed recorded in each record's identity "
                            "(default: 0)")
    p_can.add_argument("--ledger", metavar="FILE", default=None,
                       help="append one kind=\"canary\" record per probe to "
                            "this ledger")
    p_can.add_argument("--report", metavar="FILE", default=None,
                       help="write the markdown health report (canary-report.md)")
    p_can.add_argument("--budgets", metavar="FILE", default=None,
                       help="budget spec to check (default: "
                            "tests/golden/canary-budgets.json)")
    p_can.add_argument("--bless-budgets", action="store_true",
                       help="rewrite the budget spec from this run's "
                            "measurements at 1.5x headroom and exit "
                            "(review the diff!)")
    p_can.add_argument("--golden-dir", metavar="DIR", default=None,
                       help="golden corpus directory (default: tests/golden)")
    p_can.set_defaults(func=cmd_canary)

    p_trend = sub.add_parser(
        "trend",
        help="drift detection over ledger windows: newest run vs its "
             "trailing-N baseline",
    )
    p_trend.add_argument("--ledger", default="ledger.jsonl", metavar="FILE",
                         help="ledger path (default: ledger.jsonl)")
    p_trend.add_argument("--window", type=int, default=5, metavar="N",
                         help="trailing records forming each baseline "
                              "(default: 5)")
    p_trend.add_argument("--last", type=int, default=None, metavar="N",
                         help="analyse only the newest N ledger records "
                              "(default: all)")
    p_trend.add_argument("--noise-floor", type=float, default=0.05,
                         metavar="FRAC",
                         help="ratio band treated as noise (default: 0.05)")
    p_trend.add_argument("--confidence", type=float, default=0.95,
                         help="bootstrap CI level (default: 0.95)")
    p_trend.add_argument("--report", metavar="FILE", default=None,
                         help="also write the markdown report to FILE")
    p_trend.set_defaults(func=cmd_trend)

    p_mem = sub.add_parser(
        "mem-report",
        help="run TurboBC under the allocation profiler and render the "
             "watermark/fragmentation/OOM memory report",
    )
    p_mem.add_argument("graph", help="suite name, .mtx file, or edge-list file")
    p_mem.add_argument("--sources", type=int, default=None, metavar="N",
                       help="run the first N vertices as sources "
                            "(default: exact BC, all sources)")
    p_mem.add_argument("--algorithm",
                       choices=("sccooc", "sccsc", "veccsc", "pullcsc",
                                "tcspmm", "adaptive"),
                       default=None,
                       help="pin the kernel (default: static auto by scf)")
    p_mem.add_argument("--direction", choices=("auto", "push", "pull"),
                       default="auto")
    p_mem.add_argument("--batch-size", type=_batch_size_arg, default=1,
                       metavar="B|auto")
    p_mem.add_argument("--out", metavar="FILE",
                       help="also write the markdown report to FILE")
    p_mem.add_argument("--json", dest="json_out", metavar="FILE",
                       help="write the structured report as JSON")
    p_mem.add_argument("--jsonl", dest="jsonl_out", metavar="FILE",
                       help="write flat report records as JSONL (bench "
                            "tooling / jq)")
    p_mem.set_defaults(func=cmd_mem_report)

    p_conf = sub.add_parser(
        "conformance",
        help="differential fuzzing + metamorphic oracles + golden corpus",
    )
    p_conf.add_argument("--recipes", choices=("graphs", "edits", "all"),
                        default="graphs",
                        help="which fuzz layer to run: static graph cases, "
                             "dynamic edit scripts, or both (default: graphs)")
    p_conf.add_argument("--seed", type=int, default=0,
                        help="fuzzer master seed (default: 0); case i is "
                             "reproducible from (seed, i) alone")
    p_conf.add_argument("--budget", type=int, default=100,
                        help="number of fuzz cases to draw (default: 100)")
    p_conf.add_argument("--max-seconds", type=float, default=None,
                        help="wall-clock cap; stops drawing cases early")
    p_conf.add_argument("--config", action="append", metavar="PAT",
                        help="only run configs matching this glob/substring "
                             "(repeatable; default: all registered configs)")
    p_conf.add_argument("--report", metavar="FILE",
                        help="write the run's JSONL report (one record per "
                             "divergence plus a summary line)")
    p_conf.add_argument("--golden-dir", metavar="DIR", default=None,
                        help="golden corpus directory (default: tests/golden)")
    p_conf.add_argument("--skip-golden", action="store_true",
                        help="skip the golden corpus check (fuzz only)")
    p_conf.add_argument("--no-shrink", action="store_true",
                        help="report raw counterexamples without the "
                             "delta-debugging shrink")
    p_conf.add_argument("--bless", action="store_true",
                        help="regenerate the golden corpus from the Brandes "
                             "oracle and exit (review the diff!)")
    p_conf.set_defaults(func=cmd_conformance)

    p_upd = sub.add_parser(
        "update",
        help="apply an edge edit to a graph and recompute BC incrementally",
    )
    p_upd.add_argument("graph", help="suite name, .mtx file, or edge-list file")
    p_upd.add_argument("--add", action="append", type=_edge_pair_arg,
                       metavar="U,V",
                       help="insert edge (u, v); repeatable; endpoints >= n "
                            "grow the graph")
    p_upd.add_argument("--remove", action="append", type=_edge_pair_arg,
                       metavar="U,V",
                       help="delete edge (u, v); repeatable; removing an "
                            "absent edge is a no-op")
    p_upd.add_argument("--sources", type=int, default=None, metavar="N",
                       help="run the first N vertices as sources "
                            "(default: exact BC, all sources)")
    p_upd.add_argument("--algorithm",
                       choices=("sccooc", "sccsc", "veccsc", "pullcsc",
                                "tcspmm", "adaptive"),
                       default=None,
                       help="pin the kernel (default: static auto by scf)")
    p_upd.add_argument("--direction", choices=("auto", "push", "pull"),
                       default="auto")
    p_upd.add_argument("--batch-size", type=_batch_size_arg, default=1,
                       metavar="B|auto")
    p_upd.add_argument("--churn-threshold", type=float, default=0.5,
                       metavar="FRAC",
                       help="fall back to full recompute when more than this "
                            "fraction of sources is affected (default: 0.5)")
    p_upd.add_argument("--top", type=int, default=10)
    p_upd.add_argument("--output", help="write the updated bc vector to a file")
    p_upd.add_argument("--trace-out", metavar="FILE",
                       help="write the update's span trace: Chrome-trace JSON "
                            "or JSONL if FILE ends in .jsonl")
    p_upd.add_argument("--metrics-json", metavar="FILE",
                       help="write the run's metrics snapshot (includes the "
                            "incremental_sources_* counters) as JSON")
    p_upd.add_argument("--stats-json", metavar="FILE",
                       help="write the update's BCRunStats (update_mode, "
                            "affected/skipped sources) as JSON")
    p_upd.set_defaults(func=cmd_update)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro history | head` closes our stdout mid-print; mute the
        # interpreter-shutdown flush instead of tracebacking.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
