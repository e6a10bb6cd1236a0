"""Command-line interface for simulated deployments.

DCDB ships operator tools (``dcdbconfig``, ``dcdbquery``) next to its
daemons; this module provides the reproduction's equivalent over a
declarative deployment file (see :mod:`repro.deploy`):

``python -m repro.cli run --config dep.json --duration 60``
    Build the deployment, run it for the given simulated duration, and
    print a traffic summary.

``python -m repro.cli sensors --config dep.json --duration 5 [--match RE]``
    List the sensor topics visible at the Collect Agent.

``python -m repro.cli query --config dep.json --duration 60 --topic T``
    Run, then print one topic's series (with a terminal sparkline).

``python -m repro.cli plugins``
    List the operator plugins available to configuration blocks.

``python -m repro.cli report --config dep.json --duration 60``
    Run, then print a full deployment report: topology, traffic,
    operators, and sparklines of the busiest sensors.

``python -m repro.cli metrics --config dep.json --duration 60``
    Run, then print a host's telemetry registry via its ``GET /metrics``
    REST route (JSON, ``--format prometheus`` text exposition, or
    ``--report`` for a Fig 5-style overhead summary).  ``--host``
    selects a pusher by node path; the default is the Collect Agent.

``python -m repro.cli check [--config FILE]... [--lint] [--flow FILE]...
[--runtime FILE]...``
    Analyze configuration files (deployment specs, plugin blocks — JSON
    or Python scripts containing them), run the repo-specific AST lint
    pass, run the **whole-deployment dataflow analyzer** over a
    deployment spec (``--flow``: production rates, window-vs-cache
    supply, physical units, memory and resilience budgets — F-series
    rules; ``--flow-report`` prints the inferred per-pipeline plan),
    and/or execute a **bounded sanitized run** of a deployment
    spec (``--runtime``) hunting lock-order inversions, shared models
    and mutated query results (R-series rules).  ``--fail-on``
    picks the severity that makes the exit code non-zero; ``--format
    json`` emits the diagnostics machine-readably (with a
    ``schema_version`` field).  Rules: ``docs/STATIC_ANALYSIS.md``.

Setting ``WINTERMUTE_SANITIZE=1`` in the environment runs any *other*
subcommand (``run``, ``report``, ...) under the same runtime sanitizer,
printing findings to stderr without changing the exit code.

``run --snapshot out.npz`` additionally archives the Collect Agent's
storage to a compressed file loadable with ``StorageBackend.load``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from typing import List, Optional

from repro.analysis.diagnostics import sort_key
from repro.common.errors import ConfigError
from repro.common.textplot import sparkline
from repro.core.registry import available_plugins
from repro.dcdb.cache import slab_memory_bytes
from repro.deploy import build_deployment


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _build_and_run(args):
    dep = build_deployment(_load(args.config))
    dep.run(args.duration)
    dep.agent.flush()
    return dep


def cmd_run(args) -> int:
    """`run`: execute the deployment and print a traffic/operator summary."""
    dep = _build_and_run(args)
    storage = dep.agent.storage
    print(f"simulated {args.duration:.0f}s on {len(dep.pushers)} nodes")
    print(f"sensors: {len(dep.agent.sensor_topics())}")
    print(f"readings stored: {storage.total_readings():,}")
    tier_stats = getattr(storage, "tier_stats", None)
    if tier_stats is not None:
        stats = tier_stats()
        segments = stats["segments"]
        print(
            f"storage: tiered at {stats['directory']}, "
            f"{segments['raw']} raw / {segments['rollup_10s']} 10s / "
            f"{segments['rollup_1min']} 1min segment(s), "
            f"{stats['disk_bytes']:,} bytes on disk, "
            f"{stats['flushes']} flush(es), "
            f"{stats['replayed_points']:,} replayed"
        )
    print(f"mqtt messages: {dep.broker.published_count:,} published, "
          f"{dep.broker.delivered_count:,} delivered")
    if dep.link is not None:
        state = dep.link.link_state()
        spilled = sum(p.spill_depth for p in dep.pushers.values())
        print(
            f"link: {'up' if state['up'] else 'down'}, "
            f"{state['delivered']:,} delivered, "
            f"{state['dropped']:,} dropped, "
            f"{state['refused']:,} refused, "
            f"{spilled:,} spilled pending"
        )
    operators = [
        op for m in list(dep.managers.values()) + [dep.agent_manager]
        for op in m.operators()
    ]
    if operators:
        print("operators:")
        for op in operators:
            stats = op.stats()
            print(
                f"  {stats['name']:24s} {stats['units']:5d} units "
                f"{stats['computes']:6d} computes {stats['errors']:4d} errors"
            )
    if getattr(args, "snapshot", None):
        n = storage.save(args.snapshot)
        print(f"snapshot: {n} series -> {args.snapshot}")
    return 0


def cmd_report(args) -> int:
    """`report`: execute and print a full markdown deployment report."""
    dep = _build_and_run(args)
    spec = dep.sim.spec
    print("# Deployment report\n")
    print("## Topology")
    print(f"- nodes: {len(dep.sim.node_paths)} "
          f"({spec.cpus_per_node} cores each), "
          f"racks: {len(dep.sim.topology.rack_paths)}")
    print(f"- simulated duration: {args.duration:.0f}s")
    print(f"- jobs scheduled: {len(dep.sim.scheduler.all_jobs())}")
    print("\n## Data plane")
    print(f"- sensors: {len(dep.agent.sensor_topics())}")
    print(f"- readings stored: {dep.agent.storage.total_readings():,}")
    print(f"- mqtt: {dep.broker.published_count:,} published / "
          f"{dep.broker.delivered_count:,} delivered / "
          f"{dep.broker.handler_errors} handler errors")
    cache_mb = sum(
        slab_memory_bytes(p.caches.values()) for p in dep.pushers.values()
    ) / 2**20
    print(f"- pusher cache memory (total): {cache_mb:.1f} MB")
    print("\n## Analytics")
    operators = [
        op for m in list(dep.managers.values()) + [dep.agent_manager]
        for op in m.operators()
    ]
    if not operators:
        print("- (no operators configured)")
    for op in operators:
        stats = op.stats()
        print(
            f"- `{stats['name']}` [{stats['mode']}/{stats['unit_mode']}]: "
            f"{stats['units']} units, {stats['computes']} computes, "
            f"{stats['errors']} errors, "
            f"{stats['busy_ns'] / 1e6:.1f} ms busy"
        )
    print("\n## Telemetry (Collect Agent)")
    qe_total = 0
    for name in ("qe_cache_hits_total", "qe_storage_fallbacks_total",
                 "qe_misses_total"):
        metric = dep.agent.telemetry.get(name)
        value = metric.value if metric is not None else 0
        qe_total += value
        print(f"- {name}: {value}")
    drain = dep.agent.telemetry.get("drain_latency_ns")
    if drain is not None and drain.count:
        print(f"- ingest drains: {drain.count}, "
              f"mean {drain.mean / 1e3:.1f} us")
    print("\n## Busiest sensors")
    counts = [
        (dep.agent.storage.count(t), t) for t in dep.agent.storage.topics()
    ]
    for count, topic in sorted(counts, reverse=True)[:8]:
        _, values = dep.series(topic)
        print(f"- `{topic}` ({count} readings)")
        print(f"  `[{sparkline(values, width=56)}]`")
    return 0


def cmd_sensors(args) -> int:
    """`sensors`: list the Collect Agent's sensor topics."""
    dep = _build_and_run(args)
    pattern = re.compile(args.match) if args.match else None
    for topic in dep.agent.sensor_topics():
        if pattern is None or pattern.search(topic):
            print(topic)
    return 0


def cmd_query(args) -> int:
    """`query`: print one topic's series with summary statistics."""
    dep = _build_and_run(args)
    ts, values = dep.series(args.topic)
    if len(values) == 0:
        print(f"no data for {args.topic}", file=sys.stderr)
        return 1
    print(f"{args.topic}: {len(values)} readings, "
          f"t = {ts[0]:.1f}..{ts[-1]:.1f}s")
    print(f"min {values.min():.3f}  mean {values.mean():.3f}  "
          f"max {values.max():.3f}")
    print(f"[{sparkline(values)}]")
    if args.tail:
        for t, v in list(zip(ts, values))[-args.tail:]:
            print(f"  {t:10.2f}s  {v:.4f}")
    return 0


def cmd_metrics(args) -> int:
    """`metrics`: print a host's telemetry (via its /metrics REST route)."""
    from repro.common.timeutil import NS_PER_SEC
    from repro.telemetry import format_overhead_report, overhead_report

    dep = _build_and_run(args)
    if args.host in (None, "agent"):
        host_name, host = "agent", dep.agent
    else:
        host = dep.pushers.get(args.host)
        if host is None:
            known = ", ".join(sorted(dep.pushers))
            print(f"no pusher {args.host!r}; known hosts: agent, {known}",
                  file=sys.stderr)
            return 1
        host_name = args.host
    if args.report:
        report = overhead_report(
            host.telemetry, elapsed_ns=int(args.duration * NS_PER_SEC)
        )
        print(format_overhead_report(report, name=host_name))
        return 0
    params = {"format": args.format}
    if args.match:
        params["match"] = args.match
    resp = host.rest.get("/metrics", **params)
    if not resp.ok:
        print(f"GET /metrics failed: {resp.body}", file=sys.stderr)
        return 1
    if args.format == "prometheus":
        sys.stdout.write(resp.body["exposition"])
    else:
        print(json.dumps(resp.body["metrics"], indent=2))
    return 0


#: Version of the ``check --format json`` document layout.  The
#: original unversioned output counts as version 1; version 2 added
#: this field itself plus runtime (R-series) diagnostics; version 3
#: added dataflow (F-series) diagnostics and the ``flow_report`` field;
#: version 4 added concurrency (S-series) diagnostics, the
#: ``concurrency_report`` field and the ``ignored`` suppression count;
#: version 5 dropped ``wall_clock_reads`` from the ``runtime`` events.
CHECK_SCHEMA_VERSION = 5

#: Severities that fail the check, per ``--fail-on`` threshold.
_FAIL_LEVELS = {
    "error": ("error",),
    "warning": ("error", "warning"),
    "info": ("error", "warning", "info"),
}


def cmd_check(args) -> int:
    """`check`: static/lint/runtime analysis of configs and sources."""
    import os
    from dataclasses import replace

    import repro
    from repro.analysis import (
        Diagnostic,
        analyze_deployment,
        analyze_pipeline_blocks,
        count_by_severity,
        extract_configs,
        lint_paths_counted,
        sort_key,
    )

    if not args.config and not args.lint and not args.runtime \
            and not args.flow and args.concurrency is None:
        print("check: nothing to do (pass --config FILE, --lint, "
              "--concurrency, --flow FILE and/or --runtime FILE)",
              file=sys.stderr)
        return 2
    diags = []
    ignored = 0
    for path in args.config or []:
        result = extract_configs(path)
        for line, reason in result.skipped:
            diags.append(Diagnostic(
                code="W015", severity="info",
                message=f"config block not statically evaluable: {reason}",
                file=path, line=line,
            ))
        for cfg in result.configs:
            if cfg.kind == "deployment":
                found = analyze_deployment(
                    cfg.value, known_plugins=result.local_plugins,
                    max_units=args.max_units,
                )
            else:
                blocks = (
                    cfg.value if cfg.kind == "blocks" else [cfg.value]
                )
                found = analyze_pipeline_blocks(
                    blocks, known_plugins=result.local_plugins,
                    max_units=args.max_units,
                )
            diags.extend(
                replace(d, file=d.file or cfg.file, line=d.line or cfg.line)
                for d in found
            )
    if args.lint:
        targets = args.lint_path or [
            os.path.dirname(os.path.abspath(repro.__file__))
        ]
        lint_diags, lint_ignored = lint_paths_counted(targets)
        diags.extend(lint_diags)
        ignored += lint_ignored
    concurrency_report = None
    if args.concurrency is not None:
        from repro.analysis.concurrency import (
            analyze_concurrency,
            render_concurrency_report,
        )

        targets = args.concurrency or [
            os.path.dirname(os.path.abspath(repro.__file__))
        ]
        conc = analyze_concurrency(targets)
        diags.extend(conc.diagnostics)
        ignored += conc.ignored
        if args.concurrency_report:
            concurrency_report = render_concurrency_report(conc)
    flow_reports = {}
    for path in args.flow or []:
        from repro.analysis import DiagnosticCollector
        from repro.analysis.flow import build_flow_model, render_flow_report

        try:
            spec = _load(path)
        except (OSError, ValueError) as exc:
            diags.append(Diagnostic(
                code="W005", severity="error",
                message=f"cannot load deployment spec: {exc}", file=path,
            ))
            continue
        flow_out = DiagnosticCollector()
        model = build_flow_model(
            spec, flow_out, memory_budget_mb=args.flow_memory_budget_mb
        )
        # A spec-level "ignore" list is the JSON counterpart of the
        # inline "# wintermute: ignore[...]" marker (JSON: no comments).
        for d in flow_out.sink:
            if d.code in model.ignore:
                ignored += 1
                continue
            diags.append(replace(d, file=d.file or path))
        if args.flow_report:
            flow_reports[path] = render_flow_report(model)
    runtime_events = {}
    for path in args.runtime or []:
        from repro.sanitizer import run_runtime_check

        result = run_runtime_check(path, duration_s=args.runtime_duration)
        diags.extend(
            replace(d, file=d.file or path) for d in result.diagnostics
        )
        runtime_events[path] = result.events

    diags.sort(key=sort_key)
    counts = count_by_severity(diags)
    failing = sum(counts[s] for s in _FAIL_LEVELS[args.fail_on])
    exit_code = 1 if failing else 0
    if args.format == "json":
        doc = {
            "schema_version": CHECK_SCHEMA_VERSION,
            "diagnostics": [d.to_dict() for d in diags],
            "summary": counts,
            "ignored": ignored,
            "exit_code": exit_code,
        }
        if runtime_events:
            doc["runtime"] = runtime_events
        if flow_reports:
            doc["flow_report"] = flow_reports
        if concurrency_report is not None:
            doc["concurrency_report"] = concurrency_report
        print(json.dumps(doc, indent=2))
        return exit_code
    for diag in diags:
        if diag.severity == "info" and args.quiet:
            continue
        print(diag.format())
    for path, report in flow_reports.items():
        print(f"flow {path}:")
        for line in report.splitlines():
            print(f"  {line}")
    if concurrency_report is not None:
        for line in concurrency_report.splitlines():
            print(line)
    for path, events in runtime_events.items():
        print(f"runtime {path}: {events.get('compute_passes', 0)} passes, "
              f"{events.get('lock_acquisitions', 0)} lock acquisitions, "
              f"{events.get('views_tracked', 0)} views tracked")
    print(f"check: {counts['error']} error(s), {counts['warning']} "
          f"warning(s), {counts['info']} info, {ignored} ignored")
    return exit_code


def cmd_plugins(args) -> int:
    """`plugins`: list the registered operator plugins."""
    for name in available_plugins():
        print(name)
    return 0


def cmd_tree(args) -> int:
    """`tree`: render the deployment's sensor tree."""
    dep = _build_and_run(args)
    from repro.core.navigator import SensorNavigator

    navigator = SensorNavigator.from_topics(dep.agent.sensor_topics())
    tree = navigator.tree

    def render(node, prefix=""):
        children = sorted(node.children.values(), key=lambda n: n.name)
        sensors = sorted(node.sensors)
        entries = [(c.name, c) for c in children] + [
            (s, None) for s in sensors
        ]
        for i, (name, child) in enumerate(entries):
            last = i == len(entries) - 1
            branch = "`-- " if last else "|-- "
            if child is None:
                print(f"{prefix}{branch}{name}")
            else:
                print(f"{prefix}{branch}{name}/")
                render(child, prefix + ("    " if last else "|   "))

    print("/")
    render(tree.root)
    print(
        f"\n{tree.n_sensors} sensors, {tree.max_level + 1} component levels"
    )
    return 0


def make_parser() -> argparse.ArgumentParser:
    """Build the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Run and inspect simulated DCDB/Wintermute deployments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="deployment JSON file "
                            "(format: docs/CONFIGURATION.md)")
        p.add_argument("--duration", type=float, default=30.0,
                       help="simulated seconds to run (default 30)")

    p_run = sub.add_parser("run", help="run a deployment, print a summary")
    add_common(p_run)
    p_run.add_argument("--snapshot",
                       help="save the agent's storage to this .npz file")
    p_run.set_defaults(fn=cmd_run)

    p_report = sub.add_parser("report", help="run and print a full report")
    add_common(p_report)
    p_report.set_defaults(fn=cmd_report)

    p_sensors = sub.add_parser("sensors", help="list sensor topics")
    add_common(p_sensors)
    p_sensors.add_argument("--match", help="regex filter on topics")
    p_sensors.set_defaults(fn=cmd_sensors)

    p_query = sub.add_parser("query", help="print one topic's series")
    add_common(p_query)
    p_query.add_argument("--topic", required=True)
    p_query.add_argument("--tail", type=int, default=0,
                         help="also print the last N readings")
    p_query.set_defaults(fn=cmd_query)

    p_metrics = sub.add_parser(
        "metrics", help="print a host's telemetry registry"
    )
    add_common(p_metrics)
    p_metrics.add_argument("--host", default=None,
                           help="'agent' (default) or a pusher node path")
    p_metrics.add_argument("--format", choices=("json", "prometheus"),
                           default="json",
                           help="output representation (default json)")
    p_metrics.add_argument("--match",
                           help="regex filter on metric names")
    p_metrics.add_argument("--report", action="store_true",
                           help="print a Fig 5-style overhead summary "
                                "instead of raw series")
    p_metrics.set_defaults(fn=cmd_metrics)

    p_check = sub.add_parser(
        "check",
        help="statically analyze configs / lint the source tree",
    )
    p_check.add_argument(
        "--config", action="append", default=[], metavar="FILE",
        help="configuration file to analyze (.json spec/block, or a .py "
             "script containing config dict literals); repeatable",
    )
    p_check.add_argument(
        "--lint", action="store_true",
        help="run the repo-specific AST lint rules (L002-L006, L008)",
    )
    p_check.add_argument(
        "--lint-path", action="append", default=[], metavar="PATH",
        help="file or directory to lint (default: the repro package)",
    )
    p_check.add_argument(
        "--concurrency", nargs="*", default=None, metavar="PATH",
        help="run the static concurrency analyzer (interprocedural "
             "locksets + guarded-by inference; S001..S010) over PATHs "
             "(default: the repro package)",
    )
    p_check.add_argument(
        "--concurrency-report", action="store_true",
        help="with --concurrency: also print the inferred guarded-by "
             "table per class",
    )
    p_check.add_argument(
        "--flow", action="append", default=[], metavar="FILE",
        help="deployment spec (.json) to run the dataflow analyzer on "
             "(rates/windows/units/budgets; F-series rules); repeatable",
    )
    p_check.add_argument(
        "--flow-report", action="store_true",
        help="with --flow: also print the inferred per-pipeline "
             "rate/unit/memory plan",
    )
    p_check.add_argument(
        "--flow-memory-budget-mb", type=float, default=1024.0,
        help="per-host cache memory budget for F008 (default 1024 MiB)",
    )
    p_check.add_argument(
        "--runtime", action="append", default=[], metavar="FILE",
        help="deployment spec to execute under the runtime sanitizer "
             "(bounded run; R-series rules); repeatable",
    )
    p_check.add_argument(
        "--runtime-duration", type=float, default=10.0,
        help="simulated seconds per --runtime run (default 10)",
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default text)",
    )
    p_check.add_argument(
        "--max-units", type=int, default=10_000,
        help="unit-cardinality threshold for W014 (default 10000)",
    )
    p_check.add_argument(
        "--fail-on", choices=("error", "warning", "info"), default="error",
        help="lowest severity that fails the check (default error)",
    )
    p_check.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress info diagnostics in text output",
    )
    p_check.set_defaults(fn=cmd_check)

    p_plugins = sub.add_parser("plugins", help="list operator plugins")
    p_plugins.set_defaults(fn=cmd_plugins)

    p_tree = sub.add_parser("tree", help="print the sensor tree")
    add_common(p_tree)
    p_tree.set_defaults(fn=cmd_tree)
    return parser


def _run_sanitized(args) -> int:
    """Run a subcommand under the runtime sanitizer (WINTERMUTE_SANITIZE).

    Findings go to stderr; the subcommand's own exit code is preserved —
    the env var is an observability switch, `check --runtime` is the
    gating path.
    """
    from repro.sanitizer import make_sanitizer

    san = make_sanitizer()
    with san.activate():
        code = args.fn(args)
    findings = san.finish()
    for diag in findings:
        print(diag.format(), file=sys.stderr)
    print(f"sanitizer: {len(findings)} finding(s)", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for `wintermute-sim` / `python -m repro.cli`."""
    from repro.sanitizer import hooks

    args = make_parser().parse_args(argv)
    try:
        if hooks.env_enabled() and args.command != "check":
            return _run_sanitized(args)
        return args.fn(args)
    except ConfigError as exc:
        # A refused spec: the findings `check --config` prints for it.
        for diag in sorted(exc.diagnostics, key=sort_key):
            print(diag.format(), file=sys.stderr)
        print(f"{args.command}: {str(exc).splitlines()[0]}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        with contextlib.suppress(Exception):
            sys.stdout.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
