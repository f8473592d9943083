"""Seeded, self-checking benchmark of the iCPDA simulator.

Run from the repository root::

    python3 perfbench/run.py --workload scale_round --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public entry points (see
``tracing.py``), reports the per-layer metrics, and writes its spans to
``perfbench/out/spans-<workload>-<seed>.jsonl``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit); on the workloads
that sample the host-speed loop of ``workloads.py``, times are in
reference-host seconds. The lines before it
are a human-readable account: every failed check, the determinism
digest of the run's simulated outputs, and per-workload notes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_PHASES = ("clustering", "exchange", "report")


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_metrics(setups, rounds, round_nodes, ops) -> dict:
    return {
        "setup_s": statistics.median(setups),
        # Mean, not median: the sweep's rounds mix five sizes with
        # restricted probe rounds, and a median jumps between their
        # clusters of values from run to run.
        "round_s": statistics.fmean(rounds),
        "node_rounds_per_s": sum(round_nodes) / sum(rounds),
        "op_p50_s": statistics.median(ops),
    }


def end_to_end(out, peak_rss_mb: float) -> dict:
    """Every end-to-end metric, times scaled by ``Outcome.scaled``."""
    metrics = timed_metrics(
        out.scaled("setup"), out.scaled("round"), out.round_nodes, out.scaled("op")
    )
    units = {"setup_s": "s", "round_s": "s", "node_rounds_per_s": "1/s", "op_p50_s": "s"}
    result = {name: _metric(value, units[name]) for name, value in metrics.items()}
    result["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
    return result


def per_layer(out, tracer) -> dict:
    """Every per-layer metric. Times and counts are per protocol round
    unless the name says otherwise (per set-up, per arc, per probe, per
    served epoch, per query)."""
    layers = out.layers
    rounds = max(1, layers.rounds)
    setups = max(1, layers.setups)
    frames = layers.frames
    kernel_run = tracer.total_s("kernel.run")
    handlers = tracer.total_s("handlers")
    transport_self = sum(
        tracer.self_s(name)
        for name in ("kernel.run", "transport.send", "transport.send_many", "transport.flush")
    )
    packets = tracer.calls("packet.size")

    def per_round(value):
        return value / rounds

    metrics = {
        "topology.deploy_s": _metric(
            tracer.total_s("topology.deploy") / max(1, tracer.calls("topology.deploy")), "s"
        ),
        "protocol.init_s": _metric(
            tracer.total_s("protocol.init") / max(1, tracer.calls("protocol.init")), "s"
        ),
        "tree.wall_s": _metric(layers.phase_wall.get("tree", 0.0) / setups, "s"),
        "tree.bytes": _metric(layers.phase_bytes.get("tree", 0) / setups, "B"),
        "clustering.wall_s": _metric(per_round(layers.phase_wall.get("clustering", 0.0)), "s"),
        "clustering.bytes": _metric(per_round(layers.phase_bytes.get("clustering", 0)), "B"),
        "clustering.completed_per_formed": _metric(
            layers.clusters_completed / max(1, layers.clusters_formed), "ratio"
        ),
        "exchange.wall_s": _metric(per_round(layers.phase_wall.get("exchange", 0.0)), "s"),
        "exchange.bytes": _metric(per_round(layers.phase_bytes.get("exchange", 0)), "B"),
        "shares.calls": _metric(per_round(tracer.calls("shares")), "count"),
        "shares.s": _metric(per_round(tracer.total_s("shares")), "s"),
        "report.wall_s": _metric(per_round(layers.phase_wall.get("report", 0.0)), "s"),
        "report.bytes": _metric(per_round(layers.phase_bytes.get("report", 0)), "B"),
        "report.alarms": _metric(per_round(layers.alarms), "count"),
        "localization.probes": _metric(layers.probes / max(1, layers.arcs), "count"),
        "localization.probe_s": _metric(
            tracer.total_s("localization.probe") / max(1, layers.probes), "s"
        ),
        "kernel.run_s": _metric(per_round(kernel_run), "s"),
        "kernel.events": _metric(per_round(layers.events), "count"),
        "handlers.calls": _metric(per_round(tracer.calls("handlers")), "count"),
        "handlers.s": _metric(per_round(handlers), "s"),
        "transport.self_s": _metric(per_round(transport_self), "s"),
        "transport.send_calls": _metric(per_round(tracer.calls("transport.send")), "count"),
        "transport.send_many_frames": _metric(
            per_round(tracer.counts.get("transport.send_many_frames", 0)), "count"
        ),
        "transport.frames": _metric(per_round(frames), "count"),
        "transport.deliveries": _metric(per_round(layers.deliveries), "count"),
        "transport.losses": _metric(per_round(layers.losses), "count"),
        "mac.dropped": _metric(per_round(layers.mac_dropped), "count"),
        "mac.busy_senses": _metric(per_round(layers.mac_busy), "count"),
        "packet.built": _metric(per_round(packets), "count"),
        "packet.built_per_frame": _metric(packets / max(1, frames), "ratio"),
        "packet.size_s": _metric(per_round(tracer.total_s("packet.size")), "s"),
        "linksec.calls": _metric(per_round(tracer.calls("linksec")), "count"),
        "linksec.s": _metric(per_round(tracer.total_s("linksec")), "s"),
        "sim.bytes_per_round": _metric(
            per_round(sum(layers.phase_bytes.get(p, 0) for p in ROUND_PHASES)), "B"
        ),
        "sim.energy_j_per_round": _metric(per_round(layers.energy_j), "J"),
        "sim.virtual_s_per_round": _metric(per_round(layers.virtual_s), "s"),
        "service.serve_s": _metric(
            tracer.total_s("service.serve") / max(1, tracer.calls("service.serve")), "s"
        ),
        "service.batch_size": _metric(out.batch_size, "count"),
        "service.cache_hits": _metric(out.cache_hits, "count"),
        "gateway.wait_s": _metric(statistics.median(out.waits) if out.waits else 0.0, "s"),
        "gateway.rejected": _metric(out.rejected, "count"),
        "gateway.qps": _metric(out.qps, "1/s"),
        "gateway.answer_tail_s": _metric(out.tail_s, "s"),
        # Scaled like round_s, so the two give the tracing overhead.
        "trace.round_s": _metric(statistics.fmean(out.scaled("round")), "s"),
    }
    # Replaced by the measurement after the traced loop on service_epochs.
    metrics["service.heap_kb_per_epoch"] = _metric(0.0, "KB")
    return metrics


def self_time_table(tracer) -> str:
    rows = sorted(tracer.totals.items(), key=lambda item: -item[1][2])
    lines = [f"{'layer':24s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}"]
    for name, (calls, total, self_time) in rows:
        lines.append(f"{name:24s} {int(calls):10d} {total:10.3f} {self_time:10.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))

    from tracing import Tracer, instrument
    from workloads import WORKLOADS, peak_rss_mb

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    tracer = remove = None
    if args.trace:
        tracer = Tracer()
        remove = instrument(tracer)
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        if remove is not None:
            remove()

    for failure in out.failures:
        print(f"FAILED {failure}")
    for note in out.notes:
        print(note)
    print(f"digest {out.digest()}")
    if not (out.setup_s and out.round_s and out.op_s):
        print("perfbench: no operation completed; nothing to measure", file=sys.stderr)
        return 1
    batches = out.speed_batches
    speed = (
        f"loop {min(batches) * 1e3:.2f}-{max(batches) * 1e3:.2f} ms, median "
        f"{statistics.median(batches) * 1e3:.2f} ms over {len(batches)} batches"
        if batches else "not sampled"
    )
    unscaled = timed_metrics(out.setup_s, out.round_s, out.round_nodes, out.op_s)
    print(
        f"host speed: {speed}; unscaled "
        + ", ".join(f"{name} {value:.5g}" for name, value in unscaled.items())
    )

    if tracer is None:
        metrics = end_to_end(out, peak_rss_mb())
    else:
        metrics = per_layer(out, tracer)
        if out.after_trace is not None:
            for name, value in out.after_trace().items():
                metrics[name] = _metric(value, metrics[name]["unit"])
        print(self_time_table(tracer))
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")

    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
