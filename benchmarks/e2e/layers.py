"""Per-layer metrics: span aggregates and exact counts -> named numbers.

Every name here is declared in ``BENCHMARK.json`` (``per_layer``) and
explained in the README's table.  ``ns_per_*`` metrics are a span
family's self time divided by a count taken at the same boundary;
``*_ms`` metrics are a span family's total (inclusive) time per round;
``*.self_share`` is a layer's self time over the traced round's wall
time, and the shares plus ``bench.unattributed_share`` sum to one.
Time-based values are medians over the traced rounds; counts are exact.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS


def layer_metrics(traced_rounds, counts, untraced_wall_s, span_count) -> dict:
    """All per-layer metrics of one run.

    *traced_rounds* is ``[(wall seconds, tracer.aggregate() table)]``;
    *counts* are the workload's exact counts of one round.
    """
    per_round = [_round_metrics(wall, table, counts) for wall, table in traced_rounds]
    metrics = {
        name: statistics.median(r[name] for r in per_round) for name in per_round[0]
    }
    traced_wall = statistics.median(wall for wall, _ in traced_rounds)
    metrics["bench.trace_overhead_share"] = traced_wall / untraced_wall_s - 1.0
    metrics["bench.spans"] = span_count
    return metrics


def _round_metrics(wall_s: float, table: dict, counts: dict) -> dict:
    def of(field: str, *names: str) -> float:
        return sum(table[n][field] for n in names if n in table)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    requests = count("traffic.requests")
    fast = count("simulation.fast_requests")
    scalar = of("calls", "microservices.execute")
    assigns = of("calls", "routing.assign") + of("units", "routing.assign_many")
    windows = of("calls", "telemetry.window")
    evals = of("calls", "fenrir.evaluate")
    computed = count("fenrir.full_evals") + count("fenrir.delta_evals")
    metrics = {
        "traffic.gen_ns_per_req": per(
            of("self_ns", "traffic.generate"), of("units", "traffic.generate")
        ),
        "traffic.requests": requests,
        "traffic.population_build_s": count("traffic.population_build_s"),
        "simulation.kernel_self_ns_per_req": per(
            of("self_ns", "simulation.kernel"), requests
        ),
        "simulation.fast_slices": count("simulation.fast_slices"),
        "simulation.fallback_slices": count("simulation.fallback_slices"),
        "simulation.fast_request_share": per(fast, requests),
        "simulation.event_loop_ns_per_event": per(
            of("self_ns", "simulation.event_loop", "simulation.event"),
            count("simulation.events_run"),
        ),
        "simulation.events_run": count("simulation.events_run"),
        "routing.assign_ns_per_req": per(
            of("self_ns", "routing.assign", "routing.assign_many"), assigns
        ),
        "routing.assign_calls": assigns,
        "routing.route_ns_per_call": per(
            of("self_ns", "routing.route"), of("calls", "routing.route")
        ),
        "microservices.execute_self_ns_per_req": per(
            of("self_ns", "microservices.execute"), scalar
        ),
        "microservices.scalar_requests": scalar,
        "microservices.retries": count("microservices.retries"),
        "microservices.breaker_rejects": count("microservices.breaker_rejects"),
        "microservices.error_share": per(count("microservices.errors"), requests),
        "telemetry.record_ns_per_sample": per(
            of("self_ns", "telemetry.record"), of("calls", "telemetry.record")
        ),
        "telemetry.samples": count("telemetry.samples"),
        "telemetry.extend_ns_per_sample": per(
            of("self_ns", "telemetry.extend"), of("units", "telemetry.extend")
        ),
        "telemetry.aggregate_ns_per_call": per(
            of("self_ns", "telemetry.aggregate", "telemetry.window"), windows
        ),
        "telemetry.aggregate_calls": windows,
        "telemetry.snapshot_ms": of("total_ns", "telemetry.snapshot") / 1e6,
        "tracing.collect_ns_per_span": per(
            of("self_ns", "tracing.collect"), of("units", "tracing.collect")
        ),
        "tracing.spans": of("units", "tracing.collect"),
        "tracing.late_spans_dropped": count("tracing.late_spans_dropped"),
        "topology.fold_ns_per_trace": per(
            of("self_ns", "topology.fold"), of("calls", "topology.fold")
        ),
        "topology.traces_folded": count("topology.traces_folded"),
        "topology.publish_ms": of("total_ns", "topology.publish") / 1e6,
        "topology.publishes": count("topology.publishes"),
        "bifrost.check_eval_ns_per_check": per(
            of("self_ns", "bifrost.check_eval"), of("calls", "bifrost.check_eval")
        ),
        "bifrost.check_evals": count("bifrost.check_evals"),
        "bifrost.transitions": count("bifrost.transitions"),
        "bifrost.journal_append_ns_per_record": per(
            of("self_ns", "bifrost.journal_append"),
            of("calls", "bifrost.journal_append"),
        ),
        "bifrost.journal_records": count("bifrost.journal_records"),
        "bifrost.journal_bytes": count("bifrost.journal_bytes"),
        "bifrost.recover_ms": of("total_ns", "bifrost.recover") / 1e6,
        "obs.emit_ns_per_event": per(
            of("self_ns", "obs.emit"), count("obs.events")
        ),
        "obs.events": count("obs.events"),
        "obs.events_dropped": count("obs.events_dropped"),
        "obs.provenance_fold_ms": of("total_ns", "obs.provenance_fold") / 1e6,
        "obs.timeline_fold_ms": of("total_ns", "obs.timeline_fold") / 1e6,
        "exec.record_self_ns_per_req": per(of("self_ns", "exec.record"), requests),
        "exec.save_ns_per_req": per(of("total_ns", "exec.save"), requests),
        "exec.load_ns_per_req": per(of("total_ns", "exec.load"), requests),
        "exec.replay_ns_per_req": per(of("self_ns", "exec.replay"), requests),
        "exec.diff_ms": of("total_ns", "exec.diff") / 1e6,
        "exec.recording_bytes_per_req": per(count("exec.recording_bytes"), requests),
        "fenrir.eval_ns_per_eval": per(of("self_ns", "fenrir.evaluate"), evals),
        "fenrir.search_self_ns_per_eval": per(
            of("self_ns", "fenrir.search"), computed
        ),
        "fenrir.full_evals": count("fenrir.full_evals"),
        "fenrir.delta_evals": count("fenrir.delta_evals"),
        "fenrir.cache_hit_ratio": per(
            count("fenrir.cache_hits"), computed + count("fenrir.cache_hits")
        ),
        "fenrir.best_fitness_sum": count("fenrir.best_fitness_sum"),
        "fenrir.reevaluate_ms": of("total_ns", "fenrir.reevaluate") / 1e6,
        "fleet.slot_self_ms_per_slot": per(
            of("self_ns", "fleet.slot") / 1e6, of("calls", "fleet.slot")
        ),
        "fleet.slots": count("fleet.slots"),
        "fleet.admission_ns_per_decision": per(
            of("self_ns", "fleet.admission"), of("calls", "fleet.admission")
        ),
        "fleet.feed_ns_per_sample": per(
            of("self_ns", "fleet.feed"), of("units", "fleet.feed")
        ),
        "fleet.restarts": count("fleet.restarts"),
        "fleet.sheds": count("fleet.sheds"),
        "fleet.recover_ms": of("total_ns", "fleet.recover") / 1e6,
    }
    wall_ns = wall_s * 1e9
    attributed = 0.0
    for layer in LAYERS:
        own = sum(
            row["self_ns"]
            for name, row in table.items()
            if name.split(".", 1)[0] == layer
        )
        metrics[f"{layer}.self_share"] = own / wall_ns
        attributed += own
    metrics["bench.unattributed_share"] = 1.0 - attributed / wall_ns
    return metrics
