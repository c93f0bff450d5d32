"""Schedule serialization for release-pipeline integration.

The paper envisions scheduling "to become an active part in a release
pipeline, e.g., scheduling is triggered as soon as source code changes
pass the quality assurance phases" — which requires schedules to move
between processes.  Plain-dict (JSON-compatible) round-tripping of
problems and schedules provides that interchange format.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from repro.traffic.profile import TrafficProfile, UserGroup


def problem_to_dict(problem: SchedulingProblem) -> dict:
    """Serialize a scheduling problem to JSON-compatible primitives."""
    return {
        "profile": {
            "slot_volumes": problem.profile.volumes(),
            "slot_duration_hours": problem.profile.slot_duration_hours,
            "groups": [
                {"name": g.name, "share": g.share}
                for g in problem.profile.groups
            ],
        },
        "experiments": [
            {
                "name": spec.name,
                "required_samples": spec.required_samples,
                "min_duration_slots": spec.min_duration_slots,
                "max_duration_slots": spec.max_duration_slots,
                "min_traffic_fraction": spec.min_traffic_fraction,
                "max_traffic_fraction": spec.max_traffic_fraction,
                "preferred_groups": sorted(spec.preferred_groups),
                "earliest_start": spec.earliest_start,
                "weight": spec.weight,
            }
            for spec in problem.experiments
        ],
    }


def problem_from_dict(data: dict) -> SchedulingProblem:
    """Rebuild a scheduling problem from :func:`problem_to_dict` output."""
    try:
        profile_data = data["profile"]
        profile = TrafficProfile(
            profile_data["slot_volumes"],
            [UserGroup(g["name"], g["share"]) for g in profile_data["groups"]],
            profile_data.get("slot_duration_hours", 1.0),
        )
        experiments = [
            ExperimentSpec(
                name=spec["name"],
                required_samples=spec["required_samples"],
                min_duration_slots=spec["min_duration_slots"],
                max_duration_slots=spec["max_duration_slots"],
                min_traffic_fraction=spec["min_traffic_fraction"],
                max_traffic_fraction=spec["max_traffic_fraction"],
                preferred_groups=frozenset(spec.get("preferred_groups", ())),
                earliest_start=spec.get("earliest_start", 0),
                weight=spec.get("weight", 1.0),
            )
            for spec in data["experiments"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed problem document: {exc}") from exc
    return SchedulingProblem(profile, experiments)


def schedule_to_dict(schedule: Schedule) -> dict:
    """Serialize a schedule (problem included) to primitives."""
    return {
        "problem": problem_to_dict(schedule.problem),
        "genes": [
            {
                "experiment": spec.name,
                "start": gene.start,
                "duration": gene.duration,
                "fraction": gene.fraction,
                "groups": sorted(gene.groups),
            }
            for spec, gene in schedule
        ],
    }


def schedule_from_dict(data: dict) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    Genes are matched to experiments by name, so documents stay valid
    even if consumers reorder the gene list.
    """
    problem = problem_from_dict(data.get("problem", {}))
    try:
        by_name = {gene["experiment"]: gene for gene in data["genes"]}
        genes = []
        for spec in problem.experiments:
            gene = by_name[spec.name]
            genes.append(
                Gene(
                    start=gene["start"],
                    duration=gene["duration"],
                    fraction=gene["fraction"],
                    groups=frozenset(gene["groups"]),
                )
            )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed schedule document: {exc}") from exc
    return Schedule(problem, genes)
