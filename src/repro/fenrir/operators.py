"""Search operators: gene construction, repair, mutation, crossover.

These are shared by all four algorithms.  The genetic algorithm uses all
of them; local search and simulated annealing use random construction and
mutation as their neighborhood move; random sampling uses construction
only.
"""

from __future__ import annotations

from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from repro.simulation.rng import SeededRng


def required_fraction(
    problem: SchedulingProblem,
    spec: ExperimentSpec,
    start: int,
    duration: int,
    groups: frozenset[str],
) -> float:
    """Minimal traffic fraction collecting the required sample size.

    Returns ``inf`` when the window carries no traffic at all.
    """
    volume = problem.window_volume(start, start + duration, groups)
    if volume <= 0:
        return float("inf")
    return spec.required_samples / volume


def random_groups(
    problem: SchedulingProblem, spec: ExperimentSpec, rng: SeededRng
) -> frozenset[str]:
    """Pick user groups for a gene.

    Preferred groups are used when specified, but occasionally widened
    with extra groups: coverage is a *soft* objective, and trading a bit
    of coverage for feasibility is exactly the compromise dense instances
    require.
    """
    names = problem.profile.group_names
    if spec.preferred_groups:
        groups = set(spec.preferred_groups)
        if rng.random() < 0.35:
            extra = rng.randint(1, max(1, len(names) - len(groups)))
            groups.update(rng.sample(names, min(extra, len(names))))
        return frozenset(groups)
    k = rng.randint(1, len(names))
    return frozenset(rng.sample(names, k))


def random_gene(
    problem: SchedulingProblem, spec: ExperimentSpec, rng: SeededRng
) -> Gene:
    """Construct a random, sample-feasible gene when one exists.

    Tries random (start, duration) windows and picks the smallest
    sufficient fraction with a little headroom; falls back to the most
    generous plan (earliest start, maximal duration and fraction) when no
    sampled window is feasible — the evaluation's penalty then guides the
    search away from it.
    """
    horizon = problem.horizon
    groups = random_groups(problem, spec, rng)
    latest_start = max(spec.earliest_start, horizon - spec.min_duration_slots)
    for _ in range(30):
        start = rng.randint(spec.earliest_start, latest_start)
        max_duration = min(spec.max_duration_slots, horizon - start)
        if max_duration < spec.min_duration_slots:
            continue
        duration = rng.randint(spec.min_duration_slots, max_duration)
        needed = required_fraction(problem, spec, start, duration, groups)
        if needed <= spec.max_traffic_fraction:
            fraction = min(
                spec.max_traffic_fraction,
                max(spec.min_traffic_fraction, needed * rng.uniform(1.02, 1.3)),
            )
            if fraction >= needed:
                return Gene(start, duration, fraction, groups)
    # Fallback: the most generous plan within bounds, then repaired —
    # repair may widen the group set when even that cannot collect the
    # required samples.
    start = spec.earliest_start
    duration = min(spec.max_duration_slots, horizon - start)
    duration = max(duration, spec.min_duration_slots)
    draft = Gene(start, duration, spec.max_traffic_fraction, groups)
    return repair_gene(problem, spec, draft)


def repair_gene(
    problem: SchedulingProblem, spec: ExperimentSpec, gene: Gene
) -> Gene:
    """Clamp a gene into its bounds and restore sample feasibility.

    First clamps start/duration/fraction, then — if the sample-size
    constraint is missed — raises the fraction up to its maximum and
    finally stretches the duration while room remains.
    """
    horizon = problem.horizon
    start = min(max(gene.start, spec.earliest_start), horizon - 1)
    max_duration = min(spec.max_duration_slots, horizon - start)
    if max_duration < spec.min_duration_slots:
        start = max(spec.earliest_start, horizon - spec.min_duration_slots)
        max_duration = min(spec.max_duration_slots, horizon - start)
    duration = min(max(gene.duration, spec.min_duration_slots), max_duration)
    fraction = min(
        max(gene.fraction, spec.min_traffic_fraction), spec.max_traffic_fraction
    )
    groups = gene.groups
    needed = required_fraction(problem, spec, start, duration, groups)
    if fraction < needed:
        fraction = min(spec.max_traffic_fraction, max(fraction, needed))
    while (
        fraction < required_fraction(problem, spec, start, duration, groups)
        and duration < max_duration
    ):
        duration += 1
    # Last resort: widen the group set (coverage is a soft objective;
    # missing the sample size is a hard constraint).
    if fraction < required_fraction(problem, spec, start, duration, groups):
        remaining = sorted(
            (g for g in problem.profile.group_names if g not in groups),
            key=lambda g: problem.profile.group(g).share,
            reverse=True,
        )
        widened = set(groups)
        for group in remaining:
            widened.add(group)
            if fraction >= required_fraction(
                problem, spec, start, duration, frozenset(widened)
            ):
                break
        groups = frozenset(widened)
    return Gene(start, duration, fraction, groups)


def mutate_gene(
    problem: SchedulingProblem, spec: ExperimentSpec, gene: Gene, rng: SeededRng
) -> Gene:
    """Perturb one field of a gene and repair the result."""
    horizon = problem.horizon
    move = rng.randint(0, 3)
    start, duration, fraction, groups = (
        gene.start,
        gene.duration,
        gene.fraction,
        gene.groups,
    )
    if move == 0:
        start = max(0, start + rng.randint(-6, 6))
    elif move == 1:
        duration = max(1, duration + rng.randint(-4, 4))
    elif move == 2:
        fraction = min(1.0, max(1e-6, fraction * rng.uniform(0.75, 1.3)))
    else:
        names = problem.profile.group_names
        current = set(groups)
        candidate = rng.choice(names)
        removable = len(current) > 1 and (
            candidate not in spec.preferred_groups or rng.random() < 0.2
        )
        if candidate in current and removable:
            current.remove(candidate)
        else:
            current.add(candidate)
        groups = frozenset(current)
    start = min(start, horizon - 1)
    draft = Gene(max(0, start), max(1, duration), min(1.0, fraction), groups)
    return repair_gene(problem, spec, draft)


def crossover(
    a: Schedule, b: Schedule, rng: SeededRng
) -> tuple[Schedule, Schedule]:
    """One-point crossover at an experiment boundary (Fig 3.2)."""
    n = len(a.genes)
    if n < 2:
        return a.copy(), b.copy()
    point = rng.randint(1, n - 1)
    child1 = Schedule(a.problem, a.genes[:point] + b.genes[point:])
    child2 = Schedule(a.problem, b.genes[:point] + a.genes[point:])
    return child1, child2


def random_schedule(
    problem: SchedulingProblem,
    rng: SeededRng,
    packed: bool = True,
    initial: Schedule | None = None,
    locked: frozenset[int] = frozenset(),
) -> Schedule:
    """A random schedule; with *packed* a greedy overlap repair is applied.

    When *initial* and *locked* are given (reevaluation mode), locked
    genes are copied verbatim from *initial* and only free genes are
    randomized.
    """
    genes: list[Gene] = []
    for index, spec in enumerate(problem.experiments):
        if initial is not None and index in locked:
            genes.append(initial.genes[index])
        else:
            genes.append(random_gene(problem, spec, rng))
    schedule = Schedule(problem, genes)
    return pack_repair(schedule, rng, locked) if packed else schedule


def pack_repair(
    schedule: Schedule, rng: SeededRng, locked: frozenset[int] = frozenset()
) -> Schedule:
    """Greedy overlap repair: fit genes one by one into remaining capacity.

    Genes are visited in random order; a gene that would oversubscribe a
    (slot, group) is first thinned to the remaining capacity (if it still
    meets its sample size) and otherwise shifted to the earliest later
    window with room.  Genes that fit nowhere are kept as-is; the
    evaluation penalty handles them.

    Contract: the result — every fraction to the last bit, and the RNG
    state left behind — is a function of ``(schedule, rng, locked)`` that
    search trajectories depend on; it is held equal to the per-cell
    reference in ``tests/property/test_pack_repair_equivalence.py``.
    """
    problem = schedule.problem
    horizon = problem.horizon
    group_index = problem.group_index
    prefix = problem.volume_prefix
    genes = schedule.genes
    free = [i for i in range(len(genes)) if i not in locked]
    rng.shuffle(free)
    # Locked genes claim their capacity first and are never moved.
    order = [i for i in range(len(genes)) if i in locked] + free
    usage = [[0.0] * horizon for _ in problem.group_names]
    partial_below = 1.0 - 1e-12
    new_genes = list(genes)

    def room(lo: int, hi: int) -> float:
        """Least remaining capacity of the gene's groups over slots [lo, hi)."""
        # min(1 - u) == 1 - max(u) exactly: IEEE subtraction is monotone.
        if avail is None:
            return 1.0 - max([max(col[lo:hi]) for col in cols])
        return min(avail[lo - origin : hi - origin])

    def fit(start: int, duration: int, left: float) -> Gene | None:
        """The gene in this window, thinned to *left*, if it still gets its samples."""
        volume = (prefix[start + duration] - prefix[start]) * share
        needed = required / volume if volume > 0 else float("inf")
        fraction = min(max(gene.fraction, needed, low), high, left)
        if fraction >= needed and fraction >= low:
            if (start, duration, fraction) == (origin, gene.duration, gene.fraction):
                return gene
            return Gene(start, duration, fraction, gene.groups)
        return None

    for index in order:
        spec = problem.experiments[index]
        gene = genes[index]
        cols = [usage[group_index[g]] for g in gene.groups]
        placed = gene if index in locked else None
        share = problem.group_share(gene.groups)
        required = spec.required_samples
        low, high = spec.min_traffic_fraction, spec.max_traffic_fraction
        shortest, longest = spec.min_duration_slots, spec.max_duration_slots
        # 1 - max usage over cols from `origin` on; built once the first window fails.
        avail: list[float] | None = None
        origin = start = gene.start
        while placed is None and start + shortest <= horizon:
            end = start + min(gene.duration, horizon - start)
            left = room(start, end)
            if left > 0:
                placed = fit(start, end - start, left)
                # A longer window needs a smaller fraction; retry at the
                # maximal duration before giving up on this start.
                max_end = start + min(longest, horizon - start)
                if placed is None and max_end > end:
                    left = min(left, room(end, max_end))
                    if left > 0:
                        placed = fit(start, max_end - start, left)
            if placed is None:
                if avail is None:
                    tail = [col[origin:] for col in cols]
                    worst = map(max, *tail) if len(tail) > 1 else tail[0]
                    avail = [1.0 - u for u in worst]
                    partial = bytes(map(partial_below.__gt__, avail))
                # Resume past the first partially-used slot of [start, end).
                hit = partial.find(1, start - origin, end - origin)
                start = (hit + origin if hit >= 0 else start) + 1
        if placed is None:
            # Nowhere to fit: keep the (repaired) original plan; the
            # evaluation penalty steers the search away from it.
            placed = repair_gene(problem, spec, gene)
            cols = [usage[group_index[g]] for g in placed.groups]
        new_genes[index] = placed
        start, end, fraction = placed.start, placed.end, placed.fraction
        for col in cols:
            col[start:end] = [u + fraction for u in col[start:end]]
    return Schedule(problem, new_genes)
