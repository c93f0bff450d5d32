"""E1 — Fig 3.3: example traffic profile and traffic consumption.

Reproduces the figure's two series: the available traffic volume per
hourly slot (diurnal/weekly shape) and the volume consumed by a small
set of scheduled experiments.
"""

from _util import emit, format_rows

from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.scheduler import Fenrir
from repro.traffic.profile import consumption_series, diurnal_profile


def run_experiment():
    profile = diurnal_profile(days=7, peak_volume=60_000, seed=7)
    experiments = random_experiments(
        profile, count=3, band=SampleSizeBand.MEDIUM, seed=11
    )
    result = Fenrir(GeneticAlgorithm(population_size=16)).schedule(
        profile, experiments, budget=600, seed=1
    )
    series = consumption_series(profile, result.schedule.consumption_per_slot())
    return profile, result, series


def test_fig_3_3(benchmark):
    profile, result, series = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    assert result.valid, "the 3-experiment schedule must be valid"
    consumed_total = sum(consumed for _, consumed in series)
    available_total = sum(available for available, _ in series)
    # Consumption must stay within availability — in every slot.
    assert all(consumed <= available + 1e-6 for available, consumed in series)
    assert 0 < consumed_total < available_total

    rows = [
        {
            "slot": slot,
            "available": available,
            "consumed": consumed,
            "utilisation_pct": 100.0 * consumed / available if available else 0.0,
        }
        for slot, (available, consumed) in enumerate(series)
        if slot < 48  # first two days, matching the figure's granularity
    ]
    emit(
        "Fig 3.3 traffic profile and consumption (first 48 hourly slots)",
        format_rows(rows),
    )
