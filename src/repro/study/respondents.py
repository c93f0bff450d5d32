"""Synthetic survey respondents matched to the published marginals.

Raw study data is unavailable; what the tables publish are subgroup
percentages.  We synthesize 187 respondents via *deterministic quota
assignment*: within each column subgroup, exactly
``round(percentage * subgroup_size)`` respondents receive an answer
option.  Quotas are filled against the web/other subgroup split (the
chapter's primary breakdown); company-size columns then land close to
the published values but are not separately enforced — matching the
information actually available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.rng import SeededRng
from repro.study.data import DEMOGRAPHICS, SurveyTable


@dataclass
class Respondent:
    """One synthetic survey participant."""

    respondent_id: int
    app_type: str          # "web" | "other"
    company_size: str      # "startup" | "sme" | "corp"
    experience: str        # "0-2" | "3-5" | "6-10" | ">10"
    answers: dict[str, set[str]] = field(default_factory=dict, init=False)

    def answered(self, table_id: str, option: str) -> bool:
        """Whether the respondent picked *option* in *table_id*."""
        return option in self.answers.get(table_id, set())


def generate_respondents(seed: int = 2016) -> list[Respondent]:
    """Build the 187-respondent synthetic dataset."""
    rng = SeededRng(seed)
    respondents: list[Respondent] = []
    sizes = (
        ["startup"] * DEMOGRAPHICS["startup"]
        + ["sme"] * DEMOGRAPHICS["sme"]
        + ["corp"] * DEMOGRAPHICS["corp"]
    )
    rng.shuffle(sizes)
    experience_pool: list[str] = []
    for band, count in DEMOGRAPHICS["experience"].items():
        experience_pool.extend([band] * count)
    while len(experience_pool) < DEMOGRAPHICS["total"]:
        experience_pool.append("6-10")
    rng.shuffle(experience_pool)
    for index in range(DEMOGRAPHICS["total"]):
        app_type = "web" if index < DEMOGRAPHICS["web"] else "other"
        respondents.append(
            Respondent(
                respondent_id=index,
                app_type=app_type,
                company_size=sizes[index],
                experience=experience_pool[index],
            )
        )
    return respondents


def assign_table(
    respondents: list[Respondent],
    table: SurveyTable,
    seed: int = 7,
) -> list[Respondent]:
    """Fill quota answers for *table* into a subset of *respondents*.

    Returns the participating subset (tables 2.2/2.7/2.8 were follow-up
    questions only a branch of the survey reached).  For single-choice
    tables each participant receives exactly one option; for
    multiple-choice tables options are assigned independently per quota.
    """
    rng = SeededRng(seed + hash(table.table_id) % 1000)
    participants: list[Respondent] = []
    for app_type in ("web", "other"):
        pool = [r for r in respondents if r.app_type == app_type]
        quota = table.sample_sizes[app_type]
        rng.shuffle(pool)
        participants.extend(pool[:quota])

    for app_type in ("web", "other"):
        subgroup = [r for r in participants if r.app_type == app_type]
        rng.shuffle(subgroup)
        if table.multiple_choice:
            for option in table.rows:
                share = table.percentage(option, app_type) / 100.0
                count = round(share * len(subgroup))
                rng.shuffle(subgroup)
                for respondent in subgroup[:count]:
                    respondent.answers.setdefault(table.table_id, set()).add(option)
        else:
            cursor = 0
            options = list(table.rows)
            for option_index, option in enumerate(options):
                share = table.percentage(option, app_type) / 100.0
                count = round(share * len(subgroup))
                if option_index == len(options) - 1:
                    count = len(subgroup) - cursor  # absorb rounding drift
                for respondent in subgroup[cursor:cursor + count]:
                    respondent.answers[table.table_id] = {option}
                cursor += count
    return participants
