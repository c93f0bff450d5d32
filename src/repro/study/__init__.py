"""The empirical study on continuous experimentation (Chapter 2).

The chapter's artifacts are survey tables (Tables 2.2–2.9, Fig 2.3), not
a system.  The raw study data is not public, so this package bundles the
*published* aggregate numbers, generates a synthetic respondent dataset
whose marginals match them (deterministic quota assignment), and
recomputes every table from that micro-data — the closest faithful
reproduction available offline.
"""
