"""Unit tests for multi-strategy DSL files."""

import pytest

from repro.errors import DSLError
from repro.bifrost.dsl import parse_strategies, strategy_to_dsl

TWO_STRATEGIES = """
# Team checkout's experiments for sprint 42.

strategy checkout-canary
  phase canary
    type canary
    service checkout
    stable 1.0.0
    experimental 2.0.0
    fraction 0.1

strategy search-ab
  description "search ranker A/B"
  phase compare
    type ab_test
    service search
    stable 1.0.0
    experimental 2.0.0
    second 2.1.0
    fraction 0.5
"""


class TestParseStrategies:
    def test_parses_both(self):
        strategies = parse_strategies(TWO_STRATEGIES)
        assert [s.name for s in strategies] == ["checkout-canary", "search-ab"]

    def test_single_strategy_file(self):
        single = strategy_to_dsl(parse_strategies(TWO_STRATEGIES)[0])
        assert len(parse_strategies(single)) == 1

    def test_blocks_are_independent(self):
        strategies = parse_strategies(TWO_STRATEGIES)
        assert strategies[0].services == frozenset({"checkout"})
        assert strategies[1].services == frozenset({"search"})
        assert strategies[1].description == "search ranker A/B"

    def test_empty_file_rejected(self):
        with pytest.raises(DSLError):
            parse_strategies("# nothing here\n")

    def test_duplicate_names_rejected(self):
        duplicated = TWO_STRATEGIES.replace("search-ab", "checkout-canary")
        with pytest.raises(DSLError):
            parse_strategies(duplicated)

    def test_round_trip_all(self):
        strategies = parse_strategies(TWO_STRATEGIES)
        text = "\n".join(strategy_to_dsl(s) for s in strategies)
        again = parse_strategies(text)
        assert again == strategies
