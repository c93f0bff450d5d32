"""Feature toggles: the code-level experimentation technique.

Chapter 2 found feature toggles to be the most-used implementation
technique (36% of experimenting respondents) while warning about their
costs: toggles accumulate as technical debt, state explosion makes
testing infeasible past ~150 active toggles, and inadvertently flipped
flags reactivate dead code.  Bifrost's answer is runtime traffic routing;
this package implements the toggle alternative so the trade-off can be
studied head-to-head (see the toggles-vs-routing ablation bench).
"""
