"""Topology-aware experiment health assessment (Chapter 5).

Builds *interaction graphs* from distributed traces — nodes are
(service, version, endpoint) triples, edges are observed calls — computes
the *topological difference* between the baseline and experimental
variants of an application, classifies the identified changes into the
chapter's change-type taxonomy, and ranks them by their potential
negative impact on the experiment's health using three heuristic
families: subtree complexity, response-time analysis, and a hybrid.
"""
