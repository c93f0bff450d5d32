"""Experiment verification (Section 1.6.4 — future work, implemented).

The dissertation envisions "experiment verification, i.e., to identify
upfront whether a defined experiment could negatively interfere with
other planned or currently running experiments", building on the formal
models behind Bifrost and Fenrir.  This package implements that vision
as static analysis: strategies are verified against the application
(versions deployed, checks well-formed, every phase has a safe failure
path) and against the live routing state (a service another experiment
currently routes may not be touched).
"""
