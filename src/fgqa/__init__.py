"""Floating-gate memory arrays operated as quantum annealers.

The package derives everything from cell geometry: the capacitance
network of a row of floating gates (:mod:`fgqa.cells`), the charging
energy and its two-level Ising reduction (:mod:`fgqa.charging`), the
gate-controlled tunnel amplitude through the bottom oxide
(:mod:`fgqa.tunneling`) and the phonon-limited coherence budget
(:mod:`fgqa.decoherence`).  :mod:`fgqa.annealing` runs exact
state-vector annealing on the derived (or any user-supplied)
transverse-field Ising model, with MAX-CUT as the native problem, and
:mod:`fgqa.cli` wraps it all for the command line.

Each module's ``__all__`` is its public API; import names from their
module, e.g. ``from fgqa.annealing import evolve``.
"""
