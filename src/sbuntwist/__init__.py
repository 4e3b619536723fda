"""Exact cycle calculus for birational maps between Severi-Brauer surfaces.

Symbolic layer: cycle classes with integer invariants (`cycles`), the two
elementary link pushforwards (`links`), and the greedy untwisting
factorization (`untwist`).  Geometric oracle: finite-field plane geometry
(`gf`, `plane`), quadratic-transform curve bookkeeping (`curves`), and the
cross-checking scans (`verify`).  `cli` exposes everything as the
``sbuntwist`` command.

Each name is imported from the module that defines it, for example
``from sbuntwist.untwist import untwist``.
"""
