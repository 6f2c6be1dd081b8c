"""Finite symplectic actions on theta characteristics, the level-3
Heisenberg representation, the invariant quartic threefold with its two
Steinerian maps, numeric theta functions, and the six-node / sixteen-node
quartic surfaces built from both the abelian-surface and the genus-2-curve
side, cross-verified against each other.

The package re-exports nothing: import from the submodules
(``weddle.fields``, ``weddle.poly``, ``weddle.linalg``, ``weddle.symplectic``,
``weddle.heisenberg``, ``weddle.burkhardt``, ``weddle.theta``,
``weddle.curves``, ``weddle.suite``, ``weddle.cli``), so that importing
one of them loads only what it needs.
"""

__version__ = "0.1.0"
