"""Exact combinatorics of elementary differentials: labelled rooted trees,
arity multi-indices, truncated polynomial jets, and certified linear algebra
over their evaluation maps.

The package imports none of its modules: import each name from the module
that defines it, so that a command loads only what it runs."""

__version__ = "0.1.0"
