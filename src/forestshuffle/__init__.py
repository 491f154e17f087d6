"""Exact-arithmetic shuffle products, coproducts and Rota-Baxter structures
on decorated non-planar rooted forests.

The modules are the API: import each name from the module that defines it,
e.g. ``from forestshuffle.shuffle import forest_shuffle``.
"""

__version__ = "0.1.0"
