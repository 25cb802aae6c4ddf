"""Bipartite graph spectra, quotient-matrix bounds, vertex splits, and
expander codes over GF(2).  Each name is imported from its module."""

__version__ = "0.1.0"
