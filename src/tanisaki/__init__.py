"""Exact presentations of Springer-variety cohomology and K-rings."""
