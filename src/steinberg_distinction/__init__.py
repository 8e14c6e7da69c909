"""Symbolic combinatorics deciding distinction of twisted Steinberg
representations, with exact L-factor arithmetic and finite brute-force
oracles."""

__version__ = "0.1.0"
