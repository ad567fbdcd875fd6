"""Euler characteristics of Selmer groups over division-field towers of
cyclotomic base fields: exact local reduction data, cyclotomic splitting,
torsion brackets, and the chi / rho / tau invariants, with a CLI front end.

The package root imports nothing: callers import from its submodules.
"""
