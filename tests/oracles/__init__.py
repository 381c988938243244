"""Retired implementations kept only as test oracles.

Each module holds a slower, obviously-correct version of something the
shipped package now does faster; the tests drive both and require
identical results.
"""
