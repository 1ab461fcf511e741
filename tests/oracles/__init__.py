"""Frozen reference implementations the parity suites check against."""
