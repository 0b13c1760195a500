"""Coupon-collector / Dixie-cup simulation and limit-law verification toolkit."""

__version__ = "0.1.0"
