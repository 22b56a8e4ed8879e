"""Responsibility-transfer graph analysis and context constraints."""
