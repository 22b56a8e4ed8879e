"""Dialogue runtime: turns, roles, commitments, drift, LLM clients, and the reply pipeline."""
