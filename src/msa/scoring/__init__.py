"""Evaluation rubric, heuristic scoring, and group statistics."""
