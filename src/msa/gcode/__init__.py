"""Pragmatic control tag language: parse, canonicalize, compile, infer."""
