"""Policies and sequence evaluators used by the decoders."""
