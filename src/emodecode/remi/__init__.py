"""REMI-style event codec: vocabulary, grammar, piece model, MIDI I/O."""
