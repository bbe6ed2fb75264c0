"""Exception and warning types shared across the package."""


class EmodecodeError(Exception):
    """Base class for package errors."""


class DataError(EmodecodeError):
    """Bad input data (corpus, labels, MIDI, model files, manifests); the CLI exits 2."""


class GrammarError(DataError):
    """A token sequence breaks the REMI transition rules.

    ``index`` points at the first offending token; a sequence that stops
    inside an unfinished note group gets ``index == len(seq)``.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"grammar violation at token {index}")


class MalformedMidi(DataError):
    """A MIDI file could not be parsed. ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class SequenceTooShort(DataError):
    """An evaluator needs at least one completed bar."""


class TerminalNode(EmodecodeError):
    """Tried to expand a prefix that already ends the piece."""


class UntrainedCondition(DataError):
    """The requested control token never occurred in training data."""


class NotFitted(DataError):
    """A model was used before ``fit()`` or ``load()``."""


class EmptyCorpus(DataError):
    """Training was attempted on zero sequences."""


class EmptyPiece(EmodecodeError):
    """A note-level metric needs at least one note."""


class NoValidFiles(DataError):
    """An ingest run produced no usable pieces."""


class LabelMismatch(DataError):
    """A label file does not line up with the corpus it annotates."""


class ManifestSchemaError(DataError):
    """A run manifest is missing required fields or is inconsistent."""


class MeterImportWarning(UserWarning):
    """A MIDI file declared a time signature other than 4/4."""
