"""Exception types shared across the library, the value formatting their
messages use, and the two checks of an int's type and range: one for an
argument (ParameterError) and one for a residue (ResidueError)."""


class RnsError(ValueError):
    """Base class for all errors raised by this package."""


class ParameterError(RnsError):
    """A structural parameter is invalid (size 0, width mismatch, bad op)."""


class OutOfRangeError(RnsError):
    """An input integer lies outside the representable range [0, M)."""


class ResidueError(RnsError):
    """A residue lies outside its channel range [0, m_i)."""


# Longest repr that a message shows; a longer value is shown by its size.
SHOWN_CHARS = 100


def _shown(value) -> str:
    """repr(value) for a message, if at most SHOWN_CHARS long; else, or if
    repr refuses it (an int past the int-str digit limit), the value by its
    size: an int by its bit length, a str by its length, else its type."""
    try:
        text = repr(value)
        if len(text) <= SHOWN_CHARS:
            return text
    except ValueError:
        pass
    if isinstance(value, int):
        sign = "negative " if value < 0 else ""
        return f"<{sign}{value.bit_length()}-bit int>"
    if isinstance(value, str):
        return f"<{len(value)}-character text>"
    return f"<{type(value).__name__} too large to show>"


def _check_int(value, name: str, lo: int, hi: int | None = None) -> None:
    """Raise ParameterError unless value is an int, not a bool, in [lo, hi]
    (with no upper bound if hi is None); the message names it as name."""
    if type(value) is not int:
        raise ParameterError(f"{name} must be an int, got {_shown(value)}")
    if value < lo:
        raise ParameterError(f"{name} must be >= {lo}, got {_shown(value)}")
    if hi is not None and value > hi:
        raise ParameterError(f"{name} must be <= {hi}, got {_shown(value)}")


def _check_residue(value, modulus: int, label: str) -> None:
    """Raise ResidueError unless value is an int, not a bool, in
    [0, modulus); the message shows it after label, as in R1=5."""
    if type(value) is not int:
        raise ResidueError(f"{label}{_shown(value)} is not an int")
    if not 0 <= value < modulus:
        raise ResidueError(
            f"{label}{_shown(value)} out of range for modulus {_shown(modulus)}")
