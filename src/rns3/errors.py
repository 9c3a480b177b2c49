"""Exception types shared across the library, and the value formatting
their messages use."""


class RnsError(ValueError):
    """Base class for all errors raised by this package."""


class ParameterError(RnsError):
    """A structural parameter is invalid (size 0, width mismatch, bad op)."""


class OutOfRangeError(RnsError):
    """An input integer lies outside the representable range [0, M)."""


class ResidueError(RnsError):
    """A residue lies outside its channel range [0, m_i)."""


def _shown(value) -> str:
    """repr(value) for an error message, at any size.

    The interpreter refuses to write an int of more than 4300 decimal
    digits (by default); such an int is shown by its bit length instead,
    and any other value whose repr is refused by its type name.
    """
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            sign = "negative " if value < 0 else ""
            return f"<{sign}{value.bit_length()}-bit int>"
        return f"<{type(value).__name__} too large to show>"
