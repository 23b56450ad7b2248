"""The package's errors, and the one rule for reporting malformed input."""

from contextlib import contextmanager


class ItectError(Exception):
    """Base class for errors raised by this package."""


class DataError(ItectError):
    """Bad input data: malformed files, empty zoos, missing labels."""


# What parsing raises on malformed contents; an OSError or MemoryError is not that.
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, OverflowError, RecursionError)


@contextmanager
def reading(source, what: str):
    """Make malformed contents read in the block one DataError prefixed by
    ``source``, a file or a line (None: no prefix). Text that is not UTF-8
    says so; any other parse error reads ``<what>: <error>``."""
    prefix = "" if source is None else f"{source}: "
    try:
        yield
    except DataError as exc:
        raise DataError(f"{prefix}{exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{prefix}not UTF-8 text ({exc.reason})") from None
    except _MALFORMED as exc:
        raise DataError(f"{prefix}{what}: {exc!r}") from None


def parse_lines(lines, parse) -> list:
    """``parse`` of each non-blank line of a JSON Lines file; errors name the line."""
    out = []
    for lineno, line in enumerate(lines, 1):
        if line := line.strip():
            with reading(f"line {lineno}", "bad line"):
                out.append(parse(line))
    return out
