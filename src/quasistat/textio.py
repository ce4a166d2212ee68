"""Small text helpers shared by the report writers, the file readers and the CLI."""

from __future__ import annotations

from itertools import islice

from .errors import ValidationError

# write_csv joins this many lines into one string per write: few calls,
# and memory that stays bounded however long the table.
_CSV_CHUNK_LINES = 4096


def fmt(x) -> str:
    """Render a float with 17 significant digits (round-trips exactly).

    The CSV writers format Python floats with f"{x:.17g}", the same text.
    """
    return format(float(x), ".17g")


def write_csv(target, header, lines) -> None:
    """Write the header cells, then lines, each one row's cells already
    joined by commas, to the file at path target."""
    lines = iter(lines)
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(lines, _CSV_CHUNK_LINES)):
            fh.write("\n".join(chunk) + "\n")


def write_text(target, text: str) -> None:
    """Write text to the file at path target, UTF-8 with \\n line ends."""
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_text(source) -> str:
    """The UTF-8 text of the file at path source.

    A file that is not UTF-8 raises ValidationError naming it, not the
    codec's UnicodeDecodeError.
    """
    with open(source, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{source} is not UTF-8 text: {exc.reason}") from None


def render_keyvalues(pairs) -> str:
    """One 'key = value' line per pair."""
    return "".join(f"{k} = {v}\n" for k, v in pairs)
