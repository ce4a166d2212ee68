"""Small text helpers shared by the report writers, the file readers and the CLI."""

from __future__ import annotations

from .errors import ValidationError


def fmt(x) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    return format(float(x), ".17g")


def write_csv(target, header, rows) -> None:
    """Write rows of already-stringified cells to the file at path target."""
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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
