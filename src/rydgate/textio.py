"""Line-oriented key-value grammar and deterministic CSV I/O.

Grammar (shared by species files and config files; run manifests are JSON):

* blank lines and ``# comment`` lines are ignored; a ``#`` also starts a
  trailing comment on any line,
* ``[section]`` opens a named section,
* ``key = value`` assigns a scalar inside the current section; a key
  assigned twice in one section is an error,
* any other non-empty line is a whitespace-separated data row belonging to
  the current section.

Parse errors carry the file name and 1-based line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SpeciesDataError


@dataclass
class Document:
    """Parsed key-value document: per-section scalars and data rows, with
    the line of each scalar and row."""

    scalars: dict[str, dict[str, str]] = field(default_factory=dict)
    rows: dict[str, list[tuple[list[str], int]]] = field(default_factory=dict)
    source: str = "<string>"
    scalar_lines: dict[tuple[str, str], int] = field(default_factory=dict)

    def where(self, section: str, key: str) -> str:
        """``file:line`` of a scalar, as parse errors name it."""
        return f"{self.source}:{self.scalar_lines[section, key]}"

    def section_scalars(self, section: str) -> dict[str, str]:
        return self.scalars.get(section, {})

    def section_rows(self, section: str) -> list[tuple[list[str], int]]:
        return self.rows.get(section, [])

    def require_scalar(self, section: str, key: str) -> str:
        try:
            return self.scalars[section][key]
        except KeyError:
            raise SpeciesDataError(
                f"{self.source}: missing required key '{key}' in section [{section}]"
            ) from None


def parse_document(text: str, source: str = "<string>") -> Document:
    doc = Document(source=source)
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise SpeciesDataError(
                    f"{source}:{lineno}: malformed section header {raw.strip()!r}"
                )
            section = line[1:-1].strip()
            doc.scalars.setdefault(section, {})
            doc.rows.setdefault(section, [])
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise SpeciesDataError(
                    f"{source}:{lineno}: malformed assignment {raw.strip()!r}"
                )
            if (section, key) in doc.scalar_lines:
                raise SpeciesDataError(f"{source}:{lineno}: duplicate key {key!r} in [{section}]")
            doc.scalars.setdefault(section, {})[key] = value
            doc.scalar_lines[section, key] = lineno
            continue
        doc.rows.setdefault(section, []).append((line.split(), lineno))
    return doc


def parse_document_file(path) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpeciesDataError(f"cannot read {path}: {exc}") from exc
    return parse_document(text, source=str(path))


# 12 significant digits, scientific; the one float format every CSV uses.
def format_float(x: float) -> str:
    return f"{float(x):.11e}"


def format_fixed(x: float, decimals: int) -> str:
    """``x`` to ``decimals`` places, in scientific notation from 1e6 up, so
    that a message never spells out hundreds of digits."""
    return f"{x:.{decimals}{'e' if abs(x) >= 1e6 else 'f'}}"


def write_csv(path, header: list[str], table: list[list]) -> None:
    """Write rows as UTF-8 CSV with deterministic float formatting.

    Floats are rendered with 12 significant digits in scientific notation,
    ints as plain decimals, strings verbatim. Unix newlines always.
    """
    lines = [",".join(header)]
    for row in table:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("1" if cell else "0")
            elif isinstance(cell, int):
                cells.append(str(cell))
            elif isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
