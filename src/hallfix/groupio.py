"""Parsing of line-oriented ASCII group files.

Format: optional ``#`` comment lines, one ``degree: <k>`` line, then one or
more ``gen: <cycles>`` lines in disjoint-cycle notation, with free-form
whitespace, fixed points omitted and ``()`` for the identity.  The parser
returns the degree and the generators; it refuses a malformed line, a
missing or repeated degree and a degree over ``MAX_DEGREE``.  A file is
read as ASCII bytes; ``splitlines`` ends lines at LF, CRLF and CR alike.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

# MAX_DEGREE, 256, is the largest degree a group file may declare, as a group's
# image bytes hold a point per byte; a larger one is refused before any gen is parsed.
from .group import MAX_DEGREE
from .perm import Permutation, parse_permutation


class GroupFileError(ValueError):
    """Raised for malformed group files."""


def parse_group_text(text: str) -> Tuple[int, List[Permutation]]:
    """Parse group-file text into (degree, generators)."""
    degree: int | None = None
    gen_specs: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("degree:"):
            if degree is not None:
                raise GroupFileError(f"line {lineno}: duplicate degree line")
            value = line[len("degree:"):].strip()
            # ASCII digits only, as for points: int() also takes "1_0" and "+7".
            if not (value.isascii() and value.isdigit()):
                raise GroupFileError(f"line {lineno}: bad degree {value!r}")
            degree = int(value)
            if degree < 1:
                raise GroupFileError(f"line {lineno}: degree must be positive")
            if degree > MAX_DEGREE:
                raise GroupFileError(
                    f"line {lineno}: degree {degree} is over the limit {MAX_DEGREE}")
        elif line.startswith("gen:"):
            if degree is None:
                raise GroupFileError(f"line {lineno}: gen before degree")
            gen_specs.append(line[len("gen:"):].strip())
        else:
            raise GroupFileError(f"line {lineno}: unrecognized line {line!r}")
    if degree is None:
        raise GroupFileError("missing degree line")
    if not gen_specs:
        raise GroupFileError("missing gen lines")
    try:
        gens = [parse_permutation(spec, degree) for spec in gen_specs]
    except ValueError as exc:
        raise GroupFileError(str(exc)) from exc
    return degree, gens


def read_group_file(path: "str | Path") -> Tuple[int, List[Permutation]]:
    try:
        with open(path, "rb") as f:
            text = f.read().decode("ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupFileError(f"cannot read group file {path}: {exc}") from exc
    return parse_group_text(text)
