"""Permutations of {1..degree} with disjoint-cycle notation.

Points are 1-based in a Permutation: in parsed input, in printed output and
in its image tuple.  A group keeps its elements as the bytes of their 0-based
images instead (``_bytes``, ``_from_bytes``) and reads their orders off its
power walks.  Composition is function composition, ``(g * h)(p) ==
g(h(p))``, i.e. the right factor acts first.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Iterable, List, Tuple


class PermParseError(ValueError):
    """Raised when a cycle-notation string is malformed."""


class Permutation:
    """An immutable bijection of {1..degree}."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        imgs = tuple(int(v) for v in images)
        if not imgs:
            raise ValueError("degree must be positive")
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"images {imgs} are not a bijection of 1..{len(imgs)}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _trusted(cls, images: Tuple[int, ...]) -> "Permutation":
        """Unchecked constructor for image tuples already known to be bijections."""
        out = object.__new__(cls)
        object.__setattr__(out, "images", images)
        return out

    @classmethod
    def _from_bytes(cls, images: bytes) -> "Permutation":
        """From the bytes of the 0-based images, the form a group keeps its elements in."""
        return cls._trusted(tuple([v + 1 for v in images]))

    def _bytes(self) -> bytes:
        """The bytes of the 0-based images; the degree must be at most 256."""
        return bytes([v - 1 for v in self.images])

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))  # refuses a degree below 1

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different degree")
        mine = self.images
        return Permutation._trusted(tuple([mine[i - 1] for i in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation._trusted(tuple(inv))

    def cycles(self) -> List[Tuple[int, ...]]:
        """Nontrivial cycles in canonical form: each from its least point, sorted."""
        seen, out = set(), []
        for start, nxt in enumerate(self.images, 1):
            if nxt != start and start not in seen:
                cyc = [start]
                while nxt != start:
                    cyc.append(nxt)
                    nxt = self.images[nxt - 1]
                seen.update(cyc)
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        """Least k >= 1 with self^k the identity: the lcm of the cycle lengths."""
        return lcm(*map(len, self.cycles()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permutation is immutable")

    def __str__(self) -> str:
        return format_permutation(self)

    def __repr__(self) -> str:
        return f"Permutation[{format_permutation(self)} deg {len(self.images)}]"


def format_permutation(g: Permutation) -> str:
    """Canonical cycle string: cycles by least moved point, "()" for identity."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in g.cycles()) or "()"


def _tokenize(text: str) -> List[object]:
    # [0-9], not str.isdigit, which also takes "\u00b2"; \s is str.isspace.
    tokens = re.findall(r"[()]|[0-9]+|\S", text)
    for tok in tokens:
        if tok not in "()" and not "0" <= tok[0] <= "9":
            raise PermParseError(f"unexpected character {tok!r} in cycle notation")
    return [tok if tok in "()" else int(tok) for tok in tokens]


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation over 1-based points.

    Whitespace is free-form, fixed points may be omitted and ``()`` denotes
    the identity.  Raises :class:`PermParseError` for repeated points, points
    out of range and malformed parentheses.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    tokens = _tokenize(text)
    if not tokens:
        raise PermParseError("empty cycle notation (use \"()\" for the identity)")
    cycles: List[List[int]] = []
    current: List[int] | None = None
    for tok in tokens:
        if tok == "(":
            if current is not None:
                raise PermParseError("nested '(' in cycle notation")
            current = []
        elif tok == ")":
            if current is None:
                raise PermParseError("unmatched ')' in cycle notation")
            cycles.append(current)
            current = None
        else:
            if current is None:
                raise PermParseError(f"point {tok} outside any cycle")
            current.append(int(tok))  # type: ignore[arg-type]
    if current is not None:
        raise PermParseError("unclosed '(' in cycle notation")

    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if not 1 <= p <= degree:
                raise PermParseError(f"point {p} out of range 1..{degree}")
            if p in seen:
                raise PermParseError(f"point {p} repeated")
            seen.add(p)
        for pos, p in enumerate(cyc):
            images[p - 1] = cyc[(pos + 1) % len(cyc)]
    return Permutation._trusted(tuple(images))  # each point checked once, in range

