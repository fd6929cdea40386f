"""Permutations of {1..degree} with disjoint-cycle notation.

Points are 1-based everywhere: in parsed input, in printed output and in the
internal image table.  Composition is function composition, ``(g * h)(p) ==
g(h(p))``, i.e. the right factor acts first.
"""

from __future__ import annotations

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
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls(range(1, degree + 1))

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

    def _orbits(self) -> List[Tuple[int, ...]]:
        """All cycles including fixed points, each starting at its least point."""
        seen = [False] * len(self.images)
        out: List[Tuple[int, ...]] = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self.images[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self.images[nxt - 1]
            out.append(tuple(cyc))
        return out

    def cycles(self) -> List[Tuple[int, ...]]:
        """Nontrivial cycles in canonical form (sorted by least moved point)."""
        return [c for c in self._orbits() if len(c) > 1]

    def order(self) -> int:
        """Least k >= 1 with self^k the identity: the lcm of the cycle lengths."""
        return image_order(self.images)

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


def image_order(imgs: Tuple[int, ...]) -> int:
    """The order of the permutation with image tuple ``imgs``: the lcm of its cycle lengths."""
    seen = [False] * len(imgs)
    out = 1
    for start, nxt in enumerate(imgs, 1):
        if nxt == start or seen[start - 1]:
            continue
        length = 1
        while nxt != start:
            seen[nxt - 1] = True
            nxt = imgs[nxt - 1]
            length += 1
        out = lcm(out, length)
    return out


def format_permutation(g: Permutation) -> str:
    """Canonical cycle string: cycles by least moved point, "()" for identity."""
    cycs = g.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)


def _tokenize(text: str) -> List[object]:
    tokens: List[object] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(c)
            i += 1
        elif "0" <= c <= "9":  # ASCII only: str.isdigit also takes "\u00b2"
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        else:
            raise PermParseError(f"unexpected character {c!r} in cycle notation")
    return tokens


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

