"""Direct sums of line bundles, morphism types, and dimension combinatorics.

A morphism type is the ambient space of matrices between two decomposable
bundles, together with the blocks that are forced to vanish identically.
The dimension formulas here (Hom spaces, automorphism groups) feed the
stratum-codimension calculus over the case registry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence


__all__ = [
    "BundleSum",
    "MorphismType",
    "hom_dim",
    "hom_space_dim",
    "aut_group_dim",
    "parse_resolution_spec",
    "format_resolution_spec",
]


@dataclass(frozen=True)
class BundleSum:
    """Ordered direct sum of line-bundle twists with multiplicities.

    Twists are strictly increasing so that there are no nonzero maps from a
    later summand type to an earlier one.
    """

    summands: tuple[tuple[int, int], ...]

    def __init__(self, summands: Iterable[tuple[int, int]]) -> None:
        ss = tuple((int(d), int(m)) for d, m in summands)
        if not ss:
            raise ValueError("empty bundle sum")
        for _, m in ss:
            if m < 1:
                raise ValueError("multiplicities must be >= 1")
        twists = [d for d, _ in ss]
        if twists != sorted(set(twists)):
            raise ValueError("twists must be strictly increasing")
        object.__setattr__(self, "summands", ss)

    @property
    def ntypes(self) -> int:
        return len(self.summands)

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.summands)

    def mults(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.summands)

    def dual(self) -> "BundleSum":
        """Apply d -> -d-2 to every twist (reverses the order)."""
        return BundleSum(sorted(((-d - 2, m) for d, m in self.summands)))

    def __str__(self) -> str:
        return "+".join(f"{m}O({d})" for d, m in self.summands)


@dataclass(frozen=True)
class MorphismType:
    """Source and target bundle sums plus blocks forced identically zero.

    ``zeroed`` holds 0-based pairs (source type index, target type index);
    messages and specs name them 1-based.
    Scalar blocks (equal twists) are the ones zeroed in every registry case.
    """

    source: BundleSum
    target: BundleSum
    zeroed: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for i, l in self.zeroed:
            if not (0 <= i < self.source.ntypes and 0 <= l < self.target.ntypes):
                raise ValueError(f"zeroed block ({i + 1},{l + 1}) out of range")
            if self.target.summands[l][0] < self.source.summands[i][0]:
                raise ValueError(
                    f"block ({i + 1},{l + 1}) is already impossible (negative degree)"
                )

    @classmethod
    def make(
        cls,
        source: Sequence[tuple[int, int]],
        target: Sequence[tuple[int, int]],
        zeroed: Iterable[tuple[int, int]] = (),
    ) -> "MorphismType":
        return cls(BundleSum(source), BundleSum(target), frozenset(zeroed))

    def is_zeroed(self, i: int, l: int) -> bool:
        return (i, l) in self.zeroed

    def dual(self) -> "MorphismType":
        """Swap source and target with twists mapped by d -> -d-2."""
        nsrc = self.source.ntypes
        ntgt = self.target.ntypes
        # position j from the end maps to position j from the start
        zeroed = frozenset(
            (ntgt - 1 - l, nsrc - 1 - i) for i, l in self.zeroed
        )
        return MorphismType(self.target.dual(), self.source.dual(), zeroed)

    def __str__(self) -> str:
        s = f"{self.source} -> {self.target}"
        if self.zeroed:
            s += " [zero blocks: " + ",".join(
                f"({i + 1},{l + 1})" for i, l in sorted(self.zeroed)
            ) + "]"
        return s


def hom_dim(a: int, b: int) -> int:
    """Dimension (b-a+1)(b-a+2)/2 of Hom(O(a), O(b)) on the plane; 0 if b < a."""
    if b < a:
        return 0
    d = b - a
    return (d + 1) * (d + 2) // 2


def hom_space_dim(t: MorphismType) -> int:
    """Ambient dimension of the morphism space, zeroed blocks excluded."""
    total = 0
    for i, (d, mi) in enumerate(t.source.summands):
        for l, (e, nl) in enumerate(t.target.summands):
            if t.is_zeroed(i, l):
                continue
            total += mi * nl * hom_dim(d, e)
    return total


def _aut_dim(b: BundleSum) -> int:
    """dim Aut of a decomposable bundle: GL blocks plus lower-triangular maps."""
    total = sum(m * m for _, m in b.summands)
    for i, (di, mi) in enumerate(b.summands):
        for j, (dj, mj) in enumerate(b.summands):
            if i < j:
                total += mi * mj * hom_dim(di, dj)
    return total


def aut_group_dim(t: MorphismType) -> int:
    """dim Aut(source) + dim Aut(target) - 1 (homotheties act trivially)."""
    return _aut_dim(t.source) + _aut_dim(t.target) - 1


_SUMMAND_RE = re.compile(r"\((-?\d+)\)x(\d+)")
_BLOCK_RE = re.compile(r"\((\d+),(\d+)\)")
_BLOCKS_RE = re.compile(r"\(\d+,\d+\)(?:,\(\d+,\d+\))*")


def _parse_sum(text: str) -> list[tuple[int, int]]:
    """The summands as written, zero multiplicities included."""
    out = []
    for part in text.split(","):
        m = _SUMMAND_RE.fullmatch(part.strip())
        if m is None:
            raise ValueError(f"bad summand {part!r}; expected e.g. (-2)x3")
        out.append((int(m.group(1)), int(m.group(2))))
    return out


def parse_resolution_spec(text: str) -> tuple[MorphismType, int | None]:
    """Parse ``src=(-2)x1,(-1)x2 tgt=(0)x3 [ker=(-2)] [zero=(i,l),...]``.

    Returns the morphism type and the optional kernel twist.  Each key may
    appear once.  Blocks are only zeroed when an explicit zero= list of
    1-based (source summand, target summand) pairs is given (the registry
    always spells out its scalar blocks).  The pairs count the summands as
    written, zero multiplicities included.
    """
    fields: dict[str, str] = {}
    for token in text.split():
        key, eq, value = token.partition("=")
        if not eq or key not in ("src", "tgt", "ker", "zero"):
            raise ValueError(f"unknown token {token!r} in resolution spec")
        if key in fields:
            raise ValueError(f"repeated {key}= in resolution spec")
        fields[key] = value
    if "src" not in fields or "tgt" not in fields:
        raise ValueError("resolution spec needs both src= and tgt=")
    kernel = None
    if "ker" in fields:
        m = re.fullmatch(r"\((-?\d+)\)", fields["ker"])
        if m is None:
            raise ValueError(f"bad kernel spec ker={fields['ker']!r}")
        kernel = int(m.group(1))
    src, tgt = _parse_sum(fields["src"]), _parse_sum(fields["tgt"])
    zeroed = []
    if "zero" in fields:
        if not _BLOCKS_RE.fullmatch(fields["zero"]):
            raise ValueError(
                f"bad zero blocks zero={fields['zero']!r}; expected e.g. zero=(2,1),(3,1)"
            )
        for i, l in _BLOCK_RE.findall(fields["zero"]):
            i, l = int(i) - 1, int(l) - 1
            if not (0 <= i < len(src) and 0 <= l < len(tgt)):
                raise ValueError(f"zeroed block ({i + 1},{l + 1}) out of range")
            if tgt[l][0] < src[i][0]:
                raise ValueError(
                    f"block ({i + 1},{l + 1}) is already impossible (negative degree)"
                )
            # a pair naming a summand of multiplicity zero is an empty block;
            # the others are renumbered as those summands drop out
            if src[i][1] and tgt[l][1]:
                zeroed.append(
                    (sum(m > 0 for _, m in src[:i]), sum(m > 0 for _, m in tgt[:l]))
                )
    t = MorphismType.make([s for s in src if s[1]], [s for s in tgt if s[1]], zeroed)
    return t, kernel


def format_resolution_spec(t: MorphismType, kernel: int | None = None) -> str:
    src = ",".join(f"({d})x{m}" for d, m in t.source.summands)
    tgt = ",".join(f"({d})x{m}" for d, m in t.target.summands)
    out = f"src={src} tgt={tgt}"
    if kernel is not None:
        out += f" ker=({kernel})"
    if t.zeroed:
        out += " zero=" + ",".join(
            f"({i + 1},{l + 1})" for i, l in sorted(t.zeroed)
        )
    return out
