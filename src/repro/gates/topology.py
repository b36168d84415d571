"""Series/parallel transistor-network expressions.

A static CMOS gate is fully described by its pull-down network: a tree
whose leaves are input names and whose internal nodes are ``Series`` or
``Parallel`` compositions.  The pull-up network is the *dual* tree
(series and parallel swapped), which guarantees the two networks conduct
complementarily for every input assignment -- a property the test suite
checks by brute force.

Examples
--------
>>> nand3_pd = Series(Leaf("a"), Leaf("b"), Leaf("c"))
>>> dual(nand3_pd)
Parallel(Leaf('a'), Leaf('b'), Leaf('c'))
>>> aoi21_pd = Parallel(Series(Leaf("a"), Leaf("b")), Leaf("c"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Union

from ..errors import NetlistError

__all__ = [
    "Leaf",
    "Series",
    "Parallel",
    "Network",
    "dual",
    "leaves",
    "conducts",
    "series_depths",
    "describe",
]


@dataclass(frozen=True)
class Leaf:
    """A single transistor gated by input ``name``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("Leaf input name must be non-empty")

    def __repr__(self) -> str:
        return f"Leaf({self.name!r})"


class _Composite:
    """Shared behaviour of ``Series`` and ``Parallel``."""

    __slots__ = ("children",)

    def __init__(self, *children: "Network") -> None:
        if len(children) < 1:
            raise NetlistError(f"{type(self).__name__} requires at least one child")
        flat: List[Network] = []
        for child in children:
            if not isinstance(child, (Leaf, Series, Parallel)):
                raise NetlistError(
                    f"network children must be Leaf/Series/Parallel, got "
                    f"{type(child).__name__}"
                )
            # Flatten nested composites of the same kind: Series(Series(a,b),c)
            # == Series(a,b,c).  Keeps equality and naming canonical.
            if type(child) is type(self):
                flat.extend(child.children)  # type: ignore[attr-defined]
            else:
                flat.append(child)
        self.children = tuple(flat)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.children)
        return f"{type(self).__name__}({inner})"


class Series(_Composite):
    """Conducts iff *all* children conduct (a transistor stack)."""


class Parallel(_Composite):
    """Conducts iff *any* child conducts."""


Network = Union[Leaf, Series, Parallel]


def dual(tree: Network) -> Network:
    """Swap series and parallel composition (pull-down -> pull-up)."""
    if isinstance(tree, Leaf):
        return tree
    swapped = Parallel if isinstance(tree, Series) else Series
    return swapped(*(dual(child) for child in tree.children))


def leaves(tree: Network) -> List[str]:
    """Input names in left-to-right traversal order (with duplicates)."""
    if isinstance(tree, Leaf):
        return [tree.name]
    out: List[str] = []
    for child in tree.children:
        out.extend(leaves(child))
    return out


def conducts(tree: Network, assignment: Mapping[str, bool]) -> bool:
    """Whether the network conducts when ``assignment[name]`` marks each
    transistor as on (``True``) or off."""
    if isinstance(tree, Leaf):
        try:
            return bool(assignment[tree.name])
        except KeyError:
            raise NetlistError(f"no assignment for input {tree.name!r}") from None
    if isinstance(tree, Series):
        return all(conducts(child, assignment) for child in tree.children)
    return any(conducts(child, assignment) for child in tree.children)


def series_depths(tree: Network) -> Dict[str, int]:
    """Maximum series-path length through each input's transistor.

    Used for classic stack upsizing: a transistor on a series path of
    length *d* is widened by *d* so the stack drives like the reference
    inverter.  For inputs appearing several times, the worst (longest)
    path wins.
    """
    depths: Dict[str, int] = {}
    # Depth first through an explicit stack, children in order (a
    # recursive closure would leave a reference cycle per call).
    stack = [(tree, 1)]
    while stack:
        node, depth_so_far = stack.pop()
        if isinstance(node, Leaf):
            depths[node.name] = max(depths.get(node.name, 0), depth_so_far)
            continue
        if isinstance(node, Series):
            # Crude but standard: every member of an n-long series chain
            # counts the full chain length (plus any enclosing series).
            depth_so_far += len(node.children) - 1
        stack.extend((child, depth_so_far) for child in reversed(node.children))
    return depths


def describe(tree: Network) -> str:
    """Canonical compact string, usable in cache keys: ``(a.b.c)`` for
    series, ``(a|b|c)`` for parallel."""
    if isinstance(tree, Leaf):
        return tree.name
    sep = "." if isinstance(tree, Series) else "|"
    return "(" + sep.join(describe(c) for c in tree.children) + ")"
