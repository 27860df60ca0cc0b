"""Combinatorial model of a triangulated closed surface.

A surface is a finite collection of triangular faces whose 3|F| edge
slots are identified in pairs.  Slot k of a face holds the edge opposite
corner k, so a corner is addressed by (face, slot) and faces the edge
stored in that slot.  Only face-edge incidence is represented; vertices
play no role in any feasibility condition handled here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import chain

from .errors import Disconnected, EdgeDegree, EmptyTriangulation, UnknownEdge, excerpt

DEFAULT_ENUMERATION_CAP = 20

FaceSubset = frozenset[int]


Corner = namedtuple("Corner", "face slot")


class Triangulation(namedtuple("Triangulation", "faces edge_ids edge_corners")):
    """Validated gluing: ``faces[f][k]`` is the dense edge index opposite corner k.

    faces: tuple[tuple[int, int, int], ...]; edge_ids: tuple[int, ...], at
    e the identifier dense edge e had in the raw incidence list; all other
    fields use dense indices.  edge_corners: tuple[tuple[Corner, Corner],
    ...], at e the two corners facing edge e (both may lie in the same face
    when the edge is self-glued).
    """

    __slots__ = ()

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)


def validate(raw_incidence: Iterable[Iterable[int]]) -> Triangulation:
    """Build a Triangulation from an incidence list, checking the gluing.

    Edge identifiers may be arbitrary integers.  A numbering that is
    already 0..|E|-1 is kept; any other is reindexed densely by first
    appearance.  Raises EdgeDegree unless every identifier occurs
    exactly twice, Disconnected unless faces form one component under
    shared edges, Empty on an empty list.
    """
    rows = [tuple(row) for row in raw_incidence]
    if not rows:
        raise EmptyTriangulation("no faces")
    for f, row in enumerate(rows):
        if len(row) != 3:
            raise EdgeDegree(f"face {f} has {len(row)} edge slots, expected 3")

    edge_ids = list(dict.fromkeys(chain.from_iterable(rows)))
    if set(edge_ids) == set(range(len(edge_ids))):
        edge_ids.sort()
    index = {ident: e for e, ident in enumerate(edge_ids)}
    faces = [tuple(index[ident] for ident in row) for row in rows]
    occurrences: list[list[Corner]] = [[] for _ in edge_ids]
    for f, row in enumerate(faces):
        for k, e in enumerate(row):
            occurrences[e].append(tuple.__new__(Corner, (f, k)))

    for e, corners in enumerate(occurrences):
        if len(corners) != 2:
            raise EdgeDegree(f"edge {excerpt(edge_ids[e])} appears {len(corners)} times, expected 2")

    _check_connected(faces, occurrences)
    edge_corners = tuple(map(tuple, occurrences))
    return Triangulation(tuple(faces), tuple(edge_ids), edge_corners)


def _check_connected(faces, occurrences):
    """Raise Disconnected unless every face is reached from face 0 across
    shared edges, whose two corners occurrences[e] holds."""
    seen = {0}
    stack = [0]
    while stack:
        f = stack.pop()
        for e in faces[f]:
            for g, _ in occurrences[e]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    if len(seen) != len(faces):
        raise Disconnected(f"{len(faces) - len(seen)} faces unreachable from face 0")


def corners_facing(t: Triangulation, edge: int) -> tuple[Corner, Corner]:
    """The two corners opposite the given dense edge index."""
    if not 0 <= edge < t.n_edges:
        raise UnknownEdge(str(edge))
    return t.edge_corners[edge]


def edge_set(t: Triangulation, subset: FaceSubset) -> frozenset[int]:
    """All edges belonging to at least one face of the subset (no multiplicity)."""
    return frozenset(chain.from_iterable(map(t.faces.__getitem__, subset)))

