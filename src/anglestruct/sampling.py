"""Seeded random instances for ``gen``: gluings and angle structures.

Gluings are sampled by shuffling the 3N face slots and pairing them
consecutively, rejecting pairings that leave the surface disconnected; a
pairing may glue two sides of one face.  Structures are sampled face by
face and rescaled or rejected until the requested geometry class holds;
they come out as the package's flat tuples, one angle per corner at
3*face + slot.  Everything is driven by a caller-supplied
``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .angles import AngleStructure, GeometryClass
from .errors import Disconnected, OddFaceCount, excerpt
from .surface import Triangulation, validate


def random_triangulation(n_faces: int, rng: random.Random) -> Triangulation:
    """Connected gluing of n_faces triangles; self-glued edges allowed."""
    if n_faces < 2 or n_faces % 2:
        raise OddFaceCount(f"need an even face count >= 2, got {excerpt(n_faces)}")
    for _ in range(10_000):
        slots = [(f, k) for f in range(n_faces) for k in range(3)]
        rng.shuffle(slots)
        incidence = [[-1, -1, -1] for _ in range(n_faces)]
        for i, (f, k) in enumerate(slots):
            incidence[f][k] = i // 2
        # number the slot pairs by first appearance, face by face
        first: dict[int, int] = {}
        incidence = [[first.setdefault(p, len(first)) for p in row] for row in incidence]
        try:
            return validate(incidence)
        except Disconnected:
            continue
    raise RuntimeError("rejection sampling failed to find a connected gluing")


def _euclidean_triple(rng):
    p, q, r = (rng.randint(1, 12) for _ in range(3))
    total = p + q + r
    return [Fraction(p, total), Fraction(q, total), Fraction(r, total)]


def _hyperbolic_triple(rng):
    scale_den = rng.randint(2, 40)
    scale = Fraction(rng.randint(1, scale_den - 1), scale_den)
    return [v * scale for v in _euclidean_triple(rng)]


def _spherical_triple(rng):
    while True:
        den = rng.randint(3, 40)
        triple = [Fraction(rng.randint(1, den - 1), den) for _ in range(3)]
        a, b, c = triple
        if a + b + c > 1 and b + c - a < 1 and a + c - b < 1 and a + b - c < 1:
            return triple


def random_structure(
    t: Triangulation, geometry: GeometryClass, rng: random.Random
) -> AngleStructure:
    """Structure whose every face carries the requested geometry class."""
    samplers = {
        GeometryClass.EUCLIDEAN: _euclidean_triple,
        GeometryClass.HYPERBOLIC: _hyperbolic_triple,
        GeometryClass.SPHERICAL: _spherical_triple,
    }
    sampler = samplers[geometry]
    return AngleStructure(tuple(v for _ in range(t.n_faces) for v in sampler(rng)))
