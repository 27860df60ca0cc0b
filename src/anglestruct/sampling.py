"""Seeded random instances: gluings, angle structures, invariant values.

Gluings are sampled by shuffling the 3N face slots and pairing them
consecutively, rejecting pairings that leave the surface disconnected; a
pairing may glue two sides of one face.  Structures are sampled face by
face and rescaled or rejected until the requested geometry class holds.
Structures and edge values come out as the package's flat tuples, one
angle per corner at 3*face + slot and one value per edge.  Everything is
driven by a caller-supplied ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .angles import AngleStructure, EdgeFunction, GeometryClass, InvariantKind
from .errors import Disconnected, OddFaceCount, excerpt
from .surface import Triangulation, validate

MAX_DENOMINATOR = 40


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


def random_hyperbolic_delaunay_domain(t: Triangulation, rng: random.Random) -> AngleStructure:
    """Hyperbolic structure whose Delaunay invariant is guaranteed positive.

    Near-equilateral triples keep every x_j + x_k - x_i strictly positive,
    so each edge's invariant sums two positive terms.
    """
    values = []
    for _ in range(t.n_faces):
        p, q, r = (rng.randint(8, 12) for _ in range(3))
        scale_den = rng.randint(2, 40)
        scale = Fraction(rng.randint(1, scale_den - 1), scale_den)
        total = p + q + r
        values += [Fraction(p, total) * scale, Fraction(q, total) * scale, Fraction(r, total) * scale]
    return AngleStructure(tuple(values))


def random_spherical_edge_domain(t: Triangulation, rng: random.Random) -> AngleStructure:
    """Spherical structure whose edge invariant stays below pi.

    Angles in (pi/3, pi/2) force the face sum above pi, every pairwise
    deficit below pi, and every facing pair below pi.
    """
    return AngleStructure(tuple(Fraction(rng.randint(41, 59), 120) for _ in range(3 * t.n_faces)))


def random_edge_values(
    t: Triangulation,
    rng: random.Random,
    lo: Fraction,
    hi: Fraction,
    kind: InvariantKind,
) -> EdgeFunction:
    """Independent per-edge rationals strictly inside (lo, hi), in pi-units."""
    values = []
    for _ in range(t.n_edges):
        while True:
            den = rng.randint(1, MAX_DENOMINATOR)
            num_min, num_max = math.floor(lo * den) + 1, math.ceil(hi * den) - 1
            if num_min <= num_max:
                values.append(Fraction(rng.randint(num_min, num_max), den))
                break
    return EdgeFunction(tuple(values), kind)
