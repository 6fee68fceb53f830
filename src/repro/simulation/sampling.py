"""Weighted picks that draw exactly what ``Generator.choice`` draws.

The slot loop picks builders and relays by weight several times a slot:
which builders receive private order flow and bundles (Figure 8), which
are active, and which relays each submits to (Figure 5).
``numpy.random.Generator.choice`` spends most of a call converting and
validating its arguments; the draws themselves are a few uniforms looked
up in a cumulative distribution.  A :class:`WeightedPick` keeps that
distribution between calls and consumes the generator exactly as
``choice`` does, so every stream, and with it every digest, is unchanged.

Every random pick in :mod:`repro.simulation` goes through a
:class:`WeightedPick` or an index draw, ``seq[int(rng.integers(0,
len(seq)))]``, which is the one draw numpy's unweighted ``choice`` makes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np


class WeightedPick:
    """Names with sampling weights, drawn as ``Generator.choice`` draws them.

    ``probs`` are the weights divided by their sum; ``cdf`` is
    ``np.cumsum(probs)`` divided by its last entry, the first-round
    distribution numpy builds on every call.  Weights must be positive.
    """

    __slots__ = ("names", "probs", "cdf")

    def __init__(self, names: Sequence[str], weights: Sequence[float]) -> None:
        probs = np.array(weights, dtype=float)
        probs = probs / probs.sum()
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        self.names = tuple(names)
        self.probs = probs
        self.cdf: list[float] = cdf.tolist()

    def choose(self, rng: np.random.Generator, size: int) -> tuple[str, ...]:
        """``min(size, len(names))`` distinct names, in draw order.

        The names, and the generator state afterwards, that numpy's
        ``Generator.choice`` gives for ``names, size, replace=False,
        p=probs``: each round draws one uniform per name still wanted and
        keeps the first occurrence of each name drawn; a short round
        zeroes the chosen weights and renormalizes before the next.
        ``choose(rng, 1)`` is also numpy's with-replacement draw of one
        name.
        """
        size = min(size, len(self.names))
        cdf = self.cdf
        chosen: list[int] = []
        while len(chosen) < size:
            if chosen:
                probs = self.probs.copy()
                probs[chosen] = 0.0
                cumulative = np.cumsum(probs)
                cdf = (cumulative / cumulative[-1]).tolist()
            for draw in rng.random(size - len(chosen)).tolist():
                index = bisect_right(cdf, draw)
                if index not in chosen:
                    chosen.append(index)
        names = self.names
        return tuple(names[index] for index in chosen)
