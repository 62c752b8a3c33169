"""Named deterministic random streams.

Every stochastic component in AISLE (instrument noise, network jitter,
simulated-LLM sampling, landscape synthesis, ...) draws from its own named
stream derived from a single root seed.  Streams are independent of each
other and of creation *order*: the stream for a given name is a pure
function of ``(root_seed, name)``, so adding a new component never perturbs
the randomness of existing ones — a property the regression tests rely on.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_to_words(name: str) -> list[int]:
    """Stable 128-bit digest of ``name`` as four uint32 words."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]


class RngRegistry:
    """Factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        The root seed.  Two registries with the same seed hand out
        identical streams for identical names.

    Examples
    --------
    >>> rngs = RngRegistry(42)
    >>> a = rngs.stream("instrument.xrd.noise")
    >>> b = RngRegistry(42).stream("instrument.xrd.noise")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (memoized) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, *_name_to_words(name)])
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """A brand-new generator for ``name``, rewound to its start.

        Unlike :meth:`stream`, repeated calls return independent objects
        that each replay the same sequence — useful for comparing two
        policies against identical noise.
        """
        ss = np.random.SeedSequence([self.seed, *_name_to_words(name)])
        return np.random.default_rng(ss)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.seed} streams={len(self._streams)}>"
