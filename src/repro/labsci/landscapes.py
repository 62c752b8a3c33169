"""Parameter spaces and the synthetic-landscape machinery.

A :class:`ParameterSpace` mixes continuous dimensions (bounded floats) and
discrete dimensions (categorical choices) — the "nested
discrete-continuous" structure the paper highlights for real SDL hardware
(§3.3, [24]).  A :class:`SyntheticLandscape` places deterministic Gaussian
response peaks in that space, seeded per instance, yielding smooth
multi-modal objectives whose global optimum is known to the test harness
but not to the optimizer.

Batch sampling, encoding and the canonical draw-order contract
--------------------------------------------------------------

Planners and the oracle in :meth:`SyntheticLandscape.best_estimate` draw
and encode thousands of candidate points per decision, so the space
carries a vectorized *raw-matrix* representation next to the per-point
dict one.  The batch layer covers the sampler and the encoder only: a
landscape's physics lives in one place, :meth:`Landscape.evaluate`, and
:meth:`Landscape.evaluate_batch` is a loop over it.

- a **raw matrix** is ``(n, len(space))`` float64, one column per
  declared dimension — continuous columns hold raw (un-normalized)
  values, discrete columns hold choice *indices*;
- :meth:`ParameterSpace.sample_batch` draws such a matrix with **one
  vectorized RNG call per dimension, in declared dimension order**
  (continuous: ``rng.uniform(low, high, size=n)``; discrete:
  ``rng.integers(n_choices, size=n)``).  This per-dim column draw order
  is the space's one *draw-order contract*: any consumer that wants to
  reproduce a draw stream must consume the generator in exactly this
  order.  :meth:`ParameterSpace.sample` is its one-row case: one scalar
  variate per dim in the same order, without ``size=`` (numpy's
  ``size=`` path costs about 3x a scalar call, and planners draw
  thousands of single rows per campaign).  A discrete dim calls
  ``rng.integers(0, k)``; a continuous dim returns
  ``low + span * rng.random()`` from a per-space draw plan, the
  expression numpy's ``uniform`` evaluates in C on the same variate, at
  about a third of the cost of a scalar ``uniform`` call.  So
  ``sample(rng)`` equals ``decode_batch(sample_batch(rng, 1))[0]``,
  leaves the generator in the same state, and consumes the stream
  exactly as the old scalar per-dim loop did (kept as the
  ``legacy_sample`` helper in ``tests/test_properties.py``, the property
  test that pins all three).  That holds while numpy's C does not fuse
  the expression into an FMA; on a numpy build that does, the property
  test fails (see DESIGN.md).  ``n`` calls to
  :meth:`~ParameterSpace.sample` do *not* equal one
  ``sample_batch(rng, n)``: the batch fills each column before moving to
  the next dim, so the two agree in distribution, not in variates (see
  DESIGN.md);
- :meth:`encode_batch` (from dicts) and :meth:`encode_raw_batch` (from
  a raw matrix) produce the surrogate encoding bit-identically to
  row-wise :meth:`encode`; :meth:`decode_batch` turns raw rows back
  into parameter dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.sim.rng import RngRegistry

_INF = float("inf")


@dataclass(frozen=True)
class ContinuousDim:
    """A bounded continuous parameter, e.g. temperature."""

    name: str
    low: float
    high: float
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"{self.name}: low must be < high")
        # An infinite span cannot be sampled, encoded or denormalized;
        # ``float()`` overflows on an integer bound beyond a double.  A
        # zero one (integer bounds that round to the same double) would
        # encode ``high`` as ``low`` and always sample ``low``.
        try:
            span = float(self.high) - float(self.low)
        except OverflowError:
            span = _INF
        if not 0.0 < span < _INF:
            raise ValueError(
                f"{self.name}: high - low must be a positive finite double")

    def clip(self, value: float) -> float:
        return float(min(max(value, self.low), self.high))

    def contains(self, value: Any) -> bool:
        return (isinstance(value, (int, float, np.floating, np.integer))
                and self.low <= float(value) <= self.high)

    def normalize(self, value: float) -> float:
        """Map to [0, 1]."""
        return (float(value) - self.low) / (self.high - self.low)

    def denormalize(self, x: float) -> float:
        return self.low + float(x) * (self.high - self.low)


@dataclass(frozen=True)
class DiscreteDim:
    """A categorical parameter, e.g. precursor chemistry."""

    name: str
    choices: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.choices) < 2:
            raise ValueError(f"{self.name}: need at least 2 choices")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"{self.name}: duplicate choices")
        # O(1) choice -> index lookups on the batch-encode hot path
        # (object.__setattr__ because the dataclass is frozen).
        object.__setattr__(self, "_choice_index",
                           {c: i for i, c in enumerate(self.choices)})

    def contains(self, value: Any) -> bool:
        return value in self.choices

    def index(self, value: str) -> int:
        try:
            return self._choice_index[value]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"{value!r} is not in {self.name}") from None


Dim = "ContinuousDim | DiscreteDim"


class ParameterSpace:
    """An ordered mix of continuous and discrete dimensions."""

    def __init__(self, dims: Sequence[Any]) -> None:
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dimension names")
        self.dims: tuple[Any, ...] = tuple(dims)
        self.continuous = tuple(d for d in dims if isinstance(d, ContinuousDim))
        self.discrete = tuple(d for d in dims if isinstance(d, DiscreteDim))
        self._by_name: dict[str, Any] = {d.name: d for d in self.dims}
        # Declared-order names and choice tuples (``None`` for continuous
        # dims) for the row-wise decode.
        self._names: tuple[str, ...] = tuple(names)
        self._choices: tuple[Optional[tuple[str, ...]], ...] = tuple(
            None if isinstance(d, ContinuousDim) else d.choices
            for d in self.dims)
        self._discrete_names: tuple[str, ...] = tuple(
            d.name for d in self.discrete)
        # The draw plan :meth:`sample` walks: (name, choices, low, span)
        # per dim in declared order, choices ``None`` for continuous dims.
        plan: list[tuple[str, Optional[tuple[str, ...]], float, float]] = []
        for name, options, d in zip(self._names, self._choices, self.dims):
            low, span = 0.0, 0.0
            if options is None:
                low = float(d.low)
                span = float(d.high) - low
            plan.append((name, options, low, span))
        self._plan = tuple(plan)
        # Per-dim (start, width) column spans in the encoded vector, in
        # declared order, so batch encoders scatter without re-deriving
        # offsets per row.
        spans: list[tuple[int, int]] = []
        offset = 0
        for d in self.dims:
            width = 1 if isinstance(d, ContinuousDim) else len(d.choices)
            spans.append((offset, width))
            offset += width
        self._enc_spans: tuple[tuple[int, int], ...] = tuple(spans)
        self._encoded_size = offset

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def dim(self, name: str) -> Any:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(name) from None

    # -- validation ------------------------------------------------------------

    def validate(self, params: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` for missing/extra/out-of-range parameters."""
        expected = {d.name for d in self.dims}
        got = set(params)
        if got != expected:
            missing, extra = expected - got, got - expected
            raise ValueError(
                f"bad parameter set: missing={sorted(missing)} "
                f"extra={sorted(extra)}")
        for d in self.dims:
            if not d.contains(params[d.name]):
                raise ValueError(
                    f"{d.name}={params[d.name]!r} outside the valid domain")

    def contains(self, params: Mapping[str, Any]) -> bool:
        try:
            self.validate(params)
            return True
        except ValueError:
            return False

    # -- sampling and counting -------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """Uniform random point in the space: one scalar variate per
        dimension in declared order.

        A discrete dim calls ``rng.integers(0, k)``; a continuous dim
        returns ``low + span * rng.random()``, the expression numpy's
        ``uniform`` evaluates in C, at about a third of the cost of a
        scalar ``uniform`` call.  So it returns
        ``decode_batch(sample_batch(rng, 1))[0]`` and leaves the generator
        in the same state (every span is finite: :class:`ContinuousDim`
        rejects the rest).  ``n`` calls do not reproduce one
        ``sample_batch(rng, n)`` — see the module docstring.
        """
        random, integers = rng.random, rng.integers
        out: dict[str, Any] = {}
        for name, choices, low, span in self._plan:
            if choices is not None:
                out[name] = choices[integers(0, len(choices))]
            else:
                out[name] = low + span * random()
        return out

    # -- batched raw-matrix fast path ----------------------------------------------

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` uniform points as a raw ``(n, len(self))`` matrix.

        One vectorized RNG call per dimension, in declared dim order (the
        draw-order contract): continuous dims fill their column with
        ``rng.uniform(low, high, size=n)``, discrete dims with
        ``rng.integers(n_choices, size=n)`` choice indices.
        """
        raw = np.empty((n, len(self.dims)), dtype=np.float64)
        for j, d in enumerate(self.dims):
            if isinstance(d, ContinuousDim):
                raw[:, j] = rng.uniform(d.low, d.high, size=n)
            else:
                raw[:, j] = rng.integers(0, len(d.choices), size=n)
        return raw

    def decode_batch(self, raw: np.ndarray) -> list[dict[str, Any]]:
        """Raw matrix rows back into parameter dicts (declared key order).

        Continuous values come back as Python ``float``, discrete indices
        as their choice strings, with the same keys, key order and value
        types as :meth:`sample`.  Decodes row by row over one ``tolist()``.
        """
        raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
        names, choices = self._names, self._choices
        return [{name: v if options is None else options[int(v)]
                 for name, options, v in zip(names, choices, row)}
                for row in raw.tolist()]

    def raw_point(self, params: Mapping[str, Any]) -> np.ndarray:
        """One parameter dict as a raw row (continuous values + choice indices)."""
        row = np.empty(len(self.dims), dtype=np.float64)
        for j, d in enumerate(self.dims):
            if isinstance(d, ContinuousDim):
                row[j] = float(params[d.name])
            else:
                row[j] = d.index(params[d.name])
        return row

    def n_conditions(self, continuous_resolution: int = 100) -> float:
        """Size of the condition space at a given continuous resolution.

        This is how "10^13 possible synthesis conditions" style counts are
        computed for E12.
        """
        n = 1.0
        for d in self.dims:
            n *= (continuous_resolution if isinstance(d, ContinuousDim)
                  else len(d.choices))
        return n

    # -- encoding for surrogate models ------------------------------------------------

    def encode(self, params: Mapping[str, Any]) -> np.ndarray:
        """Encode to a flat vector: normalized continuous + one-hot discrete."""
        parts: list[float] = []
        for d in self.dims:
            if isinstance(d, ContinuousDim):
                parts.append(d.normalize(params[d.name]))
            else:
                onehot = [0.0] * len(d.choices)
                onehot[d.index(params[d.name])] = 1.0
                parts.extend(onehot)
        return np.asarray(parts, dtype=np.float64)

    def encode_batch(self, params_seq: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode many parameter dicts at once: ``(n, encoded_size)``.

        Bit-identical to stacking row-wise :meth:`encode` calls — the
        per-column arithmetic is the same IEEE operation sequence.
        """
        n = len(params_seq)
        X = np.zeros((n, self._encoded_size), dtype=np.float64)
        for d, (start, width) in zip(self.dims, self._enc_spans):
            name = d.name
            if isinstance(d, ContinuousDim):
                col = np.fromiter((float(p[name]) for p in params_seq),
                                  dtype=np.float64, count=n)
                X[:, start] = (col - d.low) / (d.high - d.low)
            else:
                index = d.index
                idx = np.fromiter((index(p[name]) for p in params_seq),
                                  dtype=np.intp, count=n)
                X[np.arange(n), start + idx] = 1.0
        return X

    def encode_raw_batch(self, raw: np.ndarray) -> np.ndarray:
        """Encode a raw ``(n, len(self))`` matrix without building dicts.

        The fully vectorized twin of :meth:`encode_batch`; produces the
        same matrix :meth:`encode` would for the decoded rows.
        """
        raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
        n = raw.shape[0]
        X = np.zeros((n, self._encoded_size), dtype=np.float64)
        for j, (d, (start, width)) in enumerate(zip(self.dims,
                                                    self._enc_spans)):
            if isinstance(d, ContinuousDim):
                X[:, start] = (raw[:, j] - d.low) / (d.high - d.low)
            else:
                X[np.arange(n), start + raw[:, j].astype(np.intp)] = 1.0
        return X

    @property
    def encoded_size(self) -> int:
        return self._encoded_size

    def continuous_vector(self, params: Mapping[str, Any]) -> np.ndarray:
        """Just the normalized continuous coordinates (for per-category GPs)."""
        return np.asarray([d.normalize(params[d.name])
                           for d in self.continuous])

    def discrete_key(self, params: Mapping[str, Any]) -> tuple[str, ...]:
        """The tuple of discrete choices (identifies a continuous subspace)."""
        return tuple([str(params[name]) for name in self._discrete_names])

    def discrete_combinations(self) -> list[tuple[str, ...]]:
        """All combinations of discrete choices (cartesian product)."""
        combos: list[tuple[str, ...]] = [()]
        for d in self.discrete:
            combos = [c + (choice,) for c in combos for choice in d.choices]
        return combos

    def with_discrete(self, key: tuple[str, ...],
                      cont: Mapping[str, float]) -> dict[str, Any]:
        """Assemble a full parameter dict from a discrete key + continuous part."""
        out: dict[str, Any] = dict(cont)
        for d, choice in zip(self.discrete, key):
            out[d.name] = choice
        return out


class Landscape:
    """Base class: a deterministic map from parameters to true properties."""

    #: Names of the properties :meth:`evaluate` returns.
    properties: tuple[str, ...] = ()
    #: The property campaigns usually optimize, and its direction.
    objective: str = ""
    maximize: bool = True

    def __init__(self, space: ParameterSpace) -> None:
        self.space = space

    def evaluate(self, params: Mapping[str, Any]) -> dict[str, float]:
        """True (noise-free) properties at ``params``."""
        raise NotImplementedError

    def evaluate_batch(
            self, params_seq: Sequence[Mapping[str, Any]],
    ) -> dict[str, np.ndarray]:
        """Columnar truth for many points: property name -> ``(n,)`` array.

        Each point goes through :meth:`evaluate`, and each property, in
        :attr:`properties` order, is stacked into a float64 column, so
        ``evaluate_batch(ps)[k][i] == evaluate(ps[i])[k]`` holds by
        construction.  An empty ``params_seq`` gives zero-length columns.
        """
        rows = [self.evaluate(p) for p in params_seq]
        return {name: np.fromiter((row[name] for row in rows),
                                  dtype=np.float64, count=len(rows))
                for name in self.properties}

    def objective_value(self, params: Mapping[str, Any]) -> float:
        """The optimization objective (already sign-adjusted: higher=better)."""
        value = self.evaluate(params)[self.objective]
        return value if self.maximize else -value

    def objective_batch(
            self, params_seq: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Sign-adjusted objective for many points at once."""
        values = self.evaluate_batch(params_seq)[self.objective]
        return values if self.maximize else -values


class SyntheticLandscape(Landscape):
    """Multi-peak Gaussian response surface over a mixed space.

    For each discrete combination the landscape draws its own set of peaks
    in the continuous subspace, so the choice of chemistry genuinely
    matters: most combinations are mediocre, a few are good, and exactly
    one contains the global optimum.  Everything derives from
    ``(seed, name)`` and is reproducible.

    Parameters
    ----------
    space:
        The parameter space.
    seed / name:
        Determinism root.
    n_peaks:
        Peaks per discrete combination.
    output_range:
        ``(low, high)`` scale of the primary property.
    """

    properties = ("response",)
    objective = "response"

    def __init__(self, space: ParameterSpace, seed: int = 0,
                 name: str = "synthetic", n_peaks: int = 3,
                 output_range: tuple[float, float] = (0.0, 1.0)) -> None:
        super().__init__(space)
        self.seed = seed
        self.name = name
        self.n_peaks = n_peaks
        self.output_range = output_range
        self._rngs = RngRegistry(seed)
        self._combo_cache: dict[tuple[str, ...], dict[str, np.ndarray]] = {}
        self._best: Optional[tuple[float, dict[str, Any]]] = None

    # -- peak placement -----------------------------------------------------------

    def _combo_peaks(self, key: tuple[str, ...]) -> dict[str, np.ndarray]:
        peaks = self._combo_cache.get(key)
        if peaks is None:
            rng = self._rngs.fresh(f"{self.name}/peaks/{'|'.join(key)}")
            d = len(self.space.continuous)
            centers = rng.uniform(0.0, 1.0, size=(self.n_peaks, max(d, 1)))
            widths = rng.uniform(0.08, 0.35, size=self.n_peaks)
            # Combo quality: heavy-tailed so most combos are poor.
            quality = float(rng.beta(1.5, 6.0))
            heights = quality * rng.uniform(0.3, 1.0, size=self.n_peaks)
            heights[0] = quality  # the dominant peak defines combo quality
            peaks = {"centers": centers, "widths": widths, "heights": heights}
            self._combo_cache[key] = peaks
        return peaks

    def evaluate(self, params: Mapping[str, Any]) -> dict[str, float]:
        self.space.validate(params)
        key = self.space.discrete_key(params)
        peaks = self._combo_peaks(key)
        x = self.space.continuous_vector(params)
        if x.size == 0:
            x = np.zeros(1)
        dist2 = np.sum((peaks["centers"] - x) ** 2, axis=1)
        response = float(np.sum(
            peaks["heights"] * np.exp(-dist2 / (2 * peaks["widths"] ** 2))))
        lo, hi = self.output_range
        return {"response": lo + response * (hi - lo)}

    # -- oracle helpers (test/benchmark side only) ------------------------------------

    def best_estimate(self, n_random: int = 20_000,
                      refine_top: int = 10) -> tuple[float, dict[str, Any]]:
        """Estimate the global optimum by dense random search + local refine.

        Used by experiments to express regret; cached after the first call.
        """
        if self._best is not None:
            return self._best
        rng = self._rngs.fresh(f"{self.name}/oracle")
        space = self.space
        raw = space.sample_batch(rng, n_random)
        values = self.objective_batch(space.decode_batch(raw))
        order = np.argsort(-values, kind="stable")[:refine_top]
        # Local refinement of the best few by coordinate perturbation,
        # all candidates perturbed and re-evaluated in lockstep batches.
        cand_raw = raw[order].copy()
        cand_vals = values[order].copy()
        cont_cols = np.asarray(
            [j for j, d in enumerate(space.dims)
             if isinstance(d, ContinuousDim)], dtype=np.intp)
        lows = np.asarray([d.low for d in space.continuous])
        highs = np.asarray([d.high for d in space.continuous])
        for scale in (0.05, 0.01, 0.002):
            spans = (highs - lows) * scale
            for _ in range(60):
                prop = cand_raw.copy()
                if cont_cols.size:
                    step = rng.normal(0.0, 1.0,
                                      size=(len(prop), cont_cols.size))
                    prop[:, cont_cols] = np.clip(
                        prop[:, cont_cols] + step * spans, lows, highs)
                vals = self.objective_batch(space.decode_batch(prop))
                improved = vals > cand_vals
                cand_raw[improved] = prop[improved]
                cand_vals[improved] = vals[improved]
        top = int(np.argmax(cand_vals))
        self._best = (float(cand_vals[top]),
                      space.decode_batch(cand_raw[top])[0])
        return self._best
