"""Synthetic prediction generators whose true calibration error is known.

The binary generator draws a top-class confidence c on [1/2, 1] and makes the
label hit with probability g(c), so the true conditional accuracy given the
prediction is exactly the miscalibration map g and the true calibration error
is a 1-D integral solved by quadrature. The multiclass generator draws
probability vectors from a Dirichlet and labels from a distorted version m(f),
so E[e_Y | f] = m(f) and the true L1 error is a Monte Carlo average of
||m(f) - f||_1 with a reported standard error.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (BLOCK_CELLS, PredictionSet, Rng, ValidationError, _block_rows, _choice, _count,
                   _keys, _real, row_sums)

# Oracle quadrature stops when doubling the panel count moves the estimate
# by less than this.
QUADRATURE_TOL = 1e-8
_MAX_PANELS = 2**21

# Child-stream indexes reserved by the generators, so user-derived streams
# do not collide with internal draws.
_STREAM_ORACLE = 0xACE

# true_ce_k sums its values in groups of this many rows; the group fixes the
# oracle's bits, the block size does not.
_ORACLE_GROUP = 200_000


class QuadratureError(RuntimeError):
    """Composite Simpson refinement failed to converge."""


class _MapKind(NamedTuple):
    """Parameter count, the map of (x, params), for a binary map its Lipschitz constant,
    and the rules of :func:`core._real` that each parameter meets."""

    num_params: int
    apply: Callable
    lipschitz: Optional[Callable] = None
    rules: tuple = ()


def _tempered(f: np.ndarray, params: tuple) -> np.ndarray:
    # Exponent 1/T, renormalized: the prediction f is sharper than the truth when T > 1.
    powered = np.maximum(f, 1e-300) ** (1.0 / params[0])
    return powered / powered.sum(axis=-1, keepdims=True)


_MAPS_1D = {
    "identity": _MapKind(0, lambda c, p: c, lambda p: 1.0),
    "shift": _MapKind(1, lambda c, p: c + p[0], lambda p: 1.0),
    "sine": _MapKind(2, lambda c, p: c + p[0] * np.sin(p[1] * math.pi * c),
                     lambda p: 1.0 + abs(p[0]) * abs(p[1]) * math.pi),
    # Exponents below 1 have unbounded slope at 0, so no finite constant
    # could be declared for the whole unit interval.
    "power": _MapKind(1, lambda c, p: c ** p[0], lambda p: p[0], (">= 1",)),
}
_MAPS_K = {
    "identity": _MapKind(0, lambda f, p: f),
    "temperature": _MapKind(1, _tempered, rules=("> 0",)),
    "mixture": _MapKind(1, lambda f, p: (1.0 - p[0]) * f + p[0] / f.shape[-1],
                        rules=(">= 0", "<= 1")),
}


def _reals(values, count: int, what: str, *rules: str) -> tuple:
    """A list, tuple or 1-D array of count reals, as floats that meet each rule."""
    listed = isinstance(values, (list, tuple)) or np.ndim(values) == 1
    if not listed or len(values) != count:
        raise ValidationError(f"{what} must be a list of {count} numbers, got {values!r}")
    return tuple(_real(v, f"{what} entry", *rules) for v in values)


def _check_map(kind: str, params: tuple, kinds: dict) -> tuple:
    """params as a tuple of floats, checked against the kind's count and rules."""
    row = kinds[_choice(kind, "map kind", kinds)]
    return _reals(params, row.num_params, f"{kind} map params", *row.rules)


def _spec_count(d: dict, key: str) -> int:
    """A spec count: a JSON integer, or a float with no fraction such as 1e4, that fits int64."""
    v = d[key]
    if not (type(v) is int or type(v) is float and v.is_integer()) or abs(v) >= 2**63:
        raise ValidationError(f"spec {key!r} must be a whole number below 2**63, got {v!r}")
    return int(v)


def _seed_rng(seed) -> Rng:
    """The Rng of a spec's "seed": [master_seed] or [master_seed, stream_id]."""
    if not (isinstance(seed, (list, tuple)) and 1 <= len(seed) <= 2):
        raise ValidationError(f"spec seed must be a list of one or two integers, got {seed!r}")
    return Rng(*seed)


@dataclass(frozen=True)
class ConfidenceLaw:
    """Distribution of the binary top-class confidence on [lo, hi] ⊆ [1/2, 1]."""

    kind: str
    lo: float
    hi: float
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        _choice(self.kind, "confidence law", ("uniform", "beta"))
        shape = ("> 0",) if self.kind == "beta" else ()
        for name, rules in (("lo", (">= 0.5",)), ("hi", ("<= 1",)), ("a", shape), ("b", shape)):
            value = _real(getattr(self, name), f"confidence law {name}", *rules)
            object.__setattr__(self, name, value)
        if self.lo >= self.hi:
            raise ValidationError(f"support [{self.lo}, {self.hi}] is empty")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ConfidenceLaw":
        return cls("uniform", lo, hi)

    @classmethod
    def beta(cls, a: float, b: float, lo: float = 0.5, hi: float = 1.0) -> "ConfidenceLaw":
        return cls("beta", lo, hi, a, b)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return gen.uniform(self.lo, self.hi, n)
        return self.lo + (self.hi - self.lo) * gen.beta(self.a, self.b, n)

    def pdf(self, c: np.ndarray) -> np.ndarray:
        """Density at c, 0 outside [lo, hi]. The beta law's is, at x = (c - lo) / (hi - lo),
        exp((a-1) log x + (b-1) log1p(-x) - lgamma a - lgamma b + lgamma(a+b)) / (hi - lo);
        a shape of 1 adds exactly 0, and one below 1 makes the density inf at that end."""
        c = np.asarray(c, dtype=float)
        width = self.hi - self.lo
        inside = (c >= self.lo) & (c <= self.hi)
        if self.kind == "uniform":
            return np.where(inside, 1.0 / width, 0.0)
        x = np.where(inside, (c - self.lo) / width, 0.5)
        with np.errstate(divide="ignore"):  # log 0 = -inf, which exp takes to 0 or inf
            left = (self.a - 1.0) * np.log(x) if self.a != 1.0 else 0.0
            right = (self.b - 1.0) * np.log1p(-x) if self.b != 1.0 else 0.0
        log_beta = math.lgamma(self.a) + math.lgamma(self.b) - math.lgamma(self.a + self.b)
        return np.where(inside, np.exp(left + right - log_beta), 0.0) / width


@dataclass(frozen=True)
class MiscalibrationMap1D:
    """Map g(c) giving the true hit probability at confidence c.

    lipschitz_constant is the declared bound used by the certificates; tests
    check it against the realized slope on a dense grid.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", _check_map(self.kind, self.params, _MAPS_1D))

    @classmethod
    def identity(cls) -> "MiscalibrationMap1D":
        return cls("identity")

    @classmethod
    def shift(cls, offset: float) -> "MiscalibrationMap1D":
        return cls("shift", (offset,))

    @classmethod
    def sine(cls, amplitude: float, frequency: float) -> "MiscalibrationMap1D":
        return cls("sine", (amplitude, frequency))

    @classmethod
    def power(cls, exponent: float) -> "MiscalibrationMap1D":
        return cls("power", (exponent,))

    @property
    def lipschitz_constant(self) -> float:
        return _MAPS_1D[self.kind].lipschitz(self.params)

    def __call__(self, c: np.ndarray) -> np.ndarray:
        return np.clip(_MAPS_1D[self.kind].apply(np.asarray(c, dtype=float), self.params), 0.0, 1.0)


@dataclass(frozen=True)
class BinarySpec:
    """Replayable recipe for a binary synthetic prediction set."""

    law: ConfidenceLaw
    map: MiscalibrationMap1D
    n: int
    rng: Rng

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "sample count"))

    def to_dict(self) -> dict:
        return {
            "kind": "binary",
            "law": asdict(self.law),
            "map": {"kind": self.map.kind, "params": list(self.map.params)},
            "n": self.n,
            "seed": [self.rng.master_seed, self.rng.stream_id],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BinarySpec":
        d = _keys(d, "spec", ("kind", "law", "map", "n", "seed"))
        law = ConfidenceLaw(**_keys(d["law"], "spec law", ("kind", "lo", "hi"), ("a", "b")))
        m = MiscalibrationMap1D(**_keys(d["map"], "spec map", ("kind", "params")))
        return cls(law, m, _spec_count(d, "n"), _seed_rng(d["seed"]))


def _held(workspace: Optional[dict], name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized array of shape: new when workspace is None, else a view of the flat
    buffer workspace[name], which a larger one replaces when it is too small."""
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buffer = workspace.get(name)
    if buffer is None or buffer.size < size:
        buffer = workspace[name] = np.empty(size, dtype)
    return buffer[:size].reshape(shape)


def gen_binary(spec: BinarySpec) -> PredictionSet:
    """Draw a binary prediction set; class 0 is the top class on [1/2, 1].

    Confidences are drawn first and label uniforms second, so the stream
    layout is part of the contract and reruns are bit-identical.
    """
    return _gen_binary_sets(spec, [spec.rng.generator()], 1)


def _gen_binary_sets(spec: BinarySpec, gens, sets: int, workspace=None) -> PredictionSet:
    """``sets`` draws of gen_binary(spec), the t-th from the t-th generator, stacked in order.

    gens may be a longer iterator; only ``sets`` generators are taken from it. The
    confidences, uniforms, (rows, 2) rows and labels are _held arrays of workspace.
    """
    rows = sets * spec.n
    conf, u = _held(workspace, "conf", (rows,)), _held(workspace, "u", (rows,))
    draws = zip(conf.reshape(sets, spec.n), u.reshape(sets, spec.n), gens)
    for c, v, gen in draws:  # zip stops on conf before taking a spare generator
        c[:] = spec.law.sample(gen, spec.n)
        gen.random(out=v)  # the bits of gen.uniform(0.0, 1.0, n)
    probs = _held(workspace, "probs", (rows, 2))
    probs[:, 0] = conf
    np.subtract(1.0, conf, out=probs[:, 1])
    # Class 0 where u < g(c), else 1: the bits of np.where(u < g, 0, 1), written in place.
    labels = _held(workspace, "labels", (rows,), np.int64)
    np.greater_equal(u, spec.map(conf), out=labels, casting="unsafe")
    return PredictionSet(probs, labels)


def _simpson(values: np.ndarray, h: float) -> float:
    return h / 3.0 * (values[0] + values[-1] + 4 * values[1::2].sum() + 2 * values[2:-2:2].sum())


def true_tce(spec: BinarySpec) -> float:
    """True top-label calibration error E|g(c) - c| by composite Simpson.

    Panels are doubled until successive estimates agree within
    QUADRATURE_TOL; the integrand has kinks at clip boundaries, so refinement
    rather than a fixed panel count is required. A beta shape below 1 makes
    the density infinite at that end of the support, where Simpson evaluates
    it, so such a law is refused here, though it can still be sampled.
    """
    law = spec.law
    if law.kind == "beta" and min(law.a, law.b) < 1:
        raise ValidationError(f"true_tce needs beta shapes >= 1, got a={law.a}, b={law.b}")
    lo, hi = law.lo, law.hi

    def integrand(c):
        return np.abs(spec.map(c) - c) * spec.law.pdf(c)

    panels = 64
    grid = np.linspace(lo, hi, panels + 1)
    previous = _simpson(integrand(grid), (hi - lo) / panels)
    while panels <= _MAX_PANELS:
        panels *= 2
        grid = np.linspace(lo, hi, panels + 1)
        current = _simpson(integrand(grid), (hi - lo) / panels)
        if abs(current - previous) < QUADRATURE_TOL:
            return float(current)
        previous = current
    raise QuadratureError(
        f"Simpson refinement still moving {abs(current - previous):.3g} after "
        f"{panels} panels"
    )


@dataclass(frozen=True)
class MiscalibrationMapK:
    """Distortion m on the simplex; labels are drawn from m(f) given prediction f."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", _check_map(self.kind, self.params, _MAPS_K))

    @classmethod
    def identity(cls) -> "MiscalibrationMapK":
        return cls("identity")

    @classmethod
    def temperature(cls, t: float) -> "MiscalibrationMapK":
        return cls("temperature", (t,))

    @classmethod
    def mixture(cls, weight: float) -> "MiscalibrationMapK":
        return cls("mixture", (weight,))

    def __call__(self, f: np.ndarray) -> np.ndarray:
        return _MAPS_K[self.kind].apply(np.asarray(f, dtype=float), self.params)


@dataclass(frozen=True)
class MulticlassSpec:
    """Replayable recipe for a K-class synthetic prediction set."""

    num_classes: int
    concentration: tuple
    map: MiscalibrationMapK
    n: int
    rng: Rng

    def __post_init__(self):
        object.__setattr__(self, "num_classes", _count(self.num_classes, "class count", 2))
        concentration = _reals(self.concentration, self.num_classes, "concentration", "> 0")
        object.__setattr__(self, "concentration", concentration)
        object.__setattr__(self, "n", _count(self.n, "sample count"))

    def to_dict(self) -> dict:
        return {
            "kind": "multiclass",
            "num_classes": self.num_classes,
            "concentration": list(self.concentration),
            "map": {"kind": self.map.kind, "params": list(self.map.params)},
            "n": self.n,
            "seed": [self.rng.master_seed, self.rng.stream_id],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MulticlassSpec":
        d = _keys(d, "spec", ("kind", "num_classes", "concentration", "map", "n", "seed"))
        return cls(
            _spec_count(d, "num_classes"),
            d["concentration"],
            MiscalibrationMapK(**_keys(d["map"], "spec map", ("kind", "params"))),
            _spec_count(d, "n"),
            _seed_rng(d["seed"]),
        )


def spec_from_dict(d: dict):
    kind = _keys(d, "spec", ("kind",), d)["kind"]  # the kind's own reader checks the rest
    readers = {"binary": BinarySpec, "multiclass": MulticlassSpec}
    return readers[_choice(kind, "spec kind", readers)].from_dict(d)


def spec_from_json(text: str):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"spec is not JSON: {err}")
    return spec_from_dict(d)


def gen_multiclass(spec: MulticlassSpec) -> PredictionSet:
    """Draw predictions f ~ Dirichlet and labels from m(f).

    All of f is drawn first and all label uniforms second, so the stream
    layout is part of the contract and reruns are bit-identical.
    """
    return _gen_multiclass_sets(spec, [spec.rng.generator()], 1)


def _gen_multiclass_sets(spec: MulticlassSpec, gens, sets: int, workspace=None) -> PredictionSet:
    """``sets`` draws of gen_multiclass(spec), the t-th from the t-th generator, stacked in order.

    gens may be a longer iterator; only ``sets`` generators are taken from it. The
    (rows, K) rows, uniforms and labels are _held arrays of workspace.
    """
    n, rows = spec.n, _block_rows(spec.num_classes)
    probs = _held(workspace, "probs", (sets * n, spec.num_classes))
    u = _held(workspace, "u", (sets * n,))
    for start, gen in zip(range(0, sets * n, n), gens):  # zip stops before a spare generator
        # numpy draws Dirichlet rows one after another, so the blocks draw what one call would
        for first in range(start, start + n, rows):
            f = gen.dirichlet(spec.concentration, min(rows, start + n - first))
            probs[first:first + len(f)] = f
        gen.random(out=u[start:start + n])  # the bits of gen.uniform(0.0, 1.0, n)
    labels = _held(workspace, "labels", (sets * n,), np.int64)
    for start in range(0, sets * n, rows):
        block = slice(start, start + rows)
        # Class-major running sums: each is one add of two contiguous rows, and they are
        # the sums np.cumsum(m(f), axis=1) makes. A copy, since m(f) may be f itself.
        cdf = spec.map(probs[block]).T.copy()
        for k in range(1, spec.num_classes):
            cdf[k] += cdf[k - 1]
        labels[block] = (u[block] > cdf).sum(axis=0)
    np.minimum(labels, spec.num_classes - 1, out=labels)
    # numpy's rows can sum to 1 +- 5 eps at K=100 (14 eps at K=1000); divided by
    # their sum once, they sum to within 2 eps, which from_probs keeps as given.
    probs /= row_sums(probs)[:, None]
    return PredictionSet(probs, labels)


def _gen_sets(spec, gens, sets: int, workspace: Optional[dict] = None) -> PredictionSet:
    """_gen_binary_sets or _gen_multiclass_sets, as spec's kind asks: the one place that picks.
    A set drawn into a workspace (see _held) holds until the next draw into it."""
    draw = _gen_binary_sets if isinstance(spec, BinarySpec) else _gen_multiclass_sets
    return draw(spec, gens, sets, workspace)


def true_ce_k(
    spec: MulticlassSpec, oracle_samples: int = 1_000_000
) -> tuple[float, float]:
    """Monte Carlo estimate of E ||m(f) - f||_1 with its standard error.

    Uses a dedicated child stream of the spec seed, so the oracle never
    perturbs the draws of gen_multiclass.
    """
    oracle_samples = _count(oracle_samples, "oracle sample count", 2)
    gen = spec.rng.stream(_STREAM_ORACLE).generator()
    rows = _block_rows(spec.num_classes)
    vals = np.empty(min(oracle_samples, _ORACLE_GROUP))
    total = 0.0
    total_sq = 0.0
    for first in range(0, oracle_samples, _ORACLE_GROUP):
        group = vals[: min(_ORACLE_GROUP, oracle_samples - first)]
        # numpy draws Dirichlet rows one after another, so the blocks draw
        # what one call for the whole group would.
        for start in range(0, group.size, rows):
            f = gen.dirichlet(spec.concentration, min(rows, group.size - start))
            group[start : start + len(f)] = row_sums(np.abs(spec.map(f) - f))
        total += float(group.sum())
        group *= group
        total_sq += float(group.sum())
    mean = total / oracle_samples
    var = max(total_sq / oracle_samples - mean**2, 0.0)
    stderr = math.sqrt(var / oracle_samples)
    return mean, stderr


def with_n(spec, n: int, rng: Optional[Rng] = None):
    """Copy a spec with a new sample count and optionally a new stream."""
    return replace(spec, n=n, rng=spec.rng if rng is None else rng)
