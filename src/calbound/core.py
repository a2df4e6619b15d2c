"""Shared value types (prediction sets, seeded RNG streams), the floored log and softmax,
and the rules every boundary checks: a count, a finite real, an array, a name, keys and a type.

:meth:`PredictionSet.from_probs` is the one checked constructor: it takes
input from outside the package (loaded dumps, user maps, user code). It
copies its input and hands the copy to ``PredictionSet._owned``, which
checks, renormalizes and keeps the array it is given; a dump loader and
``recal.recalibrate_set``, whose arrays nothing else holds, call ``_owned`` directly.
Sets the package derives from valid data are built with ``PredictionSet(probs, labels)``.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# Row sums may drift from 1 by this much before the row is rejected.
SIMPLEX_ATOL = 1e-9

# Rows whose sum is within this of 1 are kept as given: a row normalized once
# sums to within 2 eps of 1 for K up to 1000, and dividing it again would move
# entries by an ulp, possibly across a bin edge.
RENORM_TOL = 4 * np.finfo(float).eps

# Probabilities are floored here before taking logs, so log(0) stays finite.
PROB_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1

# The comparisons a rule of _real may state, as in "> 0".
_RULES = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


def _count(value, what: str, minimum: int = 1) -> int:
    """value as an int: an int or numpy integer, not a bool, of at least minimum and below 2**63."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not minimum <= value < 2**63):
        raise ValidationError(f"{what} must be an integer >= {minimum} and < 2**63, got {value!r}")
    return int(value)


def _real(value, what: str, *rules: str) -> float:
    """value as a float: a real, not a bool, that is finite and meets each rule, such as "> 0".

    NaN, the infinities and integers past the float range are refused, and the
    message states the rules as given: "alpha must be finite and >= 0, got nan".
    """
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer past the float range
            pass
    if not (math.isfinite(x)
            and all(_RULES[op](x, float(bound)) for op, bound in map(str.split, rules))):
        raise ValidationError(f"{what} must be {' and '.join(('finite',) + rules)}, got {value!r}")
    return x


def _seed(value, what: str) -> int:
    """value as an int: an int or numpy integer, not a bool, of any size."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _array(value, what: str, ndim: int | None = None, finite: bool = False) -> np.ndarray:
    """value as a float64 array, itself when it is one: ints, unsigned ints or floats, or reals
    that are not bools in a sequence or object array; of ndim dimensions when given, and without
    NaN or ±inf when finite. Anything else is a ValidationError that names what."""
    try:  # a sequence is read entry by entry, since numpy reads [True, 0.5] as two floats
        a = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
        bad = [x for x in a.flat if isinstance(x, bool) or not isinstance(x, numbers.Real)
               ] if a.dtype.kind == "O" else []
        if a.dtype.kind == "O" and not bad:
            a = a.astype(float)
    except (TypeError, ValueError, OverflowError) as err:  # ragged rows, a real past float range
        raise ValidationError(f"{what} must be an array of real numbers: {err}") from None
    if bad or a.dtype.kind not in ("i", "u", "f"):
        got = f"an entry of type {type(bad[0]).__name__}" if bad else f"dtype {a.dtype}"
        raise ValidationError(f"{what} must be an array of real numbers, got {got}")
    if ndim is not None and a.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-D, got shape {a.shape}")
    a = a.astype(float, copy=False)
    if finite and not np.isfinite(a).all():
        raise ValidationError(f"{what} must be finite")
    return a


def _choice(value, what: str, choices):
    """value, when it is a str among choices or a member of an enum among them; anything else
    is a ValidationError that lists the choices as a caller writes them."""
    if isinstance(value, (str, enum.Enum)) and value in choices:
        return value
    raise ValidationError(f"unknown {what} {value!r}; choose from {', '.join(map(str, choices))}")


def _keys(d, what: str, required=(), optional=()) -> dict:
    """d, when it is a dict with every required key and no key outside required and optional."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be an object, got {type(d).__name__}")
    for key in (*required, *d):
        if key not in d:
            raise ValidationError(f"{what} has no {key!r} key")
        if key not in required and key not in optional:
            raise ValidationError(f"unknown {what} key {key!r}")
    return d


def _optional(value, what: str, cls):
    """value, when it is None or a cls; anything else is a ValidationError that names what."""
    if value is None or isinstance(value, cls):
        return value
    raise ValidationError(f"{what} must be a {cls.__name__} or None, got {type(value).__name__}")


def _splitmix64(x: int) -> int:
    # Finalizer from the splitmix64 generator; bijective on 64-bit ints.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Two Rng values with the same key always yield identical draws, and
    distinct stream ids give statistically independent streams, so grid
    cells can be seeded without coordination. Both parts are any int or numpy
    integer, not a bool, and are held as int.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if type(self.master_seed) is not int or type(self.stream_id) is not int:
            object.__setattr__(self, "master_seed", _seed(self.master_seed, "seed"))
            object.__setattr__(self, "stream_id", _seed(self.stream_id, "stream id"))

    @property
    def key(self) -> np.ndarray:
        """The Philox key of this stream; its draws start at counter 0."""
        return np.array([self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key))

    def stream(self, index: int) -> "Rng":
        """Derive an independent child stream for an index: an int or numpy integer, not a bool."""
        if type(index) is not int:  # stream_generators' call, once per draw, stays off the check
            index = _seed(index, "stream index")
        mixed = _splitmix64((self.stream_id & _MASK64) ^ _splitmix64(index & _MASK64))
        return Rng(self.master_seed, mixed)

    def stream_generators(self, indexes) -> Iterator[np.random.Generator]:
        """For each index in turn, a generator that draws what ``stream(index).generator()`` draws.

        One Philox is re-keyed to each child stream at counter 0, at a tenth of
        the cost of building a generator, whose constructor also reads OS
        entropy for a seed sequence that the key then overrides. Every yield is
        that same object, so it ends the stream of the one before.
        """
        gen = self.generator()
        state = gen.bit_generator.state  # counter 0 and an empty buffer; only the key changes
        for index in indexes:
            state["state"]["key"] = self.stream(index).key
            gen.bit_generator.state = state
            yield gen


def log_probs(probs: np.ndarray) -> np.ndarray:
    """Elementwise log of probabilities floored at PROB_FLOOR, in one new array."""
    floored = np.maximum(probs, PROB_FLOOR)
    # a 0-d input floors to a numpy scalar, which cannot take the log in place
    return np.log(floored, out=floored) if isinstance(floored, np.ndarray) else np.log(floored)


def softmax(scores: np.ndarray, axis: int = -1, *, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over one axis (the last by default), shifted by the maximum for stability.

    The result goes to ``out`` when given, which may be ``scores`` itself.
    """
    return _softmax_parts(scores, axis, out)[0]


def _softmax_parts(scores: np.ndarray, axis: int, out: np.ndarray | None,
                   top: np.ndarray | None = None) -> tuple:
    """softmax, with the maximum it shifts by (written to ``top`` when given) and the sum it
    divides by, each keeping the axis: log softmax = scores - max - log(sum), finite also where
    the softmax underflows to 0."""
    top = scores.max(axis=axis, keepdims=True, out=top)
    e = np.subtract(scores, top, out=out)
    np.exp(e, out=e)
    norm = e.sum(axis=axis, keepdims=True)
    e /= norm
    return e, top, norm


def row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a 2-D array, bit for bit, faster on short rows.

    numpy sums a row shorter than 8 entries from +0.0 in column order, so for
    K < 8 this adds whole columns in that order, each add one pass over n
    rows; from K = 8 on numpy sums pairwise, and this is ``a.sum(axis=1)``.
    """
    k = a.shape[1]
    if not 0 < k < 8:
        return a.sum(axis=1)
    total = a[:, 0] + 0.0  # -0.0 + 0.0 is +0.0, as numpy's sum from +0.0 gives
    for j in range(1, k):
        total += a[:, j]
    return total


def validate_prediction_set(probs, labels) -> list[str]:
    """Collect human-readable violations; empty list means the pair is valid."""
    try:  # integer labels are checked as they are; any others as the array rule reads them
        probs = _array(probs, "probs", 2)
        if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "iu"):
            labels = _array(labels, "labels")
    except ValidationError as err:
        return [str(err)]
    problems: list[str] = []
    n, k = probs.shape
    if k < 2:
        problems.append(f"need at least 2 classes, got {k}")
    if labels.shape != (n,):
        problems.append(f"labels shape {labels.shape} does not match {n} rows")
        return problems
    if n == 0:
        problems.append("prediction set is empty")
        return problems
    sums = row_sums(probs)
    # Extremes of the whole array, then of each row only if those show a bad
    # entry, since row reductions over a short axis are slow; no full-size
    # temporaries either way. min and max carry a NaN entry, and NaN fails every
    # comparison. A row without entries (k == 0) has no extremes and nothing out of range.
    if k and not (probs.min() >= 0.0 and probs.max() <= 1.0):
        in_range = (probs.min(axis=1) >= 0.0) & (probs.max(axis=1) <= 1.0)
        for i in np.where(~in_range)[0][:10]:
            problems.append(f"row {i}: entry outside [0, 1] or NaN")
    bad_sum = np.where(np.abs(sums - 1.0) > SIMPLEX_ATOL)[0]
    for i in bad_sum[:10]:
        problems.append(f"row {i}: sums to {probs[i].sum():.12g}, not 1")
    if labels.dtype.kind == "f" and not np.all(labels == np.floor(labels)):
        problems.append("labels must be integers")
        return problems
    bad_label = np.where((labels < 0) | (labels >= k))[0]
    for i in bad_label[:10]:
        problems.append(f"row {i}: label {labels[i]:.17g} outside [0, {k})")
    return problems


@dataclass(frozen=True)
class PredictionSet:
    """Immutable batch of probability rows with integer labels.

    The constructor trusts its arrays (float rows on the simplex, int64
    labels) and makes them read-only in place. Input from outside the
    package goes through :meth:`from_probs`, which copies it, checks it and
    rescales only rows whose sum is off 1 by more than ``RENORM_TOL``; drift
    within a few ulp is kept as given, so a valid set passes through unchanged.
    """

    probs: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.probs.setflags(write=False)
        self.labels.setflags(write=False)

    @classmethod
    def from_probs(cls, probs, labels) -> "PredictionSet":
        rows = _array(probs, "probs")  # a new array unless probs already is a float64 one
        return cls._owned(rows.copy() if rows is probs else rows, labels)

    @classmethod
    def _owned(cls, probs: np.ndarray, labels) -> "PredictionSet":
        """from_probs without the copy: checks probs, a float array no one else holds,
        rescales its drifting rows in place and keeps it."""
        problems = validate_prediction_set(probs, labels)
        if problems:
            raise ValidationError("; ".join(problems))
        sums = row_sums(probs)
        drift = np.abs(sums - 1.0) > RENORM_TOL
        probs[drift] /= sums[drift, None]
        return cls(probs, np.array(labels, dtype=np.int64))  # a new array, not the caller's

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def top_label(self) -> tuple[np.ndarray, np.ndarray]:
        """Top-class confidences and hits: 1.0 where the label is the argmax (ties to lowest index)."""
        if self.num_classes == 2:  # by columns; argmax reduces each short row on its own
            p0, p1 = self.probs.T
            idx = p1 > p0  # a tie, -0.0 against 0.0 too, keeps class 0 and its entry
            return np.where(idx, p1, p0), (self.labels == idx).astype(float)
        idx = np.argmax(self.probs, axis=1)
        return self.probs[np.arange(self.n), idx], (self.labels == idx).astype(float)

    def subset(self, rows: np.ndarray) -> "PredictionSet":
        return PredictionSet(self.probs[rows], self.labels[rows])
