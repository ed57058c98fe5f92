"""Seeded generation of sensing matrices and sparse test signals.

Every random object in the toolkit is produced from an explicit
:class:`StreamKey` rather than from global RNG state, so that

- any matrix/support/signal can be regenerated bit-for-bit from its key,
- independent substreams can be handed to parallel workers without
  coordination, and results never depend on scheduling or worker count.

Conventions
-----------
- Signals are dense length-``n`` vectors with an explicit sorted support.
- Sensing matrices have i.i.d. normal entries with variance ``1/m`` so
  columns have unit norm in expectation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Purpose",
    "StreamKey",
    "SignalCase",
    "SparseSignal",
    "SensingMatrix",
    "sample_sensing_matrix",
    "sample_support",
    "signal_nonzeros",
    "generate_signal",
]

_MAX_KEY_WORD = 2**64


class Purpose(enum.IntEnum):
    """Role of a random substream; part of the stream-derivation key.

    ``MATRIX`` keys a dense matrix, or a reduced trial index's whole
    matrix draw: the Bartlett factors of its support columns at each m
    of its row, then its off-support normals (see
    :mod:`omp_lab.montecarlo`).
    """

    MATRIX = 0
    SUPPORT = 1
    SIGNAL = 2
    PHI_VALIDATION = 3


@dataclass(frozen=True)
class StreamKey:
    """Key identifying one reproducible random substream.

    The key's words are fed through ``numpy.random.SeedSequence``, whose
    entropy mixing is fixed and platform-independent, and the resulting
    stream is PCG64.  The words are those of ``master_seed``, then of
    ``trial_index`` (one 32-bit word below ``2**32``, two from there on,
    low word first), then ``purpose``, then any extra words supplied to
    :meth:`generator`.  SeedSequence pads that list with zero words to
    four, so two keys whose lists agree after the padding share a
    stream.

    What this guarantees: among keys of one ``master_seed``, or of seeds
    all below ``2**32``, distinct ``(trial_index, purpose, *extra)`` with
    ``trial_index < 2**32`` give distinct entropy and so independent
    streams.  That is why :meth:`generator` takes only extra words in
    ``[1, 2**32)``: a word of 0 would vanish in the padding, and a wider
    one would split in two.  Across seeds of ``2**32`` and more it does
    not hold: ``StreamKey(2**32 * h + l, 0)`` is ``StreamKey(l, h)``, and
    ``StreamKey(2**32 * h + l, i, p)`` is
    ``StreamKey(l, h, i).generator(p)`` for a purpose ``i`` and ``p >= 1``.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed, in ``[0, 2**64)``.
    trial_index : int
        Index of the trial (or other inner loop) this key belongs to.
    purpose : Purpose
        What the stream is used for; keeps the per-trial draws for the
        matrix, the support and the signal values independent.
    """

    master_seed: int
    trial_index: int = 0
    purpose: Purpose = Purpose.MATRIX

    def __post_init__(self) -> None:
        for name in ("master_seed", "trial_index"):
            word = getattr(self, name)
            if not isinstance(word, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {type(word).__name__}")
            if not 0 <= word < _MAX_KEY_WORD:
                raise ValueError(f"{name} must be in [0, 2**64), got {word}")
        object.__setattr__(self, "purpose", Purpose(self.purpose))

    def with_purpose(self, purpose: Purpose) -> "StreamKey":
        return replace(self, purpose=purpose)

    def generator(self, *extra: int) -> np.random.Generator:
        """Fresh PCG64 generator for this key.

        Optional ``extra`` integer words derive inner substreams (e.g. one
        per dimension in a sweep) without constructing new keys.

        Raises
        ------
        ValueError
            If an extra word is outside ``[1, 2**32)``; see the class
            docstring.
        """
        for word in extra:
            if not 1 <= word < 2**32:
                raise ValueError(f"extra words must be in [1, 2**32), got {word}")
        entropy = [self.master_seed, self.trial_index, int(self.purpose), *extra]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SignalCase:
    """Magnitude model for the nonzero entries of a sparse signal.

    One of:

    - ``flat``: every nonzero equals 1,
    - ``decaying``: ordered magnitudes form the geometric sequence
      ``alpha**(K-i)``, ``i = 1..K`` (largest first), ``alpha > 1``,
    - ``gaussian``: i.i.d. normal(0, sigma^2) nonzeros.
    """

    kind: str
    alpha: Optional[float] = None
    sigma: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind == "flat":
            if self.alpha is not None or self.sigma is not None:
                raise ValueError("flat case takes no parameters")
        elif self.kind == "decaying":
            if self.alpha is None or not self.alpha > 1.0:
                raise ValueError("decaying case requires alpha > 1")
            if self.sigma is not None:
                raise ValueError("decaying case takes no sigma")
        elif self.kind == "gaussian":
            if self.sigma is None or not self.sigma > 0.0:
                raise ValueError("gaussian case requires sigma > 0")
            if self.alpha is not None:
                raise ValueError("gaussian case takes no alpha")
        else:
            raise ValueError(f"unknown signal case {self.kind!r}")

    @classmethod
    def flat(cls) -> "SignalCase":
        return cls("flat")

    @classmethod
    def decaying(cls, alpha: float) -> "SignalCase":
        return cls("decaying", alpha=float(alpha))

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "SignalCase":
        return cls("gaussian", sigma=float(sigma))

    def label(self) -> str:
        """Compact name used in CSV rows and output file names."""
        if self.kind == "flat":
            return "flat"
        if self.kind == "decaying":
            return f"decay{self.alpha:g}"
        return f"gauss{self.sigma:g}"


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """Dense length-``n`` vector that is nonzero exactly on ``support``.

    ``support`` is kept sorted ascending.
    """

    values: np.ndarray
    support: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        support = np.asarray(self.support, dtype=np.intp)
        if values.ndim != 1:
            raise ValueError("values must be a 1-D vector")
        if support.ndim != 1 or support.size == 0:
            raise ValueError("support must be a nonempty 1-D index set")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support indices must be sorted and distinct")
        if support[0] < 0 or support[-1] >= values.size:
            raise ValueError("support index out of range")
        mask = np.zeros(values.size, dtype=bool)
        mask[support] = True
        if np.any(values[~mask] != 0.0):
            raise ValueError("values must vanish off the support")
        if np.any(values[mask] == 0.0):
            raise ValueError("values must be nonzero on the support")
        values.flags.writeable = False
        support.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", support)


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """m-by-n measurement operator with finite real entries."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a matrix with m >= 1, n >= 1")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must all be finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def sample_sensing_matrix(m: int, n: int, key: StreamKey) -> SensingMatrix:
    """Draw an m-by-n matrix with i.i.d. normal(0, 1/m) entries.

    Deterministic given ``key``.

    Raises
    ------
    ValueError
        If ``m`` or ``n`` is not a positive count.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m}x{n}")
    stream = key.generator()
    entries = stream.standard_normal((m, n)) / math.sqrt(m)
    return SensingMatrix(entries)


def sample_support(n: int, K: int, key: StreamKey) -> np.ndarray:
    """Uniformly random K-subset of ``{0, ..., n-1}``, sorted ascending.

    Raises
    ------
    ValueError
        If ``K`` is not in ``[1, n]``.
    """
    if not 1 <= K <= n:
        raise ValueError(f"sparsity must satisfy 1 <= K <= n, got K={K}, n={n}")
    stream = key.generator()
    return np.sort(stream.choice(n, size=K, replace=False)).astype(np.intp)


def signal_nonzeros(K: int, case: SignalCase, key: StreamKey) -> np.ndarray:
    """The case's K nonzero values, in ascending support-index order.

    For the decaying case the i-th value (i = 1..K) is ``alpha**(K-i)``,
    so the largest magnitude comes first and consecutive values decay by
    exactly ``alpha``.  Gaussian values are deterministic given ``key``;
    the other cases do not read it.

    Raises
    ------
    ValueError
        If ``K < 1``.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    if case.kind == "flat":
        return np.ones(K)
    if case.kind == "decaying":
        assert case.alpha is not None
        exponents = K - 1 - np.arange(K)
        return case.alpha ** exponents.astype(float)
    assert case.sigma is not None
    return case.sigma * key.generator().standard_normal(K)


def generate_signal(
    n: int,
    support: Sequence[int],
    case: SignalCase,
    key: StreamKey,
) -> SparseSignal:
    """Place the case's nonzero values (:func:`signal_nonzeros`) on
    ``support`` inside a zero vector.

    The i-th support position in ascending index order receives the
    i-th value, so for the decaying case the largest magnitude sits at
    the smallest support index.

    Raises
    ------
    ValueError
        If the support is empty or otherwise invalid.
    """
    support = np.asarray(support, dtype=np.intp)
    if support.size == 0:
        raise ValueError("support must be nonempty")
    values = np.zeros(n, dtype=float)
    values[support] = signal_nonzeros(support.size, case, key)
    return SparseSignal(values=values, support=support)
