"""The tail classifier behind every verdict: converged, diverging or
undetermined, read off the ratios of successive increments of a dyadic
sequence; read_tail, its one caller and the one reader of every tail; and
Reading, the record of a verdict, built here alone (README, "Verdicts")."""

from dataclasses import dataclass
from itertools import islice

import numpy as np

CONVERGED = "converged"
DIVERGING = "diverging"
UNDETERMINED = "undetermined"

# deepest term (dyadic depth, ball ring or area shell) an undetermined
# verdict may read
TAIL_CAP = 16


@dataclass(frozen=True)
class Reading:
    """A value with its error and verdict (classification), read off a tail
    up to term `at`, or without one (at None); samples are the terms read,
    each (value, error, ...).  reason is the verdict's reason, which the
    report gives and a claim cites; empty for a value read without a tail."""
    value: float
    error: float
    classification: str
    reason: str
    at: int | None
    samples: tuple


def read_value(value):
    """Reading of a value read without a tail, which the report gives no
    reason: finite reads converged, +-inf diverging and NaN undetermined."""
    verdict = (CONVERGED if np.isfinite(value)
               else UNDETERMINED if np.isnan(value) else DIVERGING)
    return Reading(value, 0.0, verdict, "", None, ())


def classify_tail(seq, err):
    """(verdict, reason) for the tail of seq, whose terms carry the errors
    err (one per term, or one for all), from rho_k = dm_k / dm_{k-1}.
    A NaN term makes the tail undetermined, an infinite one diverging.

    An increment within its two terms' errors counts as zero.  Converged:
    the last 3 increments are all zero or all <= 0 (each sequence here is a
    nonnegative sup or sum, so its maximum is in hand), or the last three
    rho lie in (-1, 1).  Diverging: the last three rho are >= 1, and rho
    does not decrease or its changes shrink (ratio q in [0, 1)) toward an
    Aitken limit rho* with rho* + q |drho| >= 1.  Otherwise undetermined.
    """
    m = np.asarray(seq, dtype=float)
    if np.any(np.isnan(m)):
        return UNDETERMINED, "NaN term"
    if not np.all(np.isfinite(m)):
        return DIVERGING, "non-finite term"
    e = np.broadcast_to(np.asarray(err, dtype=float), m.shape)
    de = e[1:] + e[:-1]
    d = np.diff(m)
    d[np.abs(d) <= de] = 0.0
    if len(d) < 3:
        return UNDETERMINED, f"{len(m)} terms, too short"
    if not np.any(d[-3:]):
        return CONVERGED, "last 3 increments within error of 0"
    if np.all(d[-3:] <= 0):
        return CONVERGED, "last 3 increments <= 0"
    if len(d) < 4:
        return UNDETERMINED, f"{len(m)} terms, too short for 3 ratios"
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = d[-3:] / d[-4:-1]
        drho = (de[-3:] + np.abs(rho) * de[-4:-1]) / np.abs(d[-4:-1])
    text = "rho " + ", ".join(f"{r:.7g}" for r in rho)
    if np.all(np.abs(rho) + drho < 1):
        return CONVERGED, text + " inside (-1, 1)"
    if np.all(rho >= 1 - drho):
        step = np.diff(rho)
        if step[-1] >= -(drho[-1] + drho[-2]):
            return DIVERGING, text + " >= 1, not decreasing"
        q = step[-1] / step[-2]
        if 0 <= q < 1:
            limit = rho[-1] + step[-1] * q / (1 - q)
            if limit + abs(step[-1]) * q >= 1:
                return DIVERGING, text + f" >= 1, Aitken limit {limit:.7g}"
    return UNDETERMINED, text


def read_tail(terms, first):
    """Reading of a lazy sequence of terms (value, error, ...) for k = 1, 2,
    ...: read the first `first` terms, then one more at a time while
    classify_tail says undetermined, no term read is NaN (no later term can
    decide such a tail), fewer than TAIL_CAP terms are read and the sequence
    has more; at is the number read.  Each term is computed once.  A term
    that raises RuntimeError makes the verdict undetermined, with the error
    as its reason, at first if it strikes the first `first` terms and at its
    own index after them; samples hold the terms before it.  The value and
    error are those of term `first`, NaN if it was not read."""
    read = []
    try:
        read += islice(terms, first)
        while True:
            values = [t[0] for t in read]
            verdict, reason = classify_tail(values, [t[1] for t in read])
            if (verdict != UNDETERMINED or len(read) >= TAIL_CAP
                    or np.any(np.isnan(values))
                    or (term := next(terms, None)) is None):
                at = len(read)
                break
            read.append(term)
    except RuntimeError as exc:
        verdict, reason, at = UNDETERMINED, str(exc), max(first, len(read) + 1)
    value, error = read[first - 1][:2] if len(read) >= first > 0 else (np.nan,) * 2
    return Reading(value, error, verdict, reason, at, tuple(read))
