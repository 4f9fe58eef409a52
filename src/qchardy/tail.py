"""The tail classifier behind every verdict: converged, diverging or
undetermined, read off the ratios of successive increments of a dyadic
sequence (README, "Verdicts")."""

import numpy as np

CONVERGED = "converged"
DIVERGING = "diverging"
UNDETERMINED = "undetermined"

# deepest term (dyadic depth, ball ring or area shell) an undetermined
# verdict may read
TAIL_CAP = 16


def classify_tail(seq, err):
    """(verdict, reason) for the tail of seq, whose terms carry the errors
    err (one per term, or one for all), from rho_k = dm_k / dm_{k-1}.

    An increment within its two terms' errors counts as zero.  Converged:
    the last 3 increments are all zero or all <= 0 (each sequence here is a
    nonnegative sup or sum, so its maximum is in hand), or the last three
    rho lie in (-1, 1).  Diverging: the last three rho are >= 1, and rho
    does not decrease or its changes shrink (ratio q in [0, 1)) toward an
    Aitken limit rho* with rho* + q |drho| >= 1.  Otherwise undetermined.
    """
    m = np.asarray(seq, dtype=float)
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
