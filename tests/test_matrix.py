"""The verdict matrix: experiment rows against the verdicts that closed forms
give, with the runs known to read wrongly listed, each with its cause item
in ROADMAP.md.

thm2.  Near its cusp, the BA extension of power:gamma is asymptotically
homogeneous of degree gamma in half-plane coordinates, so |1 - phi(z)| is
comparable to |1 - z|^gamma, and the Cauchy kernel g(z) = 1/(1 - z) gives
|g o phi| comparable to |1 - z|^-gamma.  Hence g o phi is in H^p exactly when
gamma p < 1, and at gamma p = 1 its boundary integral diverges like a log
(1/(1 - z) is in H^p exactly for p < 1: Duren, Theory of H^p Spaces).  So
both of the composite's H^p witnesses, its Hardy and boundary verdicts, read
converged when gamma p < 1 and diverging otherwise, and thm2_agreement
passes.
"""

import pytest

from qchardy.cli import FAIL, PASS, ExperimentSpec, run
from qchardy.tail import CONVERGED, DIVERGING, UNDETERMINED


def gamma(map_spec):
    """The cusp exponent of a catalog map: 1 for the conformal ones."""
    name, _, param = map_spec.partition(":")
    if name == "power":
        return float(param)
    return 0.5 if name == "thm2_sqrt" else 1.0


def expected(map_spec, p):
    """(Hardy verdict, boundary verdict, thm2_agreement) by the rule above."""
    verdict = CONVERGED if gamma(map_spec) * p < 1 else DIVERGING
    return verdict, verdict, PASS


# what each run known to read wrongly reads instead, and why
KNOWN_WRONG = {
    ("power:0.3", 1.0): ((UNDETERMINED, CONVERGED, FAIL),
                         "Hardy tail has two rates: items 6, 16"),
    ("power:2", 3.0): ((UNDETERMINED, DIVERGING, FAIL),
                       "Hardy tail read too deep, rho 31.7, 33.5, 25.0: item 8"),
    ("power:0.1", 10.0): ((CONVERGED, CONVERGED, PASS),
                          "both witnesses converged at gamma p = 1, so the "
                          "claim passes wrongly: item 6"),
    ("power:5", 3.0): ((CONVERGED, DIVERGING, FAIL),
                       "Hardy converged 'within error of 0': item 12"),
}
THM2_RUNS = sorted({(map_spec, p) for map_spec in
                    ("identity", "thm2_sqrt", "power:0.3", "power:2", "moebius:0.5")
                    for p in (0.5, 1.0, 3.0)} | set(KNOWN_WRONG))


def test_known_wrong_runs_read_wrongly_by_the_rule():
    for run_, (reads, cause) in KNOWN_WRONG.items():
        assert reads != expected(*run_), cause


@pytest.mark.parametrize("map_spec, p", THM2_RUNS)
def test_thm2_reads_hp_membership_of_the_composite(map_spec, p):
    rows = {r.quantity: r.classification
            for r in run(ExperimentSpec("thm2", map_spec, p)).rows}
    reads = (rows["hardy_norm_composite"], rows["boundary_lp_composite"],
             rows["thm2_agreement"])
    # a listed run that reads right, or wrongly in another way, must have
    # its entry deleted or restated
    want, cause = KNOWN_WRONG.get((map_spec, p), (expected(map_spec, p), ""))
    assert reads == want, cause or f"gamma p = {gamma(map_spec) * p:g}"
