"""Independent re-computation of a fixed sample of reported values.

Each check rebuilds a trial's inputs from the record's `stream` (the same
make_body / gaussian_matrix / haar_subspace draws the suite made) and
recomputes the reported LP-derived value with scipy's HiGHS solver instead
of genquot's own simplex. A relative disagreement above `REL_TOL` is a
failure. The geometry suites make no LP solves; for them the circumradius is
recomputed from the columns and the exact polar-facet membership oracle
behind `volume_ratio` is compared with a HiGHS gauge at fixed points.

The sample is fixed per suite (trial 0 of the listed cells, every record of
prop42) so that a run costs a few seconds at most.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from genquot.body import make_body
from genquot.sampler import SeedSpec, gaussian_matrix, haar_subspace
from genquot.snumbers import mn_witness_check

REL_TOL = 1e-7

# cells whose trial-0 record is recomputed (HiGHS cost grows with N)
_OPNORM_CELLS = {
    "hsbound": ("8x64", "16x128"),
    "thm32": ("8x64",),
    "thm22": ("8x16", "16x32", "32x64"),
    "fact31": ("16x256",),
}


def highs_gauge(gamma: np.ndarray, x: np.ndarray) -> float:
    """min ||t||_1 s.t. gamma t = x, solved by HiGHS."""
    n_cols = gamma.shape[1]
    res = linprog(np.ones(2 * n_cols), A_eq=np.hstack([gamma, -gamma]), b_eq=x,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS gauge LP failed: {res.message}")
    return float(res.fun)


def highs_operator_norm(gamma: np.ndarray, t: np.ndarray) -> float:
    images = t @ gamma
    return max(highs_gauge(gamma, images[:, j]) for j in range(gamma.shape[1]))


def _check(suite: str, rec: dict, quantity: str, reported: float, reference: float) -> dict:
    rel = abs(reported - reference) / max(abs(reference), 1e-300)
    return {"suite": suite, "cell": rec["cell"], "trial": rec["trial"],
            "quantity": quantity, "reported": reported, "reference": reference,
            "rel_diff": rel, "ok": bool(rel <= REL_TOL)}


def _fact31_gamma_best(t_op: np.ndarray) -> float:
    # the suite's witness lower bound: best k * achieved over k = 1, 2, 4, ..
    n = t_op.shape[0]
    right = np.linalg.svd(t_op)[2].T
    best, k = 0.0, 1
    while k <= n // 2:
        best = max(best, k * mn_witness_check(t_op, right[:, :k], beta=0.0).achieved)
        k *= 2
    return best


def _opnorm_checks(suite: str, payload: dict, master: int) -> list[dict]:
    out = []
    for rec in payload["trials"]:
        if rec.get("trial") != 0 or rec.get("cell") not in _OPNORM_CELLS[suite]:
            continue
        if "error" in rec or rec.get("kind", "gaussian") != "gaussian":
            continue
        n, big_n = rec["n"], rec["N"]
        sd = SeedSpec(master, rec["stream"])
        body = make_body(n, big_n, sd)
        if suite == "hsbound":
            t = gaussian_matrix(n, n, 1.0, sd.child(1))
            reported = float(np.linalg.norm(t, "fro")) / rec["hs"]
        elif suite == "fact31":
            t = gaussian_matrix(n, n, 1.0, sd.child(8))
            reported = (rec["fact32_ratio"] * _fact31_gamma_best(t)
                        / math.sqrt(n * math.log(n)))
        else:
            t = gaussian_matrix(n, n, 1.0, sd.child(1))
            reported = rec["opnorm"]
        out.append(_check(suite, rec, "operator_norm", reported,
                          highs_operator_norm(body.gamma, t)))
    return out


def _prop42_checks(payload: dict, master: int) -> list[dict]:
    # complementation constant of a 1-dimensional Haar section: the norm of
    # the projection u u^T is max_j |<u, g_j>| * ||u||_B
    out = []
    for rec in payload["trials"]:
        if "compl_constant" not in rec or rec.get("h") != 1:
            continue
        sd = SeedSpec(master, rec["stream"])
        body = make_body(rec["d"], rec["N"], sd)
        u = haar_subspace(rec["d"], 1, sd.child(1)).basis[:, 0]
        reference = float(np.max(np.abs(u @ body.gamma))) * highs_gauge(body.gamma, u)
        out.append(_check("prop42", rec, "compl_constant", rec["compl_constant"], reference))
    return out


def _geometry_checks(suite: str, payload: dict, master: int) -> list[dict]:
    out = []
    for rec in payload["trials"]:
        if rec.get("trial") != 0 or "error" in rec:
            continue
        sd = SeedSpec(master, rec["stream"])
        body = make_body(rec["k"], rec["N"], sd)
        radius = float(np.sqrt((body.gamma ** 2).sum(axis=0)).max())
        if "circumradius" in rec:
            out.append(_check(suite, rec, "circumradius", rec["circumradius"], radius))
            continue
        # volume record: the estimate sits inside its interval, inside the
        # circumradius, and the polar-facet gauge it counts hits with agrees
        # with the LP gauge at fixed points
        inside = rec["ci_low"] <= rec["ratio"] <= rec["ci_high"] <= radius * (1 + 1e-12)
        out.append({"suite": suite, "cell": rec["cell"], "trial": 0,
                    "quantity": "volume_interval", "ok": bool(inside)})
        rng = np.random.default_rng([master, rec["stream"]])
        pts = rng.normal(size=(8, body.n)) * (radius / math.sqrt(body.n))
        polar = np.maximum(pts @ body.polar_vertices.T, 0.0).max(axis=1)
        for x, g in zip(pts, polar):
            out.append(_check(suite, rec, "polar_gauge", float(g), highs_gauge(body.gamma, x)))
    return out


def check_report(suite: str, payload: dict, master: int) -> list[dict]:
    """Recompute this suite's fixed sample; one dict per check with an `ok` flag."""
    if suite in _OPNORM_CELLS:
        return _opnorm_checks(suite, payload, master)
    if suite == "prop42":
        return _prop42_checks(payload, master)
    if suite in ("lemmaD", "corC"):
        return _geometry_checks(suite, payload, master)
    return []  # prop41 records carry no value rebuildable without the witness
