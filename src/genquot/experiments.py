"""Seeded Monte Carlo suites verifying the quantitative claims at desk scale.

Every suite is a pure function of its SuiteConfig: trials run on derived
streams (stream = cell_index * 2^32 + trial_index * 2^16), results are folded
in trial order, and reports serialize byte-identically regardless of the
number of worker processes: each trial is data, (trial function, cell index,
cell, trial index), run by one runner inline or in a process pool. Each suite
is one entry of one table (job builder, summary, default grid, trial and
sample counts), and one driver, `run_suite`, runs every suite. Universal
constants that the theory leaves unspecified are *fitted* from the data; a
dedicated calibration entry point freezes fitted thresholds to a JSON file
that verification runs read back.

Suites
------
lemmaA   norm concentration of N(0, Id/d) vectors (moments, tails, small ball)
lemmaB   singular value range of tall N(0,1) matrices under N^(-1/2) scaling
corC     inradius floor c * k^(-1/2) at N = 2k
lemmaD   inradius growth c' * sqrt(log(N/k)/k) and volume ratio upper bound
fact31   mean width bound and almost-Euclidean random sections; witness-based
         lower bounds for operators with planted M_n(alpha, beta) structure
thm22    shift-search upper value vs n^(-1/2) ||T||_X trend at k = n/2
thm32    shifted Gelfand-sum trend vs n^(2/3) log^(3/2) n and the sqrt(n) floor
prop41   random-index l1^k construction: success rate and constants
prop42   Haar-section l2^h construction, plus the relaxed N = n^(1+alpha) mode
hsbound  Frobenius norm of X_n-normalized operators never exceeds sqrt(N)
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import REPORT_SCHEMA, __version__
from .body import (VOLUME_DIM_CAP, make_body, mean_width, operator_norm, radii,
                   section_distortion, volume_ratio)
from .constructions import (DEFAULT_C_CAL, DEFAULT_EL2_THRESHOLD, find_l1_subspace,
                            find_l2_subspace, verify_witness)
from .errors import ConditionFailed, FitError, IoError, NumericError, UsageError
from .linalg import json_field, read_json, singular_values, svd, write_text
from .sampler import SeedSpec, gaussian_matrix, haar_subspace
from .snumbers import gelfand_sum_bracket, hs_of_normalized, min_over_shifts, mn_witness_check

__all__ = [
    "SUITE_IDS",
    "SuiteConfig",
    "SuiteReport",
    "FitResult",
    "DEFAULT_THRESHOLDS",
    "default_config",
    "run_suite",
    "fit_constant",
    "write_report",
    "read_report",
    "calibrate",
    "write_thresholds",
    "read_thresholds",
]

_STRIDE_CELL = 1 << 32
_STRIDE_TRIAL = 1 << 16
_VOLUME_TRIALS = 20  # lemmaD trials per volume cell (the report echoes it)
_CALIBRATION_MARGIN = 1.5  # calibrate: thresholds are this multiple of the observed maxima

# Built-in acceptance thresholds; entries marked "calibrated" are meant to be
# overridden by a frozen thresholds file produced by `calibrate`.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "lemmaA_mean_tol": 0.002,
    "lemmaA_smallball_cap": (0.5 * math.exp(0.5)) ** 20,
    "lemmaA_decay_factor": 3.0,
    "lemmaB_sv_low": 0.25,
    "lemmaB_sv_high": 2.0,
    "corC_stability": 2.0,
    "corC_c_floor": 0.2,
    "lemmaD_stability": 2.0,
    "fact31_c2": 2.0,
    "fact31_stability": 3.0,
    "thm22_growth": 2.0,
    "thm32_stability": 2.0,
    "thm32_floor_factor": 0.25,
    "prop_success_rate": 0.9,
    "c_cal": DEFAULT_C_CAL,
    "el2_sigma_min": DEFAULT_EL2_THRESHOLD,
}

_CALIBRATED_KEYS = ("l1_iso_max", "l1_compl_max", "l2_distortion_max", "l2_compl_max")
# every key a thresholds file may hold: C1_rzut is written by calibrate only
_THRESHOLD_KEYS = frozenset(DEFAULT_THRESHOLDS) | set(_CALIBRATED_KEYS) | {"C1_rzut"}


@dataclass(frozen=True)
class SuiteConfig:
    """Full description of one suite run; the report echoes it verbatim."""

    suite_id: str
    trials: int
    master_seed: int
    size_grid: tuple[tuple[int, ...], ...]
    thresholds: dict[str, float] = field(default_factory=dict)
    samples: int = 0

    def __post_init__(self):
        if self.suite_id not in SUITE_IDS:
            raise UsageError(f"unknown suite id {self.suite_id!r}; known: {', '.join(SUITE_IDS)}")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        object.__setattr__(self, "size_grid", tuple(tuple(int(v) for v in c) for c in self.size_grid))
        if not self.size_grid:
            raise UsageError("size_grid needs at least one cell")
        if _SUITES[self.suite_id].samples and self.samples < 1:
            raise UsageError(f"suite {self.suite_id!r} needs samples >= 1, got {self.samples}")

    def threshold(self, key: str) -> float:
        if key in self.thresholds:
            return float(self.thresholds[key])
        if key in DEFAULT_THRESHOLDS:
            return DEFAULT_THRESHOLDS[key]
        raise UsageError(
            f"suite {self.suite_id!r} needs threshold {key!r}; run `genquot calibrate` "
            "to produce a thresholds file and pass it via --thresholds"
        )

    def as_dict(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "size_grid": [list(c) for c in self.size_grid],
            "thresholds": {k: self.thresholds[k] for k in sorted(self.thresholds)},
            "samples": self.samples,
            "volume_trials": _VOLUME_TRIALS,
        }


@dataclass(frozen=True)
class SuiteReport:
    """Machine-readable suite outcome; byte-identical under re-runs."""

    suite_id: str
    config: dict
    trials: list[dict]
    aggregate: dict
    fitted: dict
    passed: bool
    artifact_version: str = __version__

    def to_payload(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite_id,
            "config": self.config,
            "trials": self.trials,
            "aggregate": self.aggregate,
            "fitted": self.fitted,
            "pass": self.passed,
            "artifact_version": self.artifact_version,
        }


@dataclass(frozen=True)
class FitResult:
    """Fitted constant with the rms residual of the log-domain fit."""

    constant: float
    residual: float


def _seed(cfg: SuiteConfig, cell: int, trial: int) -> SeedSpec:
    return SeedSpec(cfg.master_seed, cell * _STRIDE_CELL + trial * _STRIDE_TRIAL)


# A job is (trial function, cell index, cell, trial index). Trial functions
# are module-level, so jobs pickle by reference into worker processes.
Trial = Callable[[SuiteConfig, int, tuple, int], dict]
Job = tuple[Trial, int, tuple, int]


def _grid_jobs(trial: Trial) -> Callable[[SuiteConfig], list[Job]]:
    """Job builder running `trial` cfg.trials times on every grid cell."""
    return lambda cfg: [(trial, ci, cell, t) for ci, cell in enumerate(cfg.size_grid)
                        for t in range(cfg.trials)]


def _run_job(cfg: SuiteConfig, job: Job) -> dict:
    trial, ci, cell, t = job
    try:
        return trial(cfg, ci, cell, t)
    except NumericError as exc:  # one broken trial must not sink the whole suite
        return {"error": f"{type(exc).__name__}: {exc}"}


def _run_trials(cfg: SuiteConfig, jobs: list[Job], workers: int) -> list[dict]:
    """The jobs' records in job order, so report bytes never depend on the
    worker count: inline when workers <= 1, else in a process pool."""
    if workers <= 1 or len(jobs) <= 1:
        return [_run_job(cfg, job) for job in jobs]
    import multiprocessing  # only the pool path needs it
    from concurrent.futures import ProcessPoolExecutor

    # fork: workers inherit the imported package; spawn and forkserver (the
    # Python 3.14 default) would import numpy again per worker and suite run
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                             mp_context=multiprocessing.get_context(method)) as pool:
        return list(pool.map(partial(_run_job, cfg), jobs))


_UNSTABLE = 1e30  # sentinel for "not a stable positive family" (keeps JSON finite)


def _stability(values: list[float]) -> float:
    if not values:
        return _UNSTABLE
    lo, hi = min(values), max(values)
    if lo <= 0:
        return _UNSTABLE
    return hi / lo


def _cell_label(cell: tuple[int, ...]) -> str:
    return "x".join(str(v) for v in cell)


def _cells(cfg: SuiteConfig, records: list[dict], summary: Callable[[tuple, list[dict]], dict],
           label: Callable[[tuple], str] = _cell_label) -> dict:
    """summary(cell, records of that cell in job order) by cell label, over
    the grid; error records carry no cell, so a cell may get no records."""
    return {label(cell): summary(cell, [r for r in records if r.get("cell") == label(cell)])
            for cell in cfg.size_grid}


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------


def fit_constant(points) -> FitResult:
    """Least-squares fit of y = A exp(-c x) in the log domain; returns c."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise FitError(f"need at least 2 points, got {len(pts)}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.any(ys <= 0):
        raise FitError("the exp-decay fit requires positive y values")
    if np.ptp(xs) == 0:
        raise FitError("degenerate x data")
    slope, intercept = np.polyfit(xs, np.log(ys), 1)
    resid = np.log(ys) - (slope * xs + intercept)
    return FitResult(constant=float(-slope), residual=float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def _lemma_a_trial(cfg: SuiteConfig, ci: int, cell: tuple[int], t: int) -> dict:
    d = cell[0]
    sd = _seed(cfg, ci, t)
    g = gaussian_matrix(d, cfg.samples, 1.0 / d, sd)
    norms = np.linalg.norm(g, axis=0)
    return {
        "cell": f"d={d}", "d": d, "trial": t, "stream": sd.stream_index,
        "samples": cfg.samples,
        "mean_sq": float(np.mean(norms ** 2)),
        "n_ge2": int(np.count_nonzero(norms >= 2.0)),
        "n_le_half": int(np.count_nonzero(norms <= 0.5)),
        "n_out": int(np.count_nonzero((norms < 0.5) | (norms > 2.0))),
    }


def _lemma_a_cell(cell: tuple[int], rs: list[dict]) -> dict:
    d = cell[0]
    if not rs:
        return {"d": d, "samples": 0, "mean_sq": 0.0, "freq_ge2": 1.0,
                "freq_le_half": 1.0, "freq_out": 1.0}
    total = sum(r["samples"] for r in rs)
    return {
        "d": d,
        "samples": total,
        "mean_sq": sum(r["mean_sq"] * r["samples"] for r in rs) / total,
        "freq_ge2": sum(r["n_ge2"] for r in rs) / total,
        "freq_le_half": sum(r["n_le_half"] for r in rs) / total,
        "freq_out": sum(r["n_out"] for r in rs) / total,
    }


def _lemma_a_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    dims = [c[0] for c in cfg.size_grid]
    cells = _cells(cfg, records, _lemma_a_cell, label=lambda cell: f"d={cell[0]}")

    fitted: dict = {}
    decay_pts = [(d, cells[f"d={d}"]["freq_out"]) for d in dims if cells[f"d={d}"]["freq_out"] > 0]
    if len(decay_pts) >= 2:
        fit = fit_constant(decay_pts)
        fitted["c0"] = fit.constant
        fitted["c0_residual"] = fit.residual

    checks: dict = {}
    mean_tol = cfg.threshold("lemmaA_mean_tol")
    for d in dims:
        if d >= 100:
            checks[f"mean_sq_d{d}"] = abs(cells[f"d={d}"]["mean_sq"] - 1.0) <= mean_tol
        if d >= 20:
            checks[f"tail_d{d}"] = cells[f"d={d}"]["freq_ge2"] == 0.0
        if d == 20:
            checks["smallball_d20"] = (cells[f"d={d}"]["freq_le_half"]
                                       <= cfg.threshold("lemmaA_smallball_cap"))
    factor = cfg.threshold("lemmaA_decay_factor")
    for d in dims:
        if 2 * d in dims:
            f1, f2 = cells[f"d={d}"]["freq_out"], cells[f"d={2 * d}"]["freq_out"]
            checks[f"decay_{d}_to_{2 * d}"] = (f2 == 0.0) or (f1 > 0 and f2 <= f1 / factor)
    return {"cells": cells, "checks": checks}, fitted, all(checks.values())


def _lemma_b_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    k, big_n = cell
    lo = cfg.threshold("lemmaB_sv_low")
    hi = cfg.threshold("lemmaB_sv_high")
    sd = _seed(cfg, ci, t)
    lam = gaussian_matrix(big_n, k, 1.0, sd)
    svs = singular_values(lam) / np.sqrt(big_n)
    return {
        "cell": _cell_label(cell), "k": k, "N": big_n, "trial": t,
        "stream": sd.stream_index,
        "min_sv": float(svs.min()), "max_sv": float(svs.max()),
        "violations": int(np.count_nonzero((svs <= lo) | (svs >= hi))),
    }


def _lemma_b_cell(cell: tuple[int, int], rs: list[dict]) -> dict:
    if not rs:
        return {"violations": 1, "min_sv": 0.0, "max_sv": 0.0}
    return {
        "violations": sum(r["violations"] for r in rs),
        "min_sv": min(r["min_sv"] for r in rs),
        "max_sv": max(r["max_sv"] for r in rs),
    }


def _lemma_b_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    cells = _cells(cfg, records, _lemma_b_cell)
    total_violations = sum(c["violations"] for c in cells.values())
    fitted = {
        "c": min(c["min_sv"] for c in cells.values()),
        "C": max(c["max_sv"] for c in cells.values()),
    }
    return {"cells": cells, "total_violations": total_violations}, fitted, total_violations == 0


def _radii_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    k, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(k, big_n, sd)
    est = radii(body, seed=sd.child(1))
    return {
        "cell": _cell_label(cell), "k": k, "N": big_n, "trial": t,
        "stream": sd.stream_index,
        "inradius": est.inradius_estimate,
        "inradius_floor": body.inradius_floor,
        "circumradius": est.circumradius,
    }


def _cor_c_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    floor = cfg.threshold("corC_c_floor")

    def cell_summary(cell: tuple[int, int], rs: list[dict]) -> dict:
        if not rs:
            return {"c_median": 0.0, "c_min": 0.0, "frac_above_floor": 0.0}
        stats = [r["inradius"] * math.sqrt(r["k"]) for r in rs]
        return {
            "c_median": float(np.median(stats)),
            "c_min": float(np.min(stats)),
            "frac_above_floor": float(np.mean([s >= floor for s in stats])),
        }

    cells = _cells(cfg, records, cell_summary)
    meds = [c["c_median"] for c in cells.values()]
    fitted = {"c": min(meds), "c_stability": _stability(meds)}
    passed = all(m > 0 for m in meds) and fitted["c_stability"] <= cfg.threshold("corC_stability")
    return {"cells": cells}, fitted, passed


def _lemma_d_volume_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    k, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(k, big_n, sd)
    ratio = volume_ratio(body)  # exact: a zero-width interval
    scale = math.sqrt(math.log(big_n / k) / k)
    return {
        "cell": _cell_label(cell), "kind": "volume", "k": k, "N": big_n,
        "trial": t, "stream": sd.stream_index, "ratio": ratio,
        "ci_low": ratio, "ci_high": ratio, "Cprime_stat": ratio / scale,
    }


def _lemma_d_radii_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    rec = _radii_trial(cfg, ci, cell, t)
    scale = math.sqrt(math.log(rec["N"] / rec["k"]) / rec["k"])
    rec["kind"] = "radii"
    rec["cprime_stat"] = rec["inradius"] / scale
    return rec


def _lemma_d_jobs(cfg: SuiteConfig) -> list[Job]:
    jobs: list[Job] = []
    for ci, cell in enumerate(cfg.size_grid):
        if cell[0] <= VOLUME_DIM_CAP:
            jobs += [(_lemma_d_volume_trial, ci, cell, t) for t in range(_VOLUME_TRIALS)]
        else:
            jobs += [(_lemma_d_radii_trial, ci, cell, t) for t in range(cfg.trials)]
    return jobs


def _lemma_d_cell(cell: tuple[int, int], rs: list[dict]) -> dict:
    if not rs:
        return {"kind": "missing"}
    if rs[0]["kind"] == "volume":
        stats = [r["Cprime_stat"] for r in rs]
        return {"kind": "volume", "Cprime_max": float(np.max(stats)),
                "Cprime_median": float(np.median(stats))}
    stats = [r["cprime_stat"] for r in rs]
    return {"kind": "radii", "cprime_median": float(np.median(stats)),
            "cprime_min": float(np.min(stats))}


def _lemma_d_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    cells = _cells(cfg, records, _lemma_d_cell)
    # a missing cell joins its grid family (as in _lemma_d_jobs) with constant 0
    volume = {_cell_label(cell): cell[0] <= VOLUME_DIM_CAP for cell in cfg.size_grid}
    cprime_meds = [c.get("cprime_median", 0.0) for k, c in cells.items() if not volume[k]]
    cbig_maxes = [c.get("Cprime_max", 0.0) for k, c in cells.items() if volume[k]]
    fitted: dict = {}
    passed = True
    stab_cap = cfg.threshold("lemmaD_stability")
    if cprime_meds:
        fitted["cprime"] = min(cprime_meds)
        fitted["cprime_stability"] = _stability(cprime_meds)
        passed &= all(m > 0 for m in cprime_meds) and fitted["cprime_stability"] <= stab_cap
    if cbig_maxes:
        fitted["Cprime"] = max(cbig_maxes)
        fitted["Cprime_stability"] = _stability(cbig_maxes)
        passed &= fitted["Cprime_stability"] <= stab_cap
    return {"cells": cells}, fitted, passed


def _fact31_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    n, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(n, big_n, sd)
    mw, mw_err = mean_width(body, cfg.samples, sd.child(1))
    rec = {
        "cell": _cell_label(cell), "n": n, "N": big_n, "trial": t,
        "stream": sd.stream_index, "mean_width": mw, "mean_width_err": mw_err,
        "mw_ratio": mw / math.sqrt(math.log(n) / n),
    }
    for i, codim in enumerate(sorted({max(1, n // 4), max(1, n // 2)})):
        sub = haar_subspace(n, n - codim, sd.child(2 + 2 * i))
        _, min_g = section_distortion(body, sub, 200, sd.child(3 + 2 * i))
        rec[f"section_C_codim{codim}"] = 1.0 / (min_g * mw * math.sqrt(n / codim))
    t_op = gaussian_matrix(n, n, 1.0, sd.child(8))
    right = svd(t_op).right_basis
    gamma_best = 0.0
    kk = 1
    while kk <= n // 2:
        f_basis = right[:, :kk]
        wit = mn_witness_check(t_op, f_basis, beta=0.0)
        gamma_best = max(gamma_best, kk * wit.achieved)
        kk *= 2
    q = operator_norm(body, t_op)
    rec["fact32_ratio"] = q * math.sqrt(n * math.log(n)) / gamma_best
    return rec


def _fact31_cell(cell: tuple[int, int], rs: list[dict]) -> dict:
    if not rs:
        return {"mw_ratio_max": _UNSTABLE, "section_C_max": _UNSTABLE, "fact32_c1": 0.0}
    sec = [v for r in rs for k, v in r.items() if k.startswith("section_C_")]
    return {
        "mw_ratio_max": max(r["mw_ratio"] for r in rs),
        "section_C_max": max(sec),
        "fact32_c1": min(r["fact32_ratio"] for r in rs),
    }


def _fact31_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    cells = _cells(cfg, records, _fact31_cell)
    fitted = {
        "c2_meanwidth": max(c["mw_ratio_max"] for c in cells.values()),
        "C_section": max(c["section_C_max"] for c in cells.values()),
        "c1_fact32": min(c["fact32_c1"] for c in cells.values()),
        "C_section_stability": _stability([c["section_C_max"] for c in cells.values()]),
    }
    passed = (fitted["c2_meanwidth"] <= cfg.threshold("fact31_c2")
              and fitted["c1_fact32"] > 0
              and fitted["C_section_stability"] <= cfg.threshold("fact31_stability"))
    return {"cells": cells}, fitted, passed


def _operator_for_trial(n: int, t: int, trials: int, sd: SeedSpec) -> np.ndarray:
    # first half Gaussian, second half Haar orthogonal
    if t < (trials + 1) // 2:
        return gaussian_matrix(n, n, 1.0, sd)
    return haar_subspace(n, n, sd).basis


def _thm22_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    n, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(n, big_n, sd)
    t_op = _operator_for_trial(n, t, cfg.trials, sd.child(1))
    q = operator_norm(body, t_op)
    res = min_over_shifts(body, t_op, k=n // 2, opnorm=q)
    denom = q / math.sqrt(n)
    return {
        "cell": _cell_label(cell), "n": n, "N": big_n, "trial": t,
        "stream": sd.stream_index,
        "kind": "gaussian" if t < (cfg.trials + 1) // 2 else "orthogonal",
        "opnorm": q, "best_shift": res.best_shift, "proxy_value": res.best_value,
        "ratio": res.best_value / denom,
        "bracket_upper_ratio": res.bracket_at_best.upper / denom,
    }


def _thm22_cell(cell: tuple[int, int], rs: list[dict]) -> dict:
    if not rs:
        return {"K_fit": 0.0, "K_bracket_fit": 0.0}
    return {"K_fit": float(np.mean([r["ratio"] for r in rs])),
            "K_bracket_fit": float(np.mean([r["bracket_upper_ratio"] for r in rs]))}


def _thm22_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    cells = _cells(cfg, records, _thm22_cell)
    id_ok = True
    for ci, cell in enumerate(cfg.size_grid):
        n, big_n = cell
        label = _cell_label(cell)
        # multiples of the identity must give an exactly zero shifted proxy;
        # a check that cannot run (None) fails like any trial error
        try:
            body = make_body(n, big_n, _seed(cfg, ci, 0))
            res = min_over_shifts(body, 1.5 * np.eye(n), k=n // 2, opnorm=1.5)
            ratio = res.best_value / (1.5 / math.sqrt(n))
        except NumericError:
            ratio = None
        cells[label]["identity_ratio"] = ratio
        id_ok &= ratio == 0.0

    ks = [cells[_cell_label(c)]["K_fit"] for c in cfg.size_grid]
    fitted = {"K": max(ks), "K_first": ks[0], "K_last": ks[-1]}
    growth = ks[-1] / ks[0] if ks[0] > 0 else _UNSTABLE
    fitted["K_growth"] = growth
    passed = id_ok and growth <= cfg.threshold("thm22_growth")
    return {"cells": cells, "identity_exact": id_ok}, fitted, passed


def _thm32_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    n, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(n, big_n, sd)
    t_op = _operator_for_trial(n, t, cfg.trials, sd.child(1))
    q = operator_norm(body, t_op)
    res = gelfand_sum_bracket(body, t_op)
    return {
        "cell": _cell_label(cell), "n": n, "N": big_n, "trial": t,
        "stream": sd.stream_index,
        "kind": "gaussian" if t < (cfg.trials + 1) // 2 else "orthogonal",
        "opnorm": q, "sum_value": res.sum_value,
        "ratio_a": res.sum_value / (n ** (2.0 / 3.0) * math.log(n) ** 1.5 * q),
        "ratio_b": res.sum_value / (math.sqrt(n) * q),
    }


def _thm32_cell(cell: tuple[int, int], rs: list[dict]) -> dict:
    if not rs:
        return {"c_fit": 0.0, "floor_fit": 0.0}
    return {"c_fit": float(np.mean([r["ratio_a"] for r in rs])),
            "floor_fit": float(np.mean([r["ratio_b"] for r in rs]))}


def _thm32_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    cells = _cells(cfg, records, _thm32_cell)
    cs = [cells[_cell_label(c)]["c_fit"] for c in cfg.size_grid]
    floors = [cells[_cell_label(c)]["floor_fit"] for c in cfg.size_grid]
    fitted = {"c": max(cs), "c_stability": _stability(cs),
              "floor_first": floors[0], "floor_last": floors[-1]}
    passed = (fitted["c_stability"] <= cfg.threshold("thm32_stability")
              and floors[0] > 0
              and floors[-1] >= cfg.threshold("thm32_floor_factor") * floors[0])
    return {"cells": cells}, fitted, passed


def _prop41_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    d, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(d, big_n, sd)
    rec = {"cell": _cell_label(cell), "d": d, "N": big_n, "trial": t,
           "stream": sd.stream_index}
    try:
        wit = find_l1_subspace(body, seed=sd.child(1), c_cal=cfg.threshold("c_cal"),
                               el2_threshold=cfg.threshold("el2_sigma_min"))
    except ConditionFailed as exc:
        rec.update({"success": False, "failed_tag": exc.tag})
        rec.update({f"failed_{k}": v for k, v in exc.measured.items()})
        return rec
    dev = max(verify_witness(body, wit).values())
    rec.update({
        "success": True, "k": wit.k, "sigma_min": wit.sigma_min,
        "max_leak": wit.max_leak, "iso_constant": wit.iso_constant,
        "compl_constant": wit.compl_constant, "reverify_dev": dev,
        "reverify_ok": dev <= 1e-9,
    })
    return rec


def _prop41_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    succ = [r for r in records if r.get("success")]
    rate = len(succ) / max(len(records), 1)
    fitted = {
        "success_rate": rate,
        "iso_max": max((r["iso_constant"] for r in succ), default=0.0),
        "compl_max": max((r["compl_constant"] for r in succ), default=0.0),
    }
    passed = rate >= cfg.threshold("prop_success_rate")
    passed &= all(r.get("reverify_ok", False) for r in succ)
    if succ:
        passed &= fitted["iso_max"] <= cfg.threshold("l1_iso_max")
        passed &= fitted["compl_max"] <= cfg.threshold("l1_compl_max")
    return {"success_rate": rate}, fitted, passed


_ALPHA_GRID = (0.25, 0.5, 1.0)  # prop42 relaxed mode: N = round(16^(1 + alpha))
_ALPHA_DIM = 16


def _prop42_main_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    d, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(d, big_n, sd)
    wit = find_l2_subspace(body, seed=sd.child(1), c_cal=cfg.threshold("c_cal"))
    dev = max(verify_witness(body, wit).values())
    ok = (wit.distortion <= cfg.threshold("l2_distortion_max")
          and wit.compl_constant <= cfg.threshold("l2_compl_max"))
    return {
        "cell": _cell_label(cell), "mode": "main", "d": d, "N": big_n, "trial": t,
        "stream": sd.stream_index, "h": wit.h, "distortion": wit.distortion,
        "compl_constant": wit.compl_constant,
        "proj_image_radius": wit.proj_image_radius,
        "rzut_stat": wit.proj_image_radius / math.sqrt(wit.h / d),
        "reverify_dev": dev, "reverify_ok": dev <= 1e-9, "success": ok,
    }


def _prop42_alpha_trial(cfg: SuiteConfig, ci: int, alpha: float, t: int) -> dict:
    d = _ALPHA_DIM
    big_n = round(d ** (1.0 + alpha))
    sd = _seed(cfg, 100 + ci, t)
    body = make_body(d, big_n, sd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wit = find_l2_subspace(body, seed=sd.child(1), c_cal=cfg.threshold("c_cal"),
                               relax_alpha=alpha)
    return {
        "cell": f"alpha={alpha}", "mode": "alpha", "alpha": alpha, "d": d,
        "N": big_n, "trial": t, "stream": sd.stream_index, "h": wit.h,
        "distortion": wit.distortion, "compl_constant": wit.compl_constant,
    }


def _prop42_jobs(cfg: SuiteConfig) -> list[Job]:
    return _grid_jobs(_prop42_main_trial)(cfg) + [
        (_prop42_alpha_trial, ci, alpha, t)
        for ci, alpha in enumerate(_ALPHA_GRID) for t in range(cfg.trials)]


def _prop42_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    main = [r for r in records if r.get("mode") == "main"]
    rate = float(np.mean([bool(r.get("success")) for r in main])) if main else 0.0
    fitted = {
        "success_rate": rate,
        "distortion_max": max((r["distortion"] for r in main), default=0.0),
        "compl_max": max((r["compl_constant"] for r in main), default=0.0),
        "C1_rzut": max((r["rzut_stat"] for r in main), default=0.0),
    }
    means = []  # None for an alpha cell whose every trial failed
    for alpha in _ALPHA_GRID:
        rs = [r["compl_constant"] for r in records if r.get("cell") == f"alpha={alpha}"]
        means.append(float(np.mean(rs)) if rs else None)
        fitted[f"compl_alpha_{alpha}"] = means[-1] if rs else 0.0
    alpha_monotone = None not in means and all(
        a >= b - 1e-12 for a, b in zip(means, means[1:]))
    passed = (rate >= cfg.threshold("prop_success_rate")
              and all(r.get("reverify_ok", False) for r in main)
              and alpha_monotone)
    return {"success_rate": rate, "alpha_monotone": alpha_monotone}, fitted, passed


def _hsbound_trial(cfg: SuiteConfig, ci: int, cell: tuple[int, int], t: int) -> dict:
    n, big_n = cell
    sd = _seed(cfg, ci, t)
    body = make_body(n, big_n, sd)
    t_op = gaussian_matrix(n, n, 1.0, sd.child(1))
    hs, bound, ok = hs_of_normalized(body, t_op)
    return {"cell": _cell_label(cell), "n": n, "N": big_n, "trial": t,
            "stream": sd.stream_index, "hs": hs, "bound": bound, "ok": bool(ok)}


def _hsbound_summary(cfg: SuiteConfig, records: list[dict]) -> tuple[dict, dict, bool]:
    violations = sum(1 for r in records if not r.get("ok", False))
    slack = min((r["bound"] - r["hs"] for r in records if "hs" in r), default=0.0)
    return {"violations": violations, "min_slack": slack}, {"hs_margin": slack}, violations == 0


@dataclass(frozen=True)
class _Suite:
    """One suite: its jobs, the summary folding their records into
    (aggregate, fitted, passed), and its acceptance-scale defaults."""

    jobs: Callable[[SuiteConfig], list[Job]]
    summary: Callable[[SuiteConfig, list[dict]], tuple[dict, dict, bool]]
    grid: tuple[tuple[int, ...], ...]
    trials: int
    samples: int = 0


_SUITES: dict[str, _Suite] = {
    "lemmaA": _Suite(_grid_jobs(_lemma_a_trial), _lemma_a_summary,
                     ((10,), (20,), (40,), (80,), (100,)), 100, samples=1000),
    "lemmaB": _Suite(_grid_jobs(_lemma_b_trial), _lemma_b_summary,
                     ((25, 50), (50, 100), (100, 200)), 200),
    "corC": _Suite(_grid_jobs(_radii_trial), _cor_c_summary,
                   ((16, 32), (25, 50), (36, 72)), 50),
    # e^2 and e^4 aspect ratios for the inradius fit, low dims for volume
    "lemmaD": _Suite(_lemma_d_jobs, _lemma_d_summary,
                     ((16, 118), (16, 874), (25, 185), (25, 1365), (36, 266), (36, 1966),
                      (3, 48), (4, 64), (5, 80)), 50),
    "fact31": _Suite(_grid_jobs(_fact31_trial), _fact31_summary,
                     ((16, 256), (24, 576)), 10, samples=10_000),
    "thm22": _Suite(_grid_jobs(_thm22_trial), _thm22_summary,
                    ((8, 16), (16, 32), (32, 64)), 40),
    "thm32": _Suite(_grid_jobs(_thm32_trial), _thm32_summary, ((8, 64), (16, 256)), 40),
    "prop41": _Suite(_grid_jobs(_prop41_trial), _prop41_summary, ((36, 1296),), 50),
    "prop42": _Suite(_prop42_jobs, _prop42_summary, ((9, 81), (16, 256)), 50),
    "hsbound": _Suite(_grid_jobs(_hsbound_trial), _hsbound_summary, ((8, 64), (16, 128)), 50),
}
SUITE_IDS = tuple(_SUITES)


def default_config(suite_id: str, master_seed: int, trials: int | None = None,
                   thresholds: dict[str, float] | None = None,
                   size_grid: tuple | None = None,
                   samples: int | None = None) -> SuiteConfig:
    """Acceptance-scale configuration for a suite with optional overrides."""
    if suite_id not in _SUITES:
        raise UsageError(f"unknown suite id {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    suite = _SUITES[suite_id]
    return SuiteConfig(
        suite_id=suite_id,
        trials=trials if trials is not None else suite.trials,
        master_seed=master_seed,
        size_grid=size_grid if size_grid is not None else suite.grid,
        thresholds=dict(thresholds) if thresholds else {},
        samples=samples if samples is not None else suite.samples,
    )


def run_suite(config: SuiteConfig, threads: int = 1) -> SuiteReport:
    """Run one verification suite; deterministic given the config alone.

    threads is the number of worker processes the trials run in (1: inline,
    in this process); it changes run time only, never the report bytes. A
    suite fails when more than 1% of its trials end in an error record.
    """
    suite = _SUITES[config.suite_id]
    records = _run_trials(config, suite.jobs(config), max(int(threads), 1))
    aggregate, fitted, passed = suite.summary(config, records)
    n_err = sum(1 for r in records if "error" in r)
    aggregate = {**aggregate, "error_count": n_err, "error_rate": n_err / max(len(records), 1)}
    return SuiteReport(suite_id=config.suite_id, config=config.as_dict(), trials=records,
                       aggregate=aggregate, fitted=fitted,
                       passed=bool(passed) and aggregate["error_rate"] <= 0.01)


# ---------------------------------------------------------------------------
# report I/O
# ---------------------------------------------------------------------------


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(report: SuiteReport, fmt: str, path) -> None:
    """Serialize a report as a schema'd JSON object or a flat per-trial CSV."""
    if fmt == "json":
        text = _dump_json(report.to_payload())
    elif fmt == "csv":
        keys = sorted({k for r in report.trials for k in r})
        lines = [",".join(keys)]
        for rec in report.trials:
            lines.append(",".join(_csv_cell(rec.get(k)) for k in keys))
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown report format {fmt!r} (json or csv)")
    write_text(path, text, "report")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_report(path) -> SuiteReport:
    def field(key: str, kind: type):
        return json_field(payload, key, kind, path, "report")

    payload = read_json(path, "report")
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != REPORT_SCHEMA:
        raise IoError(path, f"unexpected schema {schema!r}")
    if not isinstance(payload.get("pass"), bool):
        raise IoError(path, f"report field 'pass' must be true or false: {payload.get('pass')!r}")
    return SuiteReport(suite_id=field("suite", str), config=field("config", dict),
                       trials=field("trials", list), aggregate=field("aggregate", dict),
                       fitted=field("fitted", dict), passed=payload["pass"],
                       artifact_version=field("artifact_version", str))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def calibrate(master_seed: int, threads: int = 1, trials: int | None = None) -> dict[str, float]:
    """Fit the construction thresholds on a calibration run and return the
    frozen thresholds map (write it with `write_thresholds`).

    _CALIBRATION_MARGIN multiplies observed maxima so an independent verification
    run at different seeds stays below threshold with high probability.
    """
    permissive = {k: 1e30 for k in _CALIBRATED_KEYS}
    out = dict(DEFAULT_THRESHOLDS)
    r41 = run_suite(default_config("prop41", master_seed, trials=trials,
                                   thresholds=permissive), threads)
    out["l1_iso_max"] = _CALIBRATION_MARGIN * r41.fitted["iso_max"]
    out["l1_compl_max"] = _CALIBRATION_MARGIN * r41.fitted["compl_max"]
    r42 = run_suite(default_config("prop42", master_seed, trials=trials,
                                   thresholds=permissive), threads)
    out["l2_distortion_max"] = _CALIBRATION_MARGIN * r42.fitted["distortion_max"]
    out["l2_compl_max"] = _CALIBRATION_MARGIN * r42.fitted["compl_max"]
    out["C1_rzut"] = _CALIBRATION_MARGIN * r42.fitted["C1_rzut"]
    return out


def write_thresholds(thresholds: dict[str, float], path) -> None:
    write_text(path, _dump_json(thresholds), "thresholds")


def read_thresholds(path) -> dict[str, float]:
    """Load a thresholds file: a JSON object mapping known keys to numbers."""
    data = read_json(path, "thresholds")
    if not isinstance(data, dict):
        raise IoError(path, f"thresholds must be a JSON object, got {type(data).__name__}")
    for key, value in data.items():
        if key not in _THRESHOLD_KEYS:
            raise IoError(path, f"unknown threshold {key!r}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise IoError(path, f"threshold {key!r} must be a finite number, got {value!r}")
    return data
