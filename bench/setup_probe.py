"""Benchmark set-up: import genquot, load the thresholds, warm every layer.

`set_up` is what the benchmark process does before its timed phase. Run as
a script, this file times one set-up in a fresh interpreter and prints the
seconds it took; `run.py` starts it several times and reports the median as
`setup_s`.

    python3 bench/setup_probe.py
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS = ROOT / "genquot-thresholds.json"


def pin_blas_threads() -> None:
    """One BLAS thread, so the threads doing work are the suite's --threads.

    Must run before numpy is imported; child processes inherit it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def set_up():
    """Import the package, load the thresholds and touch each layer once.

    The warm-up pays lazy one-time costs (scipy.spatial import for the polar
    facets, first LAPACK and LP calls) so the timed phase measures steady
    work. Returns the `genquot.cli` module.
    """
    src = ROOT / "src"
    if not (src / "genquot" / "__init__.py").is_file():
        raise RuntimeError(f"no genquot sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from genquot import cli
    from genquot.body import body_norm, make_body, mean_width, operator_norm, radii, volume_ratio
    from genquot.experiments import read_thresholds
    from genquot.sampler import SeedSpec, gaussian_matrix, haar_subspace

    if not read_thresholds(THRESHOLDS):
        raise RuntimeError(f"{THRESHOLDS} holds no thresholds")
    sd = SeedSpec(0, 0)
    body = make_body(8, 64, sd)
    operator_norm(body, gaussian_matrix(8, 8, 1.0, sd.child(1)))
    wide = make_body(8, 600, sd.child(2))  # 2N > 1024: column-generation path
    body_norm(wide, wide.gamma[:, 0] + wide.gamma[:, 1])
    radii(body, seed=sd.child(3))
    mean_width(body, 1000, sd.child(4))
    volume_ratio(make_body(3, 48, sd.child(5)), 10_000, sd.child(6))
    haar_subspace(8, 4, sd.child(7))
    return cli


if __name__ == "__main__":
    pin_blas_threads()
    set_up()
    print(f"{time.perf_counter() - _T0:.9f}")
