"""genquot: a numerical laboratory for generic quotients of l1^N.

Random symmetric polytopes B = absconv{g_1,...,g_N} spanned by Gaussian
columns, exact LP norm oracles, s-number brackets for operators in the induced
norm, constructive well-complemented l1^k / l2^h subspace searches, and seeded
Monte Carlo suites that check every quantitative claim at desk scale.
"""

# set before the submodule imports: experiments, cli and pyproject read them here
__version__ = "1.0.0"
REPORT_SCHEMA = "genquot-report/1"

# each module's __all__ is its public API; the package re-exports all of them
from .errors import *  # noqa: E402,F401,F403
from .linalg import *  # noqa: E402,F401,F403
from .sampler import *  # noqa: E402,F401,F403
from .linprog import *  # noqa: E402,F401,F403
from .body import *  # noqa: E402,F401,F403
from .snumbers import *  # noqa: E402,F401,F403
from .constructions import *  # noqa: E402,F401,F403
from .experiments import *  # noqa: E402,F401,F403
