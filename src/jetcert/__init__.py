"""jetcert: exact certification of twisted logarithmic 2-jet differential
vanishing for plane conic configurations, plus the companion intersection-number
and numeric-threshold calculators.

The certification pipeline is:

``conics`` (configuration geometry and the simple-normal-crossings test)
-> ``jets`` (invariant log-frame expansion and divisibility obstruction rows)
-> ``linsys`` (deterministic sparse linear system assembly and SMS export)
-> ``gflinalg`` (exact GF(p) elimination: rank, nullity, nullspace)
-> ``cli`` (verdicts, reports, exit codes).

``thresholds`` is the exact calculator for the degree thresholds, the
fiber-tower intersection numbers, and the exceptional-pair enumerator.
``polynomials`` is the shared sparse polynomial core; it also carries the
rational tower classes.
"""

from __future__ import annotations

__version__ = "0.1.0"
