"""Verification reports: named checks with witnesses and residuals.

Every verifier in the library returns a :class:`VerificationReport`
instead of raising on mathematical failure, so callers (and the CLI)
can see which axiom broke, where, and by how much.  A check's status is
``pass``, ``fail``, or ``probe-pass`` — the last is reserved for
Monte-Carlo verdicts that were sampled rather than proven.  A
construction that cannot return its object (an action that breaks the
bracket, a twist that is not a morphism, a degenerate trace form) raises
:class:`Refuted` instead, which carries the report of the failed check.

Most checks are first-failure sweeps, written with
:meth:`VerificationReport.sweep`.  Its ``cases`` yield ``(witness,
residual)`` pairs in a fixed order, each residual a scalar, coordinate
vector or matrix that vanishes exactly when its case holds.  The walk
stops at the first nonzero residual and the row fails with that witness
and the residual rendered canonically (a string, a list of strings, or a
list of rows, see :func:`render`); a row with no failing case passes
with neither.
:func:`first_nonzero` and :meth:`VerificationReport.add_found` are the
two halves of a sweep, for a failure that is reported twice or reshaped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Matrix, Subspace
from .scalar import HomLieError, Scalar, render_scalar

PASS = "pass"
FAIL = "fail"
PROBE_PASS = "probe-pass"


def _vanishes(residual) -> bool:
    if isinstance(residual, (Scalar, Matrix)):
        return residual.is_zero()
    return all(x.is_zero() for x in residual)


def first_nonzero(cases):
    """The first ``(witness, residual)`` of ``cases`` whose residual is
    nonzero, or None when every case holds."""
    return next(((w, r) for w, r in cases if not _vanishes(r)), None)


def render(x):
    """Canonical JSON form: a scalar as its text, a matrix as its rows, a
    subspace as its basis rows; dicts, lists and tuples entry by entry."""
    if isinstance(x, Scalar):
        return render_scalar(x)
    if isinstance(x, Matrix):
        return [render(x.row(i)) for i in range(x.rows)]
    if isinstance(x, Subspace):
        return render(x.basis)
    if isinstance(x, dict):
        return {str(k): render(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [render(v) for v in x]
    return x


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    witness: object = None
    residual: object = None

    @property
    def ok(self) -> bool:
        return self.status in (PASS, PROBE_PASS)


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, witness=None, residual=None, probe=False):
        status = (PROBE_PASS if probe else PASS) if ok else FAIL
        self.checks.append(CheckResult(name, status, witness, residual))
        return ok

    def sweep(self, name: str, cases, **extra):
        """Add the row of a first-failure sweep over ``cases`` (see the
        module docstring); ``extra`` joins a failing witness."""
        return self.add_found(name, first_nonzero(cases), **extra)

    def add_found(self, name: str, hit, **extra):
        """Add the row of a sweep whose first failure ``hit`` is known."""
        if hit is None:
            return self.add(name, True)
        witness, residual = hit
        return self.add(name, False, {**witness, **extra}, render(residual))

    def merge(self, other: "VerificationReport", prefix: str = ""):
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(CheckResult(name, c.status, c.witness, c.residual))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def first_failure(self) -> CheckResult | None:
        fails = self.failures()
        return fails[0] if fails else None

    def summary(self) -> str:
        n = len(self.checks)
        bad = len(self.failures())
        if bad == 0:
            return f"{n} checks: all pass"
        return f"{n} checks: {bad} FAILED ({', '.join(c.name for c in self.failures()[:4])})"


class Refuted(HomLieError):
    """A construction the mathematics refutes; ``report`` holds the
    failed check, with its witness."""

    def __init__(self, report: VerificationReport):
        self.report = report
        first = report.first_failure()
        super().__init__(f"{first.name} fails at {first.witness}")

    @classmethod
    def row(cls, name: str, message: str, **witness) -> "Refuted":
        """One failed row whose witness is the message and ``witness``."""
        report = VerificationReport()
        report.add(name, False, {"message": message, **witness})
        return cls(report)
