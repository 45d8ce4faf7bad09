"""Exception types shared across the repro library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class AigError(ReproError):
    """Structural violation or misuse of an :class:`repro.aig.AIG`."""


class AigerFormatError(ReproError):
    """Malformed AIGER input."""


class BenchFormatError(ReproError):
    """Malformed BENCH input."""


class TruthTableError(ReproError):
    """Invalid truth-table operation (size mismatch, too many variables)."""


class FactoringError(ReproError):
    """Invalid SOP handed to the algebraic factoring engine."""


class TrainingError(ReproError):
    """ML training misconfiguration (shape mismatch, empty dataset)."""


class SatError(ReproError):
    """Malformed CNF or solver misuse."""


class RetryableError(ReproError):
    """A failure the resilience layer may retry (transient by contract).

    Raising one of these tells the recovery machinery that repeating the
    operation — possibly after a backoff or a process respawn — is
    expected to succeed; see
    :mod:`repro.resilience.policy` for how retry budgets are spent.
    """


class FatalError(ReproError):
    """A failure no retry can fix (misconfiguration, corrupted state).

    The resilience layer never retries these: they propagate to the
    caller immediately.
    """


class DeadlineExceeded(ReproError):
    """A latency budget (:class:`repro.resilience.Deadline`) expired.

    Carries the best consistent result committed before expiry: commits
    are serial, so ``partial`` — when set by the flow layer — is a
    valid, CEC-verifiable AIG reflecting every completed commit, and
    ``report`` covers the flow steps that finished.  ``site`` names the
    checkpoint that observed the expiry (``"flow.command"``,
    ``"engine.pass"``).
    """

    def __init__(self, message: str = "deadline exceeded", site: str = "",
                 partial=None, report=None) -> None:
        super().__init__(message)
        self.site = site
        self.partial = partial  # best valid AIG committed so far (or None)
        self.report = report  # FlowReport of the completed prefix (or None)
