"""Exception hierarchy shared across the pipeline."""


class RegpackError(Exception):
    """Base class for all library errors."""


class BadParams(RegpackError):
    pass


class SideMismatch(RegpackError):
    pass


class TooLarge(RegpackError):
    pass


class NoMatching(RegpackError):
    pass


class SwitchIneligible(RegpackError):
    pass


class DegreeTooHigh(RegpackError):
    pass


class RetriesExhausted(RegpackError):
    pass


class SplitRetriesExhausted(RetriesExhausted):
    pass


class InfeasibleTargetSets(RegpackError):
    pass


class NotNearEquiregular(RegpackError):
    pass


class NotSuperRegular(RegpackError):
    pass


class EmbedFailure(RegpackError):
    """Base for the staged failures of the embedding algorithms.

    ``stage`` carries (round, class) context when known.
    """

    def __init__(self, msg="", stage=None):
        super().__init__(msg)
        self.stage = stage


class FailureType1(EmbedFailure):
    """Preparation/refinement certificates failed."""


class FailureType2(EmbedFailure):
    """A per-round candidacy certificate failed, or a round matching is missing."""


class PatchFailure(RegpackError):
    pass


class HypothesisViolation(RegpackError):
    pass


class Infeasible(RegpackError):
    """Degree regularization impossible."""


class GreedySelectionFailed(RegpackError):
    pass


class StackEmbedFailure(RegpackError):
    pass


class QuasirandomnessFailed(RegpackError):
    pass


class FailureExhausted(RegpackError):
    """The main packer ran out of retries.

    ``failure_type`` in 1..6, with round/step context in ``where``.
    """

    def __init__(self, failure_type, where="", msg=""):
        super().__init__(msg or f"failure of type {failure_type} exhausted retries at {where}")
        self.failure_type = failure_type
        self.where = where


class SearchBudgetExceeded(RegpackError):
    pass


class TooFewRuns(RegpackError):
    pass
