"""Exception types shared across the package."""


class NodefuseError(Exception):
    pass


class ShapeError(NodefuseError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(NodefuseError):
    """Input value outside the mathematical domain of the operation."""


class ContractError(NodefuseError):
    """A caller-facing precondition was violated."""


class CheckpointError(ContractError):
    """A checkpoint file is missing, unreadable, or does not fit the dataset."""


class LoadError(NodefuseError):
    """A dataset directory is missing required files."""


class FormatError(NodefuseError):
    """A dataset file exists but its contents are malformed."""


class SplitError(NodefuseError):
    """Could not produce a train/val/test split satisfying class coverage."""


class TrainingDiverged(NodefuseError):
    """A non-finite loss was produced during training."""

    def __init__(self, epoch: int, phase: str):
        self.epoch = epoch
        self.phase = phase
        super().__init__(f"non-finite loss at epoch {epoch}, phase {phase!r}")
