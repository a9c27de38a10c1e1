"""Exception types shared across the package, its one range check, its one
check for arrays of numbers and its one test for integer values."""

import numbers

import numpy as np


class NodefuseError(Exception):
    pass


class ContractError(NodefuseError):
    """A caller-facing precondition was violated, a shape or a value range
    among them; `field`, when set, names the argument at fault."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


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


def check_range(name: str, value, lo, hi, *, integer: bool = False,
                lo_open: bool = False, hi_open: bool = True):
    """Raise a ContractError naming `name` unless `value` is a real number (an
    integral one if `integer`), not a bool, between `lo` and `hi`; an end is
    closed unless its `*_open` flag is set. NaN fails every comparison and an
    open infinite end rejects that infinity; numpy scalars are numbers.Real."""
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        return
    interval = f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    raise ContractError(f"{name} must be {'an integer' if integer else 'a number'} "
                        f"in {interval}, got {value!r}", field=name)


def number_array(name: str, value, ndim: int) -> np.ndarray:
    """`value` as an `ndim`-D array of bools, integers or floats, else a
    ContractError naming `name`, the array's shape and its dtype."""
    try:
        a = np.asarray(value)
    except ValueError as exc:       # a ragged sequence
        raise ContractError(f"{name}: {exc}") from exc
    if a.ndim != ndim or a.dtype.kind not in "biuf":
        raise ContractError(f"{name} must be a {ndim}-D array of numbers, got shape "
                            f"{a.shape} and dtype {a.dtype}")
    return a


def non_integers(a: np.ndarray) -> np.ndarray:
    """The mask of the entries of `a` that are not integer values an int64
    holds; only a float array can hold any. Each caller raises its own error."""
    if a.dtype.kind != "f":
        return np.zeros(a.shape, dtype=bool)
    return ~((a == np.trunc(a)) & (np.abs(a) < 2.0 ** 63))
