"""Exception hierarchy for the factorspec pipeline."""


class FactorSpecError(Exception):
    """Base class for all factorspec errors."""


class WindowOutOfRange(FactorSpecError):
    pass


class DimensionMismatch(FactorSpecError):
    pass


class DegenerateRow(FactorSpecError):
    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"row {row} is flat: its range is at most SIGMA_FLOOR")


class CsvParseError(FactorSpecError):
    def __init__(self, row: int, col: int, message: str = ""):
        self.row = row
        self.col = col
        super().__init__(message or f"unparseable value at row {row}, column {col}")


class InvalidFactorCount(FactorSpecError):
    pass


class EmptyBins(FactorSpecError):
    pass


class ModelDensityError(FactorSpecError):
    """The model density at (b, c) could not be built: its support is not
    one interval, or its mass is not 1."""


class InvalidCoefficient(FactorSpecError):
    pass


class ScheduleOutOfRange(FactorSpecError):
    pass


class GridExhausted(FactorSpecError):
    pass


class NoWindowScored(FactorSpecError):
    """A run scored none of its windows."""


class IndexMismatch(FactorSpecError):
    pass


class ConfigError(FactorSpecError):
    pass
