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
        super().__init__(message or f"row {row} has (near-)zero variance")


class CsvParseError(FactorSpecError):
    def __init__(self, row: int, col: int, message: str = ""):
        self.row = row
        self.col = col
        super().__init__(message or f"unparseable value at row {row}, column {col}")


class InvalidFactorCount(FactorSpecError):
    pass


class EmptyBins(FactorSpecError):
    pass


class NoPhysicalRoot(FactorSpecError):
    pass


class InvalidCoefficient(FactorSpecError):
    pass


class ScheduleOutOfRange(FactorSpecError):
    pass


class GridExhausted(FactorSpecError):
    pass


class IndexMismatch(FactorSpecError):
    pass


class ConfigError(FactorSpecError):
    pass
