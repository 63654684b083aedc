"""Shared exception types with dedicated CLI exit codes."""


class BudgetExceeded(RuntimeError):
    """State or action space larger than the caller-approved budget (exit code 3)."""


class CausalityViolation(RuntimeError):
    """An action tried to spend more energy than the battery holds."""


class ConfigError(ValueError):
    """Config validation failed; .items holds the itemized report (exit code 2)."""

    def __init__(self, items):
        self.items = list(items)
        super().__init__("; ".join(self.items))
